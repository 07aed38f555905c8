// Host-speed calibration: a fixed amount of work that calls no library code,
// so its time changes only with how fast the host runs at the moment. On a
// shared host that speed drifts by tens of percent over minutes; run.py
// times this calibration next to every iteration and reports host times
// scaled to a reference speed, so the drift cancels and a change to the
// library still shows in full.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "probe.hpp"
#include "workload.hpp"

namespace perfbench::calibrate {

/// A discrete-event loop: a binary-heap event queue, and per event one heap
/// buffer filed in a hash map, the memory pattern of the simulator's engine.
/// Returns a checksum of the events' times and sizes.
inline std::uint64_t engine_kernel(std::uint64_t steps) {
  constexpr std::uint32_t kQueued = 200'000;
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  SplitMix rng(2);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::vector<std::uint8_t>>> buffers;
  for (std::uint32_t i = 0; i < kQueued; ++i) queue.push({rng.below(1'000'000), i});
  std::uint64_t acc = 0;
  for (std::uint64_t step = 0; step < steps; ++step) {
    const auto [t, i] = queue.top();
    queue.pop();
    const std::size_t size = 256 + rng.below(1024);
    buffers.emplace(step, std::make_unique<std::vector<std::uint8_t>>(size));
    acc += t ^ size;
    queue.push({t + 1'000 + rng.below(20'000), i});
  }
  return acc;
}

/// Nanoseconds for a fixed run of the kernel, teardown included: about
/// 0.25 s on a current server core. `checksum` receives its result.
inline std::uint64_t time_ns(std::uint64_t& checksum) {
  const std::uint64_t t0 = now_ns();
  checksum = engine_kernel(180'000);
  return now_ns() - t0;
}

}  // namespace perfbench::calibrate
