// Shared pieces of the benchmark's workloads: options, the seeded input
// generator, and the Outcome every workload fills in (output checks, host
// timings, and the per-layer metrics of a traced run).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/profile.hpp"
#include "net/sim.hpp"
#include "obs/latency.hpp"
#include "probe.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t users = 0;
  bool trace = false;
  /// CLOCK_MONOTONIC ns at which the launcher started this process; set-up
  /// time counts from there. 0 = from main().
  std::uint64_t t0_ns = 0;
  std::string spans_path;
};

/// Traced runs keep the spans of every kSpanPeriod-th user's requests.
inline constexpr std::uint64_t kSpanPeriod = 64;
inline constexpr std::size_t kSpanCapacity = 1 << 18;

/// splitmix64: the benchmark's input generator. Inputs depend only on the
/// seed, never on the library's own RNGs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Run-level aggregates the output checks compare.
struct Aggregates {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t virtual_us = 0;
  std::uint64_t events = 0;
};

inline double rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

/// Sum of a stage recorder's samples, each taken at its bucket's midpoint.
inline double estimated_total_ns(const dcpl::obs::LatencyRecorder& r) {
  using R = dcpl::obs::LatencyRecorder;
  double total = 0;
  for (std::size_t i = 0; i < R::kBucketCount; ++i) {
    const std::uint64_t n = r.bucket(i);
    if (n == 0) continue;
    const double lo = i == 0 ? 0.0 : static_cast<double>(R::bucket_upper(i - 1)) + 1;
    const double hi = static_cast<double>(R::bucket_upper(i));
    total += static_cast<double>(n) * (lo + hi) / 2;
  }
  return total;
}

struct Outcome {
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t setup_ns = 0;
  std::uint64_t run_ns = 0;
  Aggregates got;
  dcpl::net::Simulator::ShardRunStats shard;
  std::map<std::string, double> layers;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }

  bool all_passed() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }

  /// Per-layer metrics of a traced run. The layer self times, the residual
  /// and the engine's own time (net.self_ns) add up to layers.total_ns:
  /// run() wall time serially, run() wall time x shards when sharded.
  void collect(const Probe& probe, const dcpl::net::EngineProfiler* profiler) {
    double non_net = 0;
    for (const auto& l : probe.layers()) {
      const double self = static_cast<double>(l->self_ns.load());
      if (l->name == "net.send") {
        layers["net.send_ns"] = self;
        continue;
      }
      non_net += self;
      if (l->name == "systems.issue") {
        layers["systems.issue_ns"] = self;
      } else if (l->name == "flow") {
        layers["flow.record_ns"] = self;
        layers["flow.events"] = static_cast<double>(l->calls.load());
      } else {
        layers[l->name + ".calls"] = static_cast<double>(l->calls.load());
        layers[l->name + ".self_ns"] = self;
        layers[l->name + ".p99_ns"] =
            static_cast<double>(l->duration.quantile(0.99));
      }
    }
    const double wall = static_cast<double>(run_ns);
    double total = wall, residual = 0, net_self = 0;
    if (shard.shards > 1) {
      // Thread time not spent busy or waiting at barriers is unattributed.
      double busy = 0, barrier = 0;
      for (auto v : shard.busy_ns) busy += static_cast<double>(v);
      for (auto v : shard.barrier_wait_ns) barrier += static_cast<double>(v);
      total = wall * shard.shards;
      residual = total - busy - barrier;
      net_self = busy - non_net;
      layers["shard.barrier_ns"] = barrier;
      add_shard_metrics();
    } else if (profiler != nullptr) {
      using K = dcpl::net::EngineEvent::Kind;
      const auto& del = profiler->kind(K::kDelivery);
      const auto& cb = profiler->kind(K::kCallback);
      layers["net.delivery_ns_per_event"] = del.est_ns_per_event();
      layers["net.callback_ns_per_event"] = cb.est_ns_per_event();
      // at() callbacks the library schedules itself (mix flushes, retry
      // timers) run outside every benchmark scope: the profiler's estimate
      // of all callback time minus the benchmark's own kickoffs.
      const double cb_total = cb.est_ns_per_event() * static_cast<double>(cb.events);
      residual = std::max(0.0, cb_total - static_cast<double>(probe.callback_ns()));
      net_self = wall - non_net - residual;
      if (net_self < 0) {
        residual += net_self;
        net_self = 0;
      }
    }
    layers["net.self_ns"] = net_self;
    layers["layers.total_ns"] = total;
    layers["layers.residual_ns"] = residual;
    layers["net.events"] = static_cast<double>(got.events);
    layers["trace.spans"] = static_cast<double>(probe.span_count());

    using dcpl::obs::Stage;
    for (auto [stage, name] : {std::pair{Stage::kCryptoSeal, "crypto.seal"},
                               std::pair{Stage::kCryptoOpen, "crypto.open"}}) {
      const auto& r = dcpl::obs::stage_recorder(stage);
      layers[std::string(name) + ".count"] = static_cast<double>(r.count());
      layers[std::string(name) + ".p50_ns"] = static_cast<double>(r.quantile(0.5));
      layers[std::string(name) + ".p99_ns"] = static_cast<double>(r.quantile(0.99));
      layers[std::string(name) + ".est_ns"] = estimated_total_ns(r);
    }
    const auto& frame = dcpl::obs::stage_recorder(Stage::kWireFrame);
    layers["wire.frame.count"] = static_cast<double>(frame.count());
    layers["wire.frame.est_ns"] = estimated_total_ns(frame);
  }

  void add_shard_metrics() {
    const std::size_t n = shard.events.size();
    double max_npe = 0, sum_npe = 0, busy = 0, barrier = 0, stalls = 0,
           cross = 0, local = 0, max_events = 0, sum_events = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const double ev = static_cast<double>(shard.events[s]);
      const double npe = ev > 0 ? static_cast<double>(shard.busy_ns[s]) / ev : 0;
      max_npe = std::max(max_npe, npe);
      sum_npe += npe;
      busy += static_cast<double>(shard.busy_ns[s]);
      barrier += static_cast<double>(shard.barrier_wait_ns[s]);
      stalls += static_cast<double>(shard.mailbox_full_stalls[s]);
      cross += static_cast<double>(shard.cross_sends[s]);
      local += static_cast<double>(shard.local_sends[s]);
      max_events = std::max(max_events, ev);
      sum_events += ev;
    }
    layers["shard.busy_ns_per_event.max"] = max_npe;
    layers["shard.busy_ns_per_event.mean"] = n ? sum_npe / static_cast<double>(n) : 0;
    layers["shard.barrier_wait_pct"] =
        busy + barrier > 0 ? 100 * barrier / (busy + barrier) : 0;
    layers["shard.mailbox_stalls"] = stalls;
    layers["shard.cross_sends_pct"] =
        cross + local > 0 ? 100 * cross / (cross + local) : 0;
    layers["shard.windows"] = static_cast<double>(shard.windows);
    layers["shard.imbalance"] =
        sum_events > 0 ? max_events * static_cast<double>(n) / sum_events : 0;
  }

  void write_spans(const Options& opt, const Probe* probe) {
    if (probe == nullptr || opt.spans_path.empty()) return;
    check("spans_written", probe->write_spans(opt.spans_path, opt.t0_ns));
  }
};

/// Set-up time: from the launcher's spawn (or main()) to just before run().
class SetupClock {
 public:
  explicit SetupClock(const Options& opt)
      : t0_(opt.t0_ns != 0 ? opt.t0_ns : now_ns()) {}
  void done(Outcome& out) const {
    out.setup_ns = now_ns() - t0_;
    out.layers["mem.rss_setup_mib"] = rss_kib() / 1024.0;
  }

 private:
  std::uint64_t t0_;
};

}  // namespace perfbench
