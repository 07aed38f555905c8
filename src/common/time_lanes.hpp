// Deterministic merge of per-producer, time-ordered append lanes, for what
// a threaded simulator run records on several threads at once (delivery
// records, FlowLedger ops). Each producer appends to its own lane, which is
// time-nondecreasing because the producer's clock never runs backwards.
// commit_before hands on the items before a cutoff in (time, lane, append
// order), a total order independent of thread interleaving. What stays
// carries time >= cutoff, so successive commits with nondecreasing cutoffs
// concatenate into exactly the sequence one final commit would produce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dcpl {

/// `T` carries its timestamp in a `time` member convertible to uint64_t.
template <typename T>
class TimeLanes {
 public:
  /// Drops every lane and opens `lanes` empty ones.
  void reset(std::size_t lanes) { lanes_ = std::vector<Lane>(lanes); }
  std::size_t lanes() const { return lanes_.size(); }

  /// Appends to `lane`. While producers run, each appends only to its own
  /// lane; nothing appends from inside commit_before's `fn`.
  void push(std::size_t lane, T item) {
    lanes_[lane].items.push_back(std::move(item));
  }

  /// Hands `fn` every item with time < cutoff in (time, lane, append order),
  /// then erases them. A k-way scan over the lane heads: no allocation,
  /// O(lanes) per item. Only call while no producer appends.
  template <typename Fn>
  void commit_before(std::uint64_t cutoff, Fn&& fn) {
    for (;;) {
      Lane* best = nullptr;
      std::uint64_t best_time = cutoff;
      for (Lane& lane : lanes_) {
        if (lane.next == lane.items.size()) continue;
        const std::uint64_t t = lane.items[lane.next].time;
        if (t < best_time) {  // strict: ties go to the lower lane
          best = &lane;
          best_time = t;
        }
      }
      if (best == nullptr) break;
      fn(best->items[best->next++]);
    }
    for (Lane& lane : lanes_) {
      lane.items.erase(lane.items.begin(),
                       lane.items.begin() +
                           static_cast<std::ptrdiff_t>(lane.next));
      lane.next = 0;
    }
  }

 private:
  /// One producer's lane, on a cache line of its own, so producers that
  /// append concurrently never write the same line.
  struct alignas(64) Lane {
    std::vector<T> items;
    std::size_t next = 0;  // commit_before's scan position
  };
  std::vector<Lane> lanes_;
};

}  // namespace dcpl
