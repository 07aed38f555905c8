// Bounded MPSC mailbox for cross-shard event exchange.
//
// The sharded engine (Simulator::set_shards) runs one worker thread per
// topology shard; a delivery whose destination lives on another shard is
// serialized into a ShardEvent and pushed into the destination shard's
// mailbox. Determinism does not come from the mailbox — producers race and
// arrival order is arbitrary — it comes from the merge rule applied when the
// owner drains at a window barrier: the drained batch is sorted by
// (time, src_shard, src_seq), a total order that every interleaving of
// producers yields identically, then enqueued into the owner's calendar
// queue in that order.
//
// The mailbox is bounded (backpressure, not unbounded memory) and
// non-blocking: try_push returns false when full and moves nothing, so a
// producer can make progress elsewhere (the shard loop drains its *own*
// inbox into a staging buffer and yields) instead of deadlocking a barrier.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "net/engine.hpp"

namespace dcpl::net {

/// One cross-shard delivery in flight between two shard calendar queues:
/// the delivery event as the destination shard enqueues it (that shard
/// assigns its seq and payload handle; trace fields ride along verbatim),
/// plus the source half of the merge key. (event.time, src_shard, src_seq)
/// is the deterministic merge key: src_seq is a per-source-shard transfer
/// counter, so the triple is unique and its order is independent of thread
/// interleaving. Payload bytes travel by value — shards own disjoint
/// payload pools, so the buffer changes pools here.
struct ShardEvent {
  EngineEvent event;
  std::uint32_t src_shard = 0;
  std::uint64_t src_seq = 0;
  Bytes payload;
};

/// Strict merge order for drained batches: (time, src_shard, src_seq).
inline bool merges_before(const ShardEvent& a, const ShardEvent& b) {
  if (a.event.time != b.event.time) return a.event.time < b.event.time;
  if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
  return a.src_seq < b.src_seq;
}

/// Bounded multi-producer/single-consumer queue. A coarse mutex is the
/// right tool here: pushes happen once per *cross-shard* delivery (the
/// partitioner pins chatty neighbors together precisely to make these
/// rare), and the consumer drains whole batches at window barriers.
class ShardMailbox {
 public:
  explicit ShardMailbox(std::size_t capacity) : capacity_(capacity) {}

  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  /// Appends `ev` if there is room and the mailbox is open. Returns false —
  /// and leaves `ev` untouched, so the caller may retry — when full or
  /// closed. Never blocks.
  bool try_push(ShardEvent&& ev);

  /// Moves every queued event into `out` (appending; relative queue order
  /// is preserved, though producers racing means that order carries no
  /// meaning until sorted with merges_before). Returns the number drained.
  std::size_t drain(std::vector<ShardEvent>& out);

  /// Rejects all subsequent pushes. Already-queued events stay drainable —
  /// shutdown-while-nonempty must not lose payloads.
  void close();

  bool closed() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Lifetime counters (stress tests and the bench "shards" section).
  std::uint64_t accepted() const;
  std::uint64_t rejected_full() const;
  std::uint64_t rejected_closed() const;

 private:
  mutable std::mutex mu_;
  std::deque<ShardEvent> q_;
  std::size_t capacity_;
  bool closed_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t rejected_closed_ = 0;
};

}  // namespace dcpl::net
