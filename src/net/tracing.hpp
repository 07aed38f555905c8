// Request-tracing plane: end-to-end latency percentiles, virtual-time
// stage attribution, and sampled per-request waterfall spans.
//
// A LatencyTracer attaches to a Simulator like the sampler/profiler/flow
// sinks do (Simulator::set_latency_tracer). While attached, every
// top-level send() opens a TraceContext that rides the EngineEvent /
// ShardEvent PODs hop by hop: a send issued *inside* a delivery inherits
// the delivering packet's trace with hop+1, and a delivery whose handler
// does not continue the trace is the terminal hop — the tracer records
// end-to-end virtual latency (now - origin) into the terminal protocol's
// LatencyRecorder there. Worker shards record into private lanes merged at
// run end; because merging is a commutative bucket add, serial and sharded
// runs produce bit-identical percentiles for the same workload
// (tests/test_shard.cpp).
//
// Stage attribution: the simulator stamps the two virtual-time components
// of every hop at send time — the configured link latency and the
// non-link wait (serialization + extra delay + fault jitter, i.e.
// fired − scheduled minus the link flight time) — into the tracer's
// stage recorders. The wall-clock crypto/wire stages live on the global
// obs::stage_recorder registry (systems/channel.cpp, common/wire.hpp)
// and are switched on/off alongside the tracer by the benches.
//
// Waterfall sampling: every `waterfall_period`-th trace (a power of two;
// matched on the trace sequence number, never wall clock) is flagged via
// kTraceWaterfallBit, and each of its hops appends a span to a bounded
// buffer exportable as Chrome trace "X" events on the virtual timeline —
// one row (tid) per hop index, so a request reads as a waterfall.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/engine.hpp"
#include "obs/json.hpp"
#include "obs/latency.hpp"

namespace dcpl::net {

class LatencyTracer {
 public:
  /// Protocol ids at or above this cap share the last recorder (the
  /// workloads intern a handful of labels; 32 is headroom, not a limit
  /// any bench approaches).
  static constexpr std::size_t kMaxProtocols = 32;

  /// One hop of a waterfall-sampled request.
  struct WaterfallSpan {
    std::uint64_t trace_id = 0;
    std::uint32_t hop = 0;
    ProtocolId protocol = 0;
    Time sched_us = 0;  ///< virtual time the hop was scheduled (send)
    Time fire_us = 0;   ///< virtual time the hop fired (delivery)
  };

  /// `waterfall_period` is rounded up to a power of two (0 disables
  /// waterfall capture); at most `waterfall_capacity` spans are kept.
  explicit LatencyTracer(std::uint64_t waterfall_period = 512,
                         std::size_t waterfall_capacity = 8192);

  // ---- Hot path (called by the simulator) ----

  /// End-to-end recorder for the terminal hop's protocol.
  obs::LatencyRecorder& e2e(ProtocolId p) {
    return e2e_[p < kMaxProtocols ? p : kMaxProtocols - 1];
  }
  /// Virtual-time stage recorders, stamped once per hop at send time.
  obs::LatencyRecorder& stage_link() { return link_; }
  obs::LatencyRecorder& stage_queue_wait() { return queue_wait_; }

  /// Whether the trace with this sequence number is waterfall-sampled.
  bool waterfall_trace(std::uint64_t trace_seq) const {
    return waterfall_mask_ != 0 && (trace_seq & waterfall_mask_) == 1;
  }

  /// Appends one hop span (bounded; drops silently when full). Thread-safe.
  void add_span(const WaterfallSpan& span);

  // ---- Export ----

  std::uint64_t waterfall_period() const {
    return waterfall_mask_ == 0 ? 0 : waterfall_mask_ + 1;
  }
  std::size_t span_count() const;
  std::size_t spans_dropped() const;
  std::vector<WaterfallSpan> spans() const;

  const obs::LatencyRecorder& e2e(ProtocolId p) const {
    return e2e_[p < kMaxProtocols ? p : kMaxProtocols - 1];
  }
  const obs::LatencyRecorder& stage_link() const { return link_; }
  const obs::LatencyRecorder& stage_queue_wait() const { return queue_wait_; }

  /// Clears recorders and the span buffer (benches reuse one tracer
  /// across sweep points).
  void reset();

  /// Folds one shard's private recorder lane into this tracer. Merging is
  /// a commutative bucket add, so lane-then-merge yields bit-identical
  /// percentiles to recording directly (what the main shard does).
  void merge_lane(const struct LatencyLane& lane);

  /// Chrome trace "X" spans on the virtual timeline: pid 1, tid = hop
  /// index, ts/dur in virtual microseconds, name = protocol label from
  /// `protocol_names` (Simulator::protocol_names()).
  void write_chrome_trace(obs::JsonWriter& w,
                          const std::vector<std::string>& protocol_names) const;
  bool write_chrome_trace_file(const std::string& path,
                               const std::vector<std::string>& names) const;

 private:
  std::uint64_t waterfall_mask_;
  std::size_t waterfall_capacity_;

  obs::LatencyRecorder e2e_[kMaxProtocols];
  obs::LatencyRecorder link_;
  obs::LatencyRecorder queue_wait_;

  mutable std::mutex spans_mu_;
  std::vector<WaterfallSpan> spans_;
  std::size_t spans_dropped_ = 0;
};

/// Per-shard private recorder set. Shard workers record into their own
/// lane — no cross-core cache-line sharing on the hot path — and the
/// simulator merges every lane into the attached tracer when the sharded
/// run finishes.
struct LatencyLane {
  obs::LatencyRecorder e2e[LatencyTracer::kMaxProtocols];
  obs::LatencyRecorder link;
  obs::LatencyRecorder queue_wait;
};

}  // namespace dcpl::net
