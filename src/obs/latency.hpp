// Log-bucketed latency recording for the request-tracing plane.
//
// LatencyRecorder is an HDR-style fixed-memory histogram: values land in
// log2 octaves subdivided into 2^kSubBits linear sub-buckets, so every
// recorded value is reproduced by quantile() with relative error at most
// 2^-kSubBits (12.5% with the default 3 sub-bits) while the whole recorder
// stays a flat ~4 KB array of atomics. It is the one histogram type behind
// every percentile: the tracing plane's recorders, the stage recorders,
// and every obs::Registry histogram (the simulator's delivery_latency_us
// included). It needs no bucket edges chosen up front (it covers the full
// uint64 range), is wait-free to record into from any thread (two relaxed
// fetch_adds: the bucket and the exact sum), and merges lock-free. Because
// recording is a commutative integer add, the same multiset of samples
// yields bit-identical bucket counts and sums no matter how many threads
// recorded them or in what order — which is what lets sharded runs report
// bit-identical percentiles to serial runs without any barrier-side
// merging.
//
// The Stage registry below gives the tracing plane named per-stage
// recorders (crypto seal/open, wire framing) that hot-path code can stamp
// through the RAII StageTimer with a single branch when recording is off.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace dcpl::obs {

/// Compact per-request context that travels with a payload through the
/// simulator: which trace it belongs to, how many hops it has taken, and
/// the virtual time the originating send happened. trace_id 0 means "no
/// active trace"; bit 63 flags the trace as waterfall-sampled.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t origin_us = 0;
  std::uint32_t hop = 0;

  bool active() const { return trace_id != 0; }
};

/// Bit set in trace_id when the trace was chosen for per-request
/// waterfall span capture.
inline constexpr std::uint64_t kTraceWaterfallBit = std::uint64_t{1} << 63;

class LatencyRecorder {
 public:
  /// Linear sub-buckets per octave; 3 bits -> 8 sub-buckets -> <=12.5%
  /// relative error on any quantile.
  static constexpr std::size_t kSubBits = 3;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  /// Values below kSubBuckets get one exact bucket each; every octave at
  /// or above 2^kSubBits contributes kSubBuckets more.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;

  LatencyRecorder() { reset(); }

  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  /// Wait-free, two relaxed fetch_adds on the hot path (the bucket and the
  /// exact sum; the total count is derived from the buckets at read time,
  /// and the min/max CAS loops degenerate to a load+compare once warm);
  /// safe from any thread concurrently with other record() and merge()
  /// calls.
  void record(std::uint64_t v) {
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    raise_max(v);
    lower_min(v);
  }

  /// Lock-free merge: folds `other`'s buckets into this recorder with
  /// per-bucket relaxed adds. Concurrent record() into either side is
  /// safe; samples are never lost or double-counted.
  void merge(const LatencyRecorder& other) {
    bool any = false;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      const std::uint64_t c = other.counts_[i].load(std::memory_order_relaxed);
      if (c != 0) {
        counts_[i].fetch_add(c, std::memory_order_relaxed);
        any = true;
      }
    }
    if (any) {
      sum_.fetch_add(other.sum(), std::memory_order_relaxed);
      raise_max(other.max_.load(std::memory_order_relaxed));
      lower_min(other.min_.load(std::memory_order_relaxed));
    }
  }

  /// Total samples recorded (a bucket walk, not a hot-path counter).
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t min() const {
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == ~std::uint64_t{0} ? 0 : m;
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Exact sum of every recorded value (wraps modulo 2^64).
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Value at quantile q in [0,1]: the upper edge of the bucket holding
  /// the rank-ceil(q*count) sample, clamped into [min(), max()] so exact
  /// extremes stay exact. Deterministic given the bucket counts.
  std::uint64_t quantile(double q) const;

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  /// Raw bucket count (tests + serialization).
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const unsigned exp = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (exp - kSubBits)) & (kSubBuckets - 1);
    return (exp - kSubBits + 1) * kSubBuckets + static_cast<std::size_t>(sub);
  }

  /// Largest value mapping to bucket `i` (the representative quantile()
  /// reports before clamping). Unsigned wrap at i == kBucketCount-1 yields
  /// UINT64_MAX, which is exactly that bucket's upper edge.
  static constexpr std::uint64_t bucket_upper(std::size_t i) {
    if (i < kSubBuckets) return i;
    const std::size_t exp = i / kSubBuckets + kSubBits - 1;
    const std::uint64_t sub = i % kSubBuckets;
    return (std::uint64_t{1} << exp) + ((sub + 1) << (exp - kSubBits)) - 1;
  }

 private:
  void raise_max(std::uint64_t v) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void lower_min(std::uint64_t v) {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_;
  std::atomic<std::uint64_t> sum_;
  std::atomic<std::uint64_t> min_;
  std::atomic<std::uint64_t> max_;
};

/// Per-hop latency stages the tracing plane attributes. kQueueWait and
/// kLink are virtual-time stages stamped by the simulator (from the send
/// plan); kCryptoSeal/kCryptoOpen/kWireFrame are wall-clock nanosecond
/// stages stamped by the crypto channel and wire framer through the
/// global recorders below.
enum class Stage : std::uint8_t {
  kQueueWait = 0,
  kLink,
  kCryptoSeal,
  kCryptoOpen,
  kWireFrame,
};
inline constexpr std::size_t kStageCount = 5;

const char* stage_name(Stage s);

/// Global wall-clock stage recording switch. Off by default so the crypto
/// and wire hot paths pay one relaxed load + branch when tracing is
/// detached.
bool stage_recording_enabled();
void set_stage_recording(bool enabled);

/// Process-wide recorder for one stage (crypto/wire stages record here;
/// the simulator-side virtual stages live on the attached LatencyTracer).
LatencyRecorder& stage_recorder(Stage s);
void reset_stage_recorders();

/// RAII wall-clock stage timer: stamps elapsed nanoseconds into the
/// stage's global recorder at scope exit when recording is enabled.
class StageTimer {
 public:
  explicit StageTimer(Stage s)
      : stage_(s), enabled_(stage_recording_enabled()) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (!enabled_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    stage_recorder(stage_).record(static_cast<std::uint64_t>(ns));
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dcpl::obs
