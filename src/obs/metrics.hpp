// Metrics registry: labeled counters, gauges, and log-bucketed histograms
// (obs::LatencyRecorder) with quantile summaries. One global registry (the
// default sink for the substrate's instrumentation) plus scoped child
// registries so a bench or a subsystem can namespace its own metrics;
// snapshots serialize the whole subtree and reset() zeroes it without
// invalidating handles.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// lifetime of the registry, so hot paths can cache the reference and pay a
// single add on each event. Counter/Gauge/histogram mutation is atomic
// (relaxed — they are statistics, not synchronization), and metric
// *creation* takes a registry mutex, so shard worker threads may resolve
// and bump shared metrics concurrently. The sharded simulator still
// records delivery latency per shard and merge()s it at each fold, so the
// hot path never shares a cache line across threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/latency.hpp"

namespace dcpl::obs {

/// Metric labels, e.g. {{"link", "a->b"}}. Kept sorted for canonical keys.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count (events, packets, bytes, op counts).
/// Increments are atomic with relaxed ordering: concurrent shard threads
/// never lose counts, but a counter read mid-run is only a statistical
/// snapshot, not a synchronization point.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, wallet size, active circuits). Also
/// tracks the high-watermark since construction/reset(), so scale benches
/// can report peak queue depth without sampling every set(). Mutation is
/// atomic (relaxed); the peak is maintained with a CAS-max loop so
/// concurrent writers cannot regress it.
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    raise_peak(v);
  }
  void add(double d) {
    const double now = value_.fetch_add(d, std::memory_order_relaxed) + d;
    raise_peak(now);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  double peak() const { return peak_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_peak(double v) {
    double cur = peak_.load(std::memory_order_relaxed);
    while (v > cur && !peak_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> value_{0};
  std::atomic<double> peak_{0};
};

/// One metric in a snapshot, flattened with its scope path and labels.
struct SnapshotEntry {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind;
  std::string name;  // scope-qualified, e.g. "sim.packets_delivered"
  Labels labels;
  double value = 0;              // counter/gauge value; histogram count
  // Histogram-only summary fields.
  std::uint64_t sum = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
};

/// Flattened view of a registry subtree at one instant.
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* find(const std::string& name,
                            const Labels& labels = {}) const;
  void write_json(JsonWriter& w) const;
};

/// Metric namespace. Metrics are identified by (name, labels); requesting
/// the same pair twice returns the same object. scope() children are owned
/// by the parent and share its lifetime. Creation/lookup and snapshotting
/// lock a per-registry mutex, so shard worker threads may lazily resolve
/// metrics; returned references stay valid without the lock.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  LatencyRecorder& histogram(const std::string& name, Labels labels = {});

  /// Child registry whose metrics appear in snapshots as "name.metric".
  Registry& scope(const std::string& name);

  /// Zeroes every metric in this registry and all children (handles stay
  /// valid; nothing is deallocated).
  void reset();

  Snapshot snapshot() const;

  /// Serializes snapshot() as a JSON object keyed by metric identity.
  void write_json(JsonWriter& w) const;

  /// Appends this subtree in Prometheus text-exposition format (one
  /// `# TYPE` line per family, counters/gauges as-is, each gauge also as a
  /// `<name>_peak` high-watermark companion, histograms as one cumulative
  /// `_bucket{le=...}` line per occupied recorder bucket, edged at
  /// LatencyRecorder::bucket_upper(), then `+Inf`, `_sum` and `_count`).
  /// Metric names are `name_prefix` + the sanitized scope-qualified name.
  void write_prometheus(std::string& out, const std::string& name_prefix) const;

  /// Unique among all registries the process builds, so a counter binding
  /// cached against a destroyed registry never matches one built later at
  /// the same address.
  std::uint64_t serial() const { return serial_; }

 private:
  using Key = std::pair<std::string, Labels>;

  static std::uint64_t next_serial();
  void snapshot_into(const std::string& prefix, Snapshot& out) const;
  void prometheus_into(const std::string& prefix, std::string& out) const;

  const std::uint64_t serial_ = next_serial();
  mutable std::mutex mu_;  // guards map mutation/iteration, not the metrics
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<LatencyRecorder>> histograms_;
  std::map<std::string, std::unique_ptr<Registry>> children_;
};

/// Process-wide registry: the default sink for substrate instrumentation
/// (simulator, crypto op counts) so call sites need no plumbing.
Registry& global_registry();

/// Renders `registry` (recursively) in Prometheus text-exposition format,
/// ready to serve from a /metrics endpoint or drop next to a bench report.
/// Every metric name gets the `prefix` + "_" prelude (default "dcpl") and
/// scope dots become underscores, e.g. sim.packets_delivered →
/// dcpl_sim_packets_delivered.
std::string metrics_to_prometheus(const Registry& registry,
                                  const std::string& prefix = "dcpl");

/// The process-wide *active* op-counter registry: the sink every OpCounter
/// below resolves against. Defaults to global_registry(); a bench or test
/// that wants crypto/system op counts namespaced into its own registry
/// swaps it with set_op_registry() and OpCounters rebind on their next
/// increment — no stale static references.
Registry& op_registry();

/// Redirects op_registry() to `registry` (nullptr restores the global
/// default). Returns the previously active registry so callers can scope
/// the swap. The new registry must outlive every OpCounter increment made
/// while it is active.
Registry* set_op_registry(Registry* registry);

/// Resolves an op counter in the *currently active* op registry. Prefer
/// caching an OpCounter (below) on hot paths; this free function is for
/// one-shot lookups and tests.
inline Counter& op_counter(const std::string& scope_name,
                           const std::string& name) {
  return op_registry().scope(scope_name).counter(name);
}

/// Hot-path op counter that follows registry swaps. Call sites keep one in
/// a function-local static:
///   static obs::OpCounter ops("crypto", "x25519_ops");
///   ops.inc();
/// Steady state is one atomic pointer load + compare + one relaxed add.
/// When set_op_registry() changes the active registry the next inc()
/// re-resolves — unlike the old `static Counter&` pattern that bound once
/// to whichever registry was live at first call and silently dropped every
/// count after a swap. Thread-safe: rebinds publish an immutable
/// (registry, counter) pair, so concurrent shard threads never observe a
/// counter paired with the wrong registry. in() binds the same way to a
/// registry the caller hands it, e.g. `ops.in(sim.metrics_registry())`.
/// Bindings are keyed by Registry::serial(), never by address.
class OpCounter {
 public:
  OpCounter(std::string scope, std::string name)
      : scope_(std::move(scope)), name_(std::move(name)) {}

  void inc(std::uint64_t n = 1) { in(op_registry()).inc(n); }

  /// The counter for this (scope, name) inside `registry`, re-resolved iff
  /// `registry` differs from the last call's.
  Counter& in(Registry& registry) {
    const Binding* b = binding_.load(std::memory_order_acquire);
    if (b == nullptr || b->serial != registry.serial()) b = rebind(registry);
    return *b->counter;
  }

 private:
  struct Binding {
    std::uint64_t serial;  // the registry's serial()
    Counter* counter;
  };

  const Binding* rebind(Registry& cur) {
    std::lock_guard<std::mutex> lock(rebind_mu_);
    const Binding* b = binding_.load(std::memory_order_acquire);
    if (b != nullptr && b->serial == cur.serial()) return b;
    retired_.push_back(std::make_unique<Binding>(
        Binding{cur.serial(), scope_.empty()
                                  ? &cur.counter(name_)
                                  : &cur.scope(scope_).counter(name_)}));
    binding_.store(retired_.back().get(), std::memory_order_release);
    return retired_.back().get();
  }

  std::string scope_, name_;
  std::atomic<const Binding*> binding_{nullptr};
  std::mutex rebind_mu_;
  // Old bindings stay alive (readers may still hold them mid-inc); swaps
  // are rare test/bench boundary events, so this never grows in steady
  // state.
  std::vector<std::unique_ptr<Binding>> retired_;
};

}  // namespace dcpl::obs
