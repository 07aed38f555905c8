// Out-of-program instrumentation for the traced run.
//
// Every layer is timed from outside, around calls into its public functions:
// a TimedNode is registered in place of each party and forwards on_packet,
// a TimingSink sits between the observation logs and the FlowLedger, and the
// benchmark's own calls into the client APIs open Scopes. Each Scope charges
// its duration minus the time of the Scopes nested inside it (its self time)
// to one Layer, so the self times of all layers add up to the time spent
// inside top-level Scopes. Spans of sampled requests are kept in memory and
// written out as JSON lines when the run ends.
//
// The untraced run uses none of this: parties are registered directly and
// the ledger is the log's sink.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/observation.hpp"
#include "net/sim.hpp"
#include "obs/flow.hpp"
#include "obs/latency.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Time charged to one layer: calls, summed self time, and the distribution
/// of per-call durations (inclusive of nested layers).
struct Layer {
  explicit Layer(std::string n) : name(std::move(n)) {}
  std::string name;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> self_ns{0};
  dcpl::obs::LatencyRecorder duration;
};

/// Request id 0 means "not attributed to a sampled request".
inline constexpr std::uint64_t kNoRequest = 0;

class Probe {
 public:
  /// Keeps spans of every `sample_period`-th request, at most `capacity`.
  Probe(std::uint64_t sample_period, std::size_t capacity)
      : sample_period_(sample_period), capacity_(capacity) {}

  Layer& layer(const std::string& name) {
    for (auto& l : layers_) {
      if (l->name == name) return *l;
    }
    layers_.push_back(std::make_unique<Layer>(name));
    return *layers_.back();
  }
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  /// Request ids are user index + 1, so 0 stays "none".
  bool sampled(std::uint64_t request) const {
    return request != kNoRequest && (request - 1) % sample_period_ == 0;
  }

  /// Summed duration of top-level Scopes that the benchmark opened inside
  /// its own at() callbacks (kickoffs); library callbacks are not covered.
  std::uint64_t callback_ns() const { return callback_ns_.load(); }

  struct SpanRecord {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  /// The request of the innermost open Scope on this thread.
  static std::uint64_t current_request() {
    const auto& st = stack();
    return st.empty() ? kNoRequest : st.back().request;
  }

  std::size_t span_count() const { return spans_.size(); }
  std::uint64_t spans_dropped() const { return spans_dropped_.load(); }

  bool write_spans(const std::string& path, std::uint64_t origin_ns) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<unsigned long long>(s.start_ns - origin_ns),
                   static_cast<unsigned long long>(s.end_ns - origin_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  friend class Scope;

  struct Frame {
    std::uint64_t child_ns = 0;
    std::uint64_t span_id = 0;
    std::uint64_t request = kNoRequest;
  };

  void record(const SpanRecord& s) {
    std::lock_guard<std::mutex> lock(spans_mu_);
    if (spans_.size() >= capacity_) {
      spans_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    spans_.push_back(s);
  }

  // Nesting is per thread: a sharded run executes handlers on its workers.
  static std::vector<Frame>& stack() {
    static thread_local std::vector<Frame> frames;
    return frames;
  }

  std::uint64_t sample_period_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<Layer>> layers_;  // fixed before run()
  std::atomic<std::uint64_t> callback_ns_{0};
  std::atomic<std::uint64_t> next_span_{1};
  std::atomic<std::uint64_t> spans_dropped_{0};
  std::mutex spans_mu_;
  std::vector<SpanRecord> spans_;
};

/// Times one call into a layer. A null probe makes the scope free, which is
/// how the benchmark's own nodes run untraced.
class Scope {
 public:
  Scope(Probe* probe, Layer* layer, std::uint64_t request = kNoRequest,
        bool from_callback = false)
      : probe_(probe), layer_(layer), from_callback_(from_callback) {
    if (probe_ == nullptr) return;
    auto& st = Probe::stack();
    // A scope without its own request inherits the enclosing one, so spans
    // of one request share its id down the call tree.
    if (request == kNoRequest && !st.empty()) request = st.back().request;
    Probe::Frame f;
    f.request = request;
    if (probe_->sampled(request)) f.span_id = probe_->next_span_.fetch_add(1);
    st.push_back(f);
    start_ = now_ns();
  }

  ~Scope() {
    if (probe_ == nullptr) return;
    const std::uint64_t end = now_ns();
    const std::uint64_t dur = end - start_;
    auto& st = Probe::stack();
    const Probe::Frame f = st.back();
    st.pop_back();
    layer_->calls.fetch_add(1, std::memory_order_relaxed);
    layer_->self_ns.fetch_add(dur > f.child_ns ? dur - f.child_ns : 0,
                              std::memory_order_relaxed);
    layer_->duration.record(dur);
    std::uint64_t parent = 0;
    if (st.empty()) {
      if (from_callback_) {
        probe_->callback_ns_.fetch_add(dur, std::memory_order_relaxed);
      }
    } else {
      st.back().child_ns += dur;
      parent = st.back().span_id;
    }
    if (f.span_id != 0) {
      probe_->record(Probe::SpanRecord{f.span_id, parent, f.request,
                                       layer_->name.c_str(), start_, end});
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Probe* probe_;
  Layer* layer_;
  bool from_callback_;
  std::uint64_t start_ = 0;
};

/// Registered in place of a real party: forwards every delivery and charges
/// it to the party's role. `request_of` maps a packet to its request id.
class TimedNode final : public dcpl::net::Node {
 public:
  using RequestOf = std::function<std::uint64_t(const dcpl::net::Packet&)>;

  TimedNode(dcpl::net::Node& inner, Probe& probe, Layer& role,
            RequestOf request_of)
      : Node(inner.address()),
        inner_(&inner),
        probe_(&probe),
        role_(&role),
        request_of_(std::move(request_of)) {}

  void on_packet(const dcpl::net::Packet& p,
                 dcpl::net::Simulator& sim) override {
    Scope s(probe_, role_, request_of_(p));
    inner_->on_packet(p, sim);
  }

 private:
  dcpl::net::Node* inner_;
  Probe* probe_;
  Layer* role_;
  RequestOf request_of_;
};

/// Sits between the observation log and the FlowLedger and times every
/// forwarded record. It also follows linkage contexts of sampled requests
/// (a party's link(a, b) carries a's request to b), which is how spans at
/// infrastructure parties, which only see ciphertext, learn their request.
class TimingSink final : public dcpl::core::ObservationSink {
 public:
  TimingSink(dcpl::obs::FlowLedger& ledger, Probe& probe)
      : ledger_(&ledger), probe_(&probe), layer_(&probe.layer("flow")) {}

  void on_observe(const dcpl::core::Observation& o) override {
    note_context(o.context);
    Scope s(probe_, layer_);
    ledger_->on_observe(o);
  }
  void on_link(const dcpl::core::ContextLink& l) override {
    auto it = requests_.find(l.a);
    if (it != requests_.end()) requests_.emplace(l.b, it->second);
    Scope s(probe_, layer_);
    ledger_->on_link(l);
  }
  void on_compromise(const dcpl::core::Party& party) override {
    Scope s(probe_, layer_);
    ledger_->on_compromise(party);
  }

  /// The sampled request a linkage context belongs to, or kNoRequest.
  std::uint64_t request_of(std::uint64_t context) const {
    auto it = requests_.find(context);
    return it == requests_.end() ? kNoRequest : it->second;
  }

 private:
  // Contexts first observed inside a sampled request's scope belong to it.
  void note_context(std::uint64_t context) {
    const std::uint64_t request = Probe::current_request();
    if (probe_->sampled(request)) requests_.emplace(context, request);
  }

  dcpl::obs::FlowLedger* ledger_;
  Probe* probe_;
  Layer* layer_;
  std::unordered_map<std::uint64_t, std::uint64_t> requests_;
};

}  // namespace perfbench
