#include "net/tracing.hpp"

#include <bit>

namespace dcpl::net {

LatencyTracer::LatencyTracer(std::uint64_t waterfall_period,
                             std::size_t waterfall_capacity)
    : waterfall_capacity_(waterfall_capacity) {
  if (waterfall_period == 0) {
    waterfall_mask_ = 0;
  } else {
    waterfall_mask_ = std::bit_ceil(waterfall_period) - 1;
  }
  spans_.reserve(waterfall_capacity_ < 1024 ? waterfall_capacity_ : 1024);
}

void LatencyTracer::add_span(const WaterfallSpan& span) {
  std::lock_guard<std::mutex> lock(spans_mu_);
  if (spans_.size() >= waterfall_capacity_) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(span);
}

std::size_t LatencyTracer::span_count() const {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return spans_.size();
}

std::size_t LatencyTracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return spans_dropped_;
}

std::vector<LatencyTracer::WaterfallSpan> LatencyTracer::spans() const {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return spans_;
}

void LatencyTracer::merge_lane(const LatencyLane& lane) {
  for (std::size_t i = 0; i < kMaxProtocols; ++i) e2e_[i].merge(lane.e2e[i]);
  link_.merge(lane.link);
  queue_wait_.merge(lane.queue_wait);
}

void LatencyTracer::reset() {
  for (auto& r : e2e_) r.reset();
  link_.reset();
  queue_wait_.reset();
  std::lock_guard<std::mutex> lock(spans_mu_);
  spans_.clear();
  spans_dropped_ = 0;
}

void LatencyTracer::write_chrome_trace(
    obs::JsonWriter& w, const std::vector<std::string>& protocol_names) const {
  std::vector<WaterfallSpan> snapshot = spans();
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const WaterfallSpan& s : snapshot) {
    w.begin_object();
    const char* name = "delivery";
    if (s.protocol < protocol_names.size()) {
      name = protocol_names[s.protocol].c_str();
    }
    w.kv("name", name);
    w.kv("cat", "waterfall");
    w.kv("ph", "X");
    w.kv("pid", 1);
    // One trace row per hop index: a sampled request reads top-to-bottom
    // as a waterfall across its hops.
    w.kv("tid", static_cast<std::uint64_t>(s.hop));
    w.kv("ts", static_cast<std::uint64_t>(s.sched_us));
    w.kv("dur", static_cast<std::uint64_t>(s.fire_us - s.sched_us));
    w.key("args");
    w.begin_object();
    w.kv("trace_id", s.trace_id & ~obs::kTraceWaterfallBit);
    w.kv("hop", static_cast<std::uint64_t>(s.hop));
    w.kv("sched_vts_us", static_cast<std::uint64_t>(s.sched_us));
    w.kv("fire_vts_us", static_cast<std::uint64_t>(s.fire_us));
    // Virtual-time tag shared with the global tracer's span format, so
    // waterfall files satisfy the same report_check --trace validation.
    w.kv("vts_us", static_cast<std::uint64_t>(s.fire_us));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
}

bool LatencyTracer::write_chrome_trace_file(
    const std::string& path, const std::vector<std::string>& names) const {
  obs::JsonWriter w;
  write_chrome_trace(w, names);
  return obs::write_file(path, w.str());
}

}  // namespace dcpl::net
