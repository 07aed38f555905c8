#include "obs/sampler.hpp"

namespace dcpl::obs {

TimeSeriesSampler::TimeSeriesSampler(std::uint64_t interval_us,
                                     std::size_t capacity)
    : interval_us_(interval_us == 0 ? 1 : interval_us),
      capacity_(capacity < 2 ? 2 : capacity + (capacity & 1)) {
  times_.reserve(capacity_);
}

void TimeSeriesSampler::add_probe(std::string name,
                                  std::function<double()> probe) {
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(probe);
  p.points.reserve(capacity_);
  probes_.push_back(std::move(p));
}

void TimeSeriesSampler::add_counter(std::string name, const Counter& c) {
  add_probe(std::move(name),
            [&c] { return static_cast<double>(c.value()); });
}

void TimeSeriesSampler::add_gauge(std::string name, const Gauge& g) {
  add_probe(std::move(name), [&g] { return g.value(); });
}

void TimeSeriesSampler::sample_now(std::uint64_t t) {
  if (times_.size() == capacity_) decimate();
  times_.push_back(t);
  for (Probe& p : probes_) p.points.push_back(p.fn());
  ++samples_taken_;
  // Advance the deadline past t; a burst of virtual time skips the missed
  // instants instead of replaying them (probes are instantaneous, replaying
  // would fabricate identical points at historical times).
  if (next_due_ <= t) {
    const std::uint64_t missed = (t - next_due_) / interval_us_ + 1;
    next_due_ += missed * interval_us_;
  }
}

void TimeSeriesSampler::decimate() {
  // Keep the even-indexed (older-anchored) points: every retained point is
  // a real observation; only the resolution halves.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < times_.size(); i += 2, ++kept) {
    times_[kept] = times_[i];
    for (Probe& p : probes_) p.points[kept] = p.points[i];
  }
  times_.resize(kept);
  for (Probe& p : probes_) p.points.resize(kept);
  interval_us_ *= 2;
  ++decimations_;
}

double TimeSeriesSampler::last(const std::string& probe_name) const {
  for (const Probe& p : probes_) {
    if (p.name == probe_name && !p.points.empty()) return p.points.back();
  }
  return 0;
}

void TimeSeriesSampler::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("interval_us", static_cast<std::uint64_t>(interval_us_));
  w.kv("samples_taken", static_cast<std::uint64_t>(samples_taken_));
  w.kv("retained", static_cast<std::uint64_t>(times_.size()));
  w.kv("decimations", static_cast<std::uint64_t>(decimations_));
  w.key("series");
  w.begin_object();
  for (const Probe& p : probes_) {
    w.key(p.name);
    w.begin_array();
    for (std::size_t i = 0; i < times_.size(); ++i) {
      w.begin_array();
      w.value(times_[i]);
      w.value(p.points[i]);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

void TimeSeriesSampler::publish_last_values(Registry& registry) const {
  Registry& ts = registry.scope("ts");
  for (const Probe& p : probes_) {
    if (!p.points.empty()) ts.gauge(p.name).set(p.points.back());
  }
}

void TimeSeriesSampler::write_chrome_trace(JsonWriter& w) const {
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  w.begin_object();
  w.kv("ph", "M");
  w.kv("name", "process_name");
  w.kv("pid", 3);
  w.kv("tid", 1);
  w.key("args");
  w.begin_object();
  w.kv("name", "telemetry (virtual time)");
  w.end_object();
  w.end_object();
  for (const Probe& p : probes_) {
    for (std::size_t i = 0; i < times_.size(); ++i) {
      w.begin_object();
      w.kv("ph", "C");
      w.kv("name", p.name);
      w.kv("pid", 3);
      w.kv("tid", 1);
      w.kv("ts", times_[i]);
      w.key("args");
      w.begin_object();
      w.kv("value", p.points[i]);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
}

bool TimeSeriesSampler::write_chrome_trace_file(
    const std::string& path) const {
  JsonWriter w;
  write_chrome_trace(w);
  return write_file(path, w.str());
}

}  // namespace dcpl::obs
