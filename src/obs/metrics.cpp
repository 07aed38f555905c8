#include "obs/metrics.hpp"

#include <algorithm>

namespace dcpl::obs {

namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string label_suffix(const Labels& labels) {
  if (labels.empty()) return "";
  std::string s = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) s += ',';
    s += labels[i].first + "=" + labels[i].second;
  }
  s += '}';
  return s;
}

}  // namespace

const SnapshotEntry* Snapshot::find(const std::string& name,
                                    const Labels& labels) const {
  const Labels want = sorted(labels);
  for (const auto& e : entries) {
    if (e.name == name && e.labels == want) return &e;
  }
  return nullptr;
}

void Snapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& e : entries) {
    w.key(e.name + label_suffix(e.labels));
    switch (e.kind) {
      case SnapshotEntry::Kind::kCounter:
        w.value(static_cast<std::uint64_t>(e.value));
        break;
      case SnapshotEntry::Kind::kGauge:
        w.value(e.value);
        break;
      case SnapshotEntry::Kind::kHistogram:
        w.begin_object();
        w.kv("count", static_cast<std::uint64_t>(e.value));
        w.kv("sum", e.sum);
        w.kv("min", e.min);
        w.kv("max", e.max);
        w.kv("p50", e.p50);
        w.kv("p95", e.p95);
        w.kv("p99", e.p99);
        w.end_object();
        break;
    }
  }
  w.end_object();
}

Counter& Registry::counter(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[{name, sorted(std::move(labels))}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[{name, sorted(std::move(labels))}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyRecorder& Registry::histogram(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[{name, sorted(std::move(labels))}];
  if (!slot) slot = std::make_unique<LatencyRecorder>();
  return *slot;
}

Registry& Registry::scope(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = children_[name];
  if (!slot) slot = std::make_unique<Registry>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, c] : counters_) c->reset();
  for (auto& [k, g] : gauges_) g->reset();
  for (auto& [k, h] : histograms_) h->reset();
  for (auto& [k, r] : children_) r->reset();
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  snapshot_into("", s);
  return s;
}

void Registry::snapshot_into(const std::string& prefix, Snapshot& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, c] : counters_) {
    SnapshotEntry e;
    e.kind = SnapshotEntry::Kind::kCounter;
    e.name = prefix + key.first;
    e.labels = key.second;
    e.value = static_cast<double>(c->value());
    out.entries.push_back(std::move(e));
  }
  for (const auto& [key, g] : gauges_) {
    SnapshotEntry e;
    e.kind = SnapshotEntry::Kind::kGauge;
    e.name = prefix + key.first;
    e.labels = key.second;
    e.value = g->value();
    out.entries.push_back(std::move(e));
  }
  for (const auto& [key, h] : histograms_) {
    SnapshotEntry e;
    e.kind = SnapshotEntry::Kind::kHistogram;
    e.name = prefix + key.first;
    e.labels = key.second;
    e.value = static_cast<double>(h->count());
    e.sum = h->sum();
    e.min = h->min();
    e.max = h->max();
    e.p50 = h->quantile(0.50);
    e.p95 = h->quantile(0.95);
    e.p99 = h->quantile(0.99);
    out.entries.push_back(std::move(e));
  }
  for (const auto& [name, child] : children_) {
    child->snapshot_into(prefix + name + ".", out);
  }
}

void Registry::write_json(JsonWriter& w) const { snapshot().write_json(w); }

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (scope dots,
// dashes, arrows in derived names) becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

// Label *names* get the same charset treatment; label *values* keep their
// bytes with the exposition-format escapes (backslash, quote, newline).
std::string prom_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string prom_labels(const Labels& labels, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) s += ',';
    first = false;
    s += prom_name(k) + "=\"" + prom_label_value(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) s += ',';
    s += extra_key + "=\"" + extra_value + "\"";
  }
  s += '}';
  return s;
}

std::string prom_number(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v >= -9.0e18 && v <= 9.0e18) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void prom_type(std::string& out, std::string& last_family,
               const std::string& family, const char* type) {
  if (family == last_family) return;  // samples of one family stay grouped
  last_family = family;
  out += "# TYPE " + family + " " + type + "\n";
}

}  // namespace

void Registry::prometheus_into(const std::string& prefix,
                               std::string& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string last_family;
  for (const auto& [key, c] : counters_) {
    const std::string family = prom_name(prefix + key.first);
    prom_type(out, last_family, family, "counter");
    out += family + prom_labels(key.second) + " " +
           std::to_string(c->value()) + "\n";
  }
  last_family.clear();
  for (const auto& [key, g] : gauges_) {
    const std::string family = prom_name(prefix + key.first);
    prom_type(out, last_family, family, "gauge");
    out += family + prom_labels(key.second) + " " + prom_number(g->value()) +
           "\n";
  }
  last_family.clear();
  for (const auto& [key, g] : gauges_) {
    const std::string family = prom_name(prefix + key.first) + "_peak";
    prom_type(out, last_family, family, "gauge");
    out += family + prom_labels(key.second) + " " + prom_number(g->peak()) +
           "\n";
  }
  last_family.clear();
  for (const auto& [key, h] : histograms_) {
    const std::string family = prom_name(prefix + key.first);
    prom_type(out, last_family, family, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < LatencyRecorder::kBucketCount; ++i) {
      const std::uint64_t n = h->bucket(i);
      if (n == 0) continue;
      cumulative += n;
      out += family + "_bucket" +
             prom_labels(key.second, "le",
                         std::to_string(LatencyRecorder::bucket_upper(i))) +
             " " + std::to_string(cumulative) + "\n";
    }
    out += family + "_bucket" + prom_labels(key.second, "le", "+Inf") + " " +
           std::to_string(cumulative) + "\n";
    out += family + "_sum" + prom_labels(key.second) + " " +
           std::to_string(h->sum()) + "\n";
    out += family + "_count" + prom_labels(key.second) + " " +
           std::to_string(cumulative) + "\n";
  }
  for (const auto& [name, child] : children_) {
    child->prometheus_into(prefix + name + ".", out);
  }
}

void Registry::write_prometheus(std::string& out,
                                const std::string& name_prefix) const {
  prometheus_into(name_prefix, out);
}

std::string metrics_to_prometheus(const Registry& registry,
                                  const std::string& prefix) {
  std::string out;
  registry.write_prometheus(out, prefix.empty() ? "" : prefix + "_");
  return out;
}

std::uint64_t Registry::next_serial() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Registry& global_registry() {
  static Registry registry;
  return registry;
}

namespace {

std::atomic<Registry*>& op_registry_slot() {
  static std::atomic<Registry*> slot{nullptr};  // nullptr = global default
  return slot;
}

}  // namespace

Registry& op_registry() {
  Registry* r = op_registry_slot().load(std::memory_order_acquire);
  return r != nullptr ? *r : global_registry();
}

Registry* set_op_registry(Registry* registry) {
  Registry* prev =
      op_registry_slot().exchange(registry, std::memory_order_acq_rel);
  return prev != nullptr ? prev : &global_registry();
}

}  // namespace dcpl::obs
