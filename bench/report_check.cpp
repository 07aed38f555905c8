// Validates a dcpl-bench-report/1 or /2 JSON file (and optionally a
// Chrome trace-event file) against the schema report_util.hpp documents.
// Run by ctest and CI so the machine-readable outputs stay honest: every
// row's match flag must agree with its derived/expected strings, all_match
// must agree with the rows, every metrics{} histogram must carry ordered
// percentiles and a sum its extremes bound, the /2 "timeseries" and
// "profile" sections must be internally consistent, and the trace must
// carry simulator virtual time. A report's optional host{} must be
// complete, and --baseline notes when the two files name different hosts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/json.hpp"

using dcpl::obs::JsonParser;
using dcpl::obs::JsonValue;

namespace {

bool fail(const char* what) {
  std::fprintf(stderr, "report_check: %s\n", what);
  return false;
}

bool load(const char* path, JsonValue& out) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) {
    std::fprintf(stderr, "report_check: cannot open %s\n", path);
    return false;
  }
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  if (!JsonParser::parse(body, out)) {
    std::fprintf(stderr, "report_check: %s is not valid JSON\n", path);
    return false;
  }
  return true;
}

// The optional "faults" object: all counters numeric and internally
// consistent. With `required`, the object must exist and record at least
// one injected event — a bench claiming to have run under a FaultPlan must
// show evidence the plan actually did something.
bool check_faults(const JsonValue& r, bool required) {
  const JsonValue* f = r.find("faults");
  if (!f) {
    return required ? fail("missing faults{} (--require-faults)") : true;
  }
  if (!f->is_object()) return fail("faults is not an object");
  for (const char* k : {"lost", "duplicated", "jittered", "partition_dropped",
                        "offline_dropped", "breaches_fired",
                        "total_dropped"}) {
    if (!f->has(k) || !f->at(k).is_number()) {
      return fail("faults missing numeric counter");
    }
  }
  const double dropped = f->at("lost").number +
                         f->at("partition_dropped").number +
                         f->at("offline_dropped").number;
  if (f->at("total_dropped").number != dropped) {
    return fail("faults.total_dropped inconsistent with components");
  }
  if (required) {
    const double injected = dropped + f->at("duplicated").number +
                            f->at("jittered").number +
                            f->at("breaches_fired").number;
    if (injected <= 0) return fail("faults{} present but empty");
  }
  return true;
}

// The optional "flow" object: event counters numeric and internally
// consistent, violations[] structurally sound (each with a party, the
// tripping event id, and a causal chain starting at that event). With
// `required`, the object must exist and carry at least one event — a bench
// claiming to have attached a FlowLedger must show an actual event stream.
bool check_flow(const JsonValue& r, bool required) {
  const JsonValue* f = r.find("flow");
  if (!f) {
    return required ? fail("missing flow{} (--require-flow)") : true;
  }
  if (!f->is_object()) return fail("flow is not an object");
  for (const char* k : {"runs", "events", "exposures", "links", "compromises",
                        "deduped", "dropped"}) {
    if (!f->has(k) || !f->at(k).is_number()) {
      return fail("flow missing numeric counter");
    }
  }
  const double events = f->at("events").number;
  const double parts = f->at("exposures").number + f->at("links").number +
                       f->at("compromises").number;
  if (events != parts) {
    return fail("flow.events inconsistent with exposures+links+compromises");
  }
  if (required && events <= 0) return fail("flow{} present but empty");
  const JsonValue* violations = f->find("violations");
  if (!violations || !violations->is_array()) {
    return fail("flow missing violations[]");
  }
  for (const auto& v : violations->array) {
    for (const char* k : {"party", "tuple", "cause"}) {
      if (!v.has(k) || !v.at(k).is_string()) {
        return fail("violation missing string field");
      }
    }
    for (const char* k : {"event_id", "t_us"}) {
      if (!v.has(k) || !v.at(k).is_number()) {
        return fail("violation missing numeric field");
      }
    }
    const JsonValue* chain = v.find("chain");
    if (!chain || !chain->is_array() || chain->array.empty()) {
      return fail("violation missing chain[]");
    }
    for (const auto& id : chain->array) {
      if (!id.is_number()) return fail("violation chain entry not numeric");
    }
    if (chain->array.front().number != v.at("event_id").number) {
      return fail("violation chain does not start at the tripping event");
    }
  }
  return true;
}

// The optional /2 "timeseries" object: virtual-time sampled series from an
// obs::TimeSeriesSampler. Every series must be an array of [t_us, value]
// numeric pairs of exactly `retained` points with non-decreasing
// timestamps. With `required`, at least one series with >= 2 points must
// be present — a bench claiming sampling was on must show actual samples.
bool check_timeseries(const JsonValue& r, bool required) {
  const JsonValue* ts = r.find("timeseries");
  if (!ts) {
    return required ? fail("missing timeseries{} (--require-timeseries)")
                    : true;
  }
  if (!ts->is_object()) return fail("timeseries is not an object");
  for (const char* k :
       {"interval_us", "samples_taken", "retained", "decimations"}) {
    if (!ts->has(k) || !ts->at(k).is_number()) {
      return fail("timeseries missing numeric field");
    }
  }
  if (ts->at("interval_us").number <= 0) {
    return fail("timeseries.interval_us not positive");
  }
  const double retained = ts->at("retained").number;
  if (retained > ts->at("samples_taken").number) {
    return fail("timeseries retained more samples than it took");
  }
  const JsonValue* series = ts->find("series");
  if (!series || !series->is_object()) {
    return fail("timeseries missing series{}");
  }
  std::size_t usable = 0;
  for (const auto& [name, points] : series->object) {
    if (name.empty()) return fail("timeseries series with empty name");
    if (!points.is_array()) return fail("timeseries series not an array");
    if (static_cast<double>(points.array.size()) != retained) {
      return fail("timeseries series length != retained");
    }
    double prev_t = -1.0;
    for (const auto& p : points.array) {
      if (!p.is_array() || p.array.size() != 2 || !p.array[0].is_number() ||
          !p.array[1].is_number()) {
        return fail("timeseries point is not a [t_us, value] pair");
      }
      if (p.array[0].number < prev_t) {
        return fail("timeseries timestamps not non-decreasing");
      }
      prev_t = p.array[0].number;
    }
    if (points.array.size() >= 2) ++usable;
  }
  if (required && usable == 0) {
    return fail("timeseries{} has no series with >= 2 points");
  }
  return true;
}

// The optional /2 "profile" object: per-event-kind cost attribution from a
// net::EngineProfiler. Kind and protocol buckets must carry the numeric
// bucket fields, sampled subsets must not exceed exact event counts, and
// the per-protocol delivery counts must sum to the delivery kind's total.
// With `required`, the profiler must have seen at least one delivery.
bool check_bucket(const JsonValue& b, const char* what) {
  if (!b.is_object()) return fail("profile bucket is not an object");
  for (const char* k : {"events", "sampled", "ns", "est_ns_per_event",
                        "hw_sampled", "cache_misses", "branch_misses"}) {
    if (!b.has(k) || !b.at(k).is_number()) {
      std::fprintf(stderr, "report_check: profile %s bucket missing %s\n",
                   what, k);
      return false;
    }
  }
  if (b.at("sampled").number > b.at("events").number) {
    return fail("profile bucket sampled > events");
  }
  if (b.at("hw_sampled").number > b.at("sampled").number) {
    return fail("profile bucket hw_sampled > sampled");
  }
  return true;
}

bool check_profile(const JsonValue& r, bool required) {
  const JsonValue* p = r.find("profile");
  if (!p) {
    return required ? fail("missing profile{} (--require-profile)") : true;
  }
  if (!p->is_object()) return fail("profile is not an object");
  for (const char* k : {"sample_period", "hw_period", "events"}) {
    if (!p->has(k) || !p->at(k).is_number()) {
      return fail("profile missing numeric field");
    }
  }
  if (!p->has("hw_backend") || !p->at("hw_backend").is_string()) {
    return fail("profile missing hw_backend");
  }
  const JsonValue* kinds = p->find("kinds");
  if (!kinds || !kinds->is_object()) return fail("profile missing kinds{}");
  for (const char* k : {"delivery", "callback"}) {
    const JsonValue* b = kinds->find(k);
    if (!b) return fail("profile kinds missing delivery/callback");
    if (!check_bucket(*b, k)) return false;
  }
  const double deliveries = kinds->at("delivery").at("events").number;
  const JsonValue* protos = p->find("protocols");
  if (!protos || !protos->is_object()) {
    return fail("profile missing protocols{}");
  }
  double proto_events = 0;
  for (const auto& [name, b] : protos->object) {
    if (name.empty()) return fail("profile protocol with empty name");
    if (!check_bucket(b, name.c_str())) return false;
    proto_events += b.at("events").number;
  }
  if (proto_events != deliveries) {
    return fail("profile protocol events do not sum to delivery events");
  }
  if (required && deliveries <= 0) {
    return fail("profile{} present but saw no deliveries");
  }
  return true;
}

// The optional "shards" object bench_scale emits from a sharded sweep:
// positive conservative lookahead, a per_shard[] split whose length matches
// the shard count, and per-shard deliveries summing exactly to the run's
// total. With `required`, the section must exist and record a genuinely
// parallel run (count >= 2 with at least one barrier window).
bool check_shards(const JsonValue& r, bool required) {
  const JsonValue* s = r.find("shards");
  if (!s) {
    return required ? fail("missing shards{} (--require-shards)") : true;
  }
  if (!s->is_object()) return fail("shards is not an object");
  for (const char* k :
       {"count", "users", "lookahead_us", "windows", "total_deliveries"}) {
    if (!s->has(k) || !s->at(k).is_number()) {
      return fail("shards missing numeric field");
    }
  }
  if (s->at("lookahead_us").number <= 0) {
    return fail("shards.lookahead_us not positive");
  }
  const JsonValue* per = s->find("per_shard");
  if (!per || !per->is_array()) return fail("shards missing per_shard[]");
  if (static_cast<double>(per->array.size()) != s->at("count").number) {
    return fail("shards per_shard[] length != count");
  }
  double deliveries = 0;
  for (const auto& b : per->array) {
    for (const char* k : {"shard", "events", "deliveries", "cross_sends"}) {
      if (!b.has(k) || !b.at(k).is_number()) {
        return fail("per_shard entry missing numeric field");
      }
      if (b.at(k).number < 0) return fail("per_shard counter negative");
    }
    if (b.at("deliveries").number > b.at("events").number) {
      return fail("per_shard deliveries > events");
    }
    deliveries += b.at("deliveries").number;
  }
  if (deliveries != s->at("total_deliveries").number) {
    return fail("per_shard deliveries do not sum to total_deliveries");
  }
  if (required) {
    if (s->at("count").number < 2) return fail("shards.count < 2");
    if (s->at("windows").number <= 0) {
      return fail("shards{} ran no barrier windows");
    }
    if (deliveries <= 0) return fail("shards{} saw no deliveries");
  }
  // Contention telemetry rides per_shard[] when the engine recorded it
  // (absent in /1-era baselines): numeric counters plus a traffic row of
  // exactly `count` destination cells.
  for (const auto& b : per->array) {
    for (const char* k : {"busy_ns", "barrier_wait_ns", "mailbox_stalls"}) {
      if (b.has(k) && !b.at(k).is_number()) {
        return fail("per_shard contention counter not numeric");
      }
    }
    if (const JsonValue* traffic = b.find("traffic")) {
      if (!traffic->is_array() ||
          static_cast<double>(traffic->array.size()) !=
              s->at("count").number) {
        return fail("per_shard traffic row length != count");
      }
      for (const auto& t : traffic->array) {
        if (!t.is_number() || t.number < 0) {
          return fail("per_shard traffic cell not a non-negative number");
        }
      }
      // Structural consistency of the n x n send matrix against the
      // shard's own counters: the diagonal cell is its same-shard sends
      // and the full row must sum to local + cross (engines that predate
      // local_sends skip the row-sum leg).
      const std::size_t shard = static_cast<std::size_t>(
          b.at("shard").number);
      if (shard < traffic->array.size()) {
        const double diagonal = traffic->array[shard].number;
        if (b.has("local_sends")) {
          if (!b.at("local_sends").is_number() ||
              b.at("local_sends").number < 0) {
            return fail("per_shard local_sends not a non-negative number");
          }
          if (diagonal != b.at("local_sends").number) {
            return fail("per_shard traffic diagonal != local_sends");
          }
          double row_sum = 0;
          for (const auto& t : traffic->array) row_sum += t.number;
          if (row_sum !=
              b.at("local_sends").number + b.at("cross_sends").number) {
            return fail(
                "per_shard traffic row does not sum to local + cross sends");
          }
        }
        double off_diagonal = 0;
        for (std::size_t j = 0; j < traffic->array.size(); ++j) {
          if (j != shard) off_diagonal += traffic->array[j].number;
        }
        if (off_diagonal != b.at("cross_sends").number) {
          return fail("per_shard traffic off-diagonal != cross_sends");
        }
      }
    } else if (required) {
      // A current-engine parallel run always records its traffic matrix;
      // only /1-era baseline files may omit it.
      return fail("per_shard entry missing traffic row (--require-shards)");
    }
  }
  return true;
}

// Whether `b` carries every one of `keys` as a non-negative number;
// names the first missing one ("<kind> <what> missing numeric <key>").
bool has_numbers(const JsonValue& b, const char* kind, const char* what,
                 const std::vector<const char*>& keys) {
  for (const char* k : keys) {
    if (!b.has(k) || !b.at(k).is_number() || b.at(k).number < 0) {
      std::fprintf(stderr, "report_check: %s %s missing numeric %s\n", kind,
                   what, k);
      return false;
    }
  }
  return true;
}

// Whether `b`'s numeric fields `chain` never decrease, in order: the
// percentile ordering every summary that holds samples must satisfy.
bool non_decreasing(const JsonValue& b, const std::vector<const char*>& chain) {
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (b.at(chain[i]).number < b.at(chain[i - 1]).number) return false;
  }
  return true;
}

// One percentile summary inside the "latency" object: numeric count /
// quantile fields with non-decreasing p50 <= p99 (<= p999) <= max whenever
// any samples were recorded.
bool check_latency_summary(const JsonValue& b, const char* what,
                           bool has_p999) {
  if (!b.is_object()) return fail("latency summary is not an object");
  // Stage summaries skip p999, and their keys carry no unit suffix.
  const std::vector<const char*> chain =
      has_p999 ? std::vector<const char*>{"p50_us", "p99_us", "p999_us",
                                          "max_us"}
               : std::vector<const char*>{"p50", "p99", "max"};
  if (!has_numbers(b, "latency", what, {"count"}) ||
      !has_numbers(b, "latency", what, chain)) {
    return false;
  }
  if (b.at("count").number > 0 && !non_decreasing(b, chain)) {
    return fail("latency percentiles not non-decreasing");
  }
  return true;
}

// Every histogram in metrics{} (the object-valued entries; counters and
// gauges are plain numbers): numeric count/sum/min/max/p50/p95/p99 and,
// once it holds samples, min <= p50 <= p95 <= p99 <= max and a sum the
// extremes bound (min*count <= sum <= max*count).
bool check_metric_histograms(const JsonValue& metrics) {
  for (const auto& [name, h] : metrics.object) {
    if (!h.is_object()) continue;
    if (!has_numbers(h, "metric", name.c_str(),
                     {"count", "sum", "min", "max", "p50", "p95", "p99"})) {
      return false;
    }
    const double count = h.at("count").number;
    if (count <= 0) continue;
    if (!non_decreasing(h, {"min", "p50", "p95", "p99", "max"})) {
      std::fprintf(stderr,
                   "report_check: metric %s percentiles not non-decreasing "
                   "from min to max\n",
                   name.c_str());
      return false;
    }
    const double sum = h.at("sum").number;
    if (sum < h.at("min").number * count || sum > h.at("max").number * count) {
      std::fprintf(stderr,
                   "report_check: metric %s sum outside [min*count, "
                   "max*count]\n",
                   name.c_str());
      return false;
    }
  }
  return true;
}

// The optional "latency" object the tracing plane emits: per-protocol
// end-to-end percentile summaries plus the per-hop stage breakdown (each
// stage tagged with its unit — virtual us for queue_wait/link, wall ns for
// the crypto/wire stages). With `required`, at least one protocol must
// carry samples and the virtual link stage must have recorded — a bench
// claiming the tracer was attached must show traced requests.
bool check_latency(const JsonValue& r, bool required) {
  const JsonValue* l = r.find("latency");
  if (!l) {
    return required ? fail("missing latency{} (--require-latency)") : true;
  }
  if (!l->is_object()) return fail("latency is not an object");
  for (const char* k : {"users", "waterfall_period", "waterfall_spans",
                        "waterfall_dropped"}) {
    if (!l->has(k) || !l->at(k).is_number()) {
      return fail("latency missing numeric field");
    }
  }
  const JsonValue* protos = l->find("protocols");
  if (!protos || !protos->is_object()) {
    return fail("latency missing protocols{}");
  }
  double traced = 0;
  for (const auto& [name, b] : protos->object) {
    if (name.empty()) return fail("latency protocol with empty name");
    if (!check_latency_summary(b, name.c_str(), /*has_p999=*/true)) {
      return false;
    }
    traced += b.at("count").number;
  }
  const JsonValue* stages = l->find("stages");
  if (!stages || !stages->is_object()) return fail("latency missing stages{}");
  for (const char* k :
       {"queue_wait", "link", "crypto_seal", "crypto_open", "wire_frame"}) {
    const JsonValue* b = stages->find(k);
    if (!b) return fail("latency stages missing a stage");
    if (!b->has("unit") || !b->at("unit").is_string()) {
      return fail("latency stage missing unit");
    }
    if (!check_latency_summary(*b, k, /*has_p999=*/false)) return false;
  }
  if (required) {
    if (traced <= 0) return fail("latency{} present but traced no requests");
    if (stages->at("link").at("count").number <= 0) {
      return fail("latency{} link stage recorded no hops");
    }
    if (l->at("waterfall_period").number > 0 &&
        l->at("waterfall_spans").number <= 0) {
      return fail("latency{} waterfall sampling on but captured no spans");
    }
  }
  return true;
}

// The optional "host" object (absent in reports that predate it): a core
// count plus non-empty cpu, build_type and compiler strings.
bool check_host(const JsonValue& r) {
  const JsonValue* h = r.find("host");
  if (!h) return true;
  if (!h->is_object()) return fail("host is not an object");
  if (!h->has("hardware_concurrency") ||
      !h->at("hardware_concurrency").is_number() ||
      h->at("hardware_concurrency").number < 0) {
    return fail("host.hardware_concurrency not a non-negative number");
  }
  for (const char* k : {"cpu", "build_type", "compiler"}) {
    if (!h->has(k) || !h->at(k).is_string() || h->at(k).string.empty()) {
      std::fprintf(stderr, "report_check: host.%s missing or empty\n", k);
      return false;
    }
  }
  return true;
}

// One line naming the host a (validated) report came from.
std::string describe_host(const JsonValue& r) {
  const JsonValue* h = r.find("host");
  if (!h) return "not recorded";
  return std::to_string(static_cast<long long>(
             h->at("hardware_concurrency").number)) +
         " threads, " + h->at("cpu").string + ", " +
         h->at("build_type").string + ", " + h->at("compiler").string;
}

bool check_report(const JsonValue& r, std::size_t min_tables) {
  if (!r.is_object()) return fail("report root is not an object");
  const JsonValue* schema = r.find("schema");
  if (!schema || !schema->is_string() ||
      (schema->string != "dcpl-bench-report/1" &&
       schema->string != "dcpl-bench-report/2")) {
    return fail("schema is not dcpl-bench-report/1 or /2");
  }
  if (!r.has("bench") || r.at("bench").string.empty()) {
    return fail("missing bench name");
  }
  if (!r.has("ok") || !r.at("ok").is_bool()) return fail("missing ok");
  if (!check_host(r)) return false;

  const JsonValue* tables = r.find("tables");
  if (!tables || !tables->is_array()) return fail("missing tables[]");
  if (tables->array.size() < min_tables) return fail("too few tables");
  for (const auto& t : tables->array) {
    if (!t.has("title") || !t.has("all_match") ||
        !t.at("all_match").is_bool()) {
      return fail("table missing title/all_match");
    }
    const JsonValue* rows = t.find("rows");
    if (!rows || !rows->is_array()) return fail("table missing rows[]");
    bool all = true;
    for (const auto& row : rows->array) {
      for (const char* k : {"display", "party", "derived", "expected"}) {
        if (!row.has(k) || !row.at(k).is_string()) {
          return fail("row missing string field");
        }
      }
      if (!row.has("match") || !row.at("match").is_bool()) {
        return fail("row missing match");
      }
      const bool expect = row.at("derived").string == row.at("expected").string;
      if (row.at("match").boolean != expect) {
        return fail("row match flag inconsistent with derived/expected");
      }
      all &= row.at("match").boolean;
    }
    if (t.at("all_match").boolean != all) {
      return fail("all_match inconsistent with rows");
    }
    if (const JsonValue* v = t.find("verdict")) {
      for (const char* k : {"derived_decoupled", "paper_decoupled",
                            "reproduced"}) {
        if (!v->has(k) || !v->at(k).is_bool()) {
          return fail("verdict missing field");
        }
      }
    }
  }

  const JsonValue* checks = r.find("checks");
  if (!checks || !checks->is_array()) return fail("missing checks[]");
  for (const auto& c : checks->array) {
    if (!c.has("name") || !c.has("ok") || !c.at("ok").is_bool()) {
      return fail("check missing name/ok");
    }
  }
  if (!r.has("values") || !r.at("values").is_object()) {
    return fail("missing values{}");
  }
  if (!r.has("metrics") || !r.at("metrics").is_object()) {
    return fail("missing metrics{}");
  }
  if (!check_metric_histograms(r.at("metrics"))) return false;
  const JsonValue* timing = r.find("timing");
  if (!timing || !timing->has("wall_ms") ||
      !timing->at("wall_ms").is_number()) {
    return fail("missing timing.wall_ms");
  }
  return true;
}

bool check_trace(const JsonValue& t) {
  if (!t.is_object()) return fail("trace root is not an object");
  const JsonValue* events = t.find("traceEvents");
  if (!events || !events->is_array()) return fail("missing traceEvents[]");
  std::size_t spans = 0, with_virtual = 0;
  for (const auto& e : events->array) {
    const JsonValue* ph = e.find("ph");
    if (!ph || !ph->is_string()) return fail("event missing ph");
    if (ph->string == "M") continue;  // process_name metadata
    if (ph->string != "X") return fail("unexpected event phase");
    if (!e.has("name") || !e.at("name").is_string()) {
      return fail("event missing name");
    }
    for (const char* k : {"ts", "dur", "pid", "tid"}) {
      if (!e.has(k) || !e.at(k).is_number()) {
        return fail("event missing ts/dur/pid/tid");
      }
    }
    ++spans;
    if (const JsonValue* args = e.find("args")) {
      if (args->has("vts_us")) ++with_virtual;
    }
  }
  if (spans == 0) return fail("trace has no span events");
  if (with_virtual == 0) return fail("no event carries simulator virtual time");
  return true;
}

// The optional "crypto" object bench_crypto emits: a positive time budget
// and an ops{} map where every entry carries consistent iters / ns_per_op /
// ops_per_sec (ops_per_sec must equal 1e9 / ns_per_op within rounding).
// With `required`, the section must exist and measure at least one op.
bool check_crypto(const JsonValue& r, bool required) {
  const JsonValue* c = r.find("crypto");
  if (!c) {
    return required ? fail("missing crypto{} (--require-crypto)") : true;
  }
  if (!c->is_object()) return fail("crypto is not an object");
  if (!c->has("budget_ms") || !c->at("budget_ms").is_number() ||
      c->at("budget_ms").number <= 0) {
    return fail("crypto.budget_ms not positive");
  }
  const JsonValue* ops = c->find("ops");
  if (!ops || !ops->is_object()) return fail("crypto missing ops{}");
  for (const auto& [name, op] : ops->object) {
    if (name.empty()) return fail("crypto op with empty name");
    for (const char* k : {"iters", "ns_per_op", "ops_per_sec"}) {
      if (!op.has(k) || !op.at(k).is_number() || op.at(k).number <= 0) {
        std::fprintf(stderr, "report_check: crypto op %s missing %s\n",
                     name.c_str(), k);
        return false;
      }
    }
    const double implied = 1e9 / op.at("ns_per_op").number;
    const double stated = op.at("ops_per_sec").number;
    if (stated < implied * 0.99 || stated > implied * 1.01) {
      return fail("crypto ops_per_sec inconsistent with ns_per_op");
    }
  }
  if (required && ops->object.empty()) {
    return fail("crypto{} present but measured no ops");
  }
  return true;
}

// Compares the report's values against a committed baseline report
// (BENCH_scale.json / BENCH_crypto.json). Two key families gate, with
// opposite polarity:
//   * throughput ("*_events_per_sec" / "*_ops_per_sec", higher is
//     better): must not fall more than tolerance_pct below the baseline;
//   * latency percentiles ("*latency_*_us", lower is better): must not
//     rise more than tolerance_pct above the baseline;
//   * cross-shard send share ("*_cross_sends_pct", lower is better,
//     deterministic): the partitioning quality gate — a placement change
//     that pushes more traffic across shard boundaries fails the same way
//     a latency regression does. Zero baselines (e.g. the serial 1-shard
//     entry) must stay zero.
// Keys present in only one file are ignored (a CI smoke run sweeps fewer
// points than the committed full sweep). Improving past the band only
// warns — it means the committed baseline is stale and worth
// regenerating, but a faster machine is not a regression.
bool check_baseline(const JsonValue& r, const JsonValue& base,
                    double tolerance_pct) {
  const JsonValue* values = r.find("values");
  const JsonValue* base_values = base.find("values");
  if (!values || !values->is_object()) return fail("missing values{}");
  if (!base_values || !base_values->is_object()) {
    return fail("baseline missing values{}");
  }
  if (!check_host(base)) return false;
  // Only a note: the tolerance band is what gates.
  const std::string here = describe_host(r), there = describe_host(base);
  if (here != there) {
    std::printf("report_check: note: report and baseline hosts differ\n"
                "  report:   %s\n  baseline: %s\n",
                here.c_str(), there.c_str());
  }
  const auto has_suffix = [](const std::string& key, const std::string& sfx) {
    return key.size() >= sfx.size() &&
           key.compare(key.size() - sfx.size(), sfx.size(), sfx) == 0;
  };
  std::size_t compared = 0;
  for (const auto& [key, val] : values->object) {
    const bool higher_better = has_suffix(key, "_events_per_sec") ||
                               has_suffix(key, "_ops_per_sec");
    const bool cross_pct = has_suffix(key, "_cross_sends_pct");
    const bool lower_better =
        !higher_better &&
        (cross_pct || (key.find("latency_") != std::string::npos &&
                       has_suffix(key, "_us")));
    if (!higher_better && !lower_better) continue;
    const JsonValue* ref = base_values->find(key);
    if (!ref) continue;
    if (!val.is_number() || !ref->is_number()) {
      return fail("baseline/report value not a number");
    }
    if (ref->number <= 0) {
      if (!cross_pct || ref->number < 0) {
        return fail("baseline value not a positive number");
      }
      // A zero cross-share baseline (the serial anchor, or a perfectly
      // partitioned point) tolerates no relative band: it must stay zero.
      if (val.number > 0) {
        std::fprintf(stderr,
                     "report_check: %s grew to %.2f from a zero baseline\n",
                     key.c_str(), val.number);
        return false;
      }
      ++compared;
      continue;
    }
    const double delta_pct = (val.number - ref->number) / ref->number * 100.0;
    std::printf("report_check: %s = %.0f vs baseline %.0f (%+.1f%%)\n",
                key.c_str(), val.number, ref->number, delta_pct);
    const double regress_pct = higher_better ? -delta_pct : delta_pct;
    if (regress_pct > tolerance_pct) {
      std::fprintf(stderr,
                   "report_check: %s regressed %.1f%% vs baseline "
                   "(tolerance %.0f%%)\n",
                   key.c_str(), regress_pct, tolerance_pct);
      return false;
    }
    if (regress_pct < -tolerance_pct) {
      std::fprintf(stderr,
                   "report_check: warning: %s improved %.1f%% past the "
                   "baseline band — consider regenerating the committed "
                   "baseline\n",
                   key.c_str(), -regress_pct);
    }
    ++compared;
  }
  if (compared == 0) {
    return fail("no gated keys shared with baseline");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* report_path = nullptr;
  const char* trace_path = nullptr;
  const char* baseline_path = nullptr;
  std::size_t min_tables = 0;
  double tolerance_pct = 15.0;
  bool require_faults = false;
  bool require_flow = false;
  bool require_timeseries = false;
  bool require_profile = false;
  bool require_shards = false;
  bool require_crypto = false;
  bool require_latency = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-tables") == 0 && i + 1 < argc) {
      min_tables =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance_pct = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--require-faults") == 0) {
      require_faults = true;
    } else if (std::strcmp(argv[i], "--require-flow") == 0) {
      require_flow = true;
    } else if (std::strcmp(argv[i], "--require-timeseries") == 0) {
      require_timeseries = true;
    } else if (std::strcmp(argv[i], "--require-profile") == 0) {
      require_profile = true;
    } else if (std::strcmp(argv[i], "--require-shards") == 0) {
      require_shards = true;
    } else if (std::strcmp(argv[i], "--require-crypto") == 0) {
      require_crypto = true;
    } else if (std::strcmp(argv[i], "--require-latency") == 0) {
      require_latency = true;
    } else {
      report_path = argv[i];
    }
  }
  if (!report_path) {
    std::fprintf(stderr,
                 "usage: report_check <report.json> [--min-tables N] "
                 "[--require-faults] [--require-flow] [--require-timeseries] "
                 "[--require-profile] [--require-shards] [--require-crypto] "
                 "[--require-latency] [--trace trace.json] "
                 "[--baseline baseline.json [--tolerance pct]]\n");
    return 2;
  }
  JsonValue report;
  if (!load(report_path, report) || !check_report(report, min_tables) ||
      !check_faults(report, require_faults) ||
      !check_flow(report, require_flow) ||
      !check_timeseries(report, require_timeseries) ||
      !check_profile(report, require_profile) ||
      !check_shards(report, require_shards) ||
      !check_crypto(report, require_crypto) ||
      !check_latency(report, require_latency)) {
    return 1;
  }
  if (trace_path) {
    JsonValue trace;
    if (!load(trace_path, trace) || !check_trace(trace)) return 1;
  }
  if (baseline_path) {
    JsonValue baseline;
    if (!load(baseline_path, baseline) ||
        !check_baseline(report, baseline, tolerance_pct)) {
      return 1;
    }
  }
  std::printf("report_check: OK (%s%s%s)\n", report_path,
              trace_path ? " + trace" : "", baseline_path ? " + baseline" : "");
  return 0;
}
