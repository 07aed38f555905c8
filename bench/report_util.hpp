// Shared helpers for the report-style bench binaries: each paper artifact
// (table/figure) is regenerated and printed next to the paper's version,
// and every binary can additionally emit a machine-readable report
// (--json <path>) and a Perfetto-loadable span trace (--trace <path>).
//
// Report JSON schema ("dcpl-bench-report/2"; /2 adds the optional
// "timeseries" and "profile" telemetry sections, everything else is
// unchanged from /1 and report_check accepts both):
//   {
//     "schema": "dcpl-bench-report/2",
//     "bench": "<binary name>",
//     "ok": <bool>,                       // mirror of the process exit code
//     "host": { "hardware_concurrency", "cpu", "build_type",
//               "compiler" },             // where the numbers were measured
//                                         // (absent in older reports)
//     "tables": [ { "title", "all_match",
//                   "rows": [{"display","party","derived","expected","match"}],
//                   "verdict": {"derived_decoupled","paper_decoupled",
//                               "reproduced"} } ],
//     "checks": [ {"name", "ok"} ],       // named shape assertions
//     "values": { "<name>": <number> },   // scalar measurements
//     "metrics": { ... },                 // global metrics-registry snapshot
//     "faults": { "lost", "duplicated", "jittered", "partition_dropped",
//                 "offline_dropped", "breaches_fired",
//                 "total_dropped" },      // optional; present when the bench
//                                         // ran under a net::FaultPlan
//     "flow": { "runs", "events", "exposures", "links", "compromises",
//               "deduped", "dropped",
//               "violations": [{"run","party","event_id","t_us","tuple",
//                               "cause","chain","implant_event_id"}] },
//                                         // optional; present when the bench
//                                         // attached an obs::FlowLedger
//     "timeseries": { "interval_us", "samples_taken", "retained",
//                     "decimations",
//                     "series": { "<name>": [[t_us, value], ...] } },
//                                         // optional; present when the bench
//                                         // attached a TimeSeriesSampler
//     "profile": { "sample_period", "hw_period", "hw_backend", "events",
//                  "kinds": { "delivery": {bucket}, "callback": {bucket} },
//                  "protocols": { "<name>": {bucket} } },
//                                         // optional; bucket = { "events",
//                                         // "sampled", "ns",
//                                         // "est_ns_per_event", "hw_sampled",
//                                         // "cache_misses", "branch_misses" }
//     "shards": { "count", "users", "lookahead_us", "windows",
//                 "total_deliveries",
//                 "per_shard": [{"shard","events","deliveries",
//                                "cross_sends",
//                                // contention telemetry (wall-clock,
//                                // machine-dependent; optional):
//                                "busy_ns","barrier_wait_ns",
//                                "mailbox_stalls",
//                                "traffic": [<deliveries sent to shard j>]}] },
//                                         // optional; present when the bench
//                                         // ran the sharded engine (emitted
//                                         // via Report::section)
//     "latency": { "users", "waterfall_period", "waterfall_spans",
//                  "waterfall_dropped",
//                  "protocols": { "<name>": {"count","p50_us","p99_us",
//                                            "p999_us","max_us"} },
//                  "stages": { "queue_wait"|"link"|"crypto_seal"|
//                              "crypto_open"|"wire_frame":
//                                {"unit","count","p50","p99","max"} } },
//                                         // optional; present when the bench
//                                         // attached a net::LatencyTracer.
//                                         // Virtual-time stages are exact
//                                         // and deterministic; crypto/wire
//                                         // stages are wall-clock ns
//     "crypto": { "budget_ms",
//                 "ops": { <name>: {"iters","ns_per_op","ops_per_sec"} },
//                 "hpke_amortization_x", "fused_seal_gain_x" }
//                                         // optional; bench_crypto's per-op
//                                         // throughput table (emitted via
//                                         // Report::section)
//     "timing": { "wall_ms": <number> }
//   }
//
// Additional artifact flags every report-style bench accepts:
//   --flow-log <path>  JSONL knowledge-flow event log (one event per line,
//                      tagged with the run label it came from)
//   --prom <path>      Prometheus text exposition of the global metrics
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "core/analysis.hpp"
#include "net/faults.hpp"
#include "net/profile.hpp"
#include "net/sim.hpp"
#include "obs/flow.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace dcpl::bench {

/// The report schema every bench binary emits. /2 added the optional
/// "timeseries" and "profile" telemetry sections (report_check accepts /1
/// files for already-committed baselines).
inline constexpr const char* kReportSchema = "dcpl-bench-report/2";

#ifndef DCPL_BUILD_TYPE
#define DCPL_BUILD_TYPE ""
#endif

/// The CPU model as the kernel reports it ("unknown" off Linux).
inline std::string cpu_model() {
  std::string model = "unknown";
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return model;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    if (const char* colon = std::strchr(line, ':')) {
      std::string v(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      v.erase(v.find_last_not_of(" \t\n") + 1);
      if (!v.empty()) model = v;
    }
    break;
  }
  std::fclose(f);
  return model;
}

/// The report's "host" object: what report_check --baseline prints when a
/// report and its baseline were measured on different machines or builds.
inline void write_host(obs::JsonWriter& w) {
  const std::string build_type = DCPL_BUILD_TYPE;
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  w.key("host");
  w.begin_object();
  w.kv("hardware_concurrency", std::thread::hardware_concurrency());
  w.kv("cpu", cpu_model());
  w.kv("build_type", build_type.empty() ? "unknown" : build_type);
  w.kv("compiler", compiler);
  w.end_object();
}

struct ExpectedRow {
  std::string display;   // column header as printed in the paper
  std::string party;     // party name in the observation log
  std::string expected;  // the paper's tuple cell
  // Facets for systems using the ▲H/▲N decomposition (empty = plain tuple).
  std::vector<std::pair<std::string, std::string>> facets;
};

/// Prints one derived-vs-paper table; returns true iff every cell matches.
inline bool print_table(const std::string& title,
                        const core::DecouplingAnalysis& analysis,
                        const std::vector<ExpectedRow>& rows) {
  std::printf("\n== %s\n", title.c_str());
  std::printf("  %-22s %-16s %-16s %s\n", "party", "derived", "paper",
              "match");
  bool all_match = true;
  for (const auto& row : rows) {
    const std::string derived =
        row.facets.empty() ? analysis.tuple_for(row.party).to_string()
                           : analysis.faceted_tuple(row.party, row.facets);
    const bool match = derived == row.expected;
    all_match &= match;
    std::printf("  %-22s %-16s %-16s %s\n", row.display.c_str(),
                derived.c_str(), row.expected.c_str(), match ? "yes" : "NO");
  }
  return all_match;
}

/// Prints the decoupled-or-not verdict; returns true iff it matches the
/// paper's verdict (callers must fold this into their exit code).
[[nodiscard]] inline bool print_verdict(
    const core::DecouplingAnalysis& analysis,
    const std::vector<core::Party>& users, bool paper_says_decoupled) {
  const bool decoupled = analysis.is_decoupled(users);
  std::printf("  verdict: %s (paper: %s) — %s\n",
              decoupled ? "decoupled" : "NOT decoupled",
              paper_says_decoupled ? "decoupled" : "NOT decoupled",
              decoupled == paper_says_decoupled ? "reproduced" : "MISMATCH");
  return decoupled == paper_says_decoupled;
}

/// One per instrumented run: streams the run's ObservationLog into a
/// FlowLedger (via the core sink) and registers the ledger with the
/// simulator (virtual-time clock, protocol tags, breach implants), with an
/// online DecouplingMonitor exempting the run's users. Construct after the
/// nodes but before the workload — the cross-validation helper below
/// assumes the ledger saw every observation.
struct FlowHarness {
  obs::FlowLedger ledger;
  obs::DecouplingMonitor monitor;

  FlowHarness(net::Simulator& sim, core::ObservationLog& log,
              const std::vector<core::Party>& users,
              obs::DecouplingMonitor::Mode mode =
                  obs::DecouplingMonitor::Mode::kStoredLogs)
      : monitor(mode) {
    monitor.exempt(users);
    ledger.attach_monitor(&monitor);
    log.set_sink(&ledger);
    sim.set_flow(&ledger);
  }
};

/// Event-by-event cross-validation (§3 tables as streams): folding the
/// ledger's exposures must reproduce exactly the tuples DecouplingAnalysis
/// derives from the end-state log, and — when the ring did not wrap — the
/// resident event slice must fold to the same map.
inline bool flow_fold_matches(const obs::FlowLedger& ledger,
                              const core::DecouplingAnalysis& a) {
  const auto folded = ledger.tuples();
  for (const auto& party : a.parties()) {
    auto it = folded.find(party);
    if (it == folded.end() || !(it->second == a.tuple_for(party))) {
      return false;
    }
  }
  if (ledger.dropped() == 0 && obs::fold_tuples(ledger.events()) != folded) {
    return false;
  }
  return true;
}

/// Accumulates everything a bench produces — tables, named shape checks,
/// scalar measurements — and writes the machine-readable artifacts at
/// finish(). Construct it first thing in main(); it owns --json/--trace
/// argument parsing and enables the global tracer when a trace is wanted.
class Report {
 public:
  Report(std::string name, int argc, char** argv) : name_(std::move(name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) json_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--trace") == 0) trace_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--flow-log") == 0) flow_log_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--prom") == 0) prom_path_ = argv[i + 1];
    }
    if (!trace_path_.empty()) obs::global_tracer().enable();
    wall_start_ = std::chrono::steady_clock::now();
  }

  /// Prints + records one derived-vs-paper table. Returns all-cells-match.
  bool table(const std::string& title, const core::DecouplingAnalysis& a,
             const std::vector<ExpectedRow>& rows) {
    TableResult t;
    t.title = title;
    t.all_match = print_table(title, a, rows);
    for (const auto& row : rows) {
      const std::string derived =
          row.facets.empty() ? a.tuple_for(row.party).to_string()
                             : a.faceted_tuple(row.party, row.facets);
      t.rows.push_back(RowResult{row.display, row.party, derived,
                                 row.expected, derived == row.expected});
    }
    tables_.push_back(std::move(t));
    return tables_.back().all_match;
  }

  /// Prints + records the verdict for the most recent table. Returns
  /// true iff the derived verdict matches the paper's.
  bool verdict(const core::DecouplingAnalysis& a,
               const std::vector<core::Party>& users,
               bool paper_says_decoupled) {
    const bool reproduced = print_verdict(a, users, paper_says_decoupled);
    if (!tables_.empty()) {
      tables_.back().has_verdict = true;
      tables_.back().derived_decoupled = a.is_decoupled(users);
      tables_.back().paper_decoupled = paper_says_decoupled;
      tables_.back().verdict_reproduced = reproduced;
    }
    return reproduced;
  }

  /// Records a named shape assertion; returns `ok` so call sites can fold
  /// it straight into their aggregate flag.
  bool check(const std::string& check_name, bool ok) {
    checks_.push_back({check_name, ok});
    return ok;
  }

  /// Records a scalar measurement (latency, byte count, success rate...).
  void value(const std::string& value_name, double v) {
    values_.emplace_back(value_name, v);
  }

  /// Records the fault counters of a run executed under a net::FaultPlan;
  /// emitted as the report's "faults" object. Repeated calls accumulate
  /// (benches that run several impaired simulators sum their counters).
  void faults(const net::FaultStats& stats) {
    faults_.lost += stats.lost;
    faults_.duplicated += stats.duplicated;
    faults_.jittered += stats.jittered;
    faults_.partition_dropped += stats.partition_dropped;
    faults_.offline_dropped += stats.offline_dropped;
    faults_.breaches_fired += stats.breaches_fired;
    has_faults_ = true;
  }

  /// Folds one run's knowledge-flow ledger (and optional monitor) into the
  /// report's "flow" object. Repeated calls accumulate — benches that run
  /// several ledgers (one per table) tag each with a `run_label`, which
  /// also prefixes the JSONL lines written to --flow-log (event ids restart
  /// per ledger, so an untagged multi-run file would be ambiguous).
  void flow(const obs::FlowLedger& ledger, const obs::DecouplingMonitor* mon,
            const std::string& run_label) {
    has_flow_ = true;
    ++flow_runs_;
    flow_events_ += ledger.events_recorded();
    flow_exposures_ += ledger.exposures();
    flow_links_ += ledger.links();
    flow_compromises_ += ledger.compromises();
    flow_deduped_ += ledger.deduped();
    flow_dropped_ += ledger.dropped();
    if (mon != nullptr) {
      for (const auto& v : mon->violations()) {
        FlowViolation fv;
        fv.run = run_label;
        fv.party = v.party;
        fv.event_id = v.event_id;
        fv.t_us = v.virtual_time;
        fv.tuple = v.tuple.to_string();
        fv.cause = obs::flow_cause_name(v.cause);
        fv.chain = v.chain;
        fv.implant_event_id = v.implant_event_id;
        flow_violations_.push_back(std::move(fv));
      }
    }
    if (!flow_log_path_.empty()) ledger.write_jsonl(flow_jsonl_, run_label);
  }

  /// Serializes `sampler` as the report's "timeseries" section (captured
  /// now, so the sampler may die before finish()). Last call wins — a sweep
  /// records its most interesting point.
  void timeseries(const obs::TimeSeriesSampler& sampler) {
    obs::JsonWriter w;
    sampler.write_json(w);
    timeseries_json_ = w.take();
  }

  /// Attaches a pre-serialized JSON object under `key` at the report's top
  /// level (e.g. the "shards" section bench_scale emits from a sharded
  /// sweep). The key must not collide with a schema-owned section. Last
  /// call per key wins.
  void section(const std::string& key, std::string raw_json) {
    for (auto& [k, v] : sections_) {
      if (k == key) {
        v = std::move(raw_json);
        return;
      }
    }
    sections_.emplace_back(key, std::move(raw_json));
  }

  /// Serializes `profiler` as the report's "profile" section.
  /// `protocol_names` is the owning simulator's protocol_names(). Last call
  /// wins.
  void profile(const net::EngineProfiler& profiler,
               const std::vector<std::string>& protocol_names) {
    obs::JsonWriter w;
    profiler.write_json(w, protocol_names);
    profile_json_ = w.take();
  }

  const std::string& json_path() const { return json_path_; }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& flow_log_path() const { return flow_log_path_; }
  const std::string& prom_path() const { return prom_path_; }

  /// Writes the JSON report and trace (if requested) and converts `ok`
  /// into a process exit code. Any recorded table cell mismatch, failed
  /// verdict, or failed check forces a non-zero exit even if the caller
  /// passed ok=true — reproduction regressions must not exit 0.
  int finish(bool ok) {
    for (const auto& t : tables_) {
      ok &= t.all_match;
      if (t.has_verdict) ok &= t.verdict_reproduced;
    }
    for (const auto& c : checks_) ok &= c.ok;

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start_)
            .count();
    if (!json_path_.empty()) {
      obs::JsonWriter w;
      w.begin_object();
      w.kv("schema", kReportSchema);
      w.kv("bench", name_);
      w.kv("ok", ok);
      write_host(w);
      w.key("tables");
      w.begin_array();
      for (const auto& t : tables_) {
        w.begin_object();
        w.kv("title", t.title);
        w.kv("all_match", t.all_match);
        w.key("rows");
        w.begin_array();
        for (const auto& r : t.rows) {
          w.begin_object();
          w.kv("display", r.display);
          w.kv("party", r.party);
          w.kv("derived", r.derived);
          w.kv("expected", r.expected);
          w.kv("match", r.match);
          w.end_object();
        }
        w.end_array();
        if (t.has_verdict) {
          w.key("verdict");
          w.begin_object();
          w.kv("derived_decoupled", t.derived_decoupled);
          w.kv("paper_decoupled", t.paper_decoupled);
          w.kv("reproduced", t.verdict_reproduced);
          w.end_object();
        }
        w.end_object();
      }
      w.end_array();
      w.key("checks");
      w.begin_array();
      for (const auto& c : checks_) {
        w.begin_object();
        w.kv("name", c.name);
        w.kv("ok", c.ok);
        w.end_object();
      }
      w.end_array();
      w.key("values");
      w.begin_object();
      for (const auto& [k, v] : values_) w.kv(k, v);
      w.end_object();
      w.key("metrics");
      obs::global_registry().write_json(w);
      if (has_faults_) {
        w.key("faults");
        w.begin_object();
        w.kv("lost", static_cast<double>(faults_.lost));
        w.kv("duplicated", static_cast<double>(faults_.duplicated));
        w.kv("jittered", static_cast<double>(faults_.jittered));
        w.kv("partition_dropped",
             static_cast<double>(faults_.partition_dropped));
        w.kv("offline_dropped", static_cast<double>(faults_.offline_dropped));
        w.kv("breaches_fired", static_cast<double>(faults_.breaches_fired));
        w.kv("total_dropped", static_cast<double>(faults_.total_dropped()));
        w.end_object();
      }
      if (has_flow_) {
        w.key("flow");
        w.begin_object();
        w.kv("runs", flow_runs_);
        w.kv("events", flow_events_);
        w.kv("exposures", flow_exposures_);
        w.kv("links", flow_links_);
        w.kv("compromises", flow_compromises_);
        w.kv("deduped", flow_deduped_);
        w.kv("dropped", flow_dropped_);
        w.key("violations");
        w.begin_array();
        for (const auto& v : flow_violations_) {
          w.begin_object();
          w.kv("run", v.run);
          w.kv("party", v.party);
          w.kv("event_id", v.event_id);
          w.kv("t_us", v.t_us);
          w.kv("tuple", v.tuple);
          w.kv("cause", v.cause);
          w.key("chain");
          w.begin_array();
          for (std::uint64_t id : v.chain) w.value(id);
          w.end_array();
          if (v.implant_event_id != 0) {
            w.kv("implant_event_id", v.implant_event_id);
          }
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      if (!timeseries_json_.empty()) {
        w.key("timeseries");
        w.raw(timeseries_json_);
      }
      if (!profile_json_.empty()) {
        w.key("profile");
        w.raw(profile_json_);
      }
      for (const auto& [k, raw] : sections_) {
        w.key(k);
        w.raw(raw);
      }
      w.key("timing");
      w.begin_object();
      w.kv("wall_ms", wall_ms);
      w.end_object();
      w.end_object();
      if (!obs::write_file(json_path_, w.str())) {
        std::fprintf(stderr, "%s: cannot write JSON report %s\n",
                     name_.c_str(), json_path_.c_str());
        ok = false;
      }
    }
    if (!trace_path_.empty() &&
        !obs::global_tracer().write(trace_path_)) {
      std::fprintf(stderr, "%s: cannot write trace %s\n", name_.c_str(),
                   trace_path_.c_str());
      ok = false;
    }
    if (!flow_log_path_.empty() &&
        !obs::write_file(flow_log_path_, flow_jsonl_)) {
      std::fprintf(stderr, "%s: cannot write flow log %s\n", name_.c_str(),
                   flow_log_path_.c_str());
      ok = false;
    }
    if (!prom_path_.empty() &&
        !obs::write_file(prom_path_,
                         obs::metrics_to_prometheus(obs::global_registry()))) {
      std::fprintf(stderr, "%s: cannot write Prometheus text %s\n",
                   name_.c_str(), prom_path_.c_str());
      ok = false;
    }
    return ok ? 0 : 1;
  }

 private:
  struct RowResult {
    std::string display, party, derived, expected;
    bool match;
  };
  struct TableResult {
    std::string title;
    bool all_match = true;
    std::vector<RowResult> rows;
    bool has_verdict = false;
    bool derived_decoupled = false;
    bool paper_decoupled = false;
    bool verdict_reproduced = true;
  };
  struct CheckResult {
    std::string name;
    bool ok;
  };
  struct FlowViolation {
    std::string run, party, tuple, cause;
    std::uint64_t event_id = 0, t_us = 0, implant_event_id = 0;
    std::vector<std::uint64_t> chain;
  };

  std::string name_;
  std::string json_path_;
  std::string trace_path_;
  std::string flow_log_path_;
  std::string prom_path_;
  std::chrono::steady_clock::time_point wall_start_;
  std::vector<TableResult> tables_;
  std::vector<CheckResult> checks_;
  std::vector<std::pair<std::string, double>> values_;
  net::FaultStats faults_;
  bool has_faults_ = false;
  bool has_flow_ = false;
  std::uint64_t flow_runs_ = 0, flow_events_ = 0, flow_exposures_ = 0,
                flow_links_ = 0, flow_compromises_ = 0, flow_deduped_ = 0,
                flow_dropped_ = 0;
  std::vector<FlowViolation> flow_violations_;
  std::string flow_jsonl_;
  std::string timeseries_json_;
  std::string profile_json_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

// ---- Self-timed microbenchmarks (bench_crypto, bench_ppm_ops) ----

/// Defeats dead-code elimination without a benchmark library: fold a byte
/// of every result into a sink the compiler must assume is read.
inline volatile std::uint8_t g_sink = 0;

inline void consume(BytesView b) {
  if (!b.empty()) g_sink = static_cast<std::uint8_t>(g_sink ^ b[0] ^ b.back());
}

inline void consume(std::uint64_t v) {
  g_sink = static_cast<std::uint8_t>(g_sink ^ v);
}

struct OpResult {
  std::string name;
  std::uint64_t iters = 0;
  double ns_per_op = 0;
  double ops_per_sec = 0;
  double mb_per_sec = 0;  // 0 when the op has no natural byte count
};

/// Self-calibrating timer: doubles the batch size until one batch spends at
/// least `budget_ms` of wall time, then reports that batch. The doubling
/// warms caches and branch predictors, so the measured batch is steady
/// state.
template <typename Fn>
OpResult time_op(const std::string& name, std::uint64_t bytes_per_op,
                 double budget_ms, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  std::uint64_t iters = 1;
  double elapsed_ns = 0;
  for (;;) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn(i);
    elapsed_ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count();
    if (elapsed_ns >= budget_ms * 1e6 || iters >= (1ull << 22)) break;
    iters *= 2;
  }
  OpResult r;
  r.name = name;
  r.iters = iters;
  r.ns_per_op = elapsed_ns / static_cast<double>(iters);
  r.ops_per_sec = r.ns_per_op > 0 ? 1e9 / r.ns_per_op : 0;
  if (bytes_per_op > 0) {
    r.mb_per_sec =
        r.ops_per_sec * static_cast<double>(bytes_per_op) / (1024.0 * 1024.0);
  }
  return r;
}

inline void print_row(const OpResult& r) {
  if (r.mb_per_sec > 0) {
    std::printf("  %-28s %12.1f ns/op %14.0f ops/s %10.1f MiB/s\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_sec, r.mb_per_sec);
  } else {
    std::printf("  %-28s %12.1f ns/op %14.0f ops/s\n", r.name.c_str(),
                r.ns_per_op, r.ops_per_sec);
  }
}

/// The --budget-ms flag of the self-timed benches (`fallback` if absent).
inline double budget_ms_flag(int argc, char** argv, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--budget-ms") == 0) {
      return std::strtod(argv[i + 1], nullptr);
    }
  }
  return fallback;
}

}  // namespace dcpl::bench
