// Profiling harness for the 1M-user cliff: replays the bench_scale sweep
// (1k -> 1M, clipped by --users, default 100k) twice per point — once bare,
// once with the full telemetry plane attached (obs::TimeSeriesSampler on a
// 10 ms virtual cadence + net::EngineProfiler with sampled hardware
// counters + the net::LatencyTracer request-tracing plane with stage
// recording on) — and reports both the telemetry itself and what the
// telemetry costs. The overhead of the instrumented run must stay under
// --overhead-budget (default 5%) at the largest swept point, so the plane
// is safe to leave on for full-scale investigations. A second gate
// isolates the tracing plane alone: extra bare-vs-tracer-only run pairs at
// the largest point must show tracing costing under the same budget.
//
// The sampler also carries the shard-contention probes (worker busy ns,
// barrier wait ns, mailbox backpressure) — flat zero on this serial
// harness, populated when the same probes poll a sharded run.
//
// The largest point's series and attribution land in the report's
// "timeseries" and "profile" sections (dcpl-bench-report/2, validated by
// report_check --require-timeseries --require-profile). Sampled series:
// event-queue depth, events processed, payload-pool live slots, bytes
// delivered, and the live sender-anonymity entropy over the mix sink's
// arrival classes.
//
// Extra artifacts beyond the standard report flags:
//   --html <path>      self-contained HTML view (inline SVG, no external
//                      assets) of every series plus the attribution table
//   --ts-trace <path>  Chrome trace counter events ("ph":"C") of the series
//                      on the virtual timeline, loadable in Perfetto next
//                      to a span trace
//   --repeats N        interleaved bare/instrumented run pairs per point,
//                      best-of each side (default 3; ctest smoke uses 1)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "net/profile.hpp"
#include "net/tracing.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "report_util.hpp"
#include "scale_workload.hpp"

namespace {

namespace obs = dcpl::obs;
namespace net = dcpl::net;
namespace core = dcpl::core;
namespace scale = dcpl::bench::scale;

constexpr std::uint64_t kSampleIntervalUs = 10'000;  // 10 ms virtual time

const char* flag_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

double flag_number(int argc, char** argv, const char* name, double fallback) {
  const char* v = flag_value(argc, argv, name);
  return v != nullptr ? std::strtod(v, nullptr) : fallback;
}

struct Instrumented {
  scale::PointResult result;
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  std::unique_ptr<net::EngineProfiler> profiler;
  std::unique_ptr<net::LatencyTracer> tracer;
  std::vector<std::string> protocol_names;
};

/// One instrumented run of a sweep point.
Instrumented run_instrumented(std::size_t n, obs::Registry& registry) {
  // Repeats share the per-size scope: zero it so a later run's events/sec
  // is not computed over an earlier run's accumulated counter.
  registry.reset();
  Instrumented run;
  run.sampler = std::make_unique<obs::TimeSeriesSampler>(kSampleIntervalUs);
  run.profiler = std::make_unique<net::EngineProfiler>();
  run.tracer = std::make_unique<net::LatencyTracer>();

  scale::PointOptions opts;
  opts.registry = &registry;
  opts.tracer = run.tracer.get();
  obs::set_stage_recording(true);
  obs::TimeSeriesSampler* sampler = run.sampler.get();
  net::EngineProfiler* profiler = run.profiler.get();
  opts.on_ready = [sampler, profiler](net::Simulator& sim,
                                      const scale::ScaleSink& sink) {
    sim.set_sampler(sampler);
    sim.set_profiler(profiler);
    sampler->add_probe("queue_depth", [&sim] {
      return static_cast<double>(sim.queue_depth());
    });
    // Shard-contention probes: zero on this serial harness, live numbers
    // when the same registration polls a sharded engine run.
    sampler->add_probe("worker_busy_ns", [&sim] {
      return static_cast<double>(sim.worker_busy_ns());
    });
    sampler->add_probe("barrier_wait_ns", [&sim] {
      return static_cast<double>(sim.barrier_wait_ns());
    });
    sampler->add_probe("mailbox_backpressure", [&sim] {
      return static_cast<double>(sim.mailbox_backpressure());
    });
    sampler->add_counter("events_processed",
                         sim.metrics_registry().counter("events_processed"));
    sampler->add_probe("pool_live", [&sim] {
      return static_cast<double>(sim.payload_pool().live());
    });
    sampler->add_probe("bytes_delivered", [&sim] {
      return static_cast<double>(sim.bytes_delivered());
    });
    // Live sender-anonymity entropy over the mix arrival classes: rises
    // toward log2(kMaxHops) as the three chain-length populations drain
    // into the sink together. Reads the sink's own counters, which on the
    // sharded engine is safe because sampler ticks run with workers parked.
    sampler->add_probe("entropy_bits", [&sink] {
      std::vector<std::size_t> counts;
      counts.reserve(scale::kMaxHops);
      for (int h = 1; h <= scale::kMaxHops; ++h) {
        counts.push_back(
            static_cast<std::size_t>(sink.counts().sink_arrivals[h]));
      }
      return core::entropy_bits(counts);
    });
  };
  std::vector<std::string>* names = &run.protocol_names;
  opts.on_done = [names](net::Simulator& sim, const scale::Tally&) {
    *names = sim.protocol_names();
  };

  run.result = scale::run_point(n, opts);
  obs::set_stage_recording(false);
  return run;
}

struct PointMeasurement {
  scale::PointResult bare;
  Instrumented inst;
};

/// Measures one sweep point: `repeats` interleaved bare/instrumented run
/// pairs, best-of each side. Interleaving matters on noisy hosts — slow
/// drift (frequency scaling, co-tenants) hits both configurations instead
/// of biasing whichever block ran second, so the best-of difference
/// isolates the telemetry cost. Telemetry objects from the winning
/// instrumented run are kept; the losers' die with their runs.
PointMeasurement measure_point(std::size_t n, int repeats,
                               obs::Registry& registry) {
  PointMeasurement m;
  for (int i = 0; i < repeats; ++i) {
    const scale::PointResult bare = scale::run_point(n);
    if (bare.events_per_sec > m.bare.events_per_sec) m.bare = bare;
    Instrumented run = run_instrumented(n, registry);
    if (m.inst.sampler == nullptr ||
        run.result.events_per_sec > m.inst.result.events_per_sec) {
      m.inst = std::move(run);
    }
  }
  return m;
}

void append_html_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '&') {
      out += "&amp;";
    } else if (c == '<') {
      out += "&lt;";
    } else if (c == '>') {
      out += "&gt;";
    } else {
      out += c;
    }
  }
}

void append_bucket_row(std::string& out, const std::string& label,
                       const net::EngineProfiler::Bucket& b) {
  char buf[256];
  out += "<tr><td>";
  append_html_escaped(out, label);
  std::snprintf(buf, sizeof buf,
                "</td><td>%llu</td><td>%llu</td><td>%.1f</td>"
                "<td>%llu</td><td>%llu</td></tr>\n",
                static_cast<unsigned long long>(b.events),
                static_cast<unsigned long long>(b.sampled),
                b.est_ns_per_event(),
                static_cast<unsigned long long>(b.cache_misses),
                static_cast<unsigned long long>(b.branch_misses));
  out += buf;
}

/// Self-contained HTML: one inline-SVG chart per series (no scripts, no
/// external assets) plus the cost-attribution table.
bool write_html(const std::string& path, const obs::TimeSeriesSampler& s,
                const net::EngineProfiler& prof,
                const std::vector<std::string>& proto_names,
                std::size_t users) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
                "<title>bench_profile &mdash; %zu users</title>\n",
                users);
  out += buf;
  out +=
      "<style>body{font:14px/1.4 system-ui,sans-serif;margin:2em;"
      "max-width:60em}svg{background:#f7f7f7;border:1px solid #ddd}"
      "h2{margin:1.2em 0 .3em;font-size:1em}table{border-collapse:collapse}"
      "td,th{border:1px solid #ccc;padding:.25em .6em;text-align:right}"
      "td:first-child,th:first-child{text-align:left}"
      ".meta{color:#666}</style></head><body>\n";
  std::snprintf(buf, sizeof buf,
                "<h1>bench_profile &mdash; %zu users</h1>\n"
                "<p class=\"meta\">%zu samples taken, %zu retained, "
                "%zu decimation(s), final cadence %llu &micro;s virtual "
                "time.</p>\n",
                users, s.samples_taken(), s.size(), s.decimations(),
                static_cast<unsigned long long>(s.interval_us()));
  out += buf;

  const std::vector<std::uint64_t>& times = s.times();
  const double t0 = times.empty() ? 0.0 : static_cast<double>(times.front());
  const double t1 = times.empty() ? 1.0 : static_cast<double>(times.back());
  const double span = t1 > t0 ? t1 - t0 : 1.0;
  constexpr double kW = 760.0, kH = 100.0, kPad = 10.0;
  for (std::size_t i = 0; i < s.probe_count(); ++i) {
    const std::vector<double>& pts = s.points(i);
    double vmax = 0.0;
    for (double v : pts) vmax = std::max(vmax, v);
    if (vmax <= 0.0) vmax = 1.0;
    out += "<h2>";
    append_html_escaped(out, s.name(i));
    std::snprintf(buf, sizeof buf,
                  " <span class=\"meta\">(max %.6g)</span></h2>\n"
                  "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
                  "height=\"%.0f\"><polyline fill=\"none\" stroke=\"#36845b\" "
                  "stroke-width=\"1.5\" points=\"",
                  vmax, kW + 2 * kPad, kH + 2 * kPad, kW + 2 * kPad,
                  kH + 2 * kPad);
    out += buf;
    for (std::size_t j = 0; j < pts.size() && j < times.size(); ++j) {
      const double x =
          kPad + (static_cast<double>(times[j]) - t0) / span * kW;
      const double y = kPad + kH - pts[j] / vmax * kH;
      std::snprintf(buf, sizeof buf, "%.1f,%.1f ", x, y);
      out += buf;
    }
    out += "\"/></svg>\n";
  }

  std::snprintf(buf, sizeof buf,
                "<h2>cost attribution</h2>\n"
                "<p class=\"meta\">clock sample period %llu events, hardware "
                "period %llu events, backend %s.</p>\n"
                "<table><tr><th>bucket</th><th>events</th><th>sampled</th>"
                "<th>est ns/event</th><th>cache misses</th>"
                "<th>branch misses</th></tr>\n",
                static_cast<unsigned long long>(prof.sample_period()),
                static_cast<unsigned long long>(prof.hw_period()),
                prof.hw_backend());
  out += buf;
  append_bucket_row(out, "delivery", prof.kind(net::EngineEvent::kDelivery));
  append_bucket_row(out, "callback", prof.kind(net::EngineEvent::kCallback));
  const std::vector<net::EngineProfiler::Bucket>& protos = prof.protocols();
  for (std::size_t i = 0; i < protos.size(); ++i) {
    if (protos[i].events == 0) continue;
    const std::string label = i < proto_names.size() && !proto_names[i].empty()
                                  ? "proto: " + proto_names[i]
                                  : "proto: #" + std::to_string(i);
    append_bucket_row(out, label, protos[i]);
  }
  out += "</table>\n</body></html>\n";
  return obs::write_file(path, out);
}

void print_bucket(const char* label, const net::EngineProfiler::Bucket& b) {
  std::printf("  %-16s %12llu %10llu %12.1f %12llu %12llu\n", label,
              static_cast<unsigned long long>(b.events),
              static_cast<unsigned long long>(b.sampled), b.est_ns_per_event(),
              static_cast<unsigned long long>(b.cache_misses),
              static_cast<unsigned long long>(b.branch_misses));
}

}  // namespace

int main(int argc, char** argv) {
  dcpl::bench::Report report("bench_profile", argc, argv);
  const std::size_t cap = scale::parse_users(argc, argv);
  const std::vector<std::size_t> sweep = scale::sweep_sizes(cap);
  const int repeats =
      std::max(1, static_cast<int>(flag_number(argc, argv, "--repeats", 3)));
  const double budget_pct = flag_number(argc, argv, "--overhead-budget", 5.0);
  const char* html_path = flag_value(argc, argv, "--html");
  const char* ts_trace_path = flag_value(argc, argv, "--ts-trace");

  std::printf(
      "== bench_profile: telemetry plane over the scale sweep, "
      "%zu-user cap (best of %d)\n",
      cap, repeats);
  std::printf("  %10s %14s %14s %10s %9s %9s\n", "users", "bare ev/s",
              "telem ev/s", "overhead", "samples", "retained");

  bool ok = true;
  Instrumented last;  // the largest point's telemetry, kept for the report
  double last_overhead_pct = 0.0;
  for (std::size_t n : sweep) {
    obs::Registry& registry =
        obs::global_registry().scope("profile").scope("n" + std::to_string(n));
    PointMeasurement m = measure_point(n, repeats, registry);
    const scale::PointResult& bare = m.bare;
    Instrumented inst = std::move(m.inst);

    const double overhead_pct =
        bare.events_per_sec > 0
            ? (bare.events_per_sec - inst.result.events_per_sec) /
                  bare.events_per_sec * 100.0
            : 0.0;
    std::printf("  %10zu %14.0f %14.0f %9.1f%% %9zu %9zu\n", n,
                bare.events_per_sec, inst.result.events_per_sec, overhead_pct,
                inst.sampler->samples_taken(), inst.sampler->size());

    const std::string tag = "n" + std::to_string(n) + "_";
    report.value(tag + "bare_events_per_sec", bare.events_per_sec);
    report.value(tag + "events_per_sec", inst.result.events_per_sec);
    report.value(tag + "telemetry_overhead_pct", overhead_pct);
    report.value(tag + "events", inst.result.events);
    report.value(tag + "peak_queue_depth", inst.result.peak_queue_depth);
    report.value(tag + "samples_taken",
                 static_cast<double>(inst.sampler->samples_taken()));
    report.value(tag + "samples_retained",
                 static_cast<double>(inst.sampler->size()));
    ok &= report.check(tag + "workload_complete",
                       inst.result.ohttp_complete && inst.result.mix_complete &&
                           inst.result.overhead_exact);
    ok &= report.check(tag + "sampler_saw_run",
                       inst.sampler->samples_taken() >= 2);
    ok &= report.check(
        tag + "profiler_counted_all_events",
        inst.profiler->events() ==
            static_cast<std::uint64_t>(inst.result.events) &&
            inst.profiler->kind(net::EngineEvent::kDelivery).events +
                    inst.profiler->kind(net::EngineEvent::kCallback).events ==
                inst.profiler->events());

    last = std::move(inst);
    last_overhead_pct = overhead_pct;
  }

  // The budget gate, at the largest swept point only: small points finish in
  // milliseconds, where scheduler noise dwarfs the sampler. Negative
  // overhead is run-to-run noise, not a speedup — clamp it.
  const bool under_budget = std::max(0.0, last_overhead_pct) < budget_pct;
  std::printf("  telemetry overhead at n=%zu: %.1f%% (budget %.1f%%) — %s\n",
              cap, last_overhead_pct, budget_pct,
              under_budget ? "ok" : "OVER BUDGET");
  ok &= report.check("telemetry_overhead_under_budget", under_budget);
  report.value("overhead_budget_pct", budget_pct);

  // Tracing plane in isolation, same largest point: interleaved bare vs
  // tracer-only (no sampler, no profiler) run pairs, best-of each side.
  // The per-event cost is one trace-context stamp per send plus one
  // recorder record (two relaxed fetch_adds: bucket and sum) per terminal
  // hop and per stage — it must fit the same budget so tracing can stay on
  // wherever the telemetry plane does.
  double trace_bare_best = 0.0, traced_best = 0.0;
  std::uint64_t traced_requests = 0;
  for (int i = 0; i < repeats; ++i) {
    const scale::PointResult bare = scale::run_point(cap);
    trace_bare_best = std::max(trace_bare_best, bare.events_per_sec);
    net::LatencyTracer tracer;
    scale::PointOptions topts;
    topts.tracer = &tracer;
    obs::set_stage_recording(true);
    const scale::PointResult traced = scale::run_point(cap, topts);
    obs::set_stage_recording(false);
    if (traced.events_per_sec > traced_best) {
      traced_best = traced.events_per_sec;
      traced_requests = 0;
      for (std::size_t p = 0; p < net::LatencyTracer::kMaxProtocols; ++p) {
        traced_requests +=
            tracer.e2e(static_cast<net::ProtocolId>(p)).count();
      }
    }
  }
  const double tracing_overhead_pct =
      trace_bare_best > 0
          ? (trace_bare_best - traced_best) / trace_bare_best * 100.0
          : 0.0;
  const bool tracing_under_budget =
      std::max(0.0, tracing_overhead_pct) < budget_pct;
  std::printf("  tracing overhead at n=%zu: %.1f%% (budget %.1f%%) — %s\n",
              cap, tracing_overhead_pct, budget_pct,
              tracing_under_budget ? "ok" : "OVER BUDGET");
  report.value("tracing_overhead_pct", tracing_overhead_pct);
  ok &= report.check("tracing_overhead_under_budget", tracing_under_budget);
  // One end-to-end sample per OHTTP round trip and per mix send.
  ok &= report.check("tracing_traced_all_requests",
                     traced_requests == 2 * static_cast<std::uint64_t>(cap));

  std::printf("\n== cost attribution at n=%zu (%s hardware counters)\n", cap,
              last.profiler->hw_available() ? "with" : "no");
  std::printf("  %-16s %12s %10s %12s %12s %12s\n", "bucket", "events",
              "sampled", "est ns/ev", "cache miss", "branch miss");
  print_bucket("delivery", last.profiler->kind(net::EngineEvent::kDelivery));
  print_bucket("callback", last.profiler->kind(net::EngineEvent::kCallback));
  const std::vector<net::EngineProfiler::Bucket>& protos =
      last.profiler->protocols();
  for (std::size_t i = 0; i < protos.size(); ++i) {
    if (protos[i].events == 0) continue;
    const std::string label = i < last.protocol_names.size()
                                  ? last.protocol_names[i]
                                  : "proto" + std::to_string(i);
    print_bucket(label.c_str(), protos[i]);
  }

  // The largest point's telemetry becomes the report's /2 sections, its
  // last values become dcpl_ts_* gauges for --prom, and the optional HTML
  // and counter-trace artifacts.
  report.timeseries(*last.sampler);
  report.profile(*last.profiler, last.protocol_names);
  last.sampler->publish_last_values(obs::global_registry());
  if (ts_trace_path != nullptr) {
    ok &= report.check("ts_trace_written",
                       last.sampler->write_chrome_trace_file(ts_trace_path));
  }
  if (html_path != nullptr) {
    ok &= report.check("html_written",
                       write_html(html_path, *last.sampler, *last.profiler,
                                  last.protocol_names, cap));
  }

  return report.finish(ok);
}
