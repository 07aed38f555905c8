// Tests for the observability layer: metrics registry (counter/gauge/
// histogram quantiles, scopes, snapshot/reset), the minimal JSON writer/
// parser, span tracing including the Chrome trace-event schema and the
// simulator's virtual-time track, and the log-bucketed LatencyRecorder
// behind the request-tracing plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <new>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/sim.hpp"
#include "obs/json.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace dcpl {
namespace {

// ---- JSON -----------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(obs::json_escape(std::string("nul\x01", 4)), "nul\\u0001");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(obs::json_escape("§4.3 — ▲"), "§4.3 — ▲");
}

TEST(Json, EscapesInvalidUtf8AsByteEscapes) {
  // Lone continuation byte, truncated 2-byte lead, overlong encoding of
  // '/': none of these may pass through raw (the output must stay valid
  // UTF-8 JSON), so each invalid byte becomes \u00XX.
  EXPECT_EQ(obs::json_escape("\x80"), "\\u0080");
  EXPECT_EQ(obs::json_escape("a\xC3"), "a\\u00c3");
  EXPECT_EQ(obs::json_escape("\xC0\xAF"), "\\u00c0\\u00af");
  // A valid sequence right after an invalid byte still passes through.
  EXPECT_EQ(obs::json_escape("\xFF▲"), "\\u00ff▲");
}

TEST(Json, AllByteValuesRoundTripThroughWriterAndParser) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bytes", all);
  w.end_object();

  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonParser::parse(w.str(), v));
  EXPECT_EQ(v.at("bytes").string, all);  // lossless: every byte 0x00..0xFF
}

TEST(Json, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", "bench \"x\"\n");
  w.kv("ok", true);
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 0.125);
  w.key("items");
  w.begin_array();
  w.value(1);
  w.value(-2);
  w.begin_object();
  w.kv("nested", false);
  w.end_object();
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();

  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonParser::parse(w.str(), v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").string, "bench \"x\"\n");
  EXPECT_TRUE(v.at("ok").boolean);
  EXPECT_EQ(v.at("count").number, 42.0);
  EXPECT_EQ(v.at("ratio").number, 0.125);
  ASSERT_EQ(v.at("items").array.size(), 3u);
  EXPECT_EQ(v.at("items").array[1].number, -2.0);
  EXPECT_FALSE(v.at("items").array[2].at("nested").boolean);
  EXPECT_TRUE(v.at("empty").object.empty());
}

TEST(Json, ParserRejectsMalformedInput) {
  obs::JsonValue v;
  EXPECT_FALSE(obs::JsonParser::parse("{", v));
  EXPECT_FALSE(obs::JsonParser::parse("{\"a\":}", v));
  EXPECT_FALSE(obs::JsonParser::parse("[1,]", v));
  EXPECT_FALSE(obs::JsonParser::parse("\"unterminated", v));
  EXPECT_FALSE(obs::JsonParser::parse("{} trailing", v));
}

TEST(Json, WriteFileReplacesContentsAndReportsOpenFailure) {
  const std::string path = ::testing::TempDir() + "dcpl_test_write_file.txt";
  ASSERT_TRUE(obs::write_file(path, "first body, longer\n"));
  ASSERT_TRUE(obs::write_file(path, std::string("a\0b", 3)));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64];
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), std::string("a\0b", 3));
  std::remove(path.c_str());
  EXPECT_FALSE(obs::write_file(path + ".missing-dir/x", "body"));
}

// ---- Metrics --------------------------------------------------------------

TEST(Metrics, CounterIdentityAndLabels) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("packets");
  obs::Counter& b = reg.counter("packets");
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same handle
  a.inc();
  a.inc(9);
  EXPECT_EQ(b.value(), 10u);

  obs::Counter& labeled = reg.counter("packets", {{"link", "a->b"}});
  EXPECT_NE(&a, &labeled);
  labeled.inc(3);
  EXPECT_EQ(a.value(), 10u);
  EXPECT_EQ(labeled.value(), 3u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("queue_depth");
  g.set(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3.0);
}

TEST(Metrics, GaugeTracksHighWatermark) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("queue_depth");
  EXPECT_EQ(g.peak(), 0.0);
  g.set(5);
  g.set(2);
  EXPECT_EQ(g.value(), 2.0);
  EXPECT_EQ(g.peak(), 5.0);  // the drop doesn't erase the high-watermark
  g.add(7);                  // 2 + 7 = 9: new peak via add()
  EXPECT_EQ(g.peak(), 9.0);
  g.add(-4);
  EXPECT_EQ(g.value(), 5.0);
  EXPECT_EQ(g.peak(), 9.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.peak(), 0.0);
}

TEST(Metrics, OpCounterFollowsTheRegistryItIsHanded) {
  obs::Registry reg_a, reg_b;
  obs::OpCounter handle("retry", "sends");
  handle.in(reg_a).inc();
  handle.in(reg_a).inc();
  EXPECT_EQ(reg_a.scope("retry").counter("sends").value(), 2u);

  // Handing a different registry re-resolves; the old one stays frozen.
  handle.in(reg_b).inc(5);
  EXPECT_EQ(reg_b.scope("retry").counter("sends").value(), 5u);
  EXPECT_EQ(reg_a.scope("retry").counter("sends").value(), 2u);

  // Swapping back re-binds to the original counter, preserving its value.
  handle.in(reg_a).inc();
  EXPECT_EQ(reg_a.scope("retry").counter("sends").value(), 3u);

  // A scope-less handle resolves at the registry root.
  obs::OpCounter root_handle("", "events");
  root_handle.in(reg_a).inc();
  EXPECT_EQ(reg_a.counter("events").value(), 1u);
}

TEST(Metrics, OpCounterTellsApartARegistryBuiltAtAFreedAddress) {
  // A registry built where a destroyed one lived must not inherit the
  // binding to the destroyed registry's counter.
  obs::OpCounter counter("retry", "sends");
  alignas(obs::Registry) unsigned char storage[sizeof(obs::Registry)];
  auto* first = new (storage) obs::Registry;
  counter.in(*first).inc();
  first->~Registry();
  auto* second = new (storage) obs::Registry;
  counter.in(*second).inc(2);
  EXPECT_EQ(second->scope("retry").counter("sends").value(), 2u);
  second->~Registry();
}

TEST(Metrics, CounterAndGaugeAreThreadSafe) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("hits");
  obs::Gauge& g = reg.gauge("depth");
  constexpr int kThreads = 4;
  constexpr int kIncs = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &g] {
      for (int i = 0; i < kIncs; ++i) {
        c.inc();
        g.add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  // Atomic counters: no lost updates under concurrent increment (the
  // pre-fix counters dropped updates here and raced under TSan).
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
  EXPECT_EQ(g.value(), static_cast<double>(kThreads * kIncs));
  EXPECT_EQ(g.peak(), static_cast<double>(kThreads * kIncs));
}

TEST(Metrics, OpCounterRebindsAfterRegistrySwap) {
  // Regression: a `static Counter&` bound at first call kept counting into
  // a swapped-out registry. OpCounter must follow the active registry.
  obs::OpCounter ops("swaptest", "ops");
  const std::uint64_t global_before =
      obs::op_counter("swaptest", "ops").value();
  ops.inc();  // binds to the currently active (global) registry
  EXPECT_EQ(obs::op_counter("swaptest", "ops").value(), global_before + 1);

  obs::Registry sandbox;
  obs::Registry* prev = obs::set_op_registry(&sandbox);
  ops.inc(4);  // must land in the sandbox, not the stale binding
  EXPECT_EQ(sandbox.scope("swaptest").counter("ops").value(), 4u);

  obs::set_op_registry(prev);
  ops.inc();  // and follow the swap back
  EXPECT_EQ(obs::op_counter("swaptest", "ops").value(), global_before + 2);
  EXPECT_EQ(sandbox.scope("swaptest").counter("ops").value(), 4u);
}

TEST(Metrics, OpCounterSurvivesConcurrentSwaps) {
  // Shard threads increment while a bench harness swaps registries: every
  // increment must land in exactly one registry (none lost, none doubled),
  // and TSan must stay quiet.
  obs::OpCounter ops("swapstress", "ops");
  const std::uint64_t global_before =
      obs::op_counter("swapstress", "ops").value();
  obs::Registry sandbox;
  constexpr int kThreads = 3;
  constexpr int kIncs = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ops] {
      for (int i = 0; i < kIncs; ++i) ops.inc();
    });
  }
  for (int swap = 0; swap < 200; ++swap) {
    obs::Registry* prev = obs::set_op_registry(&sandbox);
    obs::set_op_registry(prev);
  }
  for (auto& w : workers) w.join();
  const std::uint64_t in_global =
      obs::op_counter("swapstress", "ops").value() - global_before;
  const std::uint64_t in_sandbox =
      sandbox.scope("swapstress").counter("ops").value();
  EXPECT_EQ(in_global + in_sandbox,
            static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(Metrics, ScopedSnapshotAndReset) {
  obs::Registry reg;
  reg.counter("top").inc(7);
  reg.scope("sim").counter("packets").inc(2);
  reg.scope("sim").gauge("depth").set(4);
  reg.scope("sim").histogram("lat").record(10);

  obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* top = snap.find("top");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->value, 7.0);
  const obs::SnapshotEntry* pk = snap.find("sim.packets");
  ASSERT_NE(pk, nullptr);  // child metrics appear scope-qualified
  EXPECT_EQ(pk->value, 2.0);
  ASSERT_NE(snap.find("sim.depth"), nullptr);
  const obs::SnapshotEntry* lat = snap.find("sim.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->value, 1.0);  // histogram count
  EXPECT_EQ(lat->min, 10u);

  // reset() zeroes the whole subtree without invalidating handles.
  obs::Counter& handle = reg.scope("sim").counter("packets");
  reg.reset();
  EXPECT_EQ(handle.value(), 0u);
  EXPECT_EQ(reg.counter("top").value(), 0u);
  handle.inc();
  EXPECT_EQ(reg.scope("sim").counter("packets").value(), 1u);
}

TEST(Metrics, RegistryJsonIsParseable) {
  obs::Registry reg;
  reg.counter("ops", {{"kind", "seal"}}).inc(5);
  reg.scope("sub").histogram("h").record(3);
  obs::JsonWriter w;
  reg.write_json(w);
  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonParser::parse(w.str(), v));
  ASSERT_TRUE(v.is_object());
  ASSERT_TRUE(v.has("ops{kind=seal}"));
  EXPECT_EQ(v.at("ops{kind=seal}").number, 5.0);
  ASSERT_TRUE(v.has("sub.h"));
  EXPECT_EQ(v.at("sub.h").at("count").number, 1.0);
}

// ---- Prometheus exposition ------------------------------------------------

TEST(Metrics, PrometheusExposition) {
  obs::Registry reg;
  reg.counter("ops", {{"kind", "seal"}}).inc(5);
  reg.gauge("depth").set(9);
  reg.gauge("depth").set(4);  // peak stays 9
  reg.scope("sim").histogram("lat_us").record(7);
  reg.scope("sim").histogram("lat_us").record(5000);

  const std::string text = obs::metrics_to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE dcpl_ops counter"), std::string::npos);
  EXPECT_NE(text.find("dcpl_ops{kind=\"seal\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dcpl_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("dcpl_depth 4"), std::string::npos);
  EXPECT_NE(text.find("dcpl_depth_peak 9"), std::string::npos);
  // One cumulative bucket per occupied recorder bucket, edged at its
  // upper value (7 is exact; 5000 lands in [4608, 5119]), then +Inf ==
  // count and the exact sum.
  EXPECT_NE(text.find("# TYPE dcpl_sim_lat_us histogram\n"
                      "dcpl_sim_lat_us_bucket{le=\"7\"} 1\n"
                      "dcpl_sim_lat_us_bucket{le=\"5119\"} 2\n"
                      "dcpl_sim_lat_us_bucket{le=\"+Inf\"} 2\n"
                      "dcpl_sim_lat_us_sum 5007\n"
                      "dcpl_sim_lat_us_count 2\n"),
            std::string::npos)
      << text;
}

TEST(Metrics, PrometheusEmptyRegistryIsEmptyText) {
  obs::Registry reg;
  EXPECT_EQ(obs::metrics_to_prometheus(reg), "");
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  obs::Registry reg;
  // Prometheus label values escape backslash, double quote, and newline —
  // everything else (including the brace-y bits) passes through raw.
  reg.counter("ops", {{"path", "a\\b"}}).inc(1);
  reg.counter("ops", {{"q", "say \"hi\""}}).inc(2);
  reg.counter("ops", {{"msg", "line1\nline2"}}).inc(3);

  const std::string text = obs::metrics_to_prometheus(reg);
  EXPECT_NE(text.find("dcpl_ops{path=\"a\\\\b\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dcpl_ops{q=\"say \\\"hi\\\"\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dcpl_ops{msg=\"line1\\nline2\"} 3"), std::string::npos)
      << text;
  // The raw newline must NOT appear inside any exposition line — only the
  // two-character escape. Every line must end cleanly at a sample or TYPE.
  EXPECT_EQ(text.find("line1\nline2"), std::string::npos);
}

TEST(Metrics, PrometheusHistogramWithOneSample) {
  obs::Registry reg;
  reg.histogram("lat").record(50);
  // Empty buckets are not exported: 50's bucket [48, 51], then +Inf.
  EXPECT_EQ(obs::metrics_to_prometheus(reg),
            "# TYPE dcpl_lat histogram\n"
            "dcpl_lat_bucket{le=\"51\"} 1\n"
            "dcpl_lat_bucket{le=\"+Inf\"} 1\n"
            "dcpl_lat_sum 50\n"
            "dcpl_lat_count 1\n");
}

// ---- Time-series sampler --------------------------------------------------

TEST(Sampler, SamplesOnVirtualCadence) {
  obs::TimeSeriesSampler s(100);
  double v = 0;
  s.add_probe("v", [&v] { return v; });

  EXPECT_EQ(s.next_due(), 0u);
  v = 1;
  EXPECT_TRUE(s.maybe_sample(0));  // due immediately at t=0
  EXPECT_FALSE(s.maybe_sample(50));
  EXPECT_FALSE(s.maybe_sample(99));
  v = 2;
  EXPECT_TRUE(s.maybe_sample(100));
  // Jumping far past the deadline takes ONE sample at the jump time and
  // re-arms past it — missed instants are not back-filled.
  v = 3;
  EXPECT_TRUE(s.maybe_sample(1234));
  EXPECT_EQ(s.next_due(), 1300u);

  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.times(), (std::vector<std::uint64_t>{0, 100, 1234}));
  EXPECT_EQ(s.points(0), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(s.last("v"), 3.0);
  EXPECT_EQ(s.last("unknown"), 0.0);
}

TEST(Sampler, DecimatesAndDoublesCadenceWhenFull) {
  obs::TimeSeriesSampler s(10, 8);
  std::uint64_t t = 0;
  s.add_probe("t", [&t] { return static_cast<double>(t); });

  for (t = 0; t <= 200; t += 10) s.maybe_sample(t);
  // 21 instants offered through a ring of 8: memory stays bounded, the
  // cadence coarsens (so instants between the new deadlines are skipped,
  // not stored-then-dropped), and at least one decimation happened.
  EXPECT_LT(s.samples_taken(), 21u);
  EXPECT_GE(s.samples_taken(), 8u);
  EXPECT_LE(s.size(), 8u);
  EXPECT_GE(s.size(), 4u);
  EXPECT_GE(s.decimations(), 1u);
  EXPECT_GT(s.interval_us(), 10u);
  // Every retained point is a real observation spanning the run: strictly
  // increasing times, value recorded at its own instant, oldest point kept.
  const std::vector<std::uint64_t>& times = s.times();
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]);
    EXPECT_EQ(static_cast<double>(times[i]), s.points(0)[i]);
  }
  EXPECT_EQ(times.front(), 0u);
  EXPECT_GE(times.back(), 150u);  // the tail of the run is still covered
}

TEST(Sampler, JsonSectionRoundTrips) {
  obs::TimeSeriesSampler s(100);
  obs::Registry reg;
  obs::Counter& c = reg.counter("n");
  s.add_counter("n", c);
  s.add_gauge("g", reg.gauge("g"));
  c.inc(5);
  reg.gauge("g").set(2);
  s.sample_now(0);
  c.inc(5);
  s.sample_now(100);

  obs::JsonWriter w;
  s.write_json(w);
  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonParser::parse(w.str(), v));
  EXPECT_EQ(v.at("interval_us").number, 100.0);
  EXPECT_EQ(v.at("samples_taken").number, 2.0);
  EXPECT_EQ(v.at("retained").number, 2.0);
  EXPECT_EQ(v.at("decimations").number, 0.0);
  const obs::JsonValue& series = v.at("series");
  ASSERT_TRUE(series.has("n"));
  EXPECT_EQ(series.at("n").array[0].array[0].number, 0.0);
  EXPECT_EQ(series.at("n").array[0].array[1].number, 5.0);
  EXPECT_EQ(series.at("n").array[1].array[1].number, 10.0);
  EXPECT_EQ(series.at("g").array[1].array[1].number, 2.0);
}

TEST(Sampler, PublishesLastValuesAsPrometheusGauges) {
  obs::TimeSeriesSampler s(100);
  double depth = 7;
  s.add_probe("queue_depth", [&depth] { return depth; });
  s.sample_now(0);

  obs::Registry reg;
  s.publish_last_values(reg);
  const std::string text = obs::metrics_to_prometheus(reg);
  EXPECT_NE(text.find("dcpl_ts_queue_depth 7"), std::string::npos) << text;
}

// ---- Tracing --------------------------------------------------------------

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer t;
  {
    obs::Span s(t, "ignored");
    s.arg("k", "v");
  }
  EXPECT_TRUE(t.events().empty());
}

TEST(Trace, ChromeTraceEventSchema) {
  obs::Tracer t;
  t.enable();
  t.set_virtual_clock([] { return std::uint64_t{123}; });
  {
    obs::Span s(t, "phase.one", "proto");
    s.arg("party", "relay");
  }
  t.clear_virtual_clock();
  { obs::Span s(t, "phase.two"); }
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_TRUE(t.events()[0].has_virtual);
  EXPECT_EQ(t.events()[0].vts_us, 123u);
  EXPECT_FALSE(t.events()[1].has_virtual);

  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonParser::parse(t.to_chrome_json(), v));
  const obs::JsonValue& events = v.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::size_t spans = 0;
  for (const auto& e : events.array) {
    if (e.at("ph").string == "M") continue;  // process_name metadata
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    ++spans;
  }
  // phase.one appears on both the wall (pid 1) and virtual (pid 2) tracks.
  EXPECT_GE(spans, 3u);
}

// Driving a Simulator with a tracer attached must yield a non-empty
// Perfetto-compatible trace whose delivery spans carry virtual time.
TEST(Trace, SimulatorRunProducesVirtualTimeTrace) {
  class Sink final : public net::Node {
   public:
    using Node::Node;
    void on_packet(const net::Packet&, net::Simulator&) override {}
  };

  obs::Tracer tracer;
  tracer.enable();
  obs::Registry metrics;

  net::Simulator sim;
  sim.set_tracer(tracer);
  sim.set_metrics(metrics);
  Sink a("a"), b("b");
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 1000);
  sim.at(5, [&] {
    sim.send(net::Packet{"a", "b", Bytes(64, 0xab), 1, "test"});
  });
  sim.run();

  ASSERT_FALSE(tracer.events().empty());
  bool saw_delivery = false;
  for (const auto& e : tracer.events()) {
    if (e.name == "deliver:test") {
      saw_delivery = true;
      EXPECT_TRUE(e.has_virtual);
      EXPECT_EQ(e.vts_us, 1005u);  // sent at t=5 over a 1000us link
    }
  }
  EXPECT_TRUE(saw_delivery);

  obs::JsonValue v;
  ASSERT_TRUE(obs::JsonParser::parse(tracer.to_chrome_json(), v));
  EXPECT_FALSE(v.at("traceEvents").array.empty());

  // The redirected registry saw the delivery too.
  obs::Snapshot snap = metrics.snapshot();
  const obs::SnapshotEntry* pk = snap.find("packets_delivered");
  ASSERT_NE(pk, nullptr);
  EXPECT_EQ(pk->value, 1.0);
  const obs::SnapshotEntry* by = snap.find("bytes_delivered");
  ASSERT_NE(by, nullptr);
  EXPECT_EQ(by->value, 64.0);
}

// ---- LatencyRecorder ------------------------------------------------------

// Deterministic value stream with a wide dynamic range: small exact values,
// mid-range, and multi-octave outliers.
std::vector<std::uint64_t> latency_stream(std::size_t n) {
  std::vector<std::uint64_t> v;
  v.reserve(n);
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = x >> 33;
    switch (i % 4) {
      case 0: v.push_back(r % 8); break;            // exact sub-8 buckets
      case 1: v.push_back(100 + r % 900); break;    // ~queue-wait range
      case 2: v.push_back(10'000 + r % 90'000); break;  // ~link range
      default: v.push_back(r % 100'000'000); break;     // long tail
    }
  }
  return v;
}

// The exact value LatencyRecorder::quantile targets: the rank-ceil(q*n)
// sample of the sorted stream.
std::uint64_t exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

TEST(LatencyRecorder, BucketIndexCoversFullRangeWithBoundedError) {
  using R = obs::LatencyRecorder;
  // Values below the sub-bucket count get exact buckets.
  for (std::uint64_t v = 0; v < R::kSubBuckets; ++v) {
    EXPECT_EQ(R::bucket_index(v), v);
    EXPECT_EQ(R::bucket_upper(R::bucket_index(v)), v);
  }
  // Everywhere else the bucket's upper edge over-reports by at most
  // 2^-kSubBits (12.5%), including around octave boundaries and at the
  // top of the range.
  for (std::uint64_t v : latency_stream(4096)) {
    const std::size_t i = R::bucket_index(v);
    ASSERT_LT(i, R::kBucketCount);
    const std::uint64_t upper = R::bucket_upper(i);
    EXPECT_GE(upper, v);
    EXPECT_LE(upper - v, v / R::kSubBuckets + 1);
  }
  EXPECT_EQ(R::bucket_index(~std::uint64_t{0}), R::kBucketCount - 1);
  EXPECT_EQ(R::bucket_upper(R::kBucketCount - 1), ~std::uint64_t{0});
}

TEST(LatencyRecorder, QuantilesTrackExactQuantilesWithinLogBucketError) {
  // Besides the wide stream: one sample (every quantile IS that sample,
  // though its bucket's upper edge is 39), and two close samples sharing
  // the bucket [960, 1023] (no quantile may leave [1000, 1001]).
  for (const std::vector<std::uint64_t>& stream :
       {latency_stream(20'000), std::vector<std::uint64_t>{37},
        std::vector<std::uint64_t>{1000, 1001}}) {
    SCOPED_TRACE("samples=" + std::to_string(stream.size()));
    obs::LatencyRecorder rec;
    for (std::uint64_t v : stream) rec.record(v);

    EXPECT_EQ(rec.count(), stream.size());
    EXPECT_EQ(rec.min(), *std::min_element(stream.begin(), stream.end()));
    EXPECT_EQ(rec.max(), *std::max_element(stream.begin(), stream.end()));
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const std::uint64_t exact = exact_quantile(stream, q);
      const std::uint64_t got = rec.quantile(q);
      // The reported value is the rank sample's bucket upper edge: never
      // below the exact quantile, never more than one sub-bucket above
      // it, and always clamped into the observed [min, max].
      EXPECT_GE(got, exact) << "q=" << q;
      EXPECT_LE(got, exact + exact / obs::LatencyRecorder::kSubBuckets + 1)
          << "q=" << q;
      EXPECT_GE(got, rec.min()) << "q=" << q;
      EXPECT_LE(got, rec.max()) << "q=" << q;
    }
  }
}

TEST(LatencyRecorder, MergeIsExactAndCommutative) {
  const std::vector<std::uint64_t> stream = latency_stream(9'000);
  obs::LatencyRecorder whole;
  obs::LatencyRecorder parts[3];
  for (std::size_t i = 0; i < stream.size(); ++i) {
    whole.record(stream[i]);
    parts[i % 3].record(stream[i]);
  }
  obs::LatencyRecorder merged;
  for (const auto& p : parts) merged.merge(p);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(whole.sum(),
            std::accumulate(stream.begin(), stream.end(), std::uint64_t{0}));
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  // Bit-identical bucket state, not just matching quantiles — recording is
  // a commutative add, so any partition of the stream merges back to the
  // same histogram. This is what makes sharded-run percentiles identical
  // to serial-run percentiles.
  for (std::size_t i = 0; i < obs::LatencyRecorder::kBucketCount; ++i) {
    ASSERT_EQ(merged.bucket(i), whole.bucket(i)) << "bucket " << i;
  }
  // Merging an empty recorder must not disturb sum/min/max.
  obs::LatencyRecorder empty;
  merged.merge(empty);
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
}

TEST(LatencyRecorder, TopBucketAndExtremesStayExact) {
  obs::LatencyRecorder rec;
  rec.record(0);
  rec.record(~std::uint64_t{0});
  EXPECT_EQ(rec.count(), 2u);
  EXPECT_EQ(rec.min(), 0u);
  EXPECT_EQ(rec.max(), ~std::uint64_t{0});
  EXPECT_EQ(rec.quantile(0.0), 0u);    // clamped to min
  EXPECT_EQ(rec.quantile(1.0), ~std::uint64_t{0});
  EXPECT_EQ(rec.sum(), ~std::uint64_t{0});
  rec.reset();
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.sum(), 0u);
  EXPECT_EQ(rec.min(), 0u);
  EXPECT_EQ(rec.max(), 0u);
  EXPECT_EQ(rec.quantile(0.5), 0u);
}

TEST(LatencyRecorder, ConcurrentRecordingMatchesSerialBitForBit) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 50'000;
  const std::vector<std::uint64_t> stream =
      latency_stream(kThreads * kPerThread);

  obs::LatencyRecorder serial;
  for (std::uint64_t v : stream) serial.record(v);

  obs::LatencyRecorder shared;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &stream, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        shared.record(stream[t * kPerThread + i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(shared.count(), stream.size());
  EXPECT_EQ(shared.sum(), serial.sum());
  EXPECT_EQ(shared.min(), serial.min());
  EXPECT_EQ(shared.max(), serial.max());
  for (std::size_t i = 0; i < obs::LatencyRecorder::kBucketCount; ++i) {
    ASSERT_EQ(shared.bucket(i), serial.bucket(i)) << "bucket " << i;
  }
}

// ---- Stage registry -------------------------------------------------------

TEST(StageRegistry, TimerRecordsOnlyWhileEnabled) {
  obs::reset_stage_recorders();
  obs::set_stage_recording(false);
  {
    obs::StageTimer t(obs::Stage::kCryptoSeal);
  }
  EXPECT_EQ(obs::stage_recorder(obs::Stage::kCryptoSeal).count(), 0u);

  obs::set_stage_recording(true);
  {
    obs::StageTimer t(obs::Stage::kCryptoSeal);
  }
  {
    obs::StageTimer t(obs::Stage::kWireFrame);
  }
  obs::set_stage_recording(false);
  EXPECT_EQ(obs::stage_recorder(obs::Stage::kCryptoSeal).count(), 1u);
  EXPECT_EQ(obs::stage_recorder(obs::Stage::kWireFrame).count(), 1u);
  EXPECT_EQ(obs::stage_recorder(obs::Stage::kCryptoOpen).count(), 0u);

  obs::reset_stage_recorders();
  EXPECT_EQ(obs::stage_recorder(obs::Stage::kCryptoSeal).count(), 0u);
  EXPECT_EQ(obs::stage_recorder(obs::Stage::kWireFrame).count(), 0u);
}

TEST(StageRegistry, StageNamesAreStable) {
  EXPECT_STREQ(obs::stage_name(obs::Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kLink), "link");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kCryptoSeal), "crypto_seal");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kCryptoOpen), "crypto_open");
  EXPECT_STREQ(obs::stage_name(obs::Stage::kWireFrame), "wire_frame");
}

}  // namespace
}  // namespace dcpl
