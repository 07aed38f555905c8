// Deterministic-parallelism tier for the sharded engine.
//
// The contract under test (DESIGN.md §13): with set_shards(N) fixed, a run
// is bit-stable across repetitions regardless of thread interleaving — same
// trace, same flow-ledger event stream, same per-shard stats — and for any
// N the *aggregate* outcome (per-node reception multisets, delivered
// packet/byte totals, end time, window-only fault effects, folded knowledge
// tuples) matches the serial engine. Impairment RNG streams are per-shard
// by design, so stochastic faults are asserted per-count only.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "net/faults.hpp"
#include "net/sim.hpp"
#include "net/tracing.hpp"
#include "obs/flow.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace dcpl::net {
namespace {

constexpr std::uint32_t kClients = 24;
constexpr std::uint32_t kRelays = 4;
constexpr std::uint32_t kRounds = 6;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof v);
}

constexpr std::uint64_t kFnvSeed = 0xCBF29CE484222325ull;

/// One reception as a node saw it. Sorted multisets of these are the
/// shard-count-independent ground truth. The context id is excluded from
/// the cross-count key: new_context() namespaces ids by shard, so the raw
/// values differ between shard counts by design. Per-count digests still
/// hash contexts, so their bit-stability is covered separately.
struct Reception {
  Time time;
  Address src;
  std::uint64_t context;
  std::string payload;

  auto key() const { return std::tie(time, src, payload); }
  bool operator<(const Reception& o) const { return key() < o.key(); }
  bool operator==(const Reception& o) const { return key() == o.key(); }
};

/// Client i ping-pongs kRounds requests with relay (i % kRelays); payload
/// content depends only on (seed, client, round), so the global event set
/// is a pure function of the workload parameters.
class ClientNode final : public Node {
 public:
  ClientNode(std::uint32_t id, std::uint64_t seed, obs::FlowLedger* ledger)
      : Node("client" + std::to_string(id)),
        id_(id),
        seed_(seed),
        ledger_(ledger) {}

  void kickoff(Simulator& sim) { send_round(sim, 0); }

  void on_packet(const Packet& p, Simulator& sim) override {
    log.push_back({sim.now(), p.src, p.context, to_string(p.payload)});
    if (ledger_ != nullptr) {
      ledger_->record_exposure(address(),
                               core::benign_data(to_string(p.payload)),
                               p.context);
    }
    if (++replies_ < kRounds) send_round(sim, replies_);
  }

  std::vector<Reception> log;

 private:
  void send_round(Simulator& sim, std::uint32_t round) {
    const std::string body =
        "c" + std::to_string(id_) + ".r" + std::to_string(round) + ".s" +
        std::to_string((seed_ * 131 + id_ * 31 + round * 7) % 9973);
    Packet req{address(), "relay" + std::to_string(id_ % kRelays),
               to_bytes(body), sim.new_context(), "pingpong"};
    sim.send(std::move(req), /*extra_delay=*/(id_ % 3) * 100);
  }

  std::uint32_t id_;
  std::uint64_t seed_;
  obs::FlowLedger* ledger_;
  std::uint32_t replies_ = 0;
};

/// Replies to the client and forwards a copy to the sink — every request
/// fans into one same-or-cross-shard reply plus one cross-shard forward.
class RelayNode final : public Node {
 public:
  RelayNode(std::uint32_t id, obs::FlowLedger* ledger)
      : Node("relay" + std::to_string(id)), ledger_(ledger) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    log.push_back({sim.now(), p.src, p.context, to_string(p.payload)});
    if (ledger_ != nullptr) {
      ledger_->record_exposure(address(),
                              core::benign_data(to_string(p.payload)),
                              p.context);
    }
    Packet reply{address(), p.src, p.payload, p.context, "pingpong"};
    sim.send(std::move(reply));
    Packet fwd{address(), "sink", p.payload, p.context, "forward"};
    sim.send(std::move(fwd));
  }

  std::vector<Reception> log;

 private:
  obs::FlowLedger* ledger_;
};

class SinkNode final : public Node {
 public:
  explicit SinkNode(obs::FlowLedger* ledger)
      : Node("sink"), ledger_(ledger) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    log.push_back({sim.now(), p.src, p.context, to_string(p.payload)});
    if (ledger_ != nullptr) {
      ledger_->record_exposure(address(),
                              core::sensitive_data(to_string(p.payload)),
                              p.context);
    }
  }

  std::vector<Reception> log;

 private:
  obs::FlowLedger* ledger_;
};

struct RunOptions {
  std::uint32_t shards = 1;
  std::uint64_t seed = 1;
  bool with_flow = false;
  bool with_window_faults = false;  // deterministic: partition/crash/breach
  bool with_impairments = false;    // stochastic: per-shard RNG streams
  bool with_tracer = false;         // attach a LatencyTracer for the run
  bool auto_affinity = false;       // kMinCut placement instead of id-modulo
};

struct RunResult {
  std::map<Address, std::vector<Reception>> sorted_logs;
  std::size_t packets = 0;
  std::uint64_t bytes = 0;
  Time end = 0;
  FaultStats faults;
  Simulator::ShardRunStats shard_stats;
  // Flow-ledger summary (aggregate view, shard-count independent).
  std::uint64_t flow_exposures = 0;
  std::uint64_t flow_compromises = 0;
  std::uint64_t flow_deduped = 0;
  std::string flow_tuples;
  /// Full bit-level digest: trace order, flow event stream, per-shard
  /// stats. Stable per shard count, NOT across counts.
  std::uint64_t digest = kFnvSeed;
  // Request-tracing plane (with_tracer only). The digest hashes every
  // bucket + min/max of every non-empty e2e recorder keyed by protocol
  // NAME (sharded interning order is thread-timing dependent, so raw
  // ProtocolIds are not cross-count comparable) plus the virtual-time
  // stage recorders. It IS cross-shard-count comparable: latencies are
  // virtual time and bucket adds commute.
  std::uint64_t traced = 0;
  std::uint64_t latency_digest = kFnvSeed;
  std::string latency_summary;  // readable name:count/p50/p99/max list
  // The run's registry histogram delivery_latency_us: count, sum, min,
  // max, then every bucket. Cross-shard-count comparable like the tracer's
  // recorders, and outside the digest.
  std::vector<std::uint64_t> delivery_latency;
};

RunResult run_workload(const RunOptions& opt) {
  obs::Registry metrics;
  Simulator sim;
  sim.set_metrics(metrics);
  obs::FlowLedger ledger;
  obs::FlowLedger* flow = opt.with_flow ? &ledger : nullptr;
  if (flow != nullptr) sim.set_flow(flow);
  // Waterfall capture off: span sampling keys on trace sequence numbers,
  // which are engine-specific by design; the recorders are not.
  LatencyTracer tracer(/*waterfall_period=*/0);
  if (opt.with_tracer) sim.set_latency_tracer(&tracer);

  std::vector<std::unique_ptr<ClientNode>> clients;
  std::vector<std::unique_ptr<RelayNode>> relays;
  SinkNode sink(flow);
  for (std::uint32_t r = 0; r < kRelays; ++r) {
    relays.push_back(std::make_unique<RelayNode>(r, flow));
    sim.add_node(*relays.back());
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ClientNode>(c, opt.seed, flow));
    sim.add_node(*clients.back());
  }
  sim.add_node(sink);

  for (std::uint32_t c = 0; c < kClients; ++c) {
    sim.connect("client" + std::to_string(c),
                "relay" + std::to_string(c % kRelays),
                3000 + (c % 5) * 500);
  }
  for (std::uint32_t r = 0; r < kRelays; ++r) {
    sim.connect("relay" + std::to_string(r), "sink", 2500 + r * 250);
  }

  if (opt.with_window_faults || opt.with_impairments) {
    FaultPlan plan(opt.seed);
    if (opt.with_window_faults) {
      plan.partition("client1", "relay1", 8000, 22000);
      plan.crash("client2", 10000, 30000);
      plan.breach("relay0", 15000);
      plan.breach("sink", 26000);
    }
    if (opt.with_impairments) {
      plan.impair({.loss = 0.05, .duplicate = 0.07, .jitter = 0.20,
                   .jitter_max_us = 900});
    }
    sim.set_fault_plan(std::move(plan));
  }

  sim.set_shards(opt.shards);
  if (opt.auto_affinity) {
    sim.set_auto_affinity(Simulator::AffinityPolicy::kMinCut);
  }
  for (auto& c : clients) c->kickoff(sim);
  const Time end = sim.run();
  if (opt.with_tracer) sim.set_latency_tracer(nullptr);

  RunResult res;
  res.end = end;
  res.packets = sim.packets_delivered();
  res.bytes = sim.bytes_delivered();
  res.faults = sim.fault_stats();
  res.shard_stats = sim.shard_stats();
  const obs::LatencyRecorder& lat = metrics.histogram("delivery_latency_us");
  res.delivery_latency = {lat.count(), lat.sum(), lat.min(), lat.max()};
  for (std::size_t i = 0; i < obs::LatencyRecorder::kBucketCount; ++i) {
    res.delivery_latency.push_back(lat.bucket(i));
  }
  for (auto& c : clients) {
    std::sort(c->log.begin(), c->log.end());
    res.sorted_logs[c->address()] = c->log;
  }
  for (auto& r : relays) {
    std::sort(r->log.begin(), r->log.end());
    res.sorted_logs[r->address()] = r->log;
  }
  std::sort(sink.log.begin(), sink.log.end());
  res.sorted_logs[sink.address()] = sink.log;

  std::uint64_t h = kFnvSeed;
  for (const TraceEntry& e : sim.trace()) {
    h = fnv1a_u64(h, e.time);
    h = fnv1a_str(h, e.src);
    h = fnv1a_str(h, e.dst);
    h = fnv1a_u64(h, e.size);
    h = fnv1a_u64(h, e.context);
    h = fnv1a_str(h, e.protocol);
  }
  if (flow != nullptr) {
    res.flow_exposures = ledger.exposures();
    res.flow_compromises = ledger.compromises();
    res.flow_deduped = ledger.deduped();
    std::ostringstream tuples;
    for (const auto& [party, tuple] : ledger.tuples()) {
      tuples << party << "=" << tuple.to_string() << ";";
    }
    res.flow_tuples = tuples.str();
    for (const obs::FlowEvent& ev : ledger.events()) {
      h = fnv1a_u64(h, ev.id);
      h = fnv1a_u64(h, ev.virtual_time);
      h = fnv1a_u64(h, static_cast<std::uint64_t>(ev.kind));
      h = fnv1a_str(h, ev.party);
      h = fnv1a_str(h, ev.atom.label);
      h = fnv1a_u64(h, ev.context);
      h = fnv1a_u64(h, ev.hop_index);
      h = fnv1a_u64(h, ev.parent_id);
      h = fnv1a_str(h, ev.protocol);
    }
  }
  for (const auto& [addr, log] : res.sorted_logs) {
    h = fnv1a_str(h, addr);
    for (const Reception& r : log) {
      h = fnv1a_u64(h, r.time);
      h = fnv1a_str(h, r.src);
      h = fnv1a_u64(h, r.context);
      h = fnv1a_str(h, r.payload);
    }
  }
  h = fnv1a_u64(h, res.end);
  h = fnv1a_u64(h, res.packets);
  h = fnv1a_u64(h, res.bytes);
  h = fnv1a_u64(h, res.faults.lost);
  h = fnv1a_u64(h, res.faults.duplicated);
  h = fnv1a_u64(h, res.faults.jittered);
  h = fnv1a_u64(h, res.faults.partition_dropped);
  h = fnv1a_u64(h, res.faults.offline_dropped);
  h = fnv1a_u64(h, res.faults.breaches_fired);
  for (std::size_t s = 0; s < res.shard_stats.events.size(); ++s) {
    h = fnv1a_u64(h, res.shard_stats.events[s]);
    h = fnv1a_u64(h, res.shard_stats.deliveries[s]);
    h = fnv1a_u64(h, res.shard_stats.cross_sends[s]);
  }
  res.digest = h;

  if (opt.with_tracer) {
    const std::vector<std::string> names = sim.protocol_names();
    std::map<std::string, const obs::LatencyRecorder*> recs;
    for (ProtocolId p = 0;
         p < names.size() && p < LatencyTracer::kMaxProtocols; ++p) {
      if (tracer.e2e(p).count() != 0) recs["e2e:" + names[p]] = &tracer.e2e(p);
    }
    recs["stage:link"] = &tracer.stage_link();
    recs["stage:queue_wait"] = &tracer.stage_queue_wait();
    std::uint64_t lh = kFnvSeed;
    std::ostringstream summary;
    for (const auto& [name, rec] : recs) {
      lh = fnv1a_str(lh, name);
      lh = fnv1a_u64(lh, rec->min());
      lh = fnv1a_u64(lh, rec->max());
      for (std::size_t i = 0; i < obs::LatencyRecorder::kBucketCount; ++i) {
        lh = fnv1a_u64(lh, rec->bucket(i));
      }
      summary << name << "=" << rec->count() << "/" << rec->quantile(0.5)
              << "/" << rec->quantile(0.99) << "/" << rec->max() << ";";
      if (name.rfind("e2e:", 0) == 0) res.traced += rec->count();
    }
    res.latency_digest = lh;
    res.latency_summary = summary.str();
  }
  return res;
}

void expect_same_aggregates(const RunResult& serial, const RunResult& sharded,
                            std::uint32_t shards, std::uint64_t seed) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " seed=" + std::to_string(seed));
  EXPECT_EQ(sharded.end, serial.end);
  EXPECT_EQ(sharded.packets, serial.packets);
  EXPECT_EQ(sharded.bytes, serial.bytes);
  EXPECT_EQ(sharded.faults, serial.faults);
  EXPECT_EQ(sharded.delivery_latency, serial.delivery_latency);
  ASSERT_EQ(sharded.sorted_logs.size(), serial.sorted_logs.size());
  for (const auto& [addr, log] : serial.sorted_logs) {
    auto it = sharded.sorted_logs.find(addr);
    ASSERT_NE(it, sharded.sorted_logs.end()) << addr;
    EXPECT_EQ(it->second, log) << "reception multiset diverged at " << addr;
  }
}

// --- cross-count equivalence ----------------------------------------------

TEST(ShardDeterminism, AggregatesMatchSerialAcrossShardCountsAndSeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RunOptions base;
    base.seed = seed;
    base.shards = 1;
    const RunResult serial = run_workload(base);
    ASSERT_GT(serial.packets, 0u);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
      RunOptions opt = base;
      opt.shards = shards;
      const RunResult sharded = run_workload(opt);
      expect_same_aggregates(serial, sharded, shards, seed);
      // Structural invariants of the sharded run itself.
      ASSERT_EQ(sharded.shard_stats.shards, shards);
      ASSERT_GT(sharded.shard_stats.lookahead_us, 0u);
      ASSERT_GT(sharded.shard_stats.windows, 0u);
      std::uint64_t deliveries = 0;
      for (auto d : sharded.shard_stats.deliveries) deliveries += d;
      EXPECT_EQ(deliveries, sharded.packets);
    }
  }
}

TEST(ShardDeterminism, WindowFaultsAndBreachesMatchSerial) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RunOptions base;
    base.seed = seed;
    base.with_window_faults = true;
    const RunResult serial = run_workload(base);
    ASSERT_GT(serial.faults.partition_dropped + serial.faults.offline_dropped,
              0u);
    EXPECT_EQ(serial.faults.breaches_fired, 2u);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
      RunOptions opt = base;
      opt.shards = shards;
      const RunResult sharded = run_workload(opt);
      expect_same_aggregates(serial, sharded, shards, seed);
    }
  }
}

// The request-tracing plane must not weaken the determinism contract:
// e2e and stage latency percentiles from a sharded run are bit-identical
// to the serial run — and to every other shard count — because recorders
// take commutative bucket adds over virtual-time values that themselves
// match across engines. Compared at the bucket level (strictly stronger
// than comparing the derived percentiles), keyed by protocol name.
TEST(ShardDeterminism, LatencyPercentilesBitIdenticalAcrossShardCounts) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    RunOptions base;
    base.seed = seed;
    base.with_tracer = true;
    const RunResult serial = run_workload(base);
    ASSERT_GT(serial.traced, 0u);
    ASSERT_FALSE(serial.latency_summary.empty());
    for (std::uint32_t shards : {2u, 4u, 8u}) {
      RunOptions opt = base;
      opt.shards = shards;
      const RunResult sharded = run_workload(opt);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(sharded.traced, serial.traced);
      EXPECT_EQ(sharded.latency_summary, serial.latency_summary);
      EXPECT_EQ(sharded.latency_digest, serial.latency_digest)
          << "bucket-level divergence despite matching summaries:\n"
          << "serial:  " << serial.latency_summary << "\n"
          << "sharded: " << sharded.latency_summary;
    }
  }
}

// Deterministic window faults (partitions, crashes, breaches) drop and
// delay traffic identically across engines, so traced latencies must stay
// bit-identical under them too.
TEST(ShardDeterminism, LatencyMatchesSerialUnderWindowFaults) {
  RunOptions base;
  base.with_window_faults = true;
  base.with_tracer = true;
  const RunResult serial = run_workload(base);
  ASSERT_GT(serial.traced, 0u);
  for (std::uint32_t shards : {2u, 4u}) {
    RunOptions opt = base;
    opt.shards = shards;
    const RunResult sharded = run_workload(opt);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(sharded.latency_summary, serial.latency_summary);
    EXPECT_EQ(sharded.latency_digest, serial.latency_digest);
  }
}

TEST(ShardDeterminism, FlowLedgerFoldMatchesSerial) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RunOptions base;
    base.seed = seed;
    base.with_flow = true;
    base.with_window_faults = true;
    const RunResult serial = run_workload(base);
    ASSERT_GT(serial.flow_exposures, 0u);
    EXPECT_EQ(serial.flow_compromises, 2u);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
      RunOptions opt = base;
      opt.shards = shards;
      const RunResult sharded = run_workload(opt);
      expect_same_aggregates(serial, sharded, shards, seed);
      // The folded knowledge tuples — the paper-facing outcome — are
      // identical whatever the shard count; so are the dedup-exact
      // exposure/compromise totals.
      EXPECT_EQ(sharded.flow_tuples, serial.flow_tuples);
      EXPECT_EQ(sharded.flow_exposures, serial.flow_exposures);
      EXPECT_EQ(sharded.flow_compromises, serial.flow_compromises);
      EXPECT_EQ(sharded.flow_deduped, serial.flow_deduped);
    }
  }
}

// --- per-count bit stability ----------------------------------------------

TEST(ShardDeterminism, BitStableAcrossTenRepetitionsPerShardCount) {
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      RunOptions opt;
      opt.shards = shards;
      opt.seed = seed;
      opt.with_flow = true;
      opt.with_window_faults = true;
      opt.with_impairments = true;  // per-shard RNG streams: per-count only
      const RunResult first = run_workload(opt);
      for (int rep = 1; rep < 10; ++rep) {
        const RunResult again = run_workload(opt);
        ASSERT_EQ(again.digest, first.digest)
            << "shards=" << shards << " seed=" << seed << " rep=" << rep;
      }
    }
  }
}

// --- golden digests -------------------------------------------------------

// Bit-level goldens: the full digest (trace order, flow event ids/parents,
// per-shard stats) for one pinned workload per shard count. A change here
// is a determinism-contract break (merge rule, seq assignment, RNG stream
// layout, replay order) and must be deliberate.
TEST(ShardDeterminism, GoldenDigests) {
  const std::map<std::uint32_t, std::uint64_t> kGolden = {
      // To regenerate after an intentional engine change:
      //   build/tests/test_shard --gtest_filter=ShardDeterminism.GoldenDigests
      // and copy the printed actuals.
      {1u, 0x9BE8FDD2EC29AFE5ull},
      {2u, 0xEDA800ADEE4C530Full},
      {4u, 0x3F9B823471046A84ull},
      {8u, 0xB1BBA4340D818963ull},
  };
  for (const auto& [shards, want] : kGolden) {
    RunOptions opt;
    opt.shards = shards;
    opt.seed = 7;
    opt.with_flow = true;
    opt.with_window_faults = true;
    opt.with_impairments = true;
    const RunResult res = run_workload(opt);
    if (want == 0) {
      printf("golden shards=%u digest=0x%016llXull\n", shards,
             static_cast<unsigned long long>(res.digest));
    }
    EXPECT_EQ(res.digest, want)
        << "shards=" << shards << std::hex << " actual=0x" << res.digest;
  }
}

// --- auto-affinity (min-cut placement) ------------------------------------

// Under set_auto_affinity(kMinCut) the partitioner replaces id-modulo for
// unpinned nodes, but every determinism obligation is unchanged: aggregates
// match serial for any shard count, and a fixed count replays bit-identical.
TEST(ShardDeterminism, AutoAffinityAggregatesMatchSerial) {
  for (std::uint64_t seed : {1ull, 5ull}) {
    RunOptions base;
    base.seed = seed;
    base.shards = 1;
    base.with_flow = true;
    const RunResult serial = run_workload(base);
    ASSERT_GT(serial.packets, 0u);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
      RunOptions opt = base;
      opt.shards = shards;
      opt.auto_affinity = true;
      const RunResult sharded = run_workload(opt);
      expect_same_aggregates(serial, sharded, shards, seed);
      EXPECT_EQ(sharded.shard_stats.policy,
                Simulator::AffinityPolicy::kMinCut);
      EXPECT_EQ(sharded.flow_tuples, serial.flow_tuples);
      EXPECT_EQ(sharded.flow_exposures, serial.flow_exposures);
      std::uint64_t deliveries = 0;
      for (auto d : sharded.shard_stats.deliveries) deliveries += d;
      EXPECT_EQ(deliveries, sharded.packets);
    }
  }
}

// Bit-level goldens for the min-cut placement, mirroring GoldenDigests.
// These pin down the partitioner itself as well as the engine: a different
// placement changes shard-local trace interleavings and therefore the
// digest, so any partitioner behavior change shows up here deliberately.
TEST(ShardDeterminism, AutoAffinityGoldenDigests) {
  const std::map<std::uint32_t, std::uint64_t> kGolden = {
      // Regenerate like GoldenDigests: run with a 0 entry and copy actuals.
      // Counts 2 and 4 coincide with the modulo goldens: node interning
      // gives relay r id r and client c id c+4, so id-modulo already lands
      // each client on its relay's shard and min-cut reproduces the exact
      // same placement. At 8 shards modulo scatters the communities and
      // the two policies (and digests) genuinely diverge.
      {2u, 0xEDA800ADEE4C530Full},
      {4u, 0x3F9B823471046A84ull},
      {8u, 0xAF5C7001AF80C138ull},
  };
  for (const auto& [shards, want] : kGolden) {
    RunOptions opt;
    opt.shards = shards;
    opt.seed = 7;
    opt.with_flow = true;
    opt.with_window_faults = true;
    opt.with_impairments = true;
    opt.auto_affinity = true;
    const RunResult first = run_workload(opt);
    const RunResult second = run_workload(opt);
    EXPECT_EQ(first.digest, second.digest)
        << "auto-affinity replay unstable at shards=" << shards;
    if (want == 0) {
      printf("auto golden shards=%u digest=0x%016llXull\n", shards,
             static_cast<unsigned long long>(first.digest));
      continue;
    }
    EXPECT_EQ(first.digest, want)
        << "shards=" << shards << std::hex << " actual=0x" << first.digest;
  }
}

// --- API surface ----------------------------------------------------------

TEST(ShardApi, SetShardsValidation) {
  Simulator sim;
  EXPECT_THROW(sim.set_shards(0), std::invalid_argument);
  sim.set_shards(3);
  EXPECT_EQ(sim.shards(), 3u);
}

TEST(ShardApi, ZeroLookaheadIsRejected) {
  Simulator sim;
  SinkNode a(nullptr);
  Simulator simb;  // separate sim: "sink" name reused
  ClientNode c0(0, 1, nullptr);
  sim.add_node(a);
  sim.add_node(c0);
  // client0 and sink land on different shards (ids 0 and 1 of 2); a
  // zero-latency cross-shard link collapses the conservative window.
  sim.connect("client0", "sink", 0);
  sim.set_shards(2);
  sim.send(Packet{"client0", "sink", to_bytes("x"), 1, "t"});
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(ShardApi, ShardAffinityPinsNodes) {
  Simulator sim;
  SinkNode sink(nullptr);
  RelayNode relay(0, nullptr);
  ClientNode client(0, 1, nullptr);
  sim.add_node(relay);
  sim.add_node(client);
  sim.add_node(sink);
  sim.connect("client0", "relay0", 3000);
  sim.connect("relay0", "sink", 3000);
  sim.set_shards(4);
  // Pin everything to shard 2: all deliveries must land there.
  sim.set_shard_affinity("client0", 2);
  sim.set_shard_affinity("relay0", 2);
  sim.set_shard_affinity("sink", 2);
  client.kickoff(sim);
  sim.run();
  const auto& stats = sim.shard_stats();
  ASSERT_EQ(stats.deliveries.size(), 4u);
  EXPECT_GT(stats.deliveries[2], 0u);
  EXPECT_EQ(stats.deliveries[0] + stats.deliveries[1] + stats.deliveries[3],
            0u);
  std::uint64_t cross = 0;
  for (auto c : stats.cross_sends) cross += c;
  EXPECT_EQ(cross, 0u);  // co-pinned chatter never crosses a mailbox
}

TEST(ShardApi, SerialRunLeavesShardStatsEmptyAndSharedQueueReusable) {
  RunOptions opt;  // shards = 1: serial path
  const RunResult res = run_workload(opt);
  EXPECT_EQ(res.shard_stats.shards, 0u);  // never populated by serial runs
  EXPECT_GT(res.packets, 0u);
}

// With at least as many usable CPUs as shards, each worker runs on a CPU
// of its own for the whole run (DESIGN.md §13, "Worker placement and
// barrier waits"): every callback on a shard sees one CPU, and no two
// shards see the same one.
TEST(ShardApi, WorkersRunOnDistinctCpus) {
#if defined(__linux__)
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  const auto usable = static_cast<std::uint32_t>(CPU_COUNT(&allowed));
  const std::uint32_t shards = std::min<std::uint32_t>(4, usable);
  if (shards < 2) GTEST_SKIP() << "needs two usable CPUs";
  Simulator sim;
  std::vector<std::set<int>> cpus(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    const Address name = "node" + std::to_string(i);
    sim.set_shard_affinity(name, i);
    // 20 ms apart, so the callbacks fall in separate windows.
    for (Time t = 0; t < 200'000; t += 20'000) {
      sim.at_node(name, t, [&cpus, i] { cpus[i].insert(sched_getcpu()); });
    }
  }
  sim.set_shards(shards);
  sim.run();
  std::set<int> all;
  for (std::uint32_t i = 0; i < shards; ++i) {
    ASSERT_EQ(cpus[i].size(), 1u) << "shard " << i;
    all.insert(*cpus[i].begin());
  }
  EXPECT_EQ(all.size(), shards);
#else
  GTEST_SKIP() << "worker placement is Linux-only";
#endif
}

// --- frozen tables (DESIGN.md §13) ---------------------------------------

/// One delivery as (src, dst, protocol, size): what a receiver can see of a
/// packet apart from its payload bytes and context.
using Seen = std::tuple<Address, Address, std::string, std::size_t>;

class RecordingNode final : public Node {
 public:
  explicit RecordingNode(std::string name, std::vector<Address> also = {})
      : Node(std::move(name)), also_(std::move(also)) {}

  std::vector<Address> also_sends_from() const override { return also_; }

  void on_packet(const Packet& p, Simulator& sim) override {
    seen.emplace_back(p.src, address(), p.protocol, p.payload.size());
    if (on_delivery) on_delivery(sim);
  }

  std::vector<Seen> seen;
  std::function<void(Simulator&)> on_delivery;  // runs after recording

 private:
  std::vector<Address> also_;
};

/// kGhostPairs sender/receiver pairs, pair i pinned to shard i. Sender i
/// declares "ghost<i>" and "ghost-shared" as extra sources, and sender 0
/// also "ghost-late"; nothing declares "undeclared*".
constexpr std::uint32_t kGhostPairs = 4;

struct GhostEstate {
  Simulator sim;
  std::vector<std::unique_ptr<RecordingNode>> nodes;

  explicit GhostEstate(std::uint32_t shards) {
    for (std::uint32_t i = 0; i < kGhostPairs; ++i) {
      std::vector<Address> declared = {"ghost" + std::to_string(i),
                                       "ghost-shared"};
      if (i == 0) declared.push_back("ghost-late");
      add("sender" + std::to_string(i), std::move(declared), i);
      add("receiver" + std::to_string(i), {}, i);
    }
    sim.set_shards(shards);
  }

  RecordingNode& receiver(std::uint32_t i) { return *nodes[2 * i + 1]; }

 private:
  void add(const Address& name, std::vector<Address> declared,
           std::uint32_t shard) {
    nodes.push_back(std::make_unique<RecordingNode>(name, std::move(declared)));
    sim.add_node(*nodes.back());
    sim.set_shard_affinity(name, shard);
  }
};

// Workers read the interner and the protocol table without a lock, so a
// source must be in the interner before run(): a node's own address or one
// it declared. A protocol label may still first appear mid-run; its first
// use adds it under the table's mutex. Here every shard sends at once: in
// the first window each sender sends from its own declared address and
// from one that all of them declared, under a label nobody used before
// run(), to receivers on other shards. A late send, alone on shard 0, comes
// from a third declared address. Then a send, send_shared or forward from
// an undeclared source, made on each shard in turn, must throw out of
// run() without interning it, and the next run must work.
TEST(FrozenTables, NamesFirstSeenOnSeveralShardsAtOnce) {
  constexpr int kSendsPerName = 16;
  const auto run = [&](std::uint32_t shards,
                       std::vector<std::string>* protocol_names,
                       std::set<Address>* interned) {
    GhostEstate estate(shards);
    Simulator& sim = estate.sim;
    for (std::uint32_t i = 0; i < kGhostPairs; ++i) {
      const Address own = "ghost" + std::to_string(i);
      const Address peer = "receiver" + std::to_string((i + 1) % kGhostPairs);
      const Address far = "receiver" + std::to_string((i + 2) % kGhostPairs);
      sim.at_node("sender" + std::to_string(i), 0, [&sim, i, own, peer, far] {
        for (int k = 0; k < kSendsPerName; ++k) {
          sim.send(Packet{own, peer, Bytes(1 + i), 0, "fresh"});
          sim.send(Packet{"ghost-shared", far, Bytes(10 + i), 0, "fresh"});
        }
      });
    }
    sim.at_node("sender0", 1'000'000, [&sim] {
      sim.send(Packet{"ghost-late", "receiver0", Bytes(7), 0, "fresh"});
    });
    const std::size_t before = sim.interner().size();
    sim.run();
    EXPECT_EQ(sim.interner().size(), before);

    *protocol_names = sim.protocol_names();
    interned->clear();
    for (AddressId id = 0; id < sim.interner().size(); ++id) {
      const Address& name = sim.interner().name(id);
      EXPECT_EQ(sim.interner().lookup(name).value_or(~AddressId{0}), id)
          << name;
      interned->insert(name);
    }
    EXPECT_EQ(interned->size(), sim.interner().size());
    std::vector<Seen> seen;
    for (const auto& n : estate.nodes) {
      for (const Seen& s : n->seen) {
        EXPECT_EQ(std::get<2>(s), "fresh");
        const Address& src = std::get<0>(s);
        EXPECT_TRUE(src.rfind("ghost", 0) == 0) << src;
        seen.push_back(s);
      }
    }
    std::sort(seen.begin(), seen.end());
    return seen;
  };

  std::vector<std::string> serial_protocols, sharded_protocols;
  std::set<Address> serial_names, sharded_names;
  const std::vector<Seen> serial = run(1, &serial_protocols, &serial_names);
  ASSERT_EQ(serial.size(), 2u * kGhostPairs * kSendsPerName + 1);
  const std::vector<Seen> sharded = run(4, &sharded_protocols, &sharded_names);
  EXPECT_EQ(sharded, serial);
  EXPECT_EQ(std::count(sharded_protocols.begin(), sharded_protocols.end(),
                       "fresh"),
            1);
  EXPECT_EQ(sharded_protocols, serial_protocols);
  // Same names either way: 8 nodes, 4 own ghosts, the shared and late one.
  EXPECT_EQ(sharded_names, serial_names);
  EXPECT_EQ(sharded_names.size(), 2u * kGhostPairs + kGhostPairs + 2);

  // Receiver s, on shard s, makes the call from inside its delivery (forward
  // needs one) to the receiver on the next shard.
  using Call = std::function<void(Simulator&, const Address&, const Address&)>;
  const std::vector<std::pair<std::string, Call>> calls = {
      {"send",
       [](Simulator& sim, const Address& src, const Address& dst) {
         sim.send(Packet{src, dst, Bytes(3), 0, "fresh"});
       }},
      {"send_shared",
       [](Simulator& sim, const Address& src, const Address& dst) {
         sim.send_shared(src, dst, sim.make_payload(Bytes(3)), 0, "fresh");
       }},
      {"forward",
       [](Simulator& sim, const Address& src, const Address& dst) {
         sim.forward(src, dst, 0, "fresh");
       }},
  };
  for (const auto& entry : calls) {
    const Call& call = entry.second;
    for (std::uint32_t s = 0; s < kGhostPairs; ++s) {
      SCOPED_TRACE(entry.first + " on shard " + std::to_string(s));
      GhostEstate estate(4);
      Simulator& sim = estate.sim;
      const Address sender = "sender" + std::to_string(s);
      const Address src = "undeclared" + std::to_string(s);
      const Address next = "receiver" + std::to_string((s + 1) % kGhostPairs);
      estate.receiver(s).on_delivery = [&call, src, next](Simulator& sim) {
        call(sim, src, next);
      };
      sim.at_node(sender, 0, [&sim, sender, s] {
        sim.send(Packet{sender, "receiver" + std::to_string(s), Bytes(2), 0,
                        "kick"});
      });
      const std::size_t interned = sim.interner().size();
      try {
        sim.run();
        ADD_FAILURE() << "run() did not throw";
      } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find(src), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(sim.interner().size(), interned);
      EXPECT_FALSE(sim.interner().lookup(src).has_value());
      EXPECT_TRUE(estate.receiver((s + 1) % kGhostPairs).seen.empty());

      // Still usable: the next threaded run delivers a declared send.
      estate.receiver(s).on_delivery = nullptr;
      const Address own = "ghost" + std::to_string(s);
      sim.at_node(sender, sim.now(), [&sim, own, next] {
        sim.send(Packet{own, next, Bytes(4), 0, "fresh"});
      });
      sim.run();
      EXPECT_EQ(estate.receiver((s + 1) % kGhostPairs).seen,
                std::vector<Seen>{Seen(own, next, "fresh", 4)});
    }
  }
}

// --- zero-copy wire path (DESIGN.md §14) ----------------------------------

// Records the heap address of every delivered buffer and forwards the
// buffer itself (detach + send) rather than a copy.
class TapRelay final : public Node {
 public:
  TapRelay(std::string name, Address next, std::size_t trim = 0)
      : Node(std::move(name)), next_(std::move(next)), trim_(trim) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    seen.push_back(p.payload.data());
    if (trim_ > 0 && p.payload.size() >= trim_) {
      Bytes trimmed = sim.detach_payload(p.payload.size() - trim_);
      sim.send(Packet{address(), next_, std::move(trimmed), p.context, "fwd"});
    } else {
      sim.forward(address(), next_, p.context, "fwd");
    }
  }

  std::vector<const std::uint8_t*> seen;

 private:
  Address next_;
  std::size_t trim_;
};

class TapSink final : public Node {
 public:
  explicit TapSink(std::string name) : Node(std::move(name)) {}

  void on_packet(const Packet& p, Simulator&) override {
    seen.push_back(p.payload.data());
    payloads.push_back(p.payload);
  }

  std::vector<const std::uint8_t*> seen;
  std::vector<Bytes> payloads;
};

Bytes big_payload(std::uint8_t tag) {
  Bytes b(512);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(tag + i);
  }
  return b;
}

// The acceptance check for the zero-copy wire path: the exact heap buffer a
// relay received is the one the next hop receives — through the serial
// engine, and through the shard mailbox when the forward crosses shards.
// (If any hop deep-copied, the sink would see a different allocation while
// the original stayed alive in the source pool, so pointer equality is a
// sound no-copy witness.)
TEST(ZeroCopyWire, ForwardMovesBufferSerial) {
  Simulator sim;
  TapRelay relay("relay", "sink");
  TapSink sink("sink");
  sim.add_node(relay);
  sim.add_node(sink);
  sim.connect("origin", "relay", 1000);
  sim.connect("relay", "sink", 1000);

  const Bytes body = big_payload(7);
  sim.send(Packet{"origin", "relay", body, 1, "fwd"});
  sim.run();

  ASSERT_EQ(relay.seen.size(), 1u);
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0], relay.seen[0]) << "forward copied the payload";
  EXPECT_EQ(sink.payloads[0], body);
  // Pool accounting: every slot drained back once the run finished.
  EXPECT_EQ(sim.payload_pool().live(), 0u);
}

TEST(ZeroCopyWire, ForwardMovesBufferAcrossShardMailbox) {
  Simulator sim;
  TapRelay relay("relay", "sink");
  TapSink sink("sink");
  sim.add_node(relay);
  sim.add_node(sink);
  sim.connect("origin", "relay", 1000);
  sim.connect("relay", "sink", 1000);
  sim.set_shards(2);
  sim.set_shard_affinity("relay", 0);
  sim.set_shard_affinity("sink", 1);  // forward must cross the mailbox

  const Bytes body = big_payload(11);
  sim.send(Packet{"origin", "relay", body, 1, "fwd"});
  sim.run();

  ASSERT_EQ(relay.seen.size(), 1u);
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0], relay.seen[0])
      << "cross-shard send deep-copied the payload";
  EXPECT_EQ(sink.payloads[0], body);
}

// Trimmed detach (mix-style onion shrink): shrinking never reallocates, so
// the sink still sees the same buffer, minus the tail.
TEST(ZeroCopyWire, DetachPrefixKeepsAllocation) {
  Simulator sim;
  TapRelay relay("relay", "sink", /*trim=*/16);
  TapSink sink("sink");
  sim.add_node(relay);
  sim.add_node(sink);
  sim.connect("origin", "relay", 1000);
  sim.connect("relay", "sink", 1000);

  const Bytes body = big_payload(3);
  sim.send(Packet{"origin", "relay", body, 1, "fwd"});
  sim.run();

  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0], relay.seen[0]);
  Bytes want(body.begin(), body.end() - 16);
  EXPECT_EQ(sink.payloads[0], want);
  EXPECT_EQ(sim.payload_pool().live(), 0u);
}

// Fault duplication shares one slot between two deliveries: the first
// detach sees refs > 1 and must copy, the second may steal. Both hops must
// still deliver intact bytes and the pool must drain.
TEST(ZeroCopyWire, DetachUnderFaultDuplicationStaysCorrect) {
  Simulator sim;
  TapRelay relay("relay", "sink");
  TapSink sink("sink");
  sim.add_node(relay);
  sim.add_node(sink);
  sim.connect("origin", "relay", 1000);
  sim.connect("relay", "sink", 1000);
  FaultPlan plan(9);
  plan.impair({.duplicate = 1.0});
  sim.set_fault_plan(std::move(plan));

  const Bytes body = big_payload(5);
  sim.send(Packet{"origin", "relay", body, 1, "fwd"});
  sim.run();

  // origin->relay duplicated, and each forward duplicated again.
  ASSERT_EQ(relay.seen.size(), 2u);
  ASSERT_EQ(sink.seen.size(), 4u);
  for (const Bytes& got : sink.payloads) EXPECT_EQ(got, body);
  EXPECT_EQ(sim.payload_pool().live(), 0u);
}

TEST(ZeroCopyWire, DetachOutsideDeliveryThrows) {
  Simulator sim;
  EXPECT_THROW(sim.detach_payload(), std::logic_error);
}

// send_shared references one pooled slot per send instead of copying: the
// slot's refcount, not its count of allocations, tracks the fan-out.
TEST(ZeroCopyWire, SendSharedAddsReferencesNotCopies) {
  Simulator sim;
  TapSink a("sink-a");
  TapSink b("sink-b");
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("origin", "sink-a", 1000);
  sim.connect("origin", "sink-b", 1000);

  PayloadRef wire = sim.make_payload(big_payload(1));
  EXPECT_EQ(sim.payload_pool().refs(wire.handle()), 1u);
  sim.send_shared("origin", "sink-a", wire, 1, "shared");
  sim.send_shared("origin", "sink-b", wire, 2, "shared");
  // One reference per queued delivery plus the caller's: no new slots.
  EXPECT_EQ(sim.payload_pool().refs(wire.handle()), 3u);
  EXPECT_EQ(sim.payload_pool().live(), 1u);
  sim.run();
  ASSERT_EQ(a.payloads.size(), 1u);
  ASSERT_EQ(b.payloads.size(), 1u);
  wire.reset();
  EXPECT_EQ(sim.payload_pool().live(), 0u);
}

// A node fanning out via make_payload + send_shared from inside on_packet
// exercises the sharded shard-local share (no copy) and cross-pool copy
// branches; receptions must match the serial engine either way.
class SharedFanRelay final : public Node {
 public:
  SharedFanRelay(std::string name, std::vector<Address> dests)
      : Node(std::move(name)), dests_(std::move(dests)) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    PayloadRef wire = sim.make_payload(p.payload);
    for (std::size_t i = 0; i < dests_.size(); ++i) {
      sim.send_shared(address(), dests_[i], wire, p.context, "shared");
    }
  }

 private:
  std::vector<Address> dests_;
};

TEST(ZeroCopyWire, ShardedSendSharedMatchesSerial) {
  auto run = [](std::uint32_t shards) {
    Simulator sim;
    SharedFanRelay relay("relay", {"sink-a", "sink-b", "sink-c"});
    TapSink a("sink-a"), b("sink-b"), c("sink-c");
    sim.add_node(relay);
    sim.add_node(a);
    sim.add_node(b);
    sim.add_node(c);
    sim.connect("origin", "relay", 1000);
    sim.connect("relay", "sink-a", 1000);
    sim.connect("relay", "sink-b", 1500);
    sim.connect("relay", "sink-c", 2000);
    if (shards > 1) {
      sim.set_shards(shards);
      // Same shard as the relay (share path) and a different one (copy).
      sim.set_shard_affinity("relay", 0);
      sim.set_shard_affinity("sink-a", 0);
      sim.set_shard_affinity("sink-b", 0);
      sim.set_shard_affinity("sink-c", 1);
    }
    sim.send(Packet{"origin", "relay", big_payload(9), 1, "fwd"});
    sim.run();
    std::vector<Bytes> got;
    for (const TapSink* s : {&a, &b, &c}) {
      for (const Bytes& x : s->payloads) got.push_back(x);
    }
    return got;
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
}

}  // namespace
}  // namespace dcpl::net
