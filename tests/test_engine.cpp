// Determinism oracle and unit tests for the typed event engine.
//
// The two goldens below were recorded from the seed binary-heap engine
// (std::priority_queue of type-erased closures) before the calendar-queue
// rewrite, by running exactly the workloads in tests/engine_oracle.hpp and
// freezing their outputs. The engine is free to change its internals; it is
// NOT free to change a single line of this trace — the delivered
// (time, src, dst, size, context, protocol) order is the observable
// behaviour every decoupling table, figure, and fault experiment folds
// over.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine_oracle.hpp"
#include "net/engine.hpp"
#include "net/pool.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"

namespace dcpl {
namespace {

// ---------------------------------------------------------------------------
// Golden determinism oracles (recorded from the seed heap engine).

// Readable trace: ties at t=100 (seq order, with an at() callback scheduled
// between sends), a 3-hop forward chain, a delivery landing exactly on the
// 2^20 us wheel-horizon boundary, overflow-rung traffic at 2.5-6 s, a fault
// plan installed mid-run at t=2 s (seeded loss/dup/jitter rolls in send
// order, a partition, a crash window, a breach), and the final fault-stat /
// breach-query fold.
const char* const kGoldenSmall[] = {
    "D 100 a b 1 1 tie",
    "D 100 a b 2 2 tie",
    "C 100 tie",
    "D 100 a b 3 3 tie",
    "D 100 a b 2 4 hop",
    "D 250 c b 5 5 ping",
    "D 350 b c 2 4 hop",
    "D 500 b c 6 5 pong",
    "D 1350 c d 2 4 hop",
    "C 1048400 roll-send",
    "C 1048575 pre-roll",
    "C 1048576 roll",
    "D 1048576 a b 7 7 roll",
    "C 1048577 post-roll",
    "C 2000000 plan",
    "D 2050250 b c 4 9 data",
    "D 2051000 c d 6 10 data",
    "D 2051000 c d 6 10 data",
    "D 2100100 a b 2 11 ping",
    "D 2100200 b a 3 11 pong",
    "D 2100250 b c 4 12 data",
    "D 2100410 a b 2 11 ping",
    "D 2100509 b a 3 11 pong",
    "D 2100510 b a 3 11 pong",
    "D 2101445 c d 6 13 data",
    "D 2150100 a b 3 14 ping",
    "D 2150676 b a 4 14 pong",
    "D 2151000 c d 6 16 data",
    "D 2151120 c d 6 16 data",
    "D 2200309 a b 4 17 ping",
    "D 2200550 a b 4 17 ping",
    "D 2200815 b a 5 17 pong",
    "D 2201000 c d 6 19 data",
    "D 2251012 c d 6 22 data",
    "D 2300357 a b 6 23 ping",
    "D 2301000 c d 6 25 data",
    "D 2350427 a b 7 26 ping",
    "D 2350527 b a 8 26 pong",
    "D 2351185 c d 6 28 data",
    "D 2400225 a b 8 29 ping",
    "D 2400325 b a 9 29 pong",
    "D 2400386 a b 8 29 ping",
    "D 2400524 b a 9 29 pong",
    "D 2450391 b c 4 33 data",
    "D 2451336 c d 6 34 data",
    "D 2500000 a far 11 6 deep",
    "B 2500000 c",
    "D 2500100 a b 10 35 ping",
    "D 2500495 b a 11 35 pong",
    "D 2501105 c d 6 37 data",
    "D 2550414 a b 11 38 ping",
    "D 2550594 a b 11 38 ping",
    "D 2550694 b a 12 38 pong",
    "D 2551340 c d 6 40 data",
    "D 2650100 a b 13 44 ping",
    "D 2650200 b a 14 44 pong",
    "D 2650200 b a 14 44 pong",
    "D 2650221 a b 13 44 ping",
    "D 2650250 b c 4 45 data",
    "D 2650321 b a 14 44 pong",
    "D 2700100 a b 14 47 ping",
    "D 2700604 b c 4 48 data",
    "D 2701000 c d 6 49 data",
    "D 2750249 a b 15 50 ping",
    "D 2750250 b c 4 51 data",
    "D 2750349 b a 16 50 pong",
    "D 2750722 b c 4 51 data",
    "D 2751000 c d 6 52 data",
    "D 2800286 a b 16 53 ping",
    "D 2800674 b c 4 54 data",
    "D 2801000 c d 6 55 data",
    "C 3500000 deep",
    "D 6000205 a far 13 56 deep",
    "E 6000205",
    "F 16 10 24 4 1 1",
    "X c 1 2500000",
    "X a 0 -",
};

constexpr std::uint64_t kGoldenBigHash = 4474983827442256239ull;

TEST(EngineGolden, SmallTraceMatchesSeedEngine) {
  const std::vector<std::string> log = testing::oracle_small_trace();
  const std::size_t n = sizeof(kGoldenSmall) / sizeof(kGoldenSmall[0]);
  ASSERT_EQ(log.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(log[i], kGoldenSmall[i]) << "golden line " << i;
  }
}

TEST(EngineGolden, BigMeshHashMatchesSeedEngine) {
  EXPECT_EQ(testing::oracle_big_hash(), kGoldenBigHash);
}

// What the small oracle's serial run reports to its metrics registry,
// recorded from the engine that wrote every counter inline per event. An
// engine that counts locally and folds into the registry later must land
// on exactly these values.
TEST(EngineGolden, SmallTraceRegistryValues) {
  obs::Registry reg;
  testing::oracle_small_trace(&reg);
  EXPECT_EQ(reg.counter("events_processed").value(), 90u);
  EXPECT_EQ(reg.counter("packets_delivered").value(), 65u);
  EXPECT_EQ(reg.counter("bytes_delivered").value(), 448u);
  EXPECT_EQ(reg.counter("faults_lost").value(), 16u);
  EXPECT_EQ(reg.counter("faults_duplicated").value(), 10u);
  EXPECT_EQ(reg.counter("faults_jittered").value(), 24u);
  EXPECT_EQ(reg.counter("faults_partition_dropped").value(), 4u);
  EXPECT_EQ(reg.counter("faults_offline_dropped").value(), 1u);
  EXPECT_EQ(reg.counter("faults_breaches_fired").value(), 1u);
  const obs::Histogram& latency = reg.histogram("delivery_latency_us");
  EXPECT_EQ(latency.count(), 65u);
  EXPECT_EQ(latency.sum(), 5030317.0);
  EXPECT_EQ(latency.min(), 100.0);
  EXPECT_EQ(latency.max(), 2500205.0);
  EXPECT_EQ(reg.gauge("queue_depth_peak").value(), 29.0);
}

// ---------------------------------------------------------------------------
// CalendarQueue unit tests (tiny wheel: 4 slots x 4 us, horizon 16 us).

net::EngineEvent ev_at(net::Time t, std::uint64_t seq) {
  net::EngineEvent ev;
  ev.time = t;
  ev.seq = seq;
  return ev;
}

TEST(CalendarQueue, PopsInExactTimeSeqOrder) {
  net::CalendarQueue q(2, 2);
  // Scattered times with ties; seqs assigned in push order.
  const net::Time times[] = {9, 3, 3, 15, 0, 9, 120, 7, 3, 64};
  std::uint64_t seq = 0;
  for (net::Time t : times) q.push(ev_at(t, ++seq));
  ASSERT_EQ(q.size(), 10u);

  net::Time last_t = 0;
  std::uint64_t last_seq = 0;
  while (!q.empty()) {
    const net::EngineEvent ev = q.pop();
    EXPECT_TRUE(ev.time > last_t || (ev.time == last_t && ev.seq > last_seq))
        << "out of order at t=" << ev.time << " seq=" << ev.seq;
    last_t = ev.time;
    last_seq = ev.seq;
  }
  EXPECT_EQ(last_t, 120u);
}

TEST(CalendarQueue, FarEventsRideOverflowRungThenMigrate) {
  net::CalendarQueue q(2, 2);  // horizon 16 us
  q.push(ev_at(1'000, 1));
  q.push(ev_at(500, 2));
  q.push(ev_at(2, 3));
  EXPECT_EQ(q.overflow_size(), 2u);  // 1000 and 500 are beyond the horizon
  EXPECT_EQ(q.pop().time, 2u);
  EXPECT_EQ(q.pop().time, 500u);  // window jumped, overflow migrated
  EXPECT_EQ(q.pop().time, 1'000u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PushIntoDrainingSlotMergesInOrder) {
  net::CalendarQueue q(2, 2);  // slot 0 covers t=0..3
  q.push(ev_at(1, 1));
  q.push(ev_at(3, 2));
  EXPECT_EQ(q.pop().seq, 1u);  // slot 0 is now mid-drain
  q.push(ev_at(2, 3));         // lands in the slot being drained
  const net::EngineEvent a = q.pop();
  const net::EngineEvent b = q.pop();
  EXPECT_EQ(a.time, 2u);  // (2, seq 3) fires before (3, seq 2)
  EXPECT_EQ(a.seq, 3u);
  EXPECT_EQ(b.time, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PopOnEmptyThrows) {
  net::CalendarQueue q(2, 2);
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push(ev_at(5, 1));
  q.pop();
  EXPECT_THROW(q.pop(), std::logic_error);
}

// ---------------------------------------------------------------------------
// BufferPool unit tests.

TEST(BufferPool, RecyclesSlotsAndPoisonsFreedBuffers) {
  net::BufferPool pool;
  const net::PayloadHandle h1 = pool.acquire(Bytes{1, 2, 3});
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.at(h1), (Bytes{1, 2, 3}));

  pool.release(h1);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_THROW(pool.at(h1), std::logic_error);       // stale read
  EXPECT_THROW(pool.release(h1), std::logic_error);  // double release
  EXPECT_EQ(pool.refs(h1), 0u);

  // The freed slot is recycled (same index, fresh contents, no growth).
  const net::PayloadHandle h2 = pool.acquire(Bytes{9});
  EXPECT_EQ(h2, h1);
  EXPECT_EQ(pool.slots(), 1u);
  EXPECT_EQ(pool.at(h2), Bytes{9});
  pool.release(h2);
}

TEST(BufferPool, RefCountKeepsSharedBufferAlive) {
  net::BufferPool pool;
  const net::PayloadHandle h = pool.acquire(Bytes{7, 7});
  pool.add_ref(h);
  EXPECT_EQ(pool.refs(h), 2u);
  pool.release(h);
  EXPECT_EQ(pool.at(h), (Bytes{7, 7}));  // still alive under one ref
  pool.release(h);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(BufferPool, PayloadRefIsRaii) {
  net::BufferPool pool;
  {
    net::PayloadRef a(&pool, pool.acquire(Bytes{5}));
    net::PayloadRef b = a;  // copy adds a reference
    EXPECT_EQ(pool.refs(a.handle()), 2u);
    net::PayloadRef c = std::move(b);  // move transfers, no new reference
    EXPECT_EQ(pool.refs(a.handle()), 2u);
    EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c.bytes(), Bytes{5});
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
}

// ---------------------------------------------------------------------------
// Simulator-level engine behaviour.

/// Sink node that records every delivered payload.
class SinkNode : public net::Node {
 public:
  explicit SinkNode(net::Address a) : Node(std::move(a)) {}
  std::vector<Bytes> payloads;
  void on_packet(const net::Packet& p, net::Simulator&) override {
    payloads.push_back(p.payload);
  }
};

// The gauge is sampled every 1024 queue ops, so with 2500 pushes the
// sampled values alone would top out at 2048 — the drain-time flush must
// still report the exact high-watermark of 2500 on the dedicated
// queue_depth_peak gauge, while the live queue_depth gauge ends at zero
// (the old single-gauge scheme double-set queue_depth to the peak and then
// to zero, so which value a scraper saw depended on timing).
TEST(SimulatorEngine, QueueDepthPeakIsExactDespiteSampling) {
  obs::Registry reg;
  net::Simulator sim;
  sim.set_metrics(reg);
  SinkNode sink("sink");
  sim.add_node(sink);
  sim.set_link_byte_accounting(false);

  constexpr int kPackets = 2500;
  for (int i = 0; i < kPackets; ++i) {
    sim.send(net::Packet{"src", "sink", Bytes(1), 0, "data"},
             static_cast<net::Time>(i));  // distinct times: no ties
  }
  sim.run();

  EXPECT_EQ(sink.payloads.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(reg.gauge("queue_depth_peak").peak(),
            static_cast<double>(kPackets));
  EXPECT_EQ(reg.gauge("queue_depth_peak").value(),
            static_cast<double>(kPackets));
  EXPECT_EQ(reg.gauge("queue_depth").value(), 0.0);
  // The live gauge's own high-watermark is the sampled one — it must never
  // exceed the exact drain-time peak.
  EXPECT_LE(reg.gauge("queue_depth").peak(), static_cast<double>(kPackets));
}

// Fault duplication must hand both deliveries the same pooled buffer: the
// duplicate's bytes are identical, and no payload copy or leak survives
// the run.
TEST(SimulatorEngine, DuplicatedDeliveryIsByteIdenticalAndPooled) {
  obs::Registry reg;
  net::Simulator sim;
  sim.set_metrics(reg);
  SinkNode sink("sink");
  sim.add_node(sink);

  net::FaultPlan plan(7);
  plan.impair({0.0, 1.0, 0.0, 0});  // duplicate every packet
  sim.set_fault_plan(std::move(plan));

  const Bytes wire{0xde, 0xad, 0xbe, 0xef, 0x42};
  sim.send(net::Packet{"src", "sink", wire, 1, "data"});
  EXPECT_EQ(sim.payload_pool().live(), 1u);  // one buffer, two deliveries
  sim.run();

  ASSERT_EQ(sink.payloads.size(), 2u);
  EXPECT_EQ(sink.payloads[0], wire);
  EXPECT_EQ(sink.payloads[1], wire);
  EXPECT_EQ(sim.fault_stats().duplicated, 1u);
  EXPECT_EQ(sim.payload_pool().live(), 0u);  // fully released after drain
}

TEST(SimulatorEngine, SendSharedReusesOneBufferAcrossResends) {
  obs::Registry reg;
  net::Simulator sim;
  sim.set_metrics(reg);
  SinkNode sink("sink");
  sim.add_node(sink);

  net::PayloadRef wire = sim.make_payload(Bytes{1, 2, 3, 4});
  EXPECT_EQ(sim.payload_pool().live(), 1u);
  for (int resend = 0; resend < 3; ++resend) {
    sim.send_shared("src", "sink", wire, 9, "retry",
                    static_cast<net::Time>(resend));
  }
  EXPECT_EQ(sim.payload_pool().live(), 1u);  // still the one shared slot
  sim.run();

  ASSERT_EQ(sink.payloads.size(), 3u);
  for (const Bytes& p : sink.payloads) EXPECT_EQ(p, (Bytes{1, 2, 3, 4}));
  for (const net::TraceEntry& e : sim.trace()) EXPECT_EQ(e.context, 9u);

  wire.reset();
  EXPECT_EQ(sim.payload_pool().live(), 0u);
}

// A mid-run set_fault_plan resets fault_stats() but never the registry:
// the faults the old plan injected stay counted there. Serial and sharded
// runs must agree, so a sharded swap has to fold each shard's fault counts
// into the registry before resetting them.
TEST(SimulatorEngine, PlanSwapKeepsEarlierFaultsInRegistry) {
  for (std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    obs::Registry reg;
    net::Simulator sim;
    sim.set_metrics(reg);
    SinkNode sink("sink");
    sim.add_node(sink);
    net::FaultPlan lossy(3);
    lossy.impair({1.0, 0.0, 0.0, 0});  // every packet is lost
    sim.set_fault_plan(std::move(lossy));
    const auto send = [&sim] {
      sim.send(net::Packet{"src", "sink", Bytes(1), 0, "data"});
    };
    for (net::Time i = 0; i < 10; ++i) sim.at(100 + i, send);
    sim.at(1'000, [&sim] { sim.set_fault_plan(net::FaultPlan(4)); });
    // Far past the swap plus any lookahead window, so the sharded run has
    // applied the new plan before these sends roll.
    for (net::Time i = 0; i < 5; ++i) sim.at(100'000 + i, send);
    sim.set_shards(shards);
    sim.run();

    EXPECT_EQ(sink.payloads.size(), 5u);
    EXPECT_EQ(sim.fault_stats().lost, 0u);  // reset by the swap
    EXPECT_EQ(reg.counter("faults_lost").value(), 10u);
    EXPECT_EQ(reg.counter("packets_delivered").value(), 5u);
  }
}

TEST(SimulatorEngine, SendSharedRejectsForeignOrEmptyPayloads) {
  net::Simulator sim_a;
  net::Simulator sim_b;
  SinkNode sink("sink");
  sim_a.add_node(sink);

  EXPECT_THROW(sim_a.send_shared("src", "sink", net::PayloadRef(), 0, "x"),
               std::invalid_argument);
  const net::PayloadRef foreign = sim_b.make_payload(Bytes{1});
  EXPECT_THROW(sim_a.send_shared("src", "sink", foreign, 0, "x"),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcpl
