// Fault-injection tier: simulator-level fault mechanics (loss, duplication,
// jitter, partitions, crashes, breaches) plus the adversarial properties the
// reliability layer must uphold — any seeded FaultPlan with loss < 1 lets a
// flow complete with its decoupling table unchanged or fail with a typed
// error, never hang, and never manufacture a coupling that the fault-free
// run didn't have.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/analysis.hpp"
#include "net/faults.hpp"
#include "net/sim.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "impaired_systems.hpp"
#include "systems/mpr/mpr.hpp"
#include "systems/ohttp/ohttp.hpp"
#include "systems/retry.hpp"

namespace dcpl {
namespace {

/// Records every delivery it receives.
class Sink final : public net::Node {
 public:
  explicit Sink(net::Address address) : net::Node(std::move(address)) {}

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    received.push_back(p);
    times.push_back(sim.now());
  }

  std::vector<net::Packet> received;
  std::vector<net::Time> times;
};

// ---------------------------------------------------------------------------
// Simulator-level fault mechanics.
// ---------------------------------------------------------------------------

TEST(Faults, TotalLossDropsEveryPacket) {
  net::Simulator sim;
  Sink a("a"), b("b");
  sim.add_node(a);
  sim.add_node(b);
  net::FaultPlan plan(1);
  plan.impair(net::Impairment{1.0, 0.0, 0.0, 0});
  sim.set_fault_plan(plan);

  for (int i = 0; i < 20; ++i) {
    sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
  }
  sim.run();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.fault_stats().lost, 20u);
  EXPECT_EQ(sim.fault_stats().total_dropped(), 20u);
}

TEST(Faults, CertainDuplicationDoublesDeliveries) {
  net::Simulator sim;
  Sink a("a"), b("b");
  sim.add_node(a);
  sim.add_node(b);
  net::FaultPlan plan(1);
  plan.impair(net::Impairment{0.0, 1.0, 0.0, 0});
  sim.set_fault_plan(plan);

  for (int i = 0; i < 20; ++i) {
    sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
  }
  sim.run();

  EXPECT_EQ(b.received.size(), 40u);
  EXPECT_EQ(sim.fault_stats().duplicated, 20u);
  EXPECT_EQ(sim.fault_stats().total_dropped(), 0u);
}

TEST(Faults, JitterDelaysStayWithinConfiguredBound) {
  net::Simulator sim;
  Sink a("a"), b("b");
  sim.add_node(a);
  sim.add_node(b);
  net::FaultPlan plan(3);
  plan.impair(net::Impairment{0.0, 0.0, 1.0, 5'000});
  sim.set_fault_plan(plan);

  for (int i = 0; i < 50; ++i) {
    sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
  }
  sim.run();

  ASSERT_EQ(b.received.size(), 50u);
  EXPECT_EQ(sim.fault_stats().jittered, 50u);
  bool any_delayed = false;
  for (net::Time t : b.times) {
    EXPECT_GE(t, 10'000u);  // default link latency
    EXPECT_LE(t, 15'000u);  // + jitter_max_us
    any_delayed |= t > 10'000u;
  }
  EXPECT_TRUE(any_delayed);
}

TEST(Faults, PerLinkImpairmentOverridesGlobal) {
  net::Simulator sim;
  Sink a("a"), b("b"), c("c");
  sim.add_node(a);
  sim.add_node(b);
  sim.add_node(c);
  net::FaultPlan plan(1);
  plan.impair(net::Impairment{1.0, 0.0, 0.0, 0});
  plan.impair_link("a", "b", net::Impairment{});  // clean override
  sim.set_fault_plan(plan);

  for (int i = 0; i < 10; ++i) {
    sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
    sim.send(net::Packet{"a", "c", to_bytes("x"), 0, "t"});
  }
  sim.run();

  EXPECT_EQ(b.received.size(), 10u);
  EXPECT_TRUE(c.received.empty());
  EXPECT_EQ(sim.fault_stats().lost, 10u);
}

TEST(Faults, PartitionWindowDropsBothDirections) {
  net::Simulator sim;
  Sink a("a"), b("b");
  sim.add_node(a);
  sim.add_node(b);
  net::FaultPlan plan(1);
  plan.partition("a", "b", 10'000, 30'000);
  sim.set_fault_plan(plan);

  auto send = [&sim](const net::Address& src, const net::Address& dst) {
    sim.send(net::Packet{src, dst, to_bytes("x"), 0, "t"});
  };
  send("a", "b");                                   // t=0: before window
  sim.at(15'000, [&] { send("a", "b"); });          // inside: dropped
  sim.at(20'000, [&] { send("b", "a"); });          // inside (reverse): dropped
  sim.at(30'000, [&] { send("a", "b"); });          // window end is exclusive
  sim.run();

  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(a.received.size(), 0u);
  EXPECT_EQ(sim.fault_stats().partition_dropped, 2u);
}

TEST(Faults, CrashedPartyCannotSendOrReceive) {
  net::Simulator sim;
  Sink a("a"), b("b");
  sim.add_node(a);
  sim.add_node(b);
  net::FaultPlan plan(1);
  plan.crash("b", 5'000, 20'000);
  sim.set_fault_plan(plan);

  // Sent pre-crash but *arriving* (t=10'000) inside the window: dropped at
  // delivery time.
  sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
  // b tries to send while offline: dropped at send time.
  sim.at(10'000, [&] {
    sim.send(net::Packet{"b", "a", to_bytes("x"), 0, "t"});
  });
  // Arrives at 25'000, after b recovers: delivered.
  sim.at(15'000, [&] {
    sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
  });
  sim.run();

  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(sim.fault_stats().offline_dropped, 2u);
}

TEST(Faults, BreachFiresHandlerOnceAtScheduledTime) {
  net::Simulator sim;
  Sink a("a");
  sim.add_node(a);
  std::vector<std::pair<net::Address, net::Time>> fired;
  sim.set_breach_handler([&](const net::BreachEvent& e) {
    fired.emplace_back(e.party, sim.now());
  });
  net::FaultPlan plan(1);
  plan.breach("a", 5'000);
  plan.breach("a", 9'000);  // second breach of the same party: ignored
  sim.set_fault_plan(plan);
  sim.run();

  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, "a");
  EXPECT_EQ(fired[0].second, 5'000u);
  EXPECT_TRUE(sim.is_breached("a"));
  EXPECT_FALSE(sim.is_breached("b"));
  EXPECT_EQ(sim.breached_at("a"), 5'000u);
  EXPECT_EQ(sim.fault_stats().breaches_fired, 1u);
}

// The determinism contract: a fixed (workload, plan) pair replays
// bit-identically — same delivery trace, same fault counters, same metrics
// snapshot.
TEST(Faults, FixedSeedPlanReplaysBitIdentically) {
  auto run_once = [](obs::Registry& reg, std::vector<net::TraceEntry>& trace,
                     net::FaultStats& stats, std::uint64_t seed) {
    net::Simulator sim;
    Sink a("a"), b("b"), c("c");
    sim.add_node(a);
    sim.add_node(b);
    sim.add_node(c);
    sim.set_metrics(reg);
    net::FaultPlan plan(seed);
    plan.impair(net::Impairment{0.15, 0.15, 0.5, 3'000});
    plan.partition("a", "c", 40'000, 60'000);
    sim.set_fault_plan(plan);
    for (int i = 0; i < 100; ++i) {
      sim.at(static_cast<net::Time>(i) * 1'000, [&sim, i] {
        Bytes payload{static_cast<std::uint8_t>(i)};
        sim.send(net::Packet{"a", "b", payload, 0, "t"});
        sim.send(net::Packet{"a", "c", payload, 0, "t"});
      });
    }
    sim.run();
    trace = sim.trace();
    stats = sim.fault_stats();
  };

  obs::Registry reg1, reg2;
  std::vector<net::TraceEntry> t1, t2;
  net::FaultStats s1, s2;
  run_once(reg1, t1, s1, 99);
  run_once(reg2, t2, s2, 99);

  EXPECT_EQ(s1, s2);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].time, t2[i].time) << "entry " << i;
    EXPECT_EQ(t1[i].src, t2[i].src) << "entry " << i;
    EXPECT_EQ(t1[i].dst, t2[i].dst) << "entry " << i;
    EXPECT_EQ(t1[i].size, t2[i].size) << "entry " << i;
    EXPECT_EQ(t1[i].context, t2[i].context) << "entry " << i;
  }
  obs::JsonWriter w1, w2;
  reg1.write_json(w1);
  reg2.write_json(w2);
  EXPECT_EQ(w1.str(), w2.str());

  // Sanity: the plan actually injected faults in this workload.
  EXPECT_GT(s1.lost + s1.duplicated + s1.jittered + s1.partition_dropped, 0u);

  // A different seed draws a different fault sequence.
  obs::Registry reg3;
  std::vector<net::TraceEntry> t3;
  net::FaultStats s3;
  run_once(reg3, t3, s3, 100);
  EXPECT_FALSE(s1 == s3 && t1.size() == t3.size());
}

// Regression: delivery_latency_us used to be observed at schedule time, so
// packets later dropped by a crash window still contributed samples. The
// histogram must count only actual deliveries.
TEST(Faults, OfflineDroppedPacketsLeaveLatencyHistogramUnchanged) {
  net::Simulator sim;
  obs::Registry reg;
  sim.set_metrics(reg);
  Sink a("a"), b("b");
  sim.add_node(a);
  sim.add_node(b);
  net::FaultPlan plan(1);
  plan.crash("b", 5'000, 20'000);
  sim.set_fault_plan(plan);

  // Arrives at 10'000, inside the crash window: dropped at delivery time.
  sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
  // Arrives at 25'000, after recovery: delivered.
  sim.at(15'000, [&] {
    sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
  });
  sim.run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sim.fault_stats().offline_dropped, 1u);
  const auto& hist = reg.histogram("delivery_latency_us");
  EXPECT_EQ(hist.count(), 1u);  // the dropped packet contributed no sample
  EXPECT_EQ(hist.min(), 10'000u);
  EXPECT_EQ(hist.max(), 10'000u);
}

// Regression: a plan installed mid-run with an already-elapsed breach time
// used to throw "time in the past" from Simulator::at. Elapsed times are
// clamped to fire immediately; future ones fire on schedule.
TEST(Faults, MidRunPlanInstallClampsElapsedBreachTimes) {
  net::Simulator sim;
  std::vector<std::pair<net::Address, net::Time>> fired;
  sim.set_breach_handler([&](const net::BreachEvent& e) {
    fired.emplace_back(e.party, sim.now());
  });
  sim.at(50'000, [&] {
    net::FaultPlan plan(1);
    plan.breach("early", 10'000);  // already elapsed at install time
    plan.breach("late", 80'000);
    sim.set_fault_plan(plan);
  });
  sim.run();

  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first, "early");
  EXPECT_EQ(fired[0].second, 50'000u);  // clamped to install time
  EXPECT_EQ(fired[1].first, "late");
  EXPECT_EQ(fired[1].second, 80'000u);
  EXPECT_EQ(sim.breached_at("early"), 50'000u);
}

// Pins the documented roll-consumption contract: per surviving packet the
// order is loss -> duplicate -> jitter -> duplicate-jitter, a lost packet
// consumes exactly one roll, and each hit jitter roll draws one extra delay
// value. An oracle replaying the same seeded RNG by that recipe must land on
// the exact same FaultStats — two plans differing in one knob diverge, so a
// reordered implementation cannot pass by accident.
TEST(Faults, RollConsumptionOrderMatchesDocumentedContract) {
  constexpr int kSends = 200;
  const auto oracle = [](const net::Impairment& imp, std::uint64_t seed) {
    XoshiroRng rng(seed);
    net::FaultStats stats;
    for (int i = 0; i < kSends; ++i) {
      if (imp.loss > 0 && rng.unit() < imp.loss) {
        ++stats.lost;
        continue;  // a lost packet consumes exactly one roll
      }
      bool duplicated = false;
      if (imp.duplicate > 0 && rng.unit() < imp.duplicate) duplicated = true;
      if (imp.jitter > 0 && rng.unit() < imp.jitter) {
        if (imp.jitter_max_us) rng.below(imp.jitter_max_us + 1);
        ++stats.jittered;
      }
      if (duplicated && imp.jitter > 0 && rng.unit() < imp.jitter) {
        if (imp.jitter_max_us) rng.below(imp.jitter_max_us + 1);
      }
      if (duplicated) ++stats.duplicated;
    }
    return stats;
  };
  const auto simulate = [](const net::Impairment& imp, std::uint64_t seed) {
    net::Simulator sim;
    Sink a("a"), b("b");
    sim.add_node(a);
    sim.add_node(b);
    net::FaultPlan plan(seed);
    plan.impair(imp);
    sim.set_fault_plan(plan);
    for (int i = 0; i < kSends; ++i) {
      sim.send(net::Packet{"a", "b", to_bytes("x"), 0, "t"});
    }
    sim.run();
    return sim.fault_stats();
  };

  const net::Impairment base{0.3, 0.0, 0.4, 2'000};
  const net::Impairment with_dup{0.3, 0.5, 0.4, 2'000};
  const net::FaultStats base_stats = simulate(base, 7);
  const net::FaultStats dup_stats = simulate(with_dup, 7);
  EXPECT_EQ(base_stats, oracle(base, 7));
  EXPECT_EQ(dup_stats, oracle(with_dup, 7));
  // Turning on duplication interleaves extra rolls into the same stream, so
  // the two runs must not coincide.
  EXPECT_FALSE(base_stats == dup_stats);
  EXPECT_GT(dup_stats.duplicated, 0u);
  EXPECT_GT(base_stats.lost, 0u);
  EXPECT_GT(base_stats.jittered, 0u);
}

// ---------------------------------------------------------------------------
// Breach + observation-layer integration (§3.3 live implant).
// ---------------------------------------------------------------------------

TEST(Faults, LiveBreachSeesOnlyThePostCompromiseSuffix) {
  using namespace systems::mpr;
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;
  book.set("origin.example", core::benign_identity("addr:origin.example"));
  book.set("vpn.example", core::benign_identity("addr:vpn.example"));
  book.set("10.0.7.1", core::sensitive_identity("user:early", "network"));
  book.set("10.0.7.2", core::sensitive_identity("user:late", "network"));

  SecureOrigin origin(
      "origin.example",
      [](const http::Request& req) {
        http::Response resp;
        resp.body = to_bytes("ok " + req.path);
        return resp;
      },
      log, book, 1);
  VpnServer vpn("vpn.example", log, book, 99);
  Client early("10.0.7.1", "user:early", log, 11);
  Client late("10.0.7.2", "user:late", log, 12);
  sim.add_node(origin);
  sim.add_node(vpn);
  sim.add_node(early);
  sim.add_node(late);

  sim.set_breach_handler([&log](const net::BreachEvent& e) {
    log.mark_compromised(e.party);
  });
  net::FaultPlan plan(5);
  plan.breach("vpn.example", 300'000);
  sim.set_fault_plan(plan);

  RelayInfo tunnel{"vpn.example", vpn.key().public_key};
  http::Request req;
  req.authority = "origin.example";
  req.path = "/page";
  early.fetch_via_vpn(req, tunnel, "origin.example", origin.key().public_key,
                      sim, nullptr);
  sim.at(600'000, [&] {
    late.fetch_via_vpn(req, tunnel, "origin.example",
                       origin.key().public_key, sim, nullptr);
  });
  sim.run();

  core::DecouplingAnalysis a(log);
  // Stored-logs model: both users' (identity, destination) pairs.
  EXPECT_EQ(a.breach("vpn.example").coupled_records, 2u);
  // Live implant planted mid-run: only the post-breach user is exposed.
  EXPECT_EQ(a.live_breach("vpn.example").coupled_records, 1u);
  EXPECT_TRUE(sim.is_breached("vpn.example"));
  EXPECT_EQ(sim.breached_at("vpn.example"), 300'000u);
}

// ---------------------------------------------------------------------------
// Property: under any seeded plan with loss < 1, a reliable flow completes
// or reports a typed error — it never hangs, and the decoupling verdict
// never degrades (faults remove or duplicate observations; they cannot
// create a coupling).
// ---------------------------------------------------------------------------

TEST(Faults, SeededPlansCompleteOrFailTypedNeverHang) {
  using namespace systems::ohttp;
  const double losses[] = {0.05, 0.2, 0.5, 0.9};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const double loss = losses[seed % 4];
    net::Simulator sim;
    core::ObservationLog log;
    core::AddressBook book;
    book.set("web.example", core::benign_identity("addr:web.example"));
    book.set("gw.example", core::benign_identity("addr:gw.example"));
    book.set("relay.example", core::benign_identity("addr:relay.example"));

    OriginServer origin(
        "web.example",
        [](const http::Request& req) {
          http::Response resp;
          resp.body = to_bytes("page " + req.path);
          return resp;
        },
        log, book);
    Gateway gateway("gw.example", log, book, 1);
    gateway.add_origin("web.example", "web.example");
    Relay relay("relay.example", "gw.example", log, book);
    sim.add_node(origin);
    sim.add_node(gateway);
    sim.add_node(relay);

    std::vector<std::unique_ptr<Client>> clients;
    std::vector<core::Party> users;
    for (int i = 0; i < 2; ++i) {
      std::string addr = "10.0.5." + std::to_string(i + 1);
      book.set(addr, core::sensitive_identity(
                         "user:p" + std::to_string(i), "network"));
      users.push_back(addr);
      clients.push_back(std::make_unique<Client>(
          addr, "user:p" + std::to_string(i), "relay.example",
          gateway.key().public_key, log, 100 * seed + i));
      sim.add_node(*clients.back());
    }

    net::FaultPlan plan(seed);
    plan.impair(net::Impairment{loss, 0.1, 0.3, 8'000});
    sim.set_fault_plan(plan);

    systems::RetryPolicy policy;
    policy.max_attempts = 5;
    int callbacks = 0, completed = 0, typed_errors = 0;
    for (auto& c : clients) {
      for (int r = 0; r < 2; ++r) {
        http::Request req;
        req.authority = "web.example";
        req.path = "/seed" + std::to_string(seed) + "/r" + std::to_string(r);
        c->fetch_reliable(req, sim, policy,
                          [&](Result<http::Response> result) {
                            ++callbacks;
                            result.ok() ? ++completed : ++typed_errors;
                          });
      }
    }
    const net::Time end = sim.run();

    // Every flow resolved one way or the other, at bounded virtual time.
    EXPECT_EQ(callbacks, 4) << "seed " << seed << " loss " << loss;
    EXPECT_EQ(completed + typed_errors, 4);
    EXPECT_LT(end, 60'000'000u) << "seed " << seed;
    // Faults never manufacture a coupling.
    core::DecouplingAnalysis a(log);
    EXPECT_TRUE(a.is_decoupled(users)) << "seed " << seed << " loss " << loss;
  }
}

// ---------------------------------------------------------------------------
// The eight paper systems (bench_tables T1-T8) at 5% loss / 20% jitter /
// 5% duplication: every workload still completes and derives the exact same
// knowledge tuples as its fault-free twin. Reliable entry points carry the
// request/response systems; blind repetition covers the rest.
// ---------------------------------------------------------------------------

/// Runs baseline and impaired twins and asserts identical tables.
void expect_tables_unchanged(
    testutil::SystemRun (*run)(const net::FaultPlan*), std::uint64_t seed) {
  testutil::SystemRun base = run(nullptr);
  net::FaultPlan plan = testutil::impaired_plan(seed);
  testutil::SystemRun imp = run(&plan);
  EXPECT_GT(imp.injected, 0u) << "plan injected nothing";
  EXPECT_EQ(base.decoupled, imp.decoupled);
  ASSERT_EQ(base.tuples.size(), imp.tuples.size());
  for (const auto& [party, tuple] : base.tuples) {
    auto it = imp.tuples.find(party);
    ASSERT_NE(it, imp.tuples.end()) << party;
    EXPECT_EQ(tuple, it->second) << "tuple changed under impairment: "
                                 << party;
  }
}

TEST(ImpairedTables, T1Ecash) {
  expect_tables_unchanged(testutil::run_ecash, 1001);
}
TEST(ImpairedTables, T2Mixnet) {
  expect_tables_unchanged(testutil::run_mixnet, 1002);
}
TEST(ImpairedTables, T3PrivacyPass) {
  expect_tables_unchanged(testutil::run_privacypass, 1003);
}
TEST(ImpairedTables, T4Odoh) { expect_tables_unchanged(testutil::run_odoh, 1004); }
TEST(ImpairedTables, T5Pgpp) { expect_tables_unchanged(testutil::run_pgpp, 1005); }
TEST(ImpairedTables, T6Mpr) { expect_tables_unchanged(testutil::run_mpr, 1006); }
TEST(ImpairedTables, T7Ppm) { expect_tables_unchanged(testutil::run_ppm, 1007); }
TEST(ImpairedTables, T8Vpn) {
  expect_tables_unchanged(testutil::run_vpn, 1008);
  // The cautionary tale stays coupled with and without faults.
  EXPECT_FALSE(testutil::run_vpn(nullptr).decoupled);
}

// ---------------------------------------------------------------------------
// Sharded engine: window faults are count-independent.
// ---------------------------------------------------------------------------

/// Replies to every packet with the same payload until a virtual-time cutoff,
/// keeping a conversation alive across the fault windows.
class Chatter final : public net::Node {
 public:
  Chatter(net::Address address, net::Time stop_at)
      : net::Node(std::move(address)), stop_at_(stop_at) {}

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    rx.push_back({sim.now(), p.src, to_string(p.payload)});
    if (sim.now() < stop_at_) {
      sim.send(net::Packet{address(), p.src, p.payload, p.context, "chat"});
    }
  }

  struct Rx {
    net::Time time;
    net::Address src;
    std::string payload;
    auto key() const { return std::tie(time, src, payload); }
    bool operator==(const Rx& o) const { return key() == o.key(); }
    bool operator<(const Rx& o) const { return key() < o.key(); }
  };
  std::vector<Rx> rx;

 private:
  net::Time stop_at_;
};

// A FaultPlan installed mid-run (partitions, a crash, and two breach
// implants) must produce the identical breach schedule, fault counters, and
// reception multiset whether the run is serial or split across 2 or 4
// worker shards. Window faults carry explicit virtual times, so unlike the
// per-shard stochastic impairment streams they are shard-count-independent.
TEST(FaultsSharded, MidRunPlanAndBreachImplantsMatchSerial) {
  constexpr net::Time kStop = 180'000;
  struct Outcome {
    std::vector<std::pair<net::Address, net::Time>> breaches;
    net::FaultStats stats;
    std::vector<Chatter::Rx> rx;  // sorted multiset over all nodes
    std::uint64_t packets = 0;
    net::Time end = 0;
  };
  const auto run_with = [&](std::uint32_t shards) {
    net::Simulator sim;
    std::vector<std::unique_ptr<Chatter>> nodes;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(
          std::make_unique<Chatter>("ping" + std::to_string(i), kStop));
      nodes.push_back(
          std::make_unique<Chatter>("pong" + std::to_string(i), kStop));
      sim.add_node(*nodes[nodes.size() - 2]);
      sim.add_node(*nodes[nodes.size() - 1]);
      if (shards > 1) {
        // Split each pair across shards so every reply crosses a boundary.
        sim.set_shard_affinity("ping" + std::to_string(i),
                               static_cast<std::uint32_t>(i));
        sim.set_shard_affinity("pong" + std::to_string(i),
                               static_cast<std::uint32_t>(i + 1));
      }
    }
    if (shards > 1) sim.set_shards(shards);

    Outcome out;
    sim.set_breach_handler([&](const net::BreachEvent& e) {
      out.breaches.emplace_back(e.party, sim.now());
    });
    for (int i = 0; i < 4; ++i) {
      sim.send(net::Packet{"ping" + std::to_string(i),
                           "pong" + std::to_string(i), to_bytes("hello"), 0,
                           "chat"},
               /*extra_delay=*/static_cast<net::Time>(i) * 500);
    }
    // Install the plan mid-run; every window/implant lies beyond the install
    // point plus one lookahead window, so barrier-quantized application in
    // the sharded engine sees exactly what the serial engine sees. The
    // "observer" party has no node: installing the plan interns it, so its
    // implant, which fires on a worker when sharded, finds it interned.
    sim.at(35'000, [&sim] {
      net::FaultPlan plan(1);
      plan.partition("ping1", "pong1", 60'000, 120'000);
      plan.crash("pong2", 70'000, 130'000);
      plan.breach("pong0", 90'000);
      plan.breach("observer", 110'000);
      plan.breach("ping3", 150'000);
      sim.set_fault_plan(plan);
    });
    out.end = sim.run();
    out.stats = sim.fault_stats();
    out.packets = sim.packets_delivered();
    for (const auto& n : nodes) {
      out.rx.insert(out.rx.end(), n->rx.begin(), n->rx.end());
    }
    std::sort(out.rx.begin(), out.rx.end());
    EXPECT_TRUE(sim.is_breached("pong0"));
    EXPECT_TRUE(sim.is_breached("observer"));
    EXPECT_TRUE(sim.is_breached("ping3"));
    EXPECT_EQ(sim.breached_at("pong0"), 90'000u);
    EXPECT_EQ(sim.breached_at("observer"), 110'000u);
    EXPECT_EQ(sim.breached_at("ping3"), 150'000u);
    return out;
  };

  const Outcome serial = run_with(1);
  ASSERT_EQ(serial.breaches.size(), 3u);
  EXPECT_GT(serial.stats.partition_dropped, 0u);
  EXPECT_GT(serial.stats.offline_dropped, 0u);
  EXPECT_EQ(serial.stats.breaches_fired, 3u);
  for (std::uint32_t shards : {2u, 4u}) {
    const Outcome sharded = run_with(shards);
    EXPECT_EQ(sharded.breaches, serial.breaches) << "shards=" << shards;
    EXPECT_EQ(sharded.stats, serial.stats) << "shards=" << shards;
    EXPECT_EQ(sharded.rx, serial.rx) << "shards=" << shards;
    EXPECT_EQ(sharded.packets, serial.packets) << "shards=" << shards;
    EXPECT_EQ(sharded.end, serial.end) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace dcpl
