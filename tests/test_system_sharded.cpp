// System-level sharded run: the full OHTTP stack (clients, relay, gateway,
// origin — real HPKE crypto, zero-copy forwards) spread across shards with
// per-node observation logs, so the only shared mutable state is the
// engine's own. This is the tier the ThreadSanitizer CI job leans on: a
// data race anywhere in the mailbox/pool/metrics plumbing surfaces here
// under real protocol traffic, not just synthetic ping-pong. Reliable
// fetches started on every worker at once drive the retry layer's counters
// from four threads. An e-cash estate adds the one real system that sends
// from an address no node owns: each buyer spends from its declared
// pseudonym on its own worker. The OHTTP estate's logs all feed one
// FlowLedger, so the ledger's stage-then-commit path and its per-source id
// maps run under real traffic too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/address_book.hpp"
#include "core/knowledge.hpp"
#include "core/observation.hpp"
#include "net/sim.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "systems/ecash/ecash.hpp"
#include "systems/ohttp/ohttp.hpp"

namespace dcpl::systems {
namespace {

constexpr int kClients = 12;
constexpr int kRounds = 3;

/// One OHTTP estate where every party keeps its own ObservationLog, so
/// nodes can spread across shards without sharing a log. Every log also
/// feeds one FlowLedger with a monitor exempting the clients: on a worker
/// the ledger stages each record with its log's ids and maps them into its
/// own table only when the coordinator commits.
struct Estate {
  net::Simulator sim;
  core::AddressBook book;
  obs::FlowLedger ledger;
  obs::DecouplingMonitor monitor;
  std::vector<std::unique_ptr<core::ObservationLog>> logs;

  std::unique_ptr<ohttp::OriginServer> origin;
  std::unique_ptr<ohttp::Gateway> gateway;
  std::unique_ptr<ohttp::Relay> relay;
  std::vector<std::unique_ptr<ohttp::Client>> clients;

  core::ObservationLog& fresh_log() {
    logs.push_back(std::make_unique<core::ObservationLog>());
    logs.back()->set_sink(&ledger);
    return *logs.back();
  }

  explicit Estate(int n_clients = kClients) {
    ledger.attach_monitor(&monitor);
    sim.set_flow(&ledger);
    book.set("web.example", core::benign_identity("addr:web.example"));
    book.set("gw.example", core::benign_identity("addr:gw.example"));
    book.set("relay.example", core::benign_identity("addr:relay.example"));

    origin = std::make_unique<ohttp::OriginServer>(
        "web.example",
        [](const http::Request& req) {
          http::Response resp;
          resp.body = to_bytes("page " + req.path);
          return resp;
        },
        fresh_log(), book);
    gateway =
        std::make_unique<ohttp::Gateway>("gw.example", fresh_log(), book, 1);
    gateway->add_origin("web.example", "web.example");
    relay = std::make_unique<ohttp::Relay>("relay.example", "gw.example",
                                           fresh_log(), book);
    sim.add_node(*origin);
    sim.add_node(*gateway);
    sim.add_node(*relay);
    for (int i = 0; i < n_clients; ++i) {
      const std::string addr = "10.0.0." + std::to_string(i + 1);
      const std::string label = "user:browser" + std::to_string(i);
      book.set(addr, core::sensitive_identity(label, "network"));
      clients.push_back(std::make_unique<ohttp::Client>(
          addr, label, "relay.example", gateway->key().public_key,
          fresh_log(), 100 + i));
      sim.add_node(*clients.back());
      monitor.exempt(addr);
    }
  }

  /// Each client fetches kRounds pages, chaining the next fetch from the
  /// previous response callback so traffic keeps flowing mid-run.
  void run_workload() {
    for (int i = 0; i < kClients; ++i) {
      fetch_round(i, 0);
    }
    sim.run();
  }

  void fetch_round(int client, int round) {
    if (round >= kRounds) return;
    http::Request req;
    req.authority = "web.example";
    req.path = "/r" + std::to_string(round) + "/u" + std::to_string(client);
    clients[client]->fetch(req, sim, [this, client, round](
                                         const http::Response&) {
      fetch_round(client, round + 1);
    });
  }
};

TEST(SystemSharded, OhttpStackSpreadAcrossShardsMatchesSerial) {
  Estate serial;
  serial.run_workload();
  ASSERT_EQ(serial.origin->requests_served(),
            static_cast<std::size_t>(kClients * kRounds));
  ASSERT_GT(serial.ledger.exposures(), 0u);
  ASSERT_GT(serial.ledger.links(), 0u);
  ASSERT_GT(serial.ledger.deduped(), 0u);
  ASSERT_TRUE(serial.monitor.violations().empty());

  for (std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Estate sharded;
    sharded.sim.set_shards(shards);  // no affinity: nodes spread by id
    sharded.run_workload();

    EXPECT_EQ(sharded.origin->requests_served(),
              serial.origin->requests_served());
    EXPECT_EQ(sharded.relay->forwarded(), serial.relay->forwarded());
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(sharded.clients[i]->responses_received(),
                serial.clients[i]->responses_received())
          << "client " << i;
    }
    EXPECT_EQ(sharded.sim.packets_delivered(), serial.sim.packets_delivered());
    EXPECT_EQ(sharded.sim.bytes_delivered(), serial.sim.bytes_delivered());

    const net::Simulator::ShardRunStats& stats = sharded.sim.shard_stats();
    EXPECT_EQ(stats.shards, shards);
    std::uint64_t cross = 0;
    for (std::uint64_t c : stats.cross_sends) cross += c;
    EXPECT_GT(cross, 0u) << "workload never crossed a shard boundary";

    // The ledger the per-node logs fed from the workers folds to the
    // serial run's knowledge, counts and verdict.
    EXPECT_EQ(sharded.ledger.tuples(), serial.ledger.tuples());
    EXPECT_EQ(sharded.ledger.exposures(), serial.ledger.exposures());
    EXPECT_EQ(sharded.ledger.links(), serial.ledger.links());
    EXPECT_EQ(sharded.ledger.deduped(), serial.ledger.deduped());
    EXPECT_TRUE(sharded.monitor.violations().empty());
  }
}

// Same OHTTP estate under set_auto_affinity(kMinCut): the partitioner
// places parties from the link table instead of id-modulo, and every
// serial-equivalence obligation still holds. Runs under the TSan CI job,
// so partitioner-driven placement gets race coverage on real traffic too.
TEST(SystemSharded, OhttpStackWithAutoAffinityMatchesSerial) {
  Estate serial;
  serial.run_workload();

  for (std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Estate sharded;
    sharded.sim.set_shards(shards);
    sharded.sim.set_auto_affinity(net::Simulator::AffinityPolicy::kMinCut);
    sharded.run_workload();

    EXPECT_EQ(sharded.sim.shard_stats().policy,
              net::Simulator::AffinityPolicy::kMinCut);
    EXPECT_EQ(sharded.origin->requests_served(),
              serial.origin->requests_served());
    EXPECT_EQ(sharded.relay->forwarded(), serial.relay->forwarded());
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(sharded.clients[i]->responses_received(),
                serial.clients[i]->responses_received())
          << "client " << i;
    }
    EXPECT_EQ(sharded.sim.packets_delivered(), serial.sim.packets_delivered());
    EXPECT_EQ(sharded.sim.bytes_delivered(), serial.sim.bytes_delivered());
  }
}

TEST(SystemSharded, RepeatedShardedRunsAreBitStable) {
  auto digest = [](Estate& e) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
      }
    };
    for (const net::TraceEntry& t : e.sim.trace()) {
      mix(t.time);
      mix(t.size);
      mix(t.context);
    }
    return h;
  };
  Estate first;
  first.sim.set_shards(4);
  first.run_workload();
  const std::uint64_t want = digest(first);
  for (int rep = 0; rep < 3; ++rep) {
    Estate again;
    again.sim.set_shards(4);
    again.run_workload();
    ASSERT_EQ(digest(again), want) << "rep " << rep;
  }
}

// --- reliable fetches: the retry layer on every worker -------------------

// One client pinned per shard, each starting fetch_reliable from its own
// worker at t = 0, so four threads run retry_run at once and bump its
// counters in a registry the test hands the simulator. The counters must
// rebind to that registry without a data race (the TSan job runs this) and
// count exactly what a serial run counts.
TEST(SystemSharded, ReliableFetchesOnEveryWorkerMatchSerial) {
  constexpr int kPinned = 4;
  struct Outcome {
    std::vector<std::size_t> responses;
    std::uint64_t sends = 0;
    std::uint64_t successes = 0;
  };
  auto run = [](std::uint32_t shards, obs::Registry& metrics) {
    Estate e(kPinned);
    e.sim.set_metrics(metrics);
    if (shards > 1) {
      for (int i = 0; i < kPinned; ++i) {
        e.sim.set_shard_affinity(e.clients[i]->address(),
                                 static_cast<std::uint32_t>(i));
      }
      e.sim.set_shards(shards);
    }
    for (int i = 0; i < kPinned; ++i) {
      e.sim.at_node(e.clients[i]->address(), 0, [&e, i] {
        http::Request req;
        req.authority = "web.example";
        req.path = "/reliable/u" + std::to_string(i);
        e.clients[i]->fetch_reliable(req, e.sim, RetryPolicy{},
                                     [](Result<http::Response>) {});
      });
    }
    e.sim.run();
    Outcome out;
    for (const auto& c : e.clients) {
      out.responses.push_back(c->responses_received());
    }
    out.sends = metrics.scope("retry").counter("sends").value();
    out.successes = metrics.scope("retry").counter("successes").value();
    return out;
  };

  obs::Registry serial_metrics, sharded_metrics;
  const Outcome serial = run(1, serial_metrics);
  ASSERT_EQ(serial.responses, std::vector<std::size_t>(kPinned, 1));
  ASSERT_EQ(serial.successes, static_cast<std::uint64_t>(kPinned));
  ASSERT_GE(serial.sends, serial.successes);

  const Outcome sharded = run(kPinned, sharded_metrics);
  EXPECT_EQ(sharded.responses, serial.responses);
  EXPECT_EQ(sharded.sends, serial.sends);
  EXPECT_EQ(sharded.successes, serial.successes);
}

// --- e-cash: the pseudonymous spend made on a worker ----------------------

constexpr int kBuyers = 4;
constexpr int kCoinsEach = 2;

/// Bank, seller and kBuyers buyers, each party with its own log. Buyer i
/// spends from its pseudonym "anon:buyer<i>", which its Buyer declares, so
/// in a threaded run the spend's source is first used on a worker.
struct CashEstate {
  net::Simulator sim;
  core::AddressBook book;
  std::vector<std::unique_ptr<core::ObservationLog>> logs;

  std::unique_ptr<ecash::Bank> bank;
  std::unique_ptr<ecash::Seller> seller;
  std::vector<std::unique_ptr<ecash::Buyer>> buyers;
  core::ObservationLog* seller_log = nullptr;

  core::ObservationLog& fresh_log() {
    logs.push_back(std::make_unique<core::ObservationLog>());
    return *logs.back();
  }

  explicit CashEstate(std::uint32_t shards) {
    book.set("bank.example", core::benign_identity("addr:bank.example"));
    book.set("seller.example", core::benign_identity("addr:seller.example"));
    bank = std::make_unique<ecash::Bank>("bank.example", 1024, fresh_log(),
                                         book, 1);
    seller_log = &fresh_log();
    seller = std::make_unique<ecash::Seller>(
        "seller.example", "bank.example", bank->public_key(), *seller_log,
        book);
    sim.add_node(*bank);
    sim.add_node(*seller);
    for (int i = 0; i < kBuyers; ++i) {
      const std::string addr = buyer_address(i);
      const std::string account = "buyer" + std::to_string(i);
      book.set(addr, core::sensitive_identity("account:" + account, "network"));
      bank->open_account(account, kCoinsEach);
      buyers.push_back(std::make_unique<ecash::Buyer>(
          addr, "anon:" + account, account, "bank.example",
          bank->public_key(), fresh_log(), 7 + i));
      sim.add_node(*buyers.back());
      sim.set_shard_affinity(addr, static_cast<std::uint32_t>(i));
    }
    sim.set_shards(shards);
  }

  static std::string buyer_address(int i) {
    return "10.0.1." + std::to_string(i + 1);
  }

  /// Every buyer withdraws its coins at t = 0 and spends them all at 1 s,
  /// both on its own shard.
  void run_workload() {
    for (int i = 0; i < kBuyers; ++i) {
      sim.at_node(buyer_address(i), 0, [this, i] {
        for (int c = 0; c < kCoinsEach; ++c) buyers[i]->withdraw(sim);
      });
      sim.at_node(buyer_address(i), 1'000'000, [this, i] {
        for (int c = 0; c < kCoinsEach; ++c) {
          buyers[i]->spend("seller.example",
                           "item" + std::to_string(i) + "-" + std::to_string(c),
                           sim);
        }
      });
    }
    sim.run();
  }

  /// The seller's observations without their contexts, which are
  /// shard-namespaced in a threaded run.
  std::vector<std::pair<core::Party, core::Atom>> seller_seen() const {
    std::vector<std::pair<core::Party, core::Atom>> seen;
    for (const core::Observation& o : seller_log->observations()) {
      seen.emplace_back(o.table->party(o.party), o.table->atom(o.atom));
    }
    std::sort(seen.begin(), seen.end());
    return seen;
  }
};

TEST(SystemSharded, EcashPseudonymousSpendOnWorkerMatchesSerial) {
  CashEstate serial(1);
  serial.run_workload();
  ASSERT_EQ(serial.bank->coins_issued(),
            static_cast<std::size_t>(kBuyers * kCoinsEach));
  ASSERT_EQ(serial.bank->deposits_accepted(), serial.bank->coins_issued());
  const auto serial_seen = serial.seller_seen();
  ASSERT_EQ(std::count_if(serial_seen.begin(), serial_seen.end(),
                          [](const auto& s) {
                            return s.second.label.rfind("addr:anon:", 0) == 0;
                          }),
            kBuyers * kCoinsEach);

  CashEstate sharded(4);
  sharded.run_workload();
  EXPECT_EQ(sharded.bank->coins_issued(), serial.bank->coins_issued());
  EXPECT_EQ(sharded.bank->deposits_accepted(),
            serial.bank->deposits_accepted());
  EXPECT_EQ(sharded.seller->sales_completed(),
            serial.seller->sales_completed());
  EXPECT_EQ(sharded.seller_seen(), serial_seen);
  for (int i = 0; i < kBuyers; ++i) {
    EXPECT_TRUE(sharded.buyers[i]->wallet().empty()) << "buyer " << i;
  }
  EXPECT_EQ(sharded.sim.packets_delivered(), serial.sim.packets_delivered());
}

}  // namespace
}  // namespace dcpl::systems
