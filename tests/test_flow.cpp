// Tests for the knowledge-flow provenance ledger (obs::FlowLedger) and the
// online decoupling-invariant monitor (obs::DecouplingMonitor): causal
// chains across linked contexts, ring-buffer wraparound, the retention cap
// on the dedup filter, frontier and atom table, link and compromise events
// carrying no atom, several logs feeding one ledger, idempotent dedup under
// duplicated deliveries, both monitor modes (stored logs vs. live implant),
// monitoring with the flight recorder switched off, and event-by-event fold
// equality against the end-state DecouplingAnalysis on a real system run.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/observation.hpp"
#include "net/faults.hpp"
#include "net/sim.hpp"
#include "obs/flow.hpp"
#include "obs/json.hpp"
#include "systems/mpr/mpr.hpp"

namespace dcpl {
namespace {

using obs::DecouplingMonitor;
using obs::FlowCause;
using obs::FlowEvent;
using obs::FlowEventKind;
using obs::FlowLedger;

// ---- causal chains --------------------------------------------------------

TEST(FlowLedger, ChainsExposuresThroughLinkedContexts) {
  FlowLedger ledger;
  // user -> relay under ctx 1; relay re-keys to ctx 2 toward the origin.
  ledger.record_exposure("user", core::sensitive_identity("u:alice", ""), 1);
  ledger.record_exposure("relay", core::benign_data("ciphertext"), 1);
  ledger.record_link("relay", 1, 2);
  ledger.record_exposure("origin", core::sensitive_data("url:/x"), 2);

  EXPECT_EQ(ledger.exposures(), 3u);
  EXPECT_EQ(ledger.links(), 1u);
  EXPECT_EQ(ledger.events_recorded(), 4u);

  // The origin's exposure traces back through the link to the user.
  std::vector<FlowEvent> chain = ledger.chain_of(4);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0].party, "origin");
  EXPECT_EQ(chain[0].hop_index, 1u);  // one link deep
  EXPECT_EQ(chain[1].kind, FlowEventKind::kLink);
  EXPECT_EQ(chain[2].party, "relay");
  EXPECT_EQ(chain[3].party, "user");
  EXPECT_EQ(chain[3].hop_index, 0u);
  EXPECT_EQ(chain[3].parent_id, 0u);
}

// ---- ring wraparound ------------------------------------------------------

TEST(FlowLedger, RingWraparoundKeepsNewestAndTruncatesChains) {
  FlowLedger ledger(4);
  for (int i = 0; i < 10; ++i) {
    ledger.record_exposure("p", core::benign_data("a" + std::to_string(i)), 1);
  }
  EXPECT_EQ(ledger.events_recorded(), 10u);
  EXPECT_EQ(ledger.size(), 4u);
  EXPECT_EQ(ledger.dropped(), 6u);

  std::vector<FlowEvent> events = ledger.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().id, 7u);
  EXPECT_EQ(events.back().id, 10u);
  EXPECT_FALSE(ledger.find(6));  // wrapped away
  ASSERT_TRUE(ledger.find(7));

  // The chain from the newest event stops at the oldest resident ancestor
  // instead of dereferencing overwritten slots.
  std::vector<FlowEvent> chain = ledger.chain_of(10);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.back().id, 7u);

  // The incremental fold is immune to the wrap: all ten atoms are in.
  EXPECT_TRUE(ledger.tuples().at("p").benign_data);
}

// ---- retention cap --------------------------------------------------------

// With a small cap, the dedup filter and the causal frontier clear once they
// pass it: a repeat re-enters the event stream once (then dedups again), and
// a context whose frontier entry was dropped restarts its chain at a root.
TEST(FlowLedger, RetentionLimitClearsDedupAndFrontier) {
  FlowLedger ledger;
  ledger.set_retention_limit(2);
  ledger.record_exposure("p", core::benign_data("a"), 1);
  ledger.record_exposure("p", core::benign_data("a"), 1);  // repeat
  EXPECT_EQ(ledger.deduped(), 1u);
  ledger.record_exposure("p", core::benign_data("b"), 1);
  ledger.record_exposure("p", core::benign_data("c"), 1);  // 3 > 2: clears
  ledger.record_exposure("p", core::benign_data("a"), 1);  // new again
  ledger.record_exposure("p", core::benign_data("a"), 1);  // repeat
  EXPECT_EQ(ledger.exposures(), 4u);
  EXPECT_EQ(ledger.deduped(), 2u);
  EXPECT_EQ(ledger.find(4)->parent_id, 3u);  // frontier {1} kept the chain

  FlowLedger chains;
  chains.set_retention_limit(2);
  chains.record_exposure("q", core::benign_data("x1"), 1);
  chains.record_exposure("q", core::benign_data("x2"), 1);
  EXPECT_EQ(chains.find(2)->parent_id, 1u);
  chains.record_exposure("q", core::benign_data("y"), 2);
  chains.record_exposure("q", core::benign_data("z"), 3);   // frontier {1,2,3}
  chains.record_exposure("q", core::benign_data("x3"), 1);  // 3 > 2: clears
  EXPECT_EQ(chains.find(5)->parent_id, 0u);
  EXPECT_EQ(chains.chain_of(5).size(), 1u);
  chains.record_exposure("q", core::benign_data("x4"), 1);
  EXPECT_EQ(chains.find(6)->parent_id, 5u);
}

// A compromise drops the party's dedup entries; they must leave the count
// too, or the filter clears early and a repeat of another party's atom is
// recorded twice.
TEST(FlowLedger, CompromiseReleasesItsDedupEntriesFromTheLimit) {
  FlowLedger ledger;
  ledger.set_retention_limit(3);
  ledger.record_exposure("vpn", core::benign_data("a"), 1);
  ledger.record_exposure("vpn", core::benign_data("b"), 1);
  ledger.record_compromise("vpn", FlowCause::kBreachImplant);
  ledger.record_exposure("relay", core::benign_data("x"), 1);
  ledger.record_exposure("relay", core::benign_data("y"), 1);
  ledger.record_exposure("relay", core::benign_data("x"), 1);  // repeat
  EXPECT_EQ(ledger.exposures(), 4u);
  EXPECT_EQ(ledger.deduped(), 1u);
  // The implant's reset still holds: vpn's pre-implant atoms are new again.
  ledger.record_exposure("vpn", core::benign_data("a"), 2);
  EXPECT_EQ(ledger.exposures(), 5u);
}

// The atom table is bounded too: each time the dedup filter clears, the
// ledger re-interns only the atoms its resident events name. A stream of
// unique labels (bench_scale --flow's "pkt:<ctx>") therefore keeps the
// table within the limit plus the resident events, and resident events
// still export their own labels.
TEST(FlowLedger, UniqueAtomStreamKeepsTheAtomTableBounded) {
  constexpr std::size_t kLimit = 16;
  FlowLedger ledger(/*capacity=*/8);
  ledger.set_retention_limit(kLimit);
  for (int i = 0; i < 1000; ++i) {
    ledger.record_exposure(
        "sink", core::benign_data("pkt:" + std::to_string(i)), i);
    ASSERT_LE(ledger.interned_atoms(), kLimit + ledger.size()) << i;
  }
  EXPECT_EQ(ledger.exposures(), 1000u);
  const std::vector<FlowEvent> events = ledger.events();
  ASSERT_EQ(events.size(), 8u);
  for (const FlowEvent& ev : events) {
    EXPECT_EQ(ev.atom.label, "pkt:" + std::to_string(ev.id - 1));
  }
  std::string jsonl;
  ledger.write_jsonl(jsonl);
  EXPECT_NE(jsonl.find("\"label\":\"pkt:999\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"label\":\"pkt:992\""), std::string::npos);
}

// ---- link and compromise events carry no atom ------------------------------

TEST(FlowLedger, LinkAndCompromiseEventsCarryTheEmptyAtom) {
  FlowLedger ledger;
  ledger.record_exposure("relay", core::sensitive_identity("u:a", "network"),
                         1);
  ledger.record_link("relay", 1, 2);
  ledger.record_compromise("relay", FlowCause::kBreachImplant);
  ledger.record_exposure("origin", core::sensitive_data("url:/x"), 2);

  std::size_t atomless = 0;
  for (const FlowEvent& ev : ledger.events()) {
    if (ev.kind == FlowEventKind::kExposure) continue;
    EXPECT_EQ(ev.atom, core::Atom{}) << ev.id;
    ++atomless;
  }
  EXPECT_EQ(atomless, 2u);
  const std::vector<FlowEvent> chain = ledger.chain_of(4);  // origin <- link
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[1].kind, FlowEventKind::kLink);
  EXPECT_EQ(chain[1].atom, core::Atom{});
  EXPECT_EQ(ledger.find(3)->atom, core::Atom{});
}

// ---- several logs, one ledger ---------------------------------------------

// Each log numbers parties and atoms in its own first-use order; the ledger
// maps every log's ids into its own table, so the same name is one party
// (and one dedup entry) whichever log reported it.
TEST(FlowLedger, MapsEachLogsIdsIntoItsOwnTable) {
  core::ObservationLog first, second;
  FlowLedger ledger;
  first.set_sink(&ledger);
  second.set_sink(&ledger);

  first.observe("relay", core::benign_data("blob"), 1);
  first.observe("gateway", core::sensitive_data("url:/x"), 2);
  second.observe("gateway", core::sensitive_data("url:/x"), 2);  // repeat
  second.observe("relay", core::sensitive_identity("u:a", "network"), 1);
  second.link("relay", 1, 2);

  EXPECT_EQ(ledger.exposures(), 3u);
  EXPECT_EQ(ledger.deduped(), 1u);
  const auto tuples = ledger.tuples();
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples.at("relay").to_string(), "(▲, ⊙)");
  EXPECT_EQ(tuples.at("gateway").to_string(), "(-, ●)");
  const std::vector<FlowEvent> events = ledger.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].party, "relay");
  EXPECT_EQ(events[2].atom.label, "u:a");
  EXPECT_EQ(events[2].atom.facet, "network");
  EXPECT_EQ(events[3].kind, FlowEventKind::kLink);
}

// ---- dedup under duplicated deliveries ------------------------------------

// A node that logs the same observation for every packet it receives; with
// a duplicate-everything fault plan the ledger must record the knowledge
// exactly once (a resend teaches the observer nothing new).
class EchoObserver : public net::Node {
 public:
  EchoObserver(std::string address, core::ObservationLog& log)
      : Node(std::move(address)), log_(&log) {}
  void on_packet(const net::Packet& p, net::Simulator&) override {
    ++deliveries_;
    log_->observe(address(), core::sensitive_data("payload:fixed"), p.context);
  }
  std::size_t deliveries() const { return deliveries_; }

 private:
  core::ObservationLog* log_;
  std::size_t deliveries_ = 0;
};

class SilentNode : public net::Node {
 public:
  using Node::Node;
  void on_packet(const net::Packet&, net::Simulator&) override {}
};

TEST(FlowLedger, DuplicatedDeliveryDoesNotDoubleCount) {
  net::Simulator sim;
  core::ObservationLog log;
  FlowLedger ledger;
  log.set_sink(&ledger);
  sim.set_flow(&ledger);

  net::FaultPlan plan(/*seed=*/7);
  plan.impair(net::Impairment{/*loss=*/0.0, /*duplicate=*/1.0,
                              /*jitter=*/0.0, /*jitter_max_us=*/0});
  sim.set_fault_plan(plan);

  EchoObserver server("server", log);
  SilentNode client("client");
  sim.add_node(server);
  sim.add_node(client);
  sim.send(net::Packet{"client", "server", Bytes(16), sim.new_context(),
                       "test"});
  sim.run();

  ASSERT_EQ(server.deliveries(), 2u);  // original + duplicate
  EXPECT_EQ(ledger.exposures(), 1u);
  EXPECT_EQ(ledger.deduped(), 1u);
  EXPECT_EQ(log.observations().size(), 2u);  // the raw log keeps both
}

// ---- monitor: stored-logs mode --------------------------------------------

TEST(DecouplingMonitorTest, StoredModeFiresOnceWithCausalChain) {
  FlowLedger ledger;
  DecouplingMonitor monitor;
  monitor.exempt(core::Party("user"));
  ledger.attach_monitor(&monitor);

  // The user holding both atoms is the normal state — never a violation.
  ledger.record_exposure("user", core::sensitive_identity("u:a", ""), 1);
  ledger.record_exposure("user", core::sensitive_data("url:/x"), 1);
  EXPECT_TRUE(monitor.violations().empty());

  // A provider completing (sensitive identity AND sensitive data) trips it
  // at the exact event that completed the pair.
  ledger.record_exposure("vpn", core::sensitive_identity("u:a", ""), 1);
  EXPECT_TRUE(monitor.violations().empty());
  ledger.record_exposure("vpn", core::sensitive_data("fqdn:x", ""), 1);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_TRUE(monitor.tripped("vpn"));

  const DecouplingMonitor::Violation& v = monitor.violations()[0];
  EXPECT_EQ(v.party, "vpn");
  EXPECT_EQ(v.event_id, 4u);
  EXPECT_EQ(v.cause, FlowCause::kProtocolStep);
  EXPECT_EQ(v.implant_event_id, 0u);
  ASSERT_FALSE(v.chain.empty());
  EXPECT_EQ(v.chain.front(), v.event_id);

  // Already fired: more sensitive observations do not re-fire.
  ledger.record_exposure("vpn", core::sensitive_data("fqdn:y", ""), 1);
  EXPECT_EQ(monitor.violations().size(), 1u);
}

// ---- monitor: live-implant mode -------------------------------------------

TEST(DecouplingMonitorTest, ImplantModeCountsOnlyPostCompromiseExposures) {
  FlowLedger ledger;
  DecouplingMonitor monitor(DecouplingMonitor::Mode::kLiveImplant);
  ledger.attach_monitor(&monitor);

  // Pre-implant traffic: the attacker is not there yet, nothing counts.
  ledger.record_exposure("vpn", core::sensitive_identity("u:a", ""), 1);
  ledger.record_exposure("vpn", core::sensitive_data("fqdn:x", ""), 1);
  EXPECT_EQ(monitor.counted_exposures(), 0u);
  EXPECT_TRUE(monitor.violations().empty());

  ledger.record_compromise("vpn", FlowCause::kBreachImplant);
  ASSERT_TRUE(ledger.compromise_event("vpn").has_value());
  // Repeated implants are no-ops.
  ledger.record_compromise("vpn", FlowCause::kBreachImplant);
  EXPECT_EQ(ledger.compromises(), 1u);

  // The implant resets the party's dedup set, so the same atoms observed
  // again post-compromise are fresh events in the attacker's frame — and
  // they trip the monitor, with the chain ending at the implant.
  ledger.record_exposure("vpn", core::sensitive_identity("u:a", ""), 2);
  ledger.record_exposure("vpn", core::sensitive_data("fqdn:x", ""), 2);
  ASSERT_EQ(monitor.violations().size(), 1u);

  const DecouplingMonitor::Violation& v = monitor.violations()[0];
  EXPECT_EQ(v.party, "vpn");
  EXPECT_NE(v.implant_event_id, 0u);
  ASSERT_GE(v.chain.size(), 2u);
  EXPECT_EQ(v.chain.back(), v.implant_event_id);
  const std::optional<FlowEvent> implant = ledger.find(v.chain.back());
  ASSERT_TRUE(implant);
  EXPECT_EQ(implant->kind, FlowEventKind::kCompromise);
  EXPECT_EQ(implant->cause, FlowCause::kBreachImplant);
}

TEST(DecouplingMonitorTest, ImplantModeIgnoresUnbreachedParties) {
  FlowLedger ledger;
  DecouplingMonitor monitor(DecouplingMonitor::Mode::kLiveImplant);
  ledger.attach_monitor(&monitor);

  ledger.record_exposure("vpn", core::sensitive_identity("u:a", ""), 1);
  ledger.record_exposure("vpn", core::sensitive_data("fqdn:x", ""), 1);
  ledger.record_exposure("relay", core::sensitive_identity("u:a", ""), 1);
  EXPECT_EQ(monitor.counted_exposures(), 0u);
  EXPECT_TRUE(monitor.violations().empty());
}

// ---- monitor with the flight recorder off ---------------------------------

TEST(DecouplingMonitorTest, FiresWithRecordingOff) {
  FlowLedger ledger;
  DecouplingMonitor monitor;
  ledger.attach_monitor(&monitor);
  ledger.set_recording(false);

  ledger.record_exposure("vpn", core::sensitive_identity("u:a", ""), 1);
  ledger.record_exposure("vpn", core::sensitive_data("fqdn:x", ""), 1);

  EXPECT_EQ(ledger.size(), 0u);  // nothing retained...
  EXPECT_EQ(ledger.events_recorded(), 2u);
  ASSERT_EQ(monitor.violations().size(), 1u);  // ...but the invariant ran
  const DecouplingMonitor::Violation& v = monitor.violations()[0];
  // No resident events to walk: the chain still names the tripping event.
  ASSERT_EQ(v.chain.size(), 1u);
  EXPECT_EQ(v.chain.front(), v.event_id);
  // The incremental fold survived too.
  EXPECT_TRUE(ledger.tuples().at("vpn").sensitive_identity);
  EXPECT_TRUE(ledger.tuples().at("vpn").sensitive_data);
}

// ---- fold equality on a real system run -----------------------------------

TEST(FlowLedger, FoldMatchesEndStateAnalysisOnVpnRun) {
  using namespace systems::mpr;
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;
  book.set("origin.example", core::benign_identity("addr:origin.example"));
  book.set("vpn.example", core::benign_identity("addr:vpn.example"));
  book.set("10.0.0.1", core::sensitive_identity("user:alice", "network"));

  SecureOrigin origin(
      "origin.example",
      [](const http::Request&) { return http::Response{}; }, log, book, 1);
  VpnServer vpn("vpn.example", log, book, 99);
  Client client("10.0.0.1", "user:alice", log, 42);
  sim.add_node(origin);
  sim.add_node(vpn);
  sim.add_node(client);

  FlowLedger ledger;
  DecouplingMonitor monitor;
  monitor.exempt(core::Party("10.0.0.1"));
  ledger.attach_monitor(&monitor);
  log.set_sink(&ledger);
  sim.set_flow(&ledger);

  http::Request req;
  req.authority = "origin.example";
  req.path = "/page";
  client.fetch_via_vpn(req, RelayInfo{"vpn.example", vpn.key().public_key},
                       "origin.example", origin.key().public_key, sim,
                       nullptr);
  sim.run();

  // Event-by-event fold == end-state analysis, for every party.
  core::DecouplingAnalysis a(log);
  const auto folded = ledger.tuples();
  for (const auto& party : a.parties()) {
    auto it = folded.find(party);
    ASSERT_NE(it, folded.end()) << party;
    EXPECT_EQ(it->second, a.tuple_for(party)) << party;
  }
  ASSERT_EQ(ledger.dropped(), 0u);
  EXPECT_EQ(obs::fold_tuples(ledger.events()), folded);

  // The VPN's (who, what) locus tripped the online monitor exactly once,
  // stamped with simulator virtual time and the delivery's protocol tag.
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].party, "vpn.example");
  const std::optional<FlowEvent> trip =
      ledger.find(monitor.violations()[0].event_id);
  ASSERT_TRUE(trip);
  EXPECT_GT(trip->virtual_time, 0u);
  EXPECT_EQ(trip->protocol, "vpn");
}

// ---- JSONL export ---------------------------------------------------------

TEST(FlowLedger, WritesParseableJsonl) {
  FlowLedger ledger;
  ledger.record_exposure("user", core::sensitive_identity("u:a", "network"),
                         1);
  ledger.record_exposure("relay", core::benign_data("blob"), 1);
  ledger.record_link("relay", 1, 2);
  ledger.record_compromise("relay", FlowCause::kBreachImplant);

  std::string out;
  ledger.write_jsonl(out, "test-run");
  ASSERT_FALSE(out.empty());

  std::size_t lines = 0, exposures = 0, links = 0, compromises = 0;
  std::size_t start = 0;
  while (start < out.size()) {
    std::size_t end = out.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    obs::JsonValue v;
    ASSERT_TRUE(obs::JsonParser::parse(out.substr(start, end - start), v));
    EXPECT_EQ(v.at("run").string, "test-run");
    EXPECT_GT(v.at("id").number, 0.0);
    const std::string& type = v.at("type").string;
    if (type == "exposure") {
      ++exposures;
      EXPECT_FALSE(v.at("symbol").string.empty());
      EXPECT_FALSE(v.at("label").string.empty());
    } else if (type == "link") {
      ++links;
      EXPECT_EQ(v.at("ctx_a").number, 1.0);
      EXPECT_EQ(v.at("ctx_b").number, 2.0);
    } else if (type == "compromise") {
      ++compromises;
      EXPECT_EQ(v.at("cause").string, "breach_implant");
    }
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(exposures, 2u);
  EXPECT_EQ(links, 1u);
  EXPECT_EQ(compromises, 1u);
}

// ---- ObservationSink wiring -----------------------------------------------

TEST(FlowLedger, ObservationLogSinkForwardsAndDedupsCompromise) {
  core::ObservationLog log;
  FlowLedger ledger;
  log.set_sink(&ledger);

  log.observe("p", core::sensitive_data("d"), 1);
  log.link("p", 1, 2);
  log.mark_compromised("p");
  log.mark_compromised("p");  // second mark: compromised_ already holds p

  EXPECT_EQ(ledger.exposures(), 1u);
  EXPECT_EQ(ledger.links(), 1u);
  EXPECT_EQ(ledger.compromises(), 1u);
}

}  // namespace
}  // namespace dcpl
