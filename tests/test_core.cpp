// Decoupling framework: tuples, verdicts, collusion closure, breach reports.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/address_book.hpp"
#include "core/analysis.hpp"
#include "core/metrics.hpp"

namespace dcpl::core {
namespace {

TEST(Knowledge, SymbolsMatchPaperNotation) {
  EXPECT_STREQ(kind_symbol(AtomKind::kSensitiveIdentity), "▲");
  EXPECT_STREQ(kind_symbol(AtomKind::kBenignIdentity), "△");
  EXPECT_STREQ(kind_symbol(AtomKind::kSensitiveData), "●");
  EXPECT_STREQ(kind_symbol(AtomKind::kBenignData), "⊙");
}

TEST(KnowledgeTuple, RendersPaperStyle) {
  KnowledgeTuple user{true, false, true, false};
  EXPECT_EQ(user.to_string(), "(▲, ●)");
  KnowledgeTuple relay1{true, false, false, true};
  EXPECT_EQ(relay1.to_string(), "(▲, ⊙)");
  KnowledgeTuple relay2{false, true, true, true};
  EXPECT_EQ(relay2.to_string(), "(△, ⊙/●)");
  KnowledgeTuple nothing{};
  EXPECT_EQ(nothing.to_string(), "(-, -)");
}

// Build the paper's VPN cautionary-tale log by hand (§3.3).
ObservationLog vpn_log() {
  ObservationLog log;
  // User knows itself and its own browsing.
  log.observe("client", sensitive_identity("user:alice"), 1);
  log.observe("client", sensitive_data("url:embarrassing.example"), 1);
  // VPN server sees client IP and, terminating the tunnel, the request.
  log.observe("vpn", sensitive_identity("user:alice"), 2);
  log.observe("vpn", sensitive_data("url:embarrassing.example"), 2);
  // Origin sees the request, but only the VPN's address.
  log.observe("origin", benign_identity("addr:vpn"), 3);
  log.observe("origin", sensitive_data("url:embarrassing.example"), 3);
  return log;
}

// And an MPR-style log (§3.2.4).
ObservationLog mpr_log() {
  ObservationLog log;
  log.observe("client", sensitive_identity("user:alice"), 1);
  log.observe("client", sensitive_data("url:embarrassing.example"), 1);
  // Relay 1 sees the client address but only ciphertext.
  log.observe("relay1", sensitive_identity("user:alice"), 10);
  log.observe("relay1", benign_data("tunnel-bytes"), 10);
  log.link("relay1", 10, 11);  // it maps inbound flow to outbound flow
  // Relay 2 sees relay1's address and the origin FQDN.
  log.observe("relay2", benign_identity("addr:relay1"), 11);
  log.observe("relay2", benign_data("fqdn:embarrassing.example"), 11);
  log.link("relay2", 11, 12);
  // Origin sees relay2's address and the request.
  log.observe("origin", benign_identity("addr:relay2"), 12);
  log.observe("origin", sensitive_data("url:embarrassing.example"), 12);
  return log;
}

TEST(Analysis, VpnTupleMatchesPaperTable) {
  ObservationLog log = vpn_log();
  DecouplingAnalysis a(log);
  EXPECT_EQ(a.tuple_for("client").to_string(), "(▲, ●)");
  EXPECT_EQ(a.tuple_for("vpn").to_string(), "(▲, ●)");
  EXPECT_EQ(a.tuple_for("origin").to_string(), "(△, ●)");
}

TEST(Analysis, VpnIsNotDecoupled) {
  ObservationLog log = vpn_log();
  DecouplingAnalysis a(log);
  EXPECT_FALSE(a.is_decoupled("client"));
  EXPECT_EQ(a.violating_parties("client"), std::vector<Party>{"vpn"});
}

TEST(Analysis, MprIsDecoupled) {
  ObservationLog log = mpr_log();
  DecouplingAnalysis a(log);
  EXPECT_TRUE(a.is_decoupled("client"));
  EXPECT_TRUE(a.violating_parties("client").empty());
  EXPECT_EQ(a.tuple_for("relay1").to_string(), "(▲, ⊙)");
  EXPECT_EQ(a.tuple_for("relay2").to_string(), "(△, ⊙)");
  EXPECT_EQ(a.tuple_for("origin").to_string(), "(△, ●)");
}

TEST(Analysis, SinglePartyBreachInVpnCouples) {
  ObservationLog log = vpn_log();
  DecouplingAnalysis a(log);
  BreachReport vpn = a.breach("vpn");
  EXPECT_TRUE(vpn.coupled());
  EXPECT_EQ(vpn.coupled_records, 1u);
  // Breaching the origin alone yields data but no sensitive identity.
  EXPECT_FALSE(a.breach("origin").coupled());
}

TEST(Analysis, SinglePartyBreachInMprDoesNotCouple) {
  ObservationLog log = mpr_log();
  DecouplingAnalysis a(log);
  for (const Party p : {"relay1", "relay2", "origin"}) {
    EXPECT_FALSE(a.breach(p).coupled()) << p;
  }
}

TEST(Analysis, MprCollusionClosureNeedsFullChain) {
  ObservationLog log = mpr_log();
  DecouplingAnalysis a(log);
  // relay1 + relay2 couple alice to the FQDN? relay2 only logs the FQDN as
  // benign data; the sensitive URL lives at the origin. The full chain
  // relay1+relay2+origin re-couples.
  EXPECT_FALSE(a.coalition_recouples({"relay1"}));
  EXPECT_FALSE(a.coalition_recouples({"relay1", "origin"}));  // missing link 11->12
  EXPECT_TRUE(a.coalition_recouples({"relay1", "relay2", "origin"}));
  auto min_size = a.min_recoupling_coalition("client");
  ASSERT_TRUE(min_size.has_value());
  EXPECT_EQ(*min_size, 3u);
}

TEST(Analysis, VpnMinimalCoalitionIsOne) {
  ObservationLog log = vpn_log();
  DecouplingAnalysis a(log);
  auto min_size = a.min_recoupling_coalition("client");
  ASSERT_TRUE(min_size.has_value());
  EXPECT_EQ(*min_size, 1u);
}

TEST(Analysis, CoupledRecordCountsDistinctPairs) {
  ObservationLog log;
  log.observe("p", sensitive_identity("user:a"), 1);
  log.observe("p", sensitive_identity("user:b"), 2);
  log.observe("p", sensitive_data("q1"), 1);
  log.observe("p", sensitive_data("q2"), 1);
  log.observe("p", sensitive_data("q3"), 3);
  log.link("p", 2, 3);
  DecouplingAnalysis a(log);
  // a couples with q1,q2 (context 1); b couples with q3 (via link 2-3).
  EXPECT_EQ(a.coalition_coupled_records({"p"}), 3u);
}

TEST(Analysis, LinksFromNonMembersDoNotHelpCoalition) {
  ObservationLog log;
  log.observe("x", sensitive_identity("user:a"), 1);
  log.observe("y", sensitive_data("q"), 2);
  log.link("z", 1, 2);  // only z knows the flows match
  DecouplingAnalysis a(log);
  EXPECT_FALSE(a.coalition_recouples({"x", "y"}));
  EXPECT_TRUE(a.coalition_recouples({"x", "y", "z"}));
}

TEST(Analysis, RenderTableContainsPartiesAndTuples) {
  ObservationLog log = mpr_log();
  DecouplingAnalysis a(log);
  std::string table = a.render_table({"client", "relay1", "relay2", "origin"});
  EXPECT_NE(table.find("client"), std::string::npos);
  EXPECT_NE(table.find("(▲, ⊙)"), std::string::npos);
  EXPECT_NE(table.find("(△, ●)"), std::string::npos);
  // Unknown party renders placeholder.
  std::string t2 = a.render_table({"ghost"});
  EXPECT_NE(t2.find("(-)"), std::string::npos);
}


TEST(Analysis, RenderReportContainsAllSections) {
  ObservationLog log = vpn_log();
  DecouplingAnalysis a(log);
  std::string report = a.render_report("VPN analysis", {"client"});
  EXPECT_NE(report.find("# VPN analysis"), std::string::npos);
  EXPECT_NE(report.find("NOT decoupled"), std::string::npos);
  EXPECT_NE(report.find("vpn"), std::string::npos);
  EXPECT_NE(report.find("** EXPOSED **"), std::string::npos);
  EXPECT_NE(report.find("minimal re-coupling coalition: 1"),
            std::string::npos);
}

TEST(Analysis, RenderReportDecoupledSystem) {
  ObservationLog log = mpr_log();
  DecouplingAnalysis a(log);
  std::string report = a.render_report("MPR analysis", {"client"});
  EXPECT_NE(report.find("DECOUPLED"), std::string::npos);
  EXPECT_EQ(report.find("** EXPOSED **"), std::string::npos);
  EXPECT_NE(report.find("minimal re-coupling coalition: 3"),
            std::string::npos);
}

TEST(Analysis, FacetedTupleRendering) {
  ObservationLog log;
  log.observe("gw", sensitive_identity("subscriber:bob", "human"), 1);
  log.observe("gw", benign_identity("token", "network"), 1);
  log.observe("gw", benign_data("blob"), 1);
  DecouplingAnalysis a(log);
  const std::vector<std::pair<std::string, std::string>> facets = {
      {"human", "H"}, {"network", "N"}};
  EXPECT_EQ(a.faceted_tuple("gw", facets), "(▲H, △N, ⊙)");
  EXPECT_EQ(a.faceted_tuple("missing", facets), "(-H, -N, -)");
}


// §4.3: TEEs as a decoupling substrate. Model the enclave and its host
// operator as distinct parties: attested code inside the enclave sees the
// sensitive pair, the operator sees only ciphertext and tenancy metadata.
// Decoupling holds against the operator; "collusion" here means breaking
// the hardware (the paper's shifted locus of trust).
TEST(Analysis, TeeSplitsEnclaveFromOperator) {
  ObservationLog log;
  log.observe("user", sensitive_identity("user:dana"), 1);
  log.observe("user", sensitive_data("query:clinic"), 1);
  // The enclave (e.g. CACTI / Phoenix) processes the sensitive pair.
  log.observe("enclave@cloudhost", sensitive_identity("user:dana"), 2);
  log.observe("enclave@cloudhost", sensitive_data("query:clinic"), 2);
  // The operator of the same machine sees encrypted memory + billing.
  log.observe("cloudhost-operator", benign_identity("tenant:4711"), 3);
  log.observe("cloudhost-operator", benign_data("enclave-ciphertext"), 3);

  DecouplingAnalysis a(log);
  // Exempting the user AND the attested enclave (an extension of the user's
  // trust domain), the operator holds nothing sensitive.
  EXPECT_TRUE(a.is_decoupled(std::vector<Party>{"user", "enclave@cloudhost"}));
  EXPECT_FALSE(a.breach("cloudhost-operator").coupled());
  // But the framework also makes the §4.3 caveat visible: if the hardware
  // vendor's promise fails (enclave memory readable), the "enclave" party's
  // knowledge lands in the operator's lap — a single coupling point.
  EXPECT_TRUE(a.breach("enclave@cloudhost").coupled());
}

TEST(ObservationLog, PartyAccessors) {
  ObservationLog log;
  log.observe("b", benign_data("x"), 1);
  log.observe("a", benign_data("x"), 1);
  log.observe("a", benign_data("y"), 2);
  log.link("c", 1, 2);
  EXPECT_EQ(log.parties(), (std::vector<Party>{"a", "b", "c"}));
  EXPECT_EQ(log.for_party("a").size(), 2u);
  EXPECT_EQ(log.atoms_of("a").size(), 2u);
  EXPECT_EQ(log.size(), 3u);
}

TEST(AddressBook, MapsAddressesToAtoms) {
  AddressBook book;
  book.set("10.0.0.1", sensitive_identity("user:alice", "network"));
  ObservationLog log;
  book.observe_src(log, "server", "10.0.0.1", 5);
  book.observe_src(log, "server", "203.0.113.9", 6);  // unregistered
  DecouplingAnalysis a(log);
  KnowledgeTuple t = a.tuple_for("server");
  EXPECT_TRUE(t.sensitive_identity);
  EXPECT_TRUE(t.benign_identity);
  EXPECT_FALSE(t.sensitive_data);
}

TEST(Metrics, EntropyBits) {
  EXPECT_DOUBLE_EQ(entropy_bits({1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(entropy_bits({4, 4, 4, 4}), 2.0);
  EXPECT_DOUBLE_EQ(entropy_bits({5, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_bits({}), 0.0);
}

TEST(Metrics, EntropyBitsDegenerateInputs) {
  // Empty and all-zero histograms must yield 0 bits, never NaN.
  EXPECT_DOUBLE_EQ(entropy_bits({0}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_bits({0, 0, 0, 0}), 0.0);
  EXPECT_FALSE(std::isnan(entropy_bits({})));
  EXPECT_FALSE(std::isnan(entropy_bits({0, 0})));
}

TEST(Metrics, EffectiveAnonymitySet) {
  EXPECT_NEAR(effective_anonymity_set({0.25, 0.25, 0.25, 0.25}), 4.0, 1e-9);
  EXPECT_NEAR(effective_anonymity_set({1.0}), 1.0, 1e-9);
  // Skewed posterior shrinks the effective set.
  EXPECT_LT(effective_anonymity_set({0.9, 0.05, 0.05}), 2.0);
}

TEST(Metrics, EffectiveAnonymitySetDegenerateInputs) {
  // No posterior mass = no candidate users: the effective set is 0, not
  // 2^0 = 1, and never NaN.
  EXPECT_DOUBLE_EQ(effective_anonymity_set({}), 0.0);
  EXPECT_DOUBLE_EQ(effective_anonymity_set({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(effective_anonymity_set({-0.5, 0.0}), 0.0);
  EXPECT_FALSE(std::isnan(effective_anonymity_set({})));
  // A stray NaN entry is skipped rather than poisoning the estimate.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NEAR(effective_anonymity_set({0.5, 0.5, nan}), 2.0, 1e-9);
}

}  // namespace
}  // namespace dcpl::core
