// Privacy Pass (§3.2.1, Figure 2): issuance, redemption, double-spend,
// unlinkability, and the paper's T3 table.
#include "systems/privacypass/privacypass.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/io.hpp"
#include "core/analysis.hpp"

namespace dcpl::systems::privacypass {
namespace {

struct Fixture {
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;

  std::unique_ptr<Issuer> issuer;
  std::unique_ptr<Origin> origin;
  std::unique_ptr<Client> client;

  Fixture() {
    book.set("issuer.example", core::benign_identity("addr:issuer.example"));
    book.set("origin.example", core::benign_identity("addr:origin.example"));
    // The client reaches services over an anonymity-preserving path (the
    // paper's motivating Tor user): its egress address is benign.
    book.set("tor-exit.example",
             core::benign_identity("addr:tor-exit.example"));

    issuer = std::make_unique<Issuer>("issuer.example", 1024, log, book, 1);
    issuer->register_account("alice");
    origin = std::make_unique<Origin>("origin.example", "origin.example",
                                      issuer->public_key(), log, book);
    client = std::make_unique<Client>("tor-exit.example", "alice",
                                      "issuer.example", issuer->public_key(),
                                      log, 7);
    sim.add_node(*issuer);
    sim.add_node(*origin);
    sim.add_node(*client);
  }
};

TEST(PrivacyPass, IssuanceProducesValidToken) {
  Fixture f;
  f.client->request_token(f.sim);
  f.sim.run();
  ASSERT_EQ(f.client->wallet().size(), 1u);
  EXPECT_EQ(f.issuer->tokens_issued(), 1u);
  const Token& t = f.client->wallet()[0];
  EXPECT_TRUE(crypto::blind_verify(f.issuer->public_key(), t.nonce,
                                   t.signature));
}

TEST(PrivacyPass, RedemptionGrantsAccess) {
  Fixture f;
  f.client->request_token(f.sim);
  f.sim.run();
  bool served = false;
  ASSERT_TRUE(f.client->access("origin.example", "/protected", f.sim,
                               [&](bool ok) { served = ok; }));
  f.sim.run();
  EXPECT_TRUE(served);
  EXPECT_EQ(f.origin->served(), 1u);
  EXPECT_EQ(f.client->accesses_granted(), 1u);
}

TEST(PrivacyPass, AccessWithoutTokenFails) {
  Fixture f;
  EXPECT_FALSE(f.client->access("origin.example", "/p", f.sim));
}

TEST(PrivacyPass, UnregisteredAccountDenied) {
  Fixture f;
  Client mallory("tor-exit2.example", "mallory", "issuer.example",
                 f.issuer->public_key(), f.log, 9);
  f.sim.add_node(mallory);
  mallory.request_token(f.sim);
  f.sim.run();
  EXPECT_TRUE(mallory.wallet().empty());
  EXPECT_EQ(f.issuer->requests_denied(), 1u);
}

TEST(PrivacyPass, TokenDoubleSpendRejected) {
  Fixture f;
  f.client->request_token(f.sim);
  f.sim.run();
  Token stolen = f.client->wallet()[0];

  f.client->access("origin.example", "/a", f.sim);
  f.sim.run();
  EXPECT_EQ(f.origin->served(), 1u);

  // Replay the identical token.
  ByteWriter w;
  w.u8(3);  // kAccessRequest
  w.vec(to_bytes("/b"), 1);
  w.vec(stolen.nonce, 1);
  w.vec(stolen.signature, 2);
  f.sim.send(net::Packet{"tor-exit.example", "origin.example",
                         std::move(w).take(), f.sim.new_context(),
                         "privacypass"});
  f.sim.run();
  EXPECT_EQ(f.origin->served(), 1u);
  EXPECT_EQ(f.origin->rejected(), 1u);
}

TEST(PrivacyPass, ForgedTokenRejected) {
  Fixture f;
  ByteWriter w;
  w.u8(3);
  w.vec(to_bytes("/x"), 1);
  w.vec(Bytes(32, 0x01), 1);
  w.vec(Bytes(128, 0x02), 2);
  f.sim.send(net::Packet{"tor-exit.example", "origin.example",
                         std::move(w).take(), f.sim.new_context(),
                         "privacypass"});
  f.sim.run();
  EXPECT_EQ(f.origin->served(), 0u);
  EXPECT_EQ(f.origin->rejected(), 1u);
}

// Paper table §3.2.1: Client (▲,●), Issuer (▲,⊙), Origin (△,●).
TEST(PrivacyPass, TableT3TuplesMatchPaper) {
  Fixture f;
  f.client->request_token(f.sim);
  f.sim.run();
  f.client->access("origin.example", "/sensitive", f.sim);
  f.sim.run();

  core::DecouplingAnalysis a(f.log);
  EXPECT_EQ(a.tuple_for("tor-exit.example").to_string(), "(▲, ●)");
  EXPECT_EQ(a.tuple_for("issuer.example").to_string(), "(▲, ⊙)");
  EXPECT_EQ(a.tuple_for("origin.example").to_string(), "(△, ●)");
  EXPECT_TRUE(a.is_decoupled("tor-exit.example"));
}

TEST(PrivacyPass, IssuerNeverLearnsOriginOrNonce) {
  Fixture f;
  f.client->request_token(f.sim);
  f.sim.run();
  const std::string nonce_hex = to_hex(f.client->wallet()[0].nonce);
  f.client->access("origin.example", "/page", f.sim);
  f.sim.run();
  for (const auto& obs : f.log.for_party("issuer.example")) {
    EXPECT_EQ(obs.atom.label.find("origin"), std::string::npos);
    EXPECT_EQ(obs.atom.label.find(nonce_hex), std::string::npos);
  }
}

TEST(PrivacyPass, IssuerOriginCollusionCannotRelink) {
  // The trust-transfer claim: even pooling logs, issuance and redemption
  // share no linkage context (the blind signature severs it).
  Fixture f;
  f.client->request_token(f.sim);
  f.sim.run();
  f.client->access("origin.example", "/page", f.sim);
  f.sim.run();
  core::DecouplingAnalysis a(f.log);
  EXPECT_FALSE(a.coalition_recouples({"issuer.example", "origin.example"}));
}

TEST(PrivacyPass, ManyClientsManyTokens) {
  Fixture f;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    std::string account = "acct" + std::to_string(i);
    f.issuer->register_account(account);
    clients.push_back(std::make_unique<Client>(
        "exit" + std::to_string(i), account, "issuer.example",
        f.issuer->public_key(), f.log, 100 + i));
    f.sim.add_node(*clients.back());
    for (int t = 0; t < 3; ++t) clients.back()->request_token(f.sim);
  }
  f.sim.run();
  std::size_t granted = 0;
  for (auto& c : clients) {
    EXPECT_EQ(c->wallet().size(), 3u);
    while (c->access("origin.example", "/r", f.sim)) {
    }
  }
  f.sim.run();
  for (auto& c : clients) granted += c->accesses_granted();
  EXPECT_EQ(granted, 12u);
  EXPECT_EQ(f.origin->served(), 12u);
}


// The access request carries the path behind a one-byte length. A longer
// path throws before the call spends the token, logs an observation or takes
// a context; a 255-byte path is still served.
TEST(PrivacyPass, OverlongPathThrowsWithoutChangingState) {
  Fixture f;
  f.client->request_token(f.sim);
  f.sim.run();
  ASSERT_EQ(f.client->wallet().size(), 1u);
  const std::size_t logged = f.log.size();
  const std::uint64_t probe = f.sim.new_context();
  const std::string overlong = "/" + std::string(255, 'a');
  EXPECT_THROW(f.client->access("origin.example", overlong, f.sim),
               std::length_error);
  EXPECT_THROW(f.client->access_reliable("origin.example", overlong, f.sim,
                                         RetryPolicy{}, [](Result<bool>) {}),
               std::length_error);
  EXPECT_EQ(f.client->wallet().size(), 1u);
  EXPECT_EQ(f.log.size(), logged);
  EXPECT_EQ(f.sim.new_context(), probe + 1);

  bool served = false;
  ASSERT_TRUE(f.client->access("origin.example", overlong.substr(1), f.sim,
                               [&](bool ok) { served = ok; }));
  f.sim.run();
  EXPECT_TRUE(served);
  EXPECT_TRUE(f.client->wallet().empty());
}

// The issue request carries the account behind a one-byte length, so a
// longer account is rejected when the client is made, before any request
// draws from its RNG; a 255-byte account still gets a token.
TEST(PrivacyPass, OverlongAccountRejectedAtConstruction) {
  Fixture f;
  EXPECT_THROW(Client("exit-long", std::string(256, 'm'), "issuer.example",
                      f.issuer->public_key(), f.log, 9),
               std::invalid_argument);
  const std::string account(255, 'm');
  f.issuer->register_account(account);
  Client longest("exit-long", account, "issuer.example",
                 f.issuer->public_key(), f.log, 9);
  f.sim.add_node(longest);
  longest.request_token(f.sim);
  f.sim.run();
  EXPECT_EQ(longest.wallet().size(), 1u);
}

TEST(PrivacyPass, IssuanceRateLimitEnforced) {
  Fixture f;
  f.issuer->set_issuance_limit(2);
  for (int i = 0; i < 5; ++i) f.client->request_token(f.sim);
  f.sim.run();
  EXPECT_EQ(f.client->wallet().size(), 2u);
  EXPECT_EQ(f.issuer->tokens_issued(), 2u);
  EXPECT_EQ(f.issuer->requests_denied(), 3u);
  // The limit is per account: a different account still gets tokens.
  f.issuer->register_account("bob");
  Client bob("exit-bob", "bob", "issuer.example", f.issuer->public_key(),
             f.log, 55);
  f.sim.add_node(bob);
  bob.request_token(f.sim);
  f.sim.run();
  EXPECT_EQ(bob.wallet().size(), 1u);
}

}  // namespace
}  // namespace dcpl::systems::privacypass
