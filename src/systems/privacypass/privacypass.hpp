// Privacy Pass (§3.2.1, Figure 2): decoupling authentication (issuer knows
// the account) from authorization (origin learns only "this is a legitimate
// client" via an unlinkable blind-signed token).
//
// Issuance uses RSA blind signatures (the publicly-verifiable token flavor
// of the Privacy Pass standardization effort). Redemption happens at the
// origin, which the paper's scenario reaches over an anonymity-preserving
// path (its motivating user is behind Tor), so the origin's view of the
// client identity is benign.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/address_book.hpp"
#include "core/observation.hpp"
#include "crypto/blind_rsa.hpp"
#include "crypto/csprng.hpp"
#include "net/sim.hpp"
#include "systems/retry.hpp"

namespace dcpl::systems::privacypass {

/// A finalized token: an unlinkable proof of prior attestation.
struct Token {
  Bytes nonce;
  Bytes signature;
};

/// Issues tokens to clients that authenticate with a known account.
class Issuer final : public net::Node {
 public:
  Issuer(net::Address address, std::size_t rsa_bits, core::ObservationLog& log,
         const core::AddressBook& book, std::uint64_t seed);

  const crypto::RsaPublicKey& public_key() const { return key_.pub; }

  void register_account(const std::string& account);

  /// Caps tokens per account (0 = unlimited). Rate-limited issuance is part
  /// of the Privacy Pass architecture: the issuer can bound token velocity
  /// per attested identity without learning where tokens are spent.
  void set_issuance_limit(std::size_t max_tokens) { limit_ = max_tokens; }

  std::size_t tokens_issued() const { return issued_; }
  std::size_t requests_denied() const { return denied_; }

  void on_packet(const net::Packet& p, net::Simulator& sim) override;

 private:
  crypto::RsaPrivateKey key_;
  std::set<std::string> accounts_;
  std::size_t limit_ = 0;
  std::map<std::string, std::size_t> issued_per_account_;
  // At-most-once issuance: a retried or fault-duplicated request (same
  // linkage context) replays the stored response instead of re-signing —
  // otherwise a resend would double-count against the account's limit.
  ReplayCache replay_;
  core::ObservationLog* log_;
  const core::AddressBook* book_;
  std::size_t issued_ = 0;
  std::size_t denied_ = 0;
};

/// Challenges clients; serves content on presentation of a fresh token.
class Origin final : public net::Node {
 public:
  Origin(net::Address address, std::string authority,
         crypto::RsaPublicKey issuer_key, core::ObservationLog& log,
         const core::AddressBook& book);

  std::size_t served() const { return served_; }
  std::size_t rejected() const { return rejected_; }

  void on_packet(const net::Packet& p, net::Simulator& sim) override;

 private:
  std::string authority_;
  crypto::RsaPublicKey issuer_key_;
  std::set<Bytes> seen_nonces_;  // double-spend prevention
  // A resent access request carries the SAME nonce under the SAME context;
  // without the replay cache it would hit seen_nonces_ and be misread as a
  // double-spend attempt.
  ReplayCache replay_;
  core::ObservationLog* log_;
  const core::AddressBook* book_;
  std::size_t served_ = 0;
  std::size_t rejected_ = 0;
};

/// Obtains tokens from the issuer, spends them at origins.
class Client final : public net::Node {
 public:
  using ServedCallback = std::function<void(bool served)>;
  using IssueCallback = std::function<void(Result<Token>)>;
  using AccessCallback = std::function<void(Result<bool>)>;

  /// Throws std::invalid_argument when `account` is over 255 bytes, the
  /// most an issue request carries.
  Client(net::Address address, std::string account, net::Address issuer,
         crypto::RsaPublicKey issuer_key, core::ObservationLog& log,
         std::uint64_t seed);

  /// Requests one token from the issuer (authenticated with the account).
  void request_token(net::Simulator& sim);

  /// Loss-protected request_token(): resends the SAME blinded request under
  /// the same context (the issuer's replay cache makes that at-most-once).
  /// The callback gets the finalized token, or a typed error when issuance
  /// is denied (the issuer stays silent) or every resend is lost.
  void request_token_reliable(net::Simulator& sim, const RetryPolicy& policy,
                              IssueCallback cb);

  /// Spends one wallet token at `origin` to access `path`. Returns false if
  /// no token is available. Throws std::length_error, with the wallet, the
  /// log and the simulator's contexts untouched, when `path` is over 255
  /// bytes.
  bool access(const net::Address& origin, const std::string& path,
              net::Simulator& sim, ServedCallback cb = nullptr);

  /// Loss-protected access(): same token, same bytes, same context on every
  /// resend — the origin replays its verdict rather than seeing a
  /// double-spend. Returns false (no callback) if the wallet is empty;
  /// throws as access() does.
  bool access_reliable(const net::Address& origin, const std::string& path,
                       net::Simulator& sim, const RetryPolicy& policy,
                       AccessCallback cb);

  const std::vector<Token>& wallet() const { return wallet_; }
  std::size_t accesses_granted() const { return granted_; }

  void on_packet(const net::Packet& p, net::Simulator& sim) override;

 private:
  std::string account_;
  net::Address issuer_;
  crypto::RsaPublicKey issuer_key_;
  crypto::ChaChaRng rng_;
  std::map<std::uint64_t, std::pair<Bytes, crypto::BlindingState>>
      pending_issuance_;
  std::map<std::uint64_t, IssueCallback> pending_issue_cbs_;
  std::map<std::uint64_t, ServedCallback> pending_access_;
  std::vector<Token> wallet_;
  core::ObservationLog* log_;
  std::size_t granted_ = 0;
};

}  // namespace dcpl::systems::privacypass
