// Chaumian digital cash (§3.1.1): blind-signature withdrawal, anonymous
// spending, double-spend detection at deposit.
//
// The Bank acts in two roles the paper separates in its table: the Signer
// (withdrawal: sees the buyer's account, signs a blinded coin) and the
// Verifier (deposit: sees a coin serial arriving from a seller, never the
// buyer). Blindness enforces the decoupling between the two roles even
// though they share a key: the signer cannot recognize the coin it signed.
//
// The spend leg travels over an anonymous channel (the paper's purchases
// "cannot be linked to identities"); we model it by having the buyer present
// the coin from a pseudonymous source address that no node owns and nobody
// can address (the Buyer declares it as an extra source; see net::Node).
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

namespace dcpl::systems::ecash {

/// Party names used in logs (the paper's column headers).
inline constexpr const char* kSigner = "Signer (Bank)";
inline constexpr const char* kVerifier = "Verifier (Bank)";

/// A finalized coin held by a buyer.
struct Coin {
  Bytes serial;     // random 32 bytes; the signed message
  Bytes signature;  // bank's (unblinded) PSS signature over serial
};

/// The bank: mint (signer) + clearing house (verifier).
class Bank final : public net::Node {
 public:
  Bank(net::Address address, std::size_t rsa_bits, core::ObservationLog& log,
       const core::AddressBook& book, std::uint64_t seed);

  const crypto::RsaPublicKey& public_key() const { return key_.pub; }

  /// Opens an account with an initial balance (coins cost 1 unit each).
  void open_account(const std::string& account, std::uint64_t balance);

  std::uint64_t balance(const std::string& account) const;
  std::size_t coins_issued() const { return issued_; }
  std::size_t deposits_accepted() const { return accepted_; }
  std::size_t deposits_rejected() const { return rejected_; }

  void on_packet(const net::Packet& p, net::Simulator& sim) override;

 private:
  crypto::RsaPrivateKey key_;
  crypto::ChaChaRng rng_;
  std::map<std::string, std::uint64_t> accounts_;
  std::set<Bytes> spent_serials_;
  core::ObservationLog* log_;
  const core::AddressBook* book_;
  std::size_t issued_ = 0;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
};

/// A merchant: verifies coins offline, then deposits them at the bank.
class Seller final : public net::Node {
 public:
  Seller(net::Address address, net::Address bank, crypto::RsaPublicKey bank_key,
         core::ObservationLog& log, const core::AddressBook& book);

  std::size_t sales_completed() const { return sales_; }
  std::size_t coins_rejected() const { return rejected_; }

  void on_packet(const net::Packet& p, net::Simulator& sim) override;

 private:
  net::Address bank_;
  crypto::RsaPublicKey bank_key_;
  core::ObservationLog* log_;
  const core::AddressBook* book_;
  std::size_t sales_ = 0;
  std::size_t rejected_ = 0;
};

/// The buyer: withdraws coins with its identity, spends them anonymously.
class Buyer final : public net::Node {
 public:
  Buyer(net::Address address, net::Address pseudonym, std::string account,
        net::Address bank, crypto::RsaPublicKey bank_key,
        core::ObservationLog& log, std::uint64_t seed);

  /// Starts a withdrawal; the coin lands in wallet() when the bank replies.
  void withdraw(net::Simulator& sim);

  /// Spends a wallet coin at `seller` (with `item` describing the purchase),
  /// presented from the pseudonymous address. Returns false if the wallet
  /// is empty.
  bool spend(const net::Address& seller, const std::string& item,
             net::Simulator& sim);

  const std::vector<Coin>& wallet() const { return wallet_; }

  /// The pseudonym, which spends come from.
  std::vector<net::Address> also_sends_from() const override {
    return {pseudonym_};
  }
  void on_packet(const net::Packet& p, net::Simulator& sim) override;

 private:
  net::Address pseudonym_;
  std::string account_;
  net::Address bank_;
  crypto::RsaPublicKey bank_key_;
  crypto::ChaChaRng rng_;
  std::map<std::uint64_t, std::pair<Bytes, crypto::BlindingState>> pending_;
  std::vector<Coin> wallet_;
  core::ObservationLog* log_;
};

}  // namespace dcpl::systems::ecash
