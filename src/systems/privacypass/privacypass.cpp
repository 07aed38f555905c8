#include "systems/privacypass/privacypass.hpp"

#include <memory>
#include <stdexcept>

#include "common/io.hpp"
#include "obs/trace.hpp"

namespace dcpl::systems::privacypass {

namespace {

enum class MsgType : std::uint8_t {
  kIssueRequest = 1,
  kIssueResponse = 2,
  kAccessRequest = 3,
  kAccessResponse = 4,
};

// The access request for `path` spending `token`. Throws std::length_error
// on a path over 255 bytes, so callers encode it before they change any
// state.
Bytes encode_access(const std::string& path, const Token& token) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kAccessRequest));
  w.vec(to_bytes(path), 1);
  w.vec(token.nonce, 1);
  w.vec(token.signature, 2);
  return std::move(w).take();
}

Bytes encode_issue_request(const std::string& account, BytesView blinded) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kIssueRequest));
  w.vec(to_bytes(account), 1);
  w.vec(blinded, 2);
  return std::move(w).take();
}

}  // namespace

// ---------------------------------------------------------------------------
// Issuer
// ---------------------------------------------------------------------------

Issuer::Issuer(net::Address address, std::size_t rsa_bits,
               core::ObservationLog& log, const core::AddressBook& book,
               std::uint64_t seed)
    : Node(std::move(address)), log_(&log), book_(&book) {
  crypto::ChaChaRng rng(seed);
  key_ = crypto::rsa_generate(rsa_bits, rng);
}

void Issuer::register_account(const std::string& account) {
  accounts_.insert(account);
}

void Issuer::on_packet(const net::Packet& p, net::Simulator& sim) {
  obs::Span span("privacypass.issue");
  // Replayed (resent or fault-duplicated) request: re-emit the original
  // verdict without touching the issuance counters. An empty cached entry
  // records a denial, which gets no response.
  if (const Bytes* cached = replay_.find(p.context)) {
    if (!cached->empty()) {
      sim.send(net::Packet{address(), p.src, *cached, p.context,
                           "privacypass"});
    }
    return;
  }
  try {
    ByteReader r(p.payload);
    if (static_cast<MsgType>(r.u8()) != MsgType::kIssueRequest) return;
    std::string account = to_string(r.vec(1));
    Bytes blinded = r.vec(2);

    // The issuer authenticates the client: it learns WHO (▲) but the
    // blinded token hides WHAT the token will be used for (⊙). Crucially
    // the issuer never learns the origin.
    book_->observe_src(*log_, address(), p.src, p.context);
    log_->observe(address(), core::sensitive_identity("account:" + account),
                  p.context);
    log_->observe(address(), core::benign_data("blinded-token"), p.context);

    if (!accounts_.count(account)) {
      ++denied_;
      replay_.store(p.context, {});
      return;
    }
    if (limit_ != 0 && issued_per_account_[account] >= limit_) {
      ++denied_;
      replay_.store(p.context, {});
      return;
    }
    auto blind_sig = crypto::blind_sign(key_, blinded);
    if (!blind_sig.ok()) {
      ++denied_;
      replay_.store(p.context, {});
      return;
    }
    ++issued_;
    ++issued_per_account_[account];
    static obs::OpCounter tokens("systems", "privacypass_issued");
    tokens.inc();

    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(MsgType::kIssueResponse));
    w.vec(blind_sig.value(), 2);
    Bytes response = std::move(w).take();
    replay_.store(p.context, response);
    sim.send(net::Packet{address(), p.src, std::move(response), p.context,
                         "privacypass"});
  } catch (const ParseError&) {
  }
}

// ---------------------------------------------------------------------------
// Origin
// ---------------------------------------------------------------------------

Origin::Origin(net::Address address, std::string authority,
               crypto::RsaPublicKey issuer_key, core::ObservationLog& log,
               const core::AddressBook& book)
    : Node(std::move(address)), authority_(std::move(authority)),
      issuer_key_(std::move(issuer_key)), log_(&log), book_(&book) {}

void Origin::on_packet(const net::Packet& p, net::Simulator& sim) {
  obs::Span span("privacypass.redeem");
  // A resent access request repeats the SAME nonce under the SAME context;
  // replay the stored verdict so the retry is not misread as a double-spend.
  if (const Bytes* cached = replay_.find(p.context)) {
    sim.send(
        net::Packet{address(), p.src, *cached, p.context, "privacypass"});
    return;
  }
  try {
    ByteReader r(p.payload);
    if (static_cast<MsgType>(r.u8()) != MsgType::kAccessRequest) return;
    std::string path = to_string(r.vec(1));
    Bytes nonce = r.vec(1);
    Bytes sig = r.vec(2);

    // The origin sees the request it serves (●) and a counterparty reached
    // over an anonymity-preserving path (△). The token is unlinkable to any
    // issuance interaction.
    book_->observe_src(*log_, address(), p.src, p.context);
    log_->observe(address(),
                  core::sensitive_data("url:" + authority_ + path), p.context);

    const bool fresh = !seen_nonces_.count(nonce);
    const bool valid = fresh && crypto::blind_verify(issuer_key_, nonce, sig);
    if (valid) {
      seen_nonces_.insert(nonce);
      ++served_;
    } else {
      ++rejected_;
    }

    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(MsgType::kAccessResponse));
    w.u8(valid ? 1 : 0);
    Bytes response = std::move(w).take();
    replay_.store(p.context, response);
    sim.send(net::Packet{address(), p.src, std::move(response), p.context,
                         "privacypass"});
  } catch (const ParseError&) {
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(net::Address address, std::string account, net::Address issuer,
               crypto::RsaPublicKey issuer_key, core::ObservationLog& log,
               std::uint64_t seed)
    : Node(std::move(address)), account_(std::move(account)),
      issuer_(std::move(issuer)), issuer_key_(std::move(issuer_key)),
      rng_(seed), log_(&log) {
  // The issue request carries the account behind a one-byte length; reject
  // it here rather than after a request has drawn from the RNG.
  if (account_.size() > 255) {
    throw std::invalid_argument("privacypass: account over 255 bytes");
  }
}

void Client::request_token(net::Simulator& sim) {
  obs::Span span("privacypass.blind_request");
  Bytes nonce = rng_.bytes(32);
  crypto::BlindingState state = crypto::blind(issuer_key_, nonce, rng_);

  const std::uint64_t ctx = sim.new_context();
  log_->observe(address(), core::sensitive_identity("account:" + account_),
                ctx);

  Bytes request = encode_issue_request(account_, state.blinded_message);
  pending_issuance_.emplace(ctx,
                            std::make_pair(std::move(nonce), std::move(state)));
  sim.send(net::Packet{address(), issuer_, std::move(request), ctx,
                       "privacypass"});
}

void Client::request_token_reliable(net::Simulator& sim,
                                    const RetryPolicy& policy,
                                    IssueCallback cb) {
  obs::Span span("privacypass.blind_request");
  Bytes nonce = rng_.bytes(32);
  crypto::BlindingState state = crypto::blind(issuer_key_, nonce, rng_);

  const std::uint64_t ctx = sim.new_context();
  log_->observe(address(), core::sensitive_identity("account:" + account_),
                ctx);

  Bytes request = encode_issue_request(account_, state.blinded_message);
  pending_issuance_.emplace(ctx,
                            std::make_pair(std::move(nonce), std::move(state)));
  auto done_cb = std::make_shared<IssueCallback>(std::move(cb));
  pending_issue_cbs_[ctx] = [done_cb](Result<Token> r) {
    (*done_cb)(std::move(r));
  };
  retry_run(
      sim, policy, rng_,
      [this, &sim, ctx,
       wire = sim.make_payload(std::move(request))](unsigned) {
        sim.send_shared(address(), issuer_, wire, ctx, "privacypass");
      },
      [this, ctx] { return pending_issuance_.count(ctx) == 0; },
      [this, ctx, done_cb](const RetryError& e) {
        pending_issuance_.erase(ctx);
        pending_issue_cbs_.erase(ctx);
        (*done_cb)(Error{e.message()});
      });
}

bool Client::access(const net::Address& origin, const std::string& path,
                    net::Simulator& sim, ServedCallback cb) {
  if (wallet_.empty()) return false;
  Bytes request = encode_access(path, wallet_.back());
  wallet_.pop_back();

  const std::uint64_t ctx = sim.new_context();
  log_->observe(address(), core::sensitive_identity("account:" + account_),
                ctx);
  log_->observe(address(), core::sensitive_data("url:" + origin + path), ctx);

  pending_access_[ctx] = std::move(cb);
  sim.send(net::Packet{address(), origin, std::move(request), ctx,
                       "privacypass"});
  return true;
}

bool Client::access_reliable(const net::Address& origin,
                             const std::string& path, net::Simulator& sim,
                             const RetryPolicy& policy, AccessCallback cb) {
  if (wallet_.empty()) return false;
  Bytes request = encode_access(path, wallet_.back());
  wallet_.pop_back();

  const std::uint64_t ctx = sim.new_context();
  log_->observe(address(), core::sensitive_identity("account:" + account_),
                ctx);
  log_->observe(address(), core::sensitive_data("url:" + origin + path), ctx);

  auto done_cb = std::make_shared<AccessCallback>(std::move(cb));
  pending_access_[ctx] = [done_cb](bool served) { (*done_cb)(served); };
  retry_run(
      sim, policy, rng_,
      [this, &sim, ctx, origin,
       wire = sim.make_payload(std::move(request))](unsigned) {
        sim.send_shared(address(), origin, wire, ctx, "privacypass");
      },
      [this, ctx] { return pending_access_.count(ctx) == 0; },
      [this, ctx, done_cb](const RetryError& e) {
        pending_access_.erase(ctx);
        (*done_cb)(Error{e.message()});
      });
  return true;
}

void Client::on_packet(const net::Packet& p, net::Simulator&) {
  try {
    ByteReader r(p.payload);
    const auto type = static_cast<MsgType>(r.u8());

    if (type == MsgType::kIssueResponse) {
      auto it = pending_issuance_.find(p.context);
      if (it == pending_issuance_.end()) return;
      Bytes blind_sig = r.vec(2);
      auto sig = crypto::finalize(issuer_key_, it->second.first,
                                  it->second.second, blind_sig);
      auto cb_it = pending_issue_cbs_.find(p.context);
      if (sig.ok()) {
        Token token{it->second.first, std::move(sig.value())};
        if (cb_it != pending_issue_cbs_.end() && cb_it->second) {
          cb_it->second(token);
        }
        wallet_.push_back(std::move(token));
      } else if (cb_it != pending_issue_cbs_.end() && cb_it->second) {
        cb_it->second(Error{"privacypass: finalize failed"});
      }
      if (cb_it != pending_issue_cbs_.end()) pending_issue_cbs_.erase(cb_it);
      pending_issuance_.erase(it);
      return;
    }

    if (type == MsgType::kAccessResponse) {
      auto it = pending_access_.find(p.context);
      if (it == pending_access_.end()) return;
      const bool served = r.u8() == 1;
      if (served) ++granted_;
      if (it->second) it->second(served);
      pending_access_.erase(it);
      return;
    }
  } catch (const ParseError&) {
  }
}

}  // namespace dcpl::systems::privacypass
