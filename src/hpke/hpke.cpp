#include "hpke/hpke.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>

#include "crypto/aead.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/x25519.hpp"
#include "obs/metrics.hpp"

namespace dcpl::hpke {

namespace {

constexpr std::uint8_t kVersionLabel[] = {'H', 'P', 'K', 'E', '-', 'v', '1'};

// suite_id = "KEM" || I2OSP(kem_id, 2) for the DHKEM, and "HPKE" ||
// I2OSP(kem_id, 2) || I2OSP(kdf_id, 2) || I2OSP(aead_id, 2) for the rest.
constexpr std::uint8_t kKemSuite[] = {'K', 'E', 'M', kKemId >> 8, kKemId & 0xff};
constexpr std::uint8_t kHpkeSuite[] = {
    'H',          'P',           'K',          'E',
    kKemId >> 8,  kKemId & 0xff, kKdfId >> 8,  kKdfId & 0xff,
    kAeadId >> 8, kAeadId & 0xff};

using Secret = std::array<std::uint8_t, crypto::HmacSha256::kTagSize>;

BytesView label_view(std::string_view label) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(label.data()),
                   label.size());
}

// HKDF-Extract with no salt keys the HMAC with zeros; the keyed state is
// the same for every call, so it is built once.
const crypto::HmacSha256& no_salt() {
  static const crypto::HmacSha256 keyed{BytesView{}};
  return keyed;
}

// LabeledExtract: HKDF-Extract(salt, "HPKE-v1" || suite_id || label || ikm),
// with the salt already keyed into `salt` and the parts absorbed in turn.
Secret labeled_extract(crypto::HmacSha256 salt, BytesView suite_id,
                       std::string_view label, BytesView ikm) {
  salt.update(kVersionLabel);
  salt.update(suite_id);
  salt.update(label_view(label));
  salt.update(ikm);
  return salt.finish();
}

// LabeledExpand: HKDF-Expand(prk, I2OSP(L, 2) || "HPKE-v1" || suite_id ||
// label || info, L) into `out` (L = out.size()), with the PRK keyed once by
// the caller and `info` given as up to three parts.
void labeled_expand(const crypto::HmacSha256& prk, BytesView suite_id,
                    std::string_view label,
                    std::initializer_list<BytesView> info,
                    std::span<std::uint8_t> out) {
  const std::uint8_t length[2] = {static_cast<std::uint8_t>(out.size() >> 8),
                                  static_cast<std::uint8_t>(out.size())};
  std::array<BytesView, 7> parts = {BytesView(length), BytesView(kVersionLabel),
                                    suite_id, label_view(label)};
  if (info.size() > parts.size() - 4) {
    throw std::logic_error("hpke: too many info parts");
  }
  std::copy(info.begin(), info.end(), parts.begin() + 4);
  crypto::hkdf_expand_into(prk, std::span(parts.data(), 4 + info.size()), out);
}

Bytes labeled_expand(const crypto::HmacSha256& prk, BytesView suite_id,
                     std::string_view label,
                     std::initializer_list<BytesView> info,
                     std::size_t length) {
  Bytes out(length);
  labeled_expand(prk, suite_id, label, info, out);
  return out;
}

/// DHKEM ExtractAndExpand (RFC 9180 §4.1), with kem_context = enc || pkR.
Secret extract_and_expand(BytesView dh, BytesView enc, BytesView pk_r) {
  const Secret eae_prk = labeled_extract(no_salt(), kKemSuite, "eae_prk", dh);
  Secret shared_secret;
  labeled_expand(crypto::HmacSha256(eae_prk), kKemSuite, "shared_secret",
                 {enc, pk_r}, shared_secret);
  return shared_secret;
}

}  // namespace

KeyPair KeyPair::generate(Rng& rng) {
  auto kp = crypto::X25519KeyPair::generate(rng);
  return KeyPair{std::move(kp.private_key), std::move(kp.public_key)};
}

namespace {

// The private key of RFC 9180 §7.1.3 DeriveKeyPair for X25519.
Bytes derive_private_key(BytesView ikm) {
  const Secret dkp_prk = labeled_extract(no_salt(), kKemSuite, "dkp_prk", ikm);
  return labeled_expand(crypto::HmacSha256(dkp_prk), kKemSuite, "sk", {},
                        kNpk);
}

}  // namespace

KeyPair KeyPair::derive(BytesView ikm) {
  Bytes sk = derive_private_key(ikm);
  Bytes pk = crypto::x25519_public(sk);
  return KeyPair{std::move(sk), std::move(pk)};
}

// Shared key-schedule — RFC 9180 §5.1 (mode_base 0x00 / mode_psk 0x01).
Context setup_with_schedule(BytesView shared_secret, BytesView info,
                            BytesView psk = {}, BytesView psk_id = {}) {
  const bool have_psk = !psk.empty();
  if (have_psk != !psk_id.empty()) {
    throw std::invalid_argument("hpke: psk and psk_id must come together");
  }
  if (have_psk && psk.size() < 32) {
    throw std::invalid_argument("hpke: psk must be >= 32 bytes");
  }
  const std::uint8_t mode = have_psk ? 0x01 : 0x00;

  // Base mode's psk_id is empty, so its hash is one constant, made once.
  static const Secret empty_psk_id_hash =
      labeled_extract(no_salt(), kHpkeSuite, "psk_id_hash", {});
  const Secret psk_id_hash =
      psk_id.empty()
          ? empty_psk_id_hash
          : labeled_extract(no_salt(), kHpkeSuite, "psk_id_hash", psk_id);
  const Secret info_hash =
      labeled_extract(no_salt(), kHpkeSuite, "info_hash", info);
  // key_schedule_context = mode || psk_id_hash || info_hash, as three parts.
  const std::initializer_list<BytesView> context = {
      BytesView(&mode, 1), psk_id_hash, info_hash};

  // One keyed PRK serves all three expansions.
  const crypto::HmacSha256 secret(labeled_extract(
      crypto::HmacSha256(shared_secret), kHpkeSuite, "secret", psk));

  Context ctx;
  ctx.key_ = labeled_expand(secret, kHpkeSuite, "key", context, kNk);
  ctx.base_nonce_ =
      labeled_expand(secret, kHpkeSuite, "base_nonce", context, kNn);
  ctx.exporter_secret_ = labeled_expand(secret, kHpkeSuite, "exp", context, 32);
  return ctx;
}

std::array<std::uint8_t, kNn> Context::compute_nonce() const {
  std::array<std::uint8_t, kNn> nonce;
  std::copy(base_nonce_.begin(), base_nonce_.end(), nonce.begin());
  for (int i = 0; i < 8; ++i) {
    nonce[kNn - 1 - i] ^= static_cast<std::uint8_t>(seq_ >> (8 * i));
  }
  return nonce;
}

void Context::seal_append(BytesView aad, BytesView plaintext, Bytes& out) {
  static obs::OpCounter ops("crypto", "hpke_seal");
  ops.inc();
  if (seq_ >= kSeqLimit) throw MessageLimitReached();
  crypto::aead_seal_append(key_, compute_nonce(), aad, plaintext, out);
  ++seq_;
}

Bytes Context::seal(BytesView aad, BytesView plaintext) {
  Bytes ct;
  ct.reserve(plaintext.size() + kNt);
  seal_append(aad, plaintext, ct);
  return ct;
}

Result<Bytes> Context::open(BytesView aad, BytesView ciphertext) {
  static obs::OpCounter ops("crypto", "hpke_open");
  ops.inc();
  if (seq_ >= kSeqLimit) {
    return Result<Bytes>::failure("hpke: context message limit reached");
  }
  auto pt = crypto::aead_open(key_, compute_nonce(), aad, ciphertext);
  if (pt.ok()) ++seq_;
  return pt;
}

Bytes Context::export_secret(BytesView exporter_context,
                             std::size_t length) const {
  return labeled_expand(crypto::HmacSha256(exporter_secret_), kHpkeSuite,
                        "sec", {exporter_context}, length);
}

namespace {

// The comb tables of the recipient keys senders seal to, and the keys that
// have none (see hpke.hpp).
class RecipientTables {
 public:
  std::shared_ptr<const crypto::X25519CombTable> find_or_build(
      BytesView recipient_public) {
    Key key;
    std::copy(recipient_public.begin(), recipient_public.end(), key.begin());
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (const Entry* e = find(key)) return e->table;
    }
    // Built outside the lock, so a first seal to one key does not hold up
    // seals to the others; if two threads build one key at once, the first
    // insert wins.
    auto table = crypto::x25519_comb_table(recipient_public);
    const std::lock_guard<std::mutex> lock(mu_);
    if (const Entry* e = find(key)) return e->table;
    entries_.push_back(Entry{key, table});
    if (entries_.size() > kRecipientTableCacheKeys) entries_.pop_front();
    return table;
  }

 private:
  using Key = std::array<std::uint8_t, kNpk>;
  struct Entry {
    Key key;
    std::shared_ptr<const crypto::X25519CombTable> table;  // null: no table
  };

  const Entry* find(const Key& key) const {
    for (const Entry& e : entries_) {
      if (e.key == key) return &e;
    }
    return nullptr;
  }

  std::mutex mu_;
  std::deque<Entry> entries_;  // oldest first; guarded by mu_
};

RecipientTables& recipient_tables() {
  static RecipientTables tables;
  return tables;
}

// Every sender setup: DHKEM Encap (RFC 9180 §4.1), then the key schedule.
// The ephemeral private key skE comes from make_ephemeral(), called once the
// recipient key's size has been checked. enc = X25519(skE, 9) and
// dh = X25519(skE, pkR) come from one comb call through pkR's table, or,
// for a key without one, from the comb and the ladder.
template <typename MakeEphemeral>
Sender encapsulate(BytesView recipient_public, BytesView info, BytesView psk,
                   BytesView psk_id, MakeEphemeral&& make_ephemeral) {
  if (recipient_public.size() != kNpk) {
    throw std::invalid_argument("hpke: recipient public key size");
  }
  const Bytes ephemeral_private = make_ephemeral();
  crypto::X25519CombOutput dh;
  if (const auto table = recipient_tables().find_or_build(recipient_public)) {
    dh = crypto::x25519_comb_dispatched()(ephemeral_private, table.get());
  } else {
    dh.public_key = crypto::x25519_public(ephemeral_private);
    dh.shared = crypto::x25519(ephemeral_private, recipient_public);
  }
  static constexpr std::uint8_t kZero[kNsecret] = {};
  if (ct_equal(dh.shared, BytesView(kZero, kNsecret))) {
    throw std::invalid_argument("hpke: bad recipient public key");
  }

  const Secret shared_secret =
      extract_and_expand(dh.shared, dh.public_key, recipient_public);
  Sender s;
  s.enc = std::move(dh.public_key);
  s.context = setup_with_schedule(shared_secret, info, psk, psk_id);
  return s;
}

}  // namespace

Sender setup_base_sender(BytesView recipient_public, BytesView info, Rng& rng) {
  return encapsulate(recipient_public, info, {}, {},
                     [&] { return rng.bytes(crypto::kX25519KeySize); });
}

Sender setup_base_sender_deterministic(BytesView recipient_public,
                                       BytesView info,
                                       BytesView ephemeral_ikm) {
  return encapsulate(recipient_public, info, {}, {},
                     [&] { return derive_private_key(ephemeral_ikm); });
}

Result<Context> setup_base_recipient(BytesView enc, const KeyPair& kp,
                                     BytesView info) {
  if (enc.size() != kNenc) {
    return Result<Context>::failure("hpke: bad enc size");
  }
  auto dh = crypto::x25519_shared(kp.private_key, enc);
  if (!dh.ok()) return Result<Context>::failure("hpke: low-order enc");

  const Secret shared_secret =
      extract_and_expand(dh.value(), enc, kp.public_key);
  return setup_with_schedule(shared_secret, info);
}

Sender setup_psk_sender(BytesView recipient_public, BytesView info,
                        BytesView psk, BytesView psk_id, Rng& rng) {
  return encapsulate(recipient_public, info, psk, psk_id,
                     [&] { return rng.bytes(crypto::kX25519KeySize); });
}

Result<Context> setup_psk_recipient(BytesView enc, const KeyPair& kp,
                                    BytesView info, BytesView psk,
                                    BytesView psk_id) {
  if (enc.size() != kNenc) {
    return Result<Context>::failure("hpke: bad enc size");
  }
  auto dh = crypto::x25519_shared(kp.private_key, enc);
  if (!dh.ok()) return Result<Context>::failure("hpke: low-order enc");
  const Secret shared_secret =
      extract_and_expand(dh.value(), enc, kp.public_key);
  return setup_with_schedule(shared_secret, info, psk, psk_id);
}

Bytes seal(BytesView recipient_public, BytesView info, BytesView aad,
           BytesView plaintext, Rng& rng) {
  Sender s = setup_base_sender(recipient_public, info, rng);
  Bytes out;
  out.reserve(s.enc.size() + plaintext.size() + kNt);
  append(out, s.enc);
  s.context.seal_append(aad, plaintext, out);
  return out;
}

Result<Bytes> open(const KeyPair& kp, BytesView info, BytesView aad,
                   BytesView enc_and_ciphertext) {
  if (enc_and_ciphertext.size() < kNenc) {
    return Result<Bytes>::failure("hpke open: input too short");
  }
  auto ctx = setup_base_recipient(enc_and_ciphertext.first(kNenc), kp, info);
  if (!ctx.ok()) return Result<Bytes>::failure(ctx.error().message);
  return ctx.value().open(aad, enc_and_ciphertext.subspan(kNenc));
}

}  // namespace dcpl::hpke
