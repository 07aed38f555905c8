// HPKE (RFC 9180), base mode, with the ciphersuite
//   DHKEM(X25519, HKDF-SHA256) + HKDF-SHA256 + ChaCha20-Poly1305
// (kem_id 0x0020, kdf_id 0x0001, aead_id 0x0003).
//
// This is the public-key encryption workhorse for every decoupled protocol
// in this library: OHTTP request encapsulation, ODoH query encryption,
// mix-net onion layers, MPR tunnels, and the ECH inner ClientHello.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace dcpl::hpke {

constexpr std::uint16_t kKemId = 0x0020;   // DHKEM(X25519, HKDF-SHA256)
constexpr std::uint16_t kKdfId = 0x0001;   // HKDF-SHA256
constexpr std::uint16_t kAeadId = 0x0003;  // ChaCha20-Poly1305

constexpr std::size_t kNk = 32;      // AEAD key size
constexpr std::size_t kNn = 12;      // AEAD nonce size
constexpr std::size_t kNt = 16;      // AEAD tag size
constexpr std::size_t kNsecret = 32; // KEM shared secret size
constexpr std::size_t kNenc = 32;    // encapsulated key size
constexpr std::size_t kNpk = 32;     // public key size

/// Recipient key pair for the DHKEM.
struct KeyPair {
  Bytes private_key;
  Bytes public_key;

  static KeyPair generate(Rng& rng);
  /// RFC 9180 DeriveKeyPair-alike (deterministic from ikm).
  static KeyPair derive(BytesView ikm);
};

/// RFC 9180 §5.2: a context's message sequence is exhausted. The wire
/// bound is 2^(8*Nn) - 1; with Nn = 12 the sequence counter (uint64)
/// saturates first, so this is the practically enforceable limit — a
/// context must never XOR a wrapped sequence number into its nonce.
class MessageLimitReached : public std::runtime_error {
 public:
  MessageLimitReached()
      : std::runtime_error("hpke: context message limit reached") {}
};

/// Largest sequence number a Context will seal/open. seq_ saturates at
/// uint64 max; allowing it to wrap would silently reuse (key, nonce) pairs.
constexpr std::uint64_t kSeqLimit = ~std::uint64_t{0};

/// An established HPKE context (sender or recipient side): a sequence of
/// AEAD operations plus the exporter interface. Contexts are multi-message
/// by design (§5.2): one KEM encapsulation amortizes across every
/// seal/open on the context, which is what the session channels in
/// systems/channel.hpp build on.
class Context {
 public:
  /// Sender: encrypts the next message in sequence. Throws
  /// MessageLimitReached once the sequence space is exhausted.
  Bytes seal(BytesView aad, BytesView plaintext);

  /// Zero-copy framing variant of seal(): appends ciphertext || tag onto
  /// `out` without an intermediate buffer.
  void seal_append(BytesView aad, BytesView plaintext, Bytes& out);

  /// Recipient: decrypts the next message in sequence. Fails on forgery
  /// and (without consuming the sequence) once the message limit is hit.
  Result<Bytes> open(BytesView aad, BytesView ciphertext);

  /// Exports a secret bound to this context (RFC 9180 §5.3).
  Bytes export_secret(BytesView exporter_context, std::size_t length) const;

  const Bytes& key() const { return key_; }
  const Bytes& base_nonce() const { return base_nonce_; }

  /// Messages sealed/opened so far (the next sequence number).
  std::uint64_t seq() const { return seq_; }

  /// Test hook: jump the sequence counter (e.g. to just below kSeqLimit to
  /// exercise exhaustion without 2^64 seal calls). Not for production use —
  /// skipping sequence numbers desynchronizes sender and recipient.
  void set_seq_for_testing(std::uint64_t seq) { seq_ = seq; }

 private:
  friend struct Sender;
  friend Result<Context> setup_base_recipient(BytesView enc, const KeyPair& kp,
                                              BytesView info);
  friend Result<Context> setup_psk_recipient(BytesView enc, const KeyPair& kp,
                                             BytesView info, BytesView psk,
                                             BytesView psk_id);
  friend Context setup_with_schedule(BytesView shared_secret, BytesView info,
                                     BytesView psk, BytesView psk_id);

  std::array<std::uint8_t, kNn> compute_nonce() const;

  Bytes key_;
  Bytes base_nonce_;
  Bytes exporter_secret_;
  std::uint64_t seq_ = 0;
};

/// Sender context plus the encapsulated key to transmit.
struct Sender {
  Bytes enc;
  Context context;
};

/// Every sender setup below (and seal()) treats `recipient_public` as a
/// long-term key. The first seal to a key builds its X25519 comb table
/// (crypto/x25519.hpp: 15 KiB, about 0.1 ms, a few seals' worth of X25519
/// work) into a process-wide cache keyed by the 32 key bytes, which holds
/// up to kRecipientTableCacheKeys keys and, when full, evicts the one
/// inserted first. Each seal then computes enc and the shared secret by two
/// fixed-base combs and one inversion instead of a comb and a ladder. Keys
/// that get no table (twist and small-order points) are remembered as such
/// and take the ladder. A std::mutex guards the cache's entries only: a
/// table is built outside it and shared, immutable, through a shared_ptr,
/// and when two threads build one key's table at once the first insert
/// wins. Sender setups may run on several threads at once.
constexpr std::size_t kRecipientTableCacheKeys = 32;

/// SetupBaseS: encapsulate to `recipient_public` with application `info`.
/// Throws std::invalid_argument when the key is not kNpk bytes or is a
/// small-order point (the DH output is zero); so do the other sender setups.
Sender setup_base_sender(BytesView recipient_public, BytesView info, Rng& rng);

/// Deterministic variant used by tests: the ephemeral key comes from
/// `ephemeral_ikm` instead of an RNG.
Sender setup_base_sender_deterministic(BytesView recipient_public,
                                       BytesView info, BytesView ephemeral_ikm);

/// SetupBaseR: decapsulate `enc` with the recipient key pair.
Result<Context> setup_base_recipient(BytesView enc, const KeyPair& kp,
                                     BytesView info);

/// SetupPSKS (RFC 9180 mode_psk, 0x01): like base mode but additionally
/// authenticates both ends via a pre-shared key. `psk` must be at least 32
/// bytes and `psk_id` non-empty (RFC 9180 §5.1.2); throws otherwise.
Sender setup_psk_sender(BytesView recipient_public, BytesView info,
                        BytesView psk, BytesView psk_id, Rng& rng);

/// SetupPSKR: recipient side of mode_psk.
Result<Context> setup_psk_recipient(BytesView enc, const KeyPair& kp,
                                    BytesView info, BytesView psk,
                                    BytesView psk_id);

/// Single-shot seal: returns enc || ciphertext.
Bytes seal(BytesView recipient_public, BytesView info, BytesView aad,
           BytesView plaintext, Rng& rng);

/// Single-shot open of enc || ciphertext.
Result<Bytes> open(const KeyPair& kp, BytesView info, BytesView aad,
                   BytesView enc_and_ciphertext);

}  // namespace dcpl::hpke
