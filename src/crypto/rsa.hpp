// RSA key generation, raw operations (CRT-accelerated), and EMSA-PSS
// signatures with SHA-256 (RFC 8017). The PSS path is shared with the blind
// signature scheme in blind_rsa.hpp.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/bigint.hpp"

namespace dcpl::crypto {

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  /// Size of the modulus in bytes (ceil(bits/8)).
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  std::size_t modulus_bits() const { return n.bit_length(); }
};

struct RsaPrivateKey {
  RsaPublicKey pub;
  BigInt d;
  // CRT components.
  BigInt p, q, dp, dq, qinv;
};

/// Generates an RSA key pair with a modulus of exactly `bits` bits, e=65537.
RsaPrivateKey rsa_generate(std::size_t bits, Rng& rng);

/// Raw RSA public operation m^e mod n (input/output as integers < n).
BigInt rsa_public_op(const RsaPublicKey& pub, const BigInt& m);

/// Raw RSA private operation c^d mod n using CRT: `pair` computes c^dp mod p
/// and c^dq mod q (bigint.hpp), by default on the dispatched path.
BigInt rsa_private_op(const RsaPrivateKey& priv, const BigInt& c,
                      ModExpPair pair = mod_exp_pair_dispatched());

/// MGF1 with SHA-256 (RFC 8017 B.2.1).
Bytes mgf1_sha256(BytesView seed, std::size_t length);

/// EMSA-PSS-ENCODE with SHA-256 and a 32-byte salt (RFC 8017 9.1.1).
Bytes pss_encode(BytesView message, std::size_t em_bits, Rng& rng);

/// EMSA-PSS-VERIFY (RFC 8017 9.1.2). Returns true iff consistent.
bool pss_verify(BytesView message, BytesView em, std::size_t em_bits);

/// RSASSA-PSS signature over `message` (the CRT pair dispatched).
Bytes rsa_pss_sign(const RsaPrivateKey& priv, BytesView message, Rng& rng);

/// RSASSA-PSS verification; never throws on attacker-controlled input.
bool rsa_pss_verify(const RsaPublicKey& pub, BytesView message,
                    BytesView signature);

}  // namespace dcpl::crypto
