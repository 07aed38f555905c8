// X25519 Diffie-Hellman (RFC 7748) over GF(2^255 - 19), 51-bit limbs.
//
// Two paths compute the same function:
//   - x25519(k, u) runs the Montgomery ladder for every u, including u = 9.
//   - x25519_public(k) computes k * B on edwards25519 with a signed
//     radix-16 comb over a table of 256 multiples of B, then maps the
//     result to u = (1 + y) / (1 - y). The table is computed on first use
//     from the curve equation (d = -121665/121666, B's y = 4/5) and kept in
//     a function-local static; the ladder is its reference in the tests.
// Both end with one field inversion, z^(p-2) by the fixed addition chain of
// 254 squarings and 11 multiplications.
//
// NOTE: the ladder swaps with masks (fe_cswap), the comb picks each table
// entry by a masked scan of all eight entries in its row and negates it by
// mask, and the inversion chain is the same for every input, so no branch
// or memory index depends on the scalar. Still, this library is a research
// artifact, not audited constant-time code.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace dcpl::crypto {

constexpr std::size_t kX25519KeySize = 32;

/// X25519(scalar, u): the raw Diffie-Hellman function.
Bytes x25519(BytesView scalar, BytesView u);

/// Derives the public key for a 32-byte private scalar: X25519(k, 9), by
/// the fixed-base comb.
Bytes x25519_public(BytesView scalar);

/// An X25519 key pair.
struct X25519KeyPair {
  Bytes private_key;  // 32 bytes, stored unclamped; clamping happens in use
  Bytes public_key;   // 32 bytes

  static X25519KeyPair generate(Rng& rng);

  /// Deterministic derivation from an input seed (HKDF-based), used by HPKE
  /// DeriveKeyPair and by tests.
  static X25519KeyPair derive(BytesView seed);
};

/// Shared secret X25519(my_private, their_public). Fails on the all-zero
/// output (small-order point), per RFC 7748 §6.1 guidance.
Result<Bytes> x25519_shared(BytesView private_key, BytesView peer_public);

}  // namespace dcpl::crypto
