// X25519 Diffie-Hellman (RFC 7748) over GF(2^255 - 19), 51-bit limbs.
//
// Three paths compute the same function:
//   - x25519_ladder_portable(k, u) runs the Montgomery ladder one field
//     element at a time, on every CPU. It is the fallback and the oracle
//     the other two paths are tested against.
//   - The IFMA ladder (x86-64 builds, CPUs with AVX-512F, VL and IFMA)
//     holds the ladder state [x2, z2, x3, z3] as four 64-bit lanes of one
//     field vector and does each ladder step as three four-lane products
//     with vpmadd52luq/vpmadd52huq.
//   - x25519_public(k) computes k * B on edwards25519 with a signed
//     radix-16 comb over a table of 256 multiples of B, then maps the
//     result to u = (1 + y) / (1 - y). The table is computed on first use
//     from the curve equation (d = -121665/121666, B's y = 4/5) and kept in
//     a function-local static; the portable ladder is its reference in the
//     tests.
// x25519(k, u), and with it every HPKE seal and open, runs the IFMA ladder
// when CPUID reports it and the portable ladder otherwise; the choice is
// made once per process. Every path ends with the same 51-bit field
// inversion, z^(p-2) by the fixed addition chain of 254 squarings and 11
// multiplications, and the same encoding.
//
// NOTE: the portable ladder swaps with masks (fe_cswap); the IFMA ladder
// swaps by a fixed lane permute merged under an all-ones or all-zero mask,
// and its blends and permutes are fixed per step. The comb picks each table
// entry by a masked scan of all eight entries in its row and negates it by
// mask, and the inversion chain is the same for every input. So on every
// path no branch or memory index depends on the scalar. Still, this
// library is a research artifact, not audited constant-time code.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace dcpl::crypto {

constexpr std::size_t kX25519KeySize = 32;

/// An X25519 implementation: X25519(scalar, u) for 32-byte inputs, which
/// clamps the scalar and throws std::invalid_argument on other sizes.
using X25519Ladder = Bytes (*)(BytesView scalar, BytesView u);

/// X25519 on the portable 51-bit ladder.
Bytes x25519_ladder_portable(BytesView scalar, BytesView u);

/// X25519 on the four-lane AVX-512 IFMA ladder, or nullptr where the build
/// is not x86-64 or CPUID lacks AVX-512F, VL or IFMA.
X25519Ladder x25519_ladder_ifma();

/// The ladder x25519() runs: IFMA when available, else portable.
X25519Ladder x25519_ladder_dispatched();

/// X25519(scalar, u): the raw Diffie-Hellman function, on the dispatched
/// ladder.
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
