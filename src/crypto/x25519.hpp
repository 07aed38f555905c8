// X25519 Diffie-Hellman (RFC 7748) over GF(2^255 - 19), 51-bit limbs.
//
// Two kinds of path compute X25519(k, u), each portable and, on x86-64 CPUs
// whose CPUID reports AVX-512F, VL and IFMA, four-lane IFMA; the choice is
// made once per process:
//   - The Montgomery ladder takes any u. x25519_ladder_portable(k, u) runs it
//     one field element at a time on every CPU; it is the fallback and the
//     oracle the other paths are tested against. The IFMA ladder holds the
//     state [x2, z2, x3, z3] as the four 64-bit lanes of one field vector and
//     does each ladder step as three four-lane products with
//     vpmadd52luq/vpmadd52huq. x25519(k, u) runs the dispatched ladder; so
//     does every HPKE open, whose u (enc) is new with every message.
//   - The fixed-base comb takes a point P whose table was built beforehand:
//     16 rows of 8 multiples j * 2^(16i) * P on edwards25519 (15 KiB), built
//     with one field inversion. k * P is then 64 mixed additions and 12
//     doublings, mapped to u = (1 + y) / (1 - y). The IFMA comb holds a point
//     as [X, Y, Z, T] in one field vector, so an addition or a doubling is
//     two four-lane products. B's table (u = 9) is built on first use and
//     kept in a function-local static; x25519_public(k) runs the dispatched
//     comb on it. A comb call given a peer table computes X25519(k, 9) and
//     X25519(k, u) for one k, and both share one inversion: this is the
//     sender half of a DHKEM encapsulation to a long-term key (hpke.hpp).
// x25519_comb_table(u) returns no table, and leaves u to the ladder, for a
// point of the twist, for u = -1 (no edwards25519 image) and for the points
// of order dividing 8. Every path ends with the same field inversion, the
// constant-time safegcd of Bernstein and Yang (10 batches of 59 divsteps on
// signed 62-bit limbs, in the shape of libsecp256k1's modinv64), and the same
// encoding; x25519_field_invert() exposes it to tests, and
// x25519_safegcd_batch() one of its batches.
//
// NOTE: the portable ladder swaps with masks (fe_cswap); the IFMA ladder
// swaps by a fixed lane permute merged under an all-ones or all-zero mask,
// and its blends and permutes are fixed per step. Both combs load all eight
// entries of a row for every digit (the IFMA comb with one fixed 3-lane load
// mask), keep the digit's entry by a mask computed from the digit, and
// negate it by mask; their formulas, permutes and blends are fixed. The
// inversion runs a fixed count of divsteps, each choosing by masks from the
// sign of delta and the low bit of g. So on every path no branch, load mask
// or memory index depends on the scalar. Building a table works
// on the point, which is public. Still, this library is a research
// artifact, not audited constant-time code.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

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

/// A fixed-base comb table for one point of curve25519 (see the file
/// comment). Immutable once built.
struct X25519CombTable;

/// Builds the comb table of the point with u-coordinate `u`, decoded as
/// x25519() decodes it (bit 255 ignored, values of p and above reduced), so
/// the encodings of one field element share a table. Returns nullptr when u
/// is a point of the twist (u^3 + 486662 u^2 + u not a square mod p),
/// u = -1, or a point of order dividing 8. Throws std::invalid_argument
/// when u is not 32 bytes.
std::shared_ptr<const X25519CombTable> x25519_comb_table(BytesView u);

/// What a comb call computes for one scalar k.
struct X25519CombOutput {
  Bytes public_key;  // X25519(k, 9)
  Bytes shared;      // X25519(k, u) for the peer table's u; empty without one
};

/// A fixed-base comb implementation: X25519(k, 9) and, when `peer` is not
/// null, X25519(k, u) for peer's u. Clamps the scalar and throws
/// std::invalid_argument when it is not 32 bytes; counts one x25519
/// operation per output.
using X25519Comb = X25519CombOutput (*)(BytesView scalar,
                                        const X25519CombTable* peer);

/// The comb on the portable 51-bit field code.
X25519CombOutput x25519_comb_portable(BytesView scalar,
                                      const X25519CombTable* peer);

/// The four-lane AVX-512 IFMA comb, or nullptr where the IFMA ladder is.
X25519Comb x25519_comb_ifma();

/// The comb x25519_public() and HPKE seals run: IFMA when available, else
/// portable.
X25519Comb x25519_comb_dispatched();

/// Derives the public key for a 32-byte private scalar: X25519(k, 9), by
/// the dispatched comb.
Bytes x25519_public(BytesView scalar);

/// The field inversion every path above ends with, for tests: z^-1 mod p
/// (0 when z = 0 mod p) as a canonical 32-byte little-endian encoding, for
/// z = sum limbs[i] 2^(51 i) with every limb below 2^54, as the field code
/// holds an element.
Bytes x25519_field_invert(const std::array<std::uint64_t, 5>& limbs);

/// One batch of that inversion, for tests: 59 divsteps from `zeta` on the
/// low 64 bits of f (odd) and g give the batch's matrix [[u, v], [q, r]],
/// scaled by 2^62 and returned as {u, v, q, r}; then (d, e) <- (u d + v e,
/// q d + r e) / 2^62 mod p, in place. d and e hold sum v[i] 2^(62 i), limbs
/// 0..3 in [0, 2^62) and the sign in limb 4; the inversion keeps both in
/// (-2p, p).
std::array<std::int64_t, 4> x25519_safegcd_batch(
    std::int64_t zeta, std::uint64_t f, std::uint64_t g,
    std::array<std::int64_t, 5>& d, std::array<std::int64_t, 5>& e);

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
