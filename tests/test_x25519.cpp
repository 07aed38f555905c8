// X25519 vectors from RFC 7748 §5.2 and §6.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/csprng.hpp"
#include "crypto/x25519.hpp"

namespace dcpl::crypto {
namespace {

TEST(X25519, Rfc7748Vector1) {
  Bytes scalar = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  Bytes u = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(to_hex(x25519(scalar, u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  Bytes scalar = from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  Bytes u = from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(to_hex(x25519(scalar, u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

// RFC 7748 §6.1 Diffie-Hellman vectors.
TEST(X25519, Rfc7748DiffieHellman) {
  Bytes alice_priv = from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  Bytes bob_priv = from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  Bytes alice_pub = x25519_public(alice_priv);
  Bytes bob_pub = x25519_public(bob_priv);
  EXPECT_EQ(to_hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  auto k1 = x25519_shared(alice_priv, bob_pub);
  auto k2 = x25519_shared(bob_priv, alice_pub);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(k1.value(), k2.value());
  EXPECT_EQ(to_hex(k1.value()),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, SharedSecretAgreesForRandomKeys) {
  ChaChaRng rng(4242);
  for (int i = 0; i < 8; ++i) {
    auto a = X25519KeyPair::generate(rng);
    auto b = X25519KeyPair::generate(rng);
    auto k1 = x25519_shared(a.private_key, b.public_key);
    auto k2 = x25519_shared(b.private_key, a.public_key);
    ASSERT_TRUE(k1.ok());
    ASSERT_TRUE(k2.ok());
    EXPECT_EQ(k1.value(), k2.value());
  }
}

// The seven standard encodings of small-order u: 0, 1, two points of
// order 8, p - 1, p and p + 1. Any clamped scalar is a multiple of 8, so
// X25519 maps each of them, with or without bit 255 set, to zero.
std::vector<Bytes> small_order_points() {
  std::vector<Bytes> points;
  for (const char* hex :
       {"0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"}) {
    Bytes u = from_hex(hex);
    points.push_back(u);
    u[31] |= 0x80;
    points.push_back(u);
  }
  return points;
}

// The ladders available on this CPU: portable always, IFMA where CPUID
// reports it.
std::vector<X25519Ladder> ladders() {
  std::vector<X25519Ladder> all = {x25519_ladder_portable};
  if (X25519Ladder ifma = x25519_ladder_ifma()) all.push_back(ifma);
  return all;
}

TEST(X25519, RejectsLowOrderPoint) {
  ChaChaRng rng(1);
  auto kp = X25519KeyPair::generate(rng);
  const Bytes zero(32, 0);
  for (const Bytes& u : small_order_points()) {
    for (X25519Ladder ladder : ladders()) {
      EXPECT_EQ(to_hex(ladder(kp.private_key, u)), to_hex(zero))
          << "u=" << to_hex(u);
    }
    EXPECT_FALSE(x25519_shared(kp.private_key, u).ok()) << "u=" << to_hex(u);
  }
}

TEST(X25519, ClampingIgnoresStrayBits) {
  ChaChaRng rng(2);
  Bytes sk = rng.bytes(32);
  Bytes sk2 = sk;
  sk2[0] |= 0x07;   // low bits are cleared by clamping
  sk2[31] |= 0x80;  // top bit is cleared by clamping
  Bytes sk3 = sk;
  sk3[0] &= 0xf8;
  sk3[31] = static_cast<std::uint8_t>((sk3[31] & 0x7f) | 0x40);
  EXPECT_EQ(x25519_public(sk3), x25519_public(sk));  // sk3 is clamp(sk)
  // Clamping clears exactly the bits sk2 set, so sk and sk2 clamp alike.
  Bytes c1 = sk, c2 = sk2;
  for (Bytes* c : {&c1, &c2}) {
    (*c)[0] &= 248;
    (*c)[31] = static_cast<std::uint8_t>(((*c)[31] & 127) | 64);
  }
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(x25519_public(sk), x25519_public(sk2));
}

// The combs available on this CPU: portable always, IFMA where CPUID
// reports it.
std::vector<X25519Comb> combs() {
  std::vector<X25519Comb> all = {x25519_comb_portable};
  if (X25519Comb ifma = x25519_comb_ifma()) all.push_back(ifma);
  return all;
}

TEST(X25519, RejectsWrongInputSizes) {
  for (X25519Ladder ladder : ladders()) {
    EXPECT_THROW(ladder(Bytes(31), Bytes(32)), std::invalid_argument);
    EXPECT_THROW(ladder(Bytes(32), Bytes(33)), std::invalid_argument);
  }
  EXPECT_THROW(x25519(Bytes(31), Bytes(32)), std::invalid_argument);
  EXPECT_THROW(x25519_public(Bytes(31)), std::invalid_argument);
  Bytes nine(32, 0);
  nine[0] = 9;
  const auto table = x25519_comb_table(nine);
  for (X25519Comb comb : combs()) {
    EXPECT_THROW(comb(Bytes(31), nullptr), std::invalid_argument);
    EXPECT_THROW(comb(Bytes(33), table.get()), std::invalid_argument);
  }
  EXPECT_THROW(x25519_comb_table(Bytes(31)), std::invalid_argument);
}

// Scalars that clamp to the smallest (2^254) and largest (2^255 - 8)
// clamped values.
std::vector<Bytes> edge_scalars() {
  Bytes only_clamped_bits(32, 0);
  only_clamped_bits[0] = 0x07;
  only_clamped_bits[31] = 0x80;
  return {Bytes(32, 0x00), Bytes(32, 0xff), only_clamped_bits};
}

// The bases the comb is checked on: B (u = 9) and its non-canonical
// encoding 9 + p; seeded public keys, which lie in the prime-order
// subgroup, and the same with bit 255 set; and seeded random u that get a
// table, which mostly carry an 8-torsion component.
std::vector<Bytes> comb_bases() {
  std::vector<Bytes> bases = {
      from_hex(
          "0900000000000000000000000000000000000000000000000000000000000000"),
      from_hex(
          "f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")};
  ChaChaRng rng(9);
  for (int i = 0; i < 3; ++i) {
    Bytes u = X25519KeyPair::generate(rng).public_key;
    bases.push_back(u);
    u[31] |= 0x80;
    bases.push_back(u);
  }
  for (int found = 0; found < 3;) {
    const Bytes u = rng.bytes(32);
    if (x25519_comb_table(u) != nullptr) {
      bases.push_back(u);
      ++found;
    }
  }
  return bases;
}

class X25519CombPath : public ::testing::TestWithParam<std::string> {};

// Each comb against the portable ladder on every base: X25519(k, 9) alone
// and paired with X25519(k, u), and x25519_public (the dispatched comb) on
// B. The edge scalars and 1,000 seeded ones reach every table row with
// every signed digit.
TEST_P(X25519CombPath, FixedBaseMatchesLadder) {
  const X25519Comb comb =
      GetParam() == "portable" ? x25519_comb_portable : x25519_comb_ifma();
  if (comb == nullptr) GTEST_SKIP() << "CPU lacks AVX-512F, VL or IFMA";

  Bytes nine(32, 0);
  nine[0] = 9;
  std::vector<Bytes> scalars = edge_scalars();
  ChaChaRng rng(7748);
  for (int i = 0; i < 1000; ++i) scalars.push_back(rng.bytes(32));
  std::vector<std::string> publics;
  for (const Bytes& k : scalars) {
    publics.push_back(to_hex(x25519_ladder_portable(k, nine)));
    ASSERT_EQ(to_hex(x25519_public(k)), publics.back()) << "k=" << to_hex(k);
    const X25519CombOutput alone = comb(k, nullptr);
    ASSERT_EQ(to_hex(alone.public_key), publics.back()) << "k=" << to_hex(k);
    ASSERT_TRUE(alone.shared.empty());
  }
  for (const Bytes& u : comb_bases()) {
    const auto table = x25519_comb_table(u);
    ASSERT_NE(table, nullptr) << "u=" << to_hex(u);
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      const Bytes& k = scalars[i];
      const X25519CombOutput pair = comb(k, table.get());
      ASSERT_EQ(to_hex(pair.public_key), publics[i]) << "k=" << to_hex(k);
      ASSERT_EQ(to_hex(pair.shared), to_hex(x25519_ladder_portable(k, u)))
          << "k=" << to_hex(k) << " u=" << to_hex(u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Combs, X25519CombPath,
                         ::testing::Values("portable", "ifma"),
                         [](const auto& info) { return info.param; });

// u (32 bytes, little-endian) as x25519 decodes it: bit 255 cleared and the
// value reduced mod p.
BigInt decode_u(const Bytes& u, const BigInt& p) {
  Bytes be(u.rbegin(), u.rend());
  be[0] &= 0x7f;
  return BigInt::from_bytes_be(be) % p;
}

// A table exists exactly for a point of the curve, u^3 + 486662 u^2 + u a
// nonzero square mod p (Euler's criterion), that is not a small-order
// point; every other u is the ladder's. Among the small-order encodings,
// with and without bit 255, is p - 1, which has no edwards25519 image.
TEST(X25519, CombTableExistsExactlyForLargeOrderCurvePoints) {
  const BigInt p = BigInt::from_hex(
      "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed");
  const BigInt half = (p - 1) >> 1;
  std::vector<BigInt> small;
  for (const Bytes& u : small_order_points()) {
    small.push_back(decode_u(u, p));
    EXPECT_EQ(x25519_comb_table(u), nullptr) << "u=" << to_hex(u);
  }
  std::vector<Bytes> us = small_order_points();
  ChaChaRng rng(486662);
  for (int i = 0; i < 400; ++i) us.push_back(rng.bytes(32));
  int tables = 0;
  for (const Bytes& u : us) {
    const BigInt x = decode_u(u, p);
    const BigInt f = (x * x % p * x + BigInt(486662) * x % p * x + x) % p;
    const bool expected = !f.is_zero() && f.mod_exp(half, p) == BigInt(1) &&
                          std::find(small.begin(), small.end(), x) ==
                              small.end();
    const bool has_table = x25519_comb_table(u) != nullptr;
    EXPECT_EQ(has_table, expected) << "u=" << to_hex(u);
    tables += has_table;
  }
  // About half of all u lie on the curve, the rest on its twist.
  EXPECT_GT(tables, 150);
  EXPECT_LT(tables, 250);
}

// The IFMA ladder against the portable one: seeded pairs, and every edge
// scalar against u values that stress the limb bounds (non-canonical
// encodings up to 2^256 - 1, which decode with bit 255 cleared) and the
// small-order points.
TEST(X25519, IfmaLadderMatchesPortable) {
  const X25519Ladder ifma = x25519_ladder_ifma();
  if (ifma == nullptr) GTEST_SKIP() << "CPU lacks AVX-512F, VL or IFMA";

  std::vector<Bytes> us = small_order_points();
  for (const char* hex :
       {"0900000000000000000000000000000000000000000000000000000000000000",
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"}) {
    us.push_back(from_hex(hex));
  }
  ChaChaRng rng(25519);
  std::vector<Bytes> scalars = edge_scalars();
  for (int i = 0; i < 16; ++i) scalars.push_back(rng.bytes(32));
  for (const Bytes& k : scalars) {
    for (const Bytes& u : us) {
      ASSERT_EQ(to_hex(ifma(k, u)), to_hex(x25519_ladder_portable(k, u)))
          << "k=" << to_hex(k) << " u=" << to_hex(u);
    }
  }
  for (int i = 0; i < 4000; ++i) {
    const Bytes k = rng.bytes(32), u = rng.bytes(32);
    ASSERT_EQ(to_hex(ifma(k, u)), to_hex(x25519_ladder_portable(k, u)))
        << "k=" << to_hex(k) << " u=" << to_hex(u);
  }
}

// The field inversion every path ends with (the safegcd) against z^(p - 2)
// mod p by BigInt::mod_exp: the edges, limbs at their 2^54 input bound, z
// that need the most divsteps a search found, and 100,000 seeded z, half
// with limbs below 2^51 and half below 2^54 (most of those encode values
// above p, as the ladders' and combs' outputs do).
TEST(X25519, FieldInverseMatchesModExp) {
  using Limbs = std::array<std::uint64_t, 5>;
  const BigInt p = (BigInt(1) << 255) - BigInt(19);
  const BigInt p_minus_2 = p - BigInt(2);
  constexpr std::uint64_t k51 = (std::uint64_t{1} << 51) - 1;
  constexpr std::uint64_t k54 = (std::uint64_t{1} << 54) - 1;
  const auto oracle = [&](const Limbs& z) {
    BigInt v;
    for (int i = 4; i >= 0; --i) v = (v << 51) + BigInt(z[i]);
    Bytes le = v.mod_exp(p_minus_2, p).to_bytes_be(32);
    std::reverse(le.begin(), le.end());
    return to_hex(le);
  };
  const auto limbs_of = [&](std::string_view hex) {
    const BigInt v = BigInt::from_hex(hex);
    Limbs z;
    for (int i = 0; i < 5; ++i) {
      const BigInt limb = (v >> (51 * i)) % (BigInt(1) << 51);
      z[i] = limb.is_zero() ? 0 : limb.limbs()[0];
    }
    return z;
  };
  std::vector<Limbs> zs = {
      {0, 0, 0, 0, 0},
      {1, 0, 0, 0, 0},
      {2, 0, 0, 0, 0},
      {19, 0, 0, 0, 0},
      {k51 - 19, k51, k51, k51, k51},  // p - 1
      {k51 - 18, k51, k51, k51, k51},  // p
      {k51 - 17, k51, k51, k51, k51},  // p + 1
      {k51, k51, k51, k51, k51},       // 2^255 - 1
      {k54, k54, k54, k54, k54},
      {k54, 0, 0, 0, 0},
      {0, 0, 0, 0, k54},
      {k54, 0, k54, 0, k54},
      {0, k54, 0, k54, 0},
      {k54, k51, k51, k51, k51},
      // Random z need 509-529 of the 590 divsteps; these need 536-538, more
      // than nine batches of 59 (531) run.
      limbs_of("121d67623ee0adab325cec34ee531aa223fae49818e18193fb12181b02ccd7e3"),
      limbs_of("3678ddcc686c81aca0c273b329889cb82a16686f20cb4cd42f9da72867f7be1d"),
      limbs_of("7720733536381fc188b43bba17473bb8c2e63a6cafc6f8e4fb6c029ce4750d9d"),
  };
  XoshiroRng rng(0x1a7e);
  for (int i = 0; i < 100000; ++i) {
    Limbs z;
    for (std::uint64_t& limb : z) limb = rng.u64() & (i % 2 == 0 ? k51 : k54);
    zs.push_back(z);
  }
  for (const Limbs& z : zs) {
    ASSERT_EQ(to_hex(x25519_field_invert(z)), oracle(z))
        << "limbs " << z[0] << " " << z[1] << " " << z[2] << " " << z[3] << " "
        << z[4];
  }
}

TEST(X25519, DispatchFollowsCpuid) {
  const X25519Ladder ifma = x25519_ladder_ifma();
  EXPECT_EQ(x25519_ladder_dispatched(),
            ifma != nullptr ? ifma : x25519_ladder_portable);
  const X25519Comb comb_ifma = x25519_comb_ifma();
  EXPECT_EQ(comb_ifma != nullptr, ifma != nullptr);
  EXPECT_EQ(x25519_comb_dispatched(),
            comb_ifma != nullptr ? comb_ifma : x25519_comb_portable);
}

TEST(X25519, DeriveIsDeterministic) {
  auto a = X25519KeyPair::derive(to_bytes("seed-material"));
  auto b = X25519KeyPair::derive(to_bytes("seed-material"));
  EXPECT_EQ(a.private_key, b.private_key);
  EXPECT_EQ(a.public_key, b.public_key);
  auto c = X25519KeyPair::derive(to_bytes("other"));
  EXPECT_NE(a.public_key, c.public_key);
}


// RFC 7748 §5.2 iterated vector: k = X25519(k, u); u = old k.
TEST(X25519, Rfc7748IteratedVector) {
  Bytes k = from_hex(
      "0900000000000000000000000000000000000000000000000000000000000000");
  Bytes u = k;
  for (int i = 0; i < 1; ++i) {
    Bytes next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(to_hex(k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

TEST(X25519, Rfc7748IteratedVector1000) {
  Bytes k = from_hex(
      "0900000000000000000000000000000000000000000000000000000000000000");
  Bytes u = k;
  for (int i = 0; i < 1000; ++i) {
    Bytes next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(to_hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

}  // namespace
}  // namespace dcpl::crypto
