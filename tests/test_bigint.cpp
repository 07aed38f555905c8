// BigInt arithmetic: identities, division invariants, Montgomery modexp
// against a reference implementation, inverse, gcd, primality.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/csprng.hpp"

namespace dcpl::crypto {
namespace {

BigInt random_bits(std::size_t bits, Rng& rng) {
  Bytes b = rng.bytes((bits + 7) / 8);
  std::size_t excess = b.size() * 8 - bits;
  b[0] &= static_cast<std::uint8_t>(0xff >> excess);
  return BigInt::from_bytes_be(b);
}

TEST(BigInt, BasicConstructionAndHex) {
  EXPECT_TRUE(BigInt{}.is_zero());
  EXPECT_TRUE(BigInt(0).is_zero());
  EXPECT_EQ(BigInt(0x1234).to_hex(), "1234");
  EXPECT_EQ(BigInt::from_hex("deadbeefcafebabe1122334455667788").to_hex(),
            "deadbeefcafebabe1122334455667788");
  EXPECT_EQ(BigInt::from_hex("00000001").to_hex(), "01");
  EXPECT_EQ(BigInt::from_hex("abc").to_hex(), "0abc");
}

TEST(BigInt, BytesRoundTripAndPadding) {
  BigInt v = BigInt::from_hex("0102030405");
  EXPECT_EQ(to_hex(v.to_bytes_be()), "0102030405");
  EXPECT_EQ(to_hex(v.to_bytes_be(8)), "0000000102030405");
  EXPECT_THROW(v.to_bytes_be(4), std::invalid_argument);
  EXPECT_EQ(to_hex(BigInt{}.to_bytes_be()), "00");
}

TEST(BigInt, BitLengthAndBits) {
  EXPECT_EQ(BigInt{}.bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(0xff).bit_length(), 8u);
  EXPECT_EQ((BigInt(1) << 100).bit_length(), 101u);
  BigInt v = BigInt(0b1011);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(100));
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt(1) << 64, BigInt(0xffffffffffffffffULL));
  EXPECT_EQ(BigInt::from_hex("ff"), BigInt(255));
}

TEST(BigInt, AddSubIdentities) {
  XoshiroRng rng(11);
  for (int i = 0; i < 50; ++i) {
    BigInt a = random_bits(256, rng);
    BigInt b = random_bits(200, rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
    EXPECT_EQ(a + BigInt{}, a);
    EXPECT_EQ(a - a, BigInt{});
  }
  EXPECT_THROW(BigInt(1) - BigInt(2), std::invalid_argument);
}

TEST(BigInt, AddCarryChain) {
  // (2^192 - 1) + 1 = 2^192.
  BigInt max = (BigInt(1) << 192) - BigInt(1);
  EXPECT_EQ(max + BigInt(1), BigInt(1) << 192);
}

TEST(BigInt, MulIdentities) {
  XoshiroRng rng(12);
  for (int i = 0; i < 50; ++i) {
    BigInt a = random_bits(300, rng);
    BigInt b = random_bits(300, rng);
    BigInt c = random_bits(100, rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * BigInt(1), a);
    EXPECT_EQ(a * BigInt{}, BigInt{});
  }
}

TEST(BigInt, ShiftsAreMulDivByPowersOfTwo) {
  XoshiroRng rng(13);
  for (int i = 0; i < 20; ++i) {
    BigInt a = random_bits(200, rng);
    for (std::size_t s : {1u, 13u, 63u, 64u, 65u, 130u}) {
      EXPECT_EQ(a << s, a * (BigInt(1) << s));
      EXPECT_EQ((a << s) >> s, a);
    }
  }
}

TEST(BigInt, DivModInvariant) {
  XoshiroRng rng(14);
  for (int i = 0; i < 100; ++i) {
    BigInt a = random_bits(50 + (i * 13) % 700, rng);
    BigInt b = random_bits(1 + (i * 7) % 400, rng);
    if (b.is_zero()) b = BigInt(3);
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigInt, DivModEdgeCases) {
  EXPECT_THROW(BigInt(1) / BigInt{}, std::invalid_argument);
  EXPECT_EQ(BigInt(7) / BigInt(7), BigInt(1));
  EXPECT_EQ(BigInt(7) % BigInt(7), BigInt{});
  EXPECT_EQ(BigInt(6) / BigInt(7), BigInt{});
  EXPECT_EQ(BigInt(6) % BigInt(7), BigInt(6));
  // Knuth-D "add back" territory: divisor with high limb pattern.
  BigInt a = BigInt::from_hex("7fffffffffffffff8000000000000000");
  BigInt b = BigInt::from_hex("80000000000000000000000000000001");
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
}

TEST(BigInt, DivisionStress) {
  // Dividends crafted to exercise qhat correction paths.
  XoshiroRng rng(15);
  for (int i = 0; i < 200; ++i) {
    BigInt b = random_bits(65 + i % 256, rng);
    if (b.is_zero()) continue;
    BigInt q0 = random_bits(1 + i % 128, rng);
    BigInt r0 = random_bits(b.bit_length() - 1, rng);
    if (r0 >= b) r0 = r0 % b;
    BigInt a = q0 * b + r0;
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q, q0);
    EXPECT_EQ(r, r0);
  }
}

// Reference modexp via repeated divmod (no Montgomery).
BigInt naive_mod_exp(const BigInt& base, const BigInt& exp, const BigInt& mod) {
  BigInt result(1);
  BigInt b = base % mod;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % mod;
    if (exp.bit(i)) result = (result * b) % mod;
  }
  return result;
}

TEST(BigInt, MontgomeryMatchesNaiveModExp) {
  XoshiroRng rng(16);
  for (int i = 0; i < 30; ++i) {
    BigInt mod = random_bits(128 + i * 8, rng);
    if (!mod.is_odd()) mod = mod + BigInt(1);
    if (mod <= BigInt(1)) mod = BigInt(3);
    BigInt base = random_bits(200, rng);
    BigInt exp = random_bits(64, rng);
    EXPECT_EQ(base.mod_exp(exp, mod), naive_mod_exp(base, exp, mod))
        << "i=" << i;
  }

  // Every window width mod_exp picks, on exponent lengths that are and are
  // not multiples of the width (a full or partial top window), all-ones
  // exponents (a multiplication in every window), 0 and 1, and 1-, 8- and
  // 16-limb moduli.
  std::vector<BigInt> exps = {BigInt{}, BigInt(1), BigInt(2), BigInt(65537)};
  for (std::size_t k : {2u, 7u, 17u, 23u, 24u, 41u, 79u, 80u, 127u, 239u,
                        240u, 511u, 1023u}) {
    exps.push_back((BigInt(1) << k) - BigInt(1));
  }
  for (std::size_t bits : {512u, 1024u}) {
    exps.push_back(random_bits(bits - 1, rng) + (BigInt(1) << (bits - 1)));
  }
  std::set<std::size_t> widths;
  for (const BigInt& e : exps) {
    widths.insert(Montgomery::window_bits(e.bit_length()));
  }
  EXPECT_EQ(widths, (std::set<std::size_t>{1, 3, 4, 5}));

  for (std::size_t limbs : {1u, 8u, 16u}) {
    BigInt mod = random_bits(64 * limbs - 1, rng) +
                 (BigInt(1) << (64 * limbs - 1));
    mod = mod + BigInt(mod.is_odd() ? 0 : 1);
    ASSERT_EQ(mod.limbs().size(), limbs);
    BigInt base = random_bits(64 * limbs + 17, rng);  // not reduced
    for (const BigInt& e : exps) {
      EXPECT_EQ(base.mod_exp(e, mod), naive_mod_exp(base, e, mod))
          << "limbs=" << limbs << " bits=" << e.bit_length();
    }
  }
}

TEST(BigInt, ModExpSmallKnownValues) {
  EXPECT_EQ(BigInt(2).mod_exp(BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(BigInt(3).mod_exp(BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(BigInt(5).mod_exp(BigInt(117), BigInt(19)), BigInt(1));  // Fermat
  // Even modulus path.
  EXPECT_EQ(BigInt(3).mod_exp(BigInt(4), BigInt(100)), BigInt(81));
}

TEST(BigInt, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p = 2^61 - 1.
  BigInt p = (BigInt(1) << 61) - BigInt(1);
  XoshiroRng rng(17);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
    EXPECT_EQ(a.mod_exp(p - BigInt(1), p), BigInt(1));
  }
}

TEST(BigInt, ModInverse) {
  XoshiroRng rng(18);
  BigInt p = (BigInt(1) << 61) - BigInt(1);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(p - BigInt(1), rng) + BigInt(1);
    BigInt inv = a.mod_inverse(p);
    EXPECT_EQ((a * inv) % p, BigInt(1));
  }
  // Composite modulus with coprime value.
  BigInt n = BigInt(91);  // 7 * 13
  EXPECT_EQ((BigInt(2) * BigInt(2).mod_inverse(n)) % n, BigInt(1));
  EXPECT_THROW(BigInt(7).mod_inverse(n), std::invalid_argument);
  EXPECT_FALSE(BigInt(7).try_mod_inverse(n).has_value());
  EXPECT_FALSE(BigInt{}.try_mod_inverse(n).has_value());
  EXPECT_EQ(BigInt(2).try_mod_inverse(n), BigInt(2).mod_inverse(n));
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(31)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt{}, BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(5), BigInt{}), BigInt(5));
}

TEST(BigInt, RandomBelowIsUniformEnough) {
  XoshiroRng rng(19);
  BigInt bound(1000);
  int low = 0;
  for (int i = 0; i < 2000; ++i) {
    BigInt v = BigInt::random_below(bound, rng);
    ASSERT_LT(v, bound);
    if (v < BigInt(500)) ++low;
  }
  EXPECT_GT(low, 800);
  EXPECT_LT(low, 1200);
}

TEST(BigInt, KnownPrimesAndComposites) {
  XoshiroRng rng(20);
  EXPECT_TRUE(BigInt(2).is_probable_prime(10, rng));
  EXPECT_TRUE(BigInt(65537).is_probable_prime(10, rng));
  EXPECT_TRUE(((BigInt(1) << 61) - BigInt(1)).is_probable_prime(10, rng));
  EXPECT_FALSE(BigInt(1).is_probable_prime(10, rng));
  EXPECT_FALSE(BigInt{}.is_probable_prime(10, rng));
  EXPECT_FALSE(BigInt(65536).is_probable_prime(10, rng));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(BigInt(561).is_probable_prime(10, rng));
  // 2^67 - 1 is composite (193707721 * 761838257287).
  EXPECT_FALSE(((BigInt(1) << 67) - BigInt(1)).is_probable_prime(10, rng));
}

TEST(BigInt, GeneratePrimeHasExactBitLength) {
  XoshiroRng rng(21);
  for (std::size_t bits : {64u, 128u, 256u}) {
    BigInt p = BigInt::generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(p.is_probable_prime(10, rng));
    // Top two bits set.
    EXPECT_TRUE(p.bit(bits - 1));
    EXPECT_TRUE(p.bit(bits - 2));
  }
}


TEST(BigInt, KaratsubaMatchesSchoolbookProperties) {
  // Operands above the Karatsuba threshold (24 limbs = 1536 bits): validate
  // via algebraic identities against the (schoolbook-sized) building blocks.
  XoshiroRng rng(22);
  for (int i = 0; i < 10; ++i) {
    BigInt a = random_bits(2000 + i * 173, rng);
    BigInt b = random_bits(1800 + i * 211, rng);
    BigInt c = random_bits(900, rng);
    // Distributivity ties the big product to smaller (schoolbook) products.
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    // Division inverts multiplication exactly.
    if (!b.is_zero()) {
      EXPECT_EQ((a * b) / b, a);
      EXPECT_EQ((a * b) % b, BigInt{});
    }
  }
}

TEST(BigInt, KaratsubaHugeSquare) {
  // (2^n - 1)^2 = 2^(2n) - 2^(n+1) + 1 — exact closed form at any size.
  for (std::size_t n : {1600u, 4096u, 10000u}) {
    BigInt x = (BigInt(1) << n) - BigInt(1);
    BigInt expected = (BigInt(1) << (2 * n)) - (BigInt(1) << (n + 1)) +
                      BigInt(1);
    EXPECT_EQ(x * x, expected) << n;
  }
}

TEST(BigInt, KaratsubaUnbalancedOperands) {
  XoshiroRng rng(23);
  BigInt big = random_bits(8000, rng);
  BigInt small = random_bits(100, rng);
  // One side below the threshold: must still be exact.
  EXPECT_EQ((big * small) / small, big);
  EXPECT_EQ(big * BigInt(1), big);
}

TEST(BigInt, LowLimbsSplitsCorrectly) {
  XoshiroRng rng(24);
  BigInt a = random_bits(1000, rng);
  for (std::size_t m : {1u, 5u, 15u, 16u, 100u}) {
    BigInt lo = a.low_limbs(m);
    BigInt hi = a >> (64 * m);
    EXPECT_EQ(lo + (hi << (64 * m)), a) << m;
  }
}

}  // namespace
}  // namespace dcpl::crypto
