// BigInt arithmetic: identities, division invariants, Montgomery modexp
// and the Lehmer inverse against reference implementations, primality.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/csprng.hpp"
#include "crypto/rsa.hpp"

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

  // Limb counts around the kernel's compiled widths (8 and 16) and the
  // run-time one, each with three moduli: random with the top bit set,
  // 2^(64k) - 1 (every limb all ones, so t >= n and the final subtraction
  // happen most often) and 2^(64k - 1) + 1 (only the top bit set). Bases
  // 0, 1 and n - 1 sit at the edges; the last is not reduced.
  for (std::size_t limbs : {1u, 2u, 4u, 8u, 9u, 16u, 17u}) {
    const BigInt top = BigInt(1) << (64 * limbs - 1);
    BigInt random_mod = random_bits(64 * limbs - 1, rng) + top;
    random_mod = random_mod + BigInt(random_mod.is_odd() ? 0 : 1);
    for (const BigInt& mod : {random_mod, (top << 1) - BigInt(1),
                              top + BigInt(1)}) {
      ASSERT_EQ(mod.limbs().size(), limbs);
      for (const BigInt& base : {BigInt{}, BigInt(1), mod - BigInt(1),
                                 random_bits(64 * limbs + 17, rng)}) {
        for (const BigInt& e : exps) {
          EXPECT_EQ(base.mod_exp(e, mod), naive_mod_exp(base, e, mod))
              << "mod=" << mod.to_hex() << " base=" << base.to_hex()
              << " bits=" << e.bit_length();
        }
      }
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

// Textbook extended Euclid, one divmod per step, with the cofactor of
// `a` kept as a magnitude and a sign: the oracle for the Lehmer inverse.
std::optional<BigInt> euclid_inverse(const BigInt& a, const BigInt& m) {
  BigInt r0 = m, r1 = a % m;
  BigInt s0{}, s1(1);
  bool neg0 = false, neg1 = false;
  while (!r1.is_zero()) {
    BigInt q, r2;
    BigInt::divmod(r0, r1, q, r2);
    // s2 = s0 - q * s1
    const BigInt qs = q * s1;
    BigInt s2;
    bool neg2 = neg0;
    if (neg0 != neg1) {
      s2 = s0 + qs;
    } else if (s0 >= qs) {
      s2 = s0 - qs;
    } else {
      s2 = qs - s0;
      neg2 = !neg0;
    }
    r0 = r1;
    r1 = r2;
    s0 = s1;
    neg0 = neg1;
    s1 = s2;
    neg1 = neg2;
  }
  if (r0 != BigInt(1)) return std::nullopt;
  BigInt inv = s0 % m;
  if (neg0 && !inv.is_zero()) inv = m - inv;
  return inv;
}

// Checks try_mod_inverse against the oracle, and an inverse by definition.
void expect_inverse_matches(const BigInt& a, const BigInt& m) {
  const std::optional<BigInt> got = a.try_mod_inverse(m);
  const std::optional<BigInt> want = euclid_inverse(a, m);
  ASSERT_EQ(got, want) << "a=" << a.to_hex() << " m=" << m.to_hex();
  if (got) {
    EXPECT_LT(*got, m);
    EXPECT_EQ((a * *got) % m, BigInt(1) % m);
  } else {
    EXPECT_THROW(a.mod_inverse(m), std::invalid_argument);
  }
}

// The Lehmer inverse where it differs from plain Euclid: multi-limb
// remainders, cosequences that stop on the two-quotient test or at the
// int64 limit, the divmod fallback and the single-precision tail.
TEST(BigInt, LehmerInverseMatchesTextbookEuclid) {
  // The key test_rsa.cpp shares (same seed and size).
  ChaChaRng key_rng(0x5151);
  const RsaPrivateKey key = rsa_generate(1024, key_rng);
  const BigInt& n = key.pub.n;
  XoshiroRng rng(25);
  for (int i = 0; i < 20; ++i) {
    expect_inverse_matches(BigInt::random_below(n, rng), n);
  }
  // Multiples of p share a factor with n: no inverse.
  for (int i = 0; i < 5; ++i) {
    const BigInt r = (BigInt::random_below(key.q - BigInt(1), rng) +
                      BigInt(1)) * key.p;
    ASSERT_LT(r, n);
    EXPECT_FALSE(r.try_mod_inverse(n).has_value());
    expect_inverse_matches(r, n);
  }
  EXPECT_EQ(BigInt(1).try_mod_inverse(n), BigInt(1));
  EXPECT_EQ((n - BigInt(1)).try_mod_inverse(n), n - BigInt(1));
  expect_inverse_matches(n + BigInt(5), n);  // not reduced
  expect_inverse_matches(n * BigInt(7) + random_bits(900, rng), n);
  // The first quotient, about n / 3, is far above 2^63: no cosequence
  // step is decided, so a full division step runs.
  expect_inverse_matches(BigInt(3), n);
  expect_inverse_matches(BigInt(0xfffffffffffffffdULL), n);
  // An even modulus: keygen inverts e mod phi(n).
  const BigInt phi = (key.p - BigInt(1)) * (key.q - BigInt(1));
  EXPECT_EQ(BigInt(65537).try_mod_inverse(phi), key.d);
  for (int i = 0; i < 10; ++i) {
    expect_inverse_matches(BigInt::random_below(phi, rng), phi);
  }
  EXPECT_FALSE(BigInt(2).try_mod_inverse(phi).has_value());

  // Consecutive Fibonacci numbers of about 1,024 bits: every quotient is
  // 1, so the cosequences are the longest there are and their entries
  // reach toward the int64 limit.
  BigInt f0(1), f1(1);
  while (f1.bit_length() < 1024) {
    BigInt f2 = f0 + f1;
    f0 = f1;
    f1 = f2;
  }
  expect_inverse_matches(f0, f1);
  expect_inverse_matches(f1, f0);
  expect_inverse_matches(f0 * BigInt(3), f1 * BigInt(3));  // gcd 3

  // Moduli of 1, 2, 9 and 17 limbs, odd and even, against values of every
  // width up to and past the modulus.
  for (std::size_t limbs : {1u, 2u, 9u, 17u}) {
    for (int i = 0; i < 12; ++i) {
      BigInt m = random_bits(64 * limbs - 1, rng) +
                 (BigInt(1) << (64 * limbs - 1));
      if (i % 2 == 0) m = m + BigInt(m.is_odd() ? 1 : 0);  // even half
      ASSERT_EQ(m.limbs().size(), limbs);
      const std::size_t bits = 1 + (i * 67) % (64 * limbs + 40);
      expect_inverse_matches(random_bits(bits, rng), m);
      expect_inverse_matches(BigInt::random_below(m, rng), m);
    }
  }
  expect_inverse_matches(BigInt(5), BigInt(1));  // everything is 0 mod 1
  expect_inverse_matches(BigInt{}, BigInt(1));
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

// Every composite below 2^16 has a prime factor of at most 251, the largest
// trial divisor, so trial division alone decides it, and Miller-Rabin never
// rejects a prime: the answers below 2^16 are exact. Multiples of a
// two-limb prime by each trial divisor reach every remainder run.
TEST(BigInt, TrialDivisionIsExact) {
  XoshiroRng rng(22);
  std::vector<bool> composite(1 << 16, false);
  for (std::size_t i = 2; i < composite.size(); ++i) {
    for (std::size_t j = 2 * i; j < composite.size(); j += i) {
      composite[j] = true;
    }
  }
  for (std::uint64_t n = 0; n < composite.size(); ++n) {
    ASSERT_EQ(BigInt(n).is_probable_prime(4, rng), n >= 2 && !composite[n])
        << "n=" << n;
  }
  const BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(m127.is_probable_prime(10, rng));
  for (std::uint64_t p = 2; p < 256; ++p) {
    if (!composite[p]) {
      EXPECT_FALSE((m127 * BigInt(p)).is_probable_prime(10, rng)) << p;
    }
  }
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
