// RSA keygen/raw ops, EMSA-PSS, RSASSA-PSS, and blind signatures.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/blind_rsa.hpp"
#include "crypto/csprng.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace dcpl::crypto {
namespace {

// The process's first dispatch of the CRT pair, from 4 threads at once: each
// runs rsa_private_op on the dispatched pair, whose CPUID probe runs on first
// use. Defined first, so it runs before any other test has dispatched; its
// key comes from a XoshiroRng, which hashes nothing, so key generation
// dispatches nothing either. The thread-sanitize job runs it.
TEST(Rsa, FirstDispatchFromFourThreads) {
  XoshiroRng rng(1024);
  const RsaPrivateKey key = rsa_generate(1024, rng);
  const BigInt c = BigInt::random_below(key.pub.n, rng);
  const BigInt want = c.mod_exp(key.d, key.pub.n);
  std::atomic<int> ready{0};
  std::vector<BigInt> got(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) {
      }
      got[t] = rsa_private_op(key, c);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(got[t], want) << "thread " << t;
}

// Key generation is the slow part; share one key across the suite.
const RsaPrivateKey& test_key() {
  static const RsaPrivateKey key = [] {
    ChaChaRng rng(0x5151);
    return rsa_generate(1024, rng);
  }();
  return key;
}

TEST(Rsa, KeyHasExpectedShape) {
  const auto& key = test_key();
  EXPECT_EQ(key.pub.modulus_bits(), 1024u);
  EXPECT_EQ(key.pub.e, BigInt(65537));
  EXPECT_EQ(key.p * key.q, key.pub.n);
  EXPECT_NE(key.p, key.q);
}

// SHA-256 of each key component's big-endian bytes, recorded from the
// library before the product-scanning Montgomery kernel and the Lehmer
// inverse: key generation must take the same Miller-Rabin decisions, the
// same RNG draws and the same inverses.
TEST(Rsa, KeyGenerationGolden) {
  const auto& key = test_key();
  const auto digest = [](const BigInt& v) {
    return to_hex(Sha256::hash(v.to_bytes_be()));
  };
  EXPECT_EQ(digest(key.pub.n),
            "418ec409465423f00898d1564846292a0603927acd392b4e22ec32cb4796e097");
  EXPECT_EQ(digest(key.d),
            "db4842b8a9150cf3c87882a177a3f3fcde18a214ce9fdec2323fe9c86a1ed429");
  EXPECT_EQ(digest(key.p),
            "223db5c7a23ed5f8b0544e107e9444c3fa4b6921aa9e9117170c0cddf4176c23");
  EXPECT_EQ(digest(key.q),
            "049df5b4cd577604562f34944fea17efa2d13799da7bb53b0789f06b1a2cba43");
  EXPECT_EQ(digest(key.dp),
            "ec3372b63a0c160c8a44b64773ed891cc172f4345d68f2fc7afe907ef909ab1b");
  EXPECT_EQ(digest(key.dq),
            "7e87fc8a8c8e764e94a23d61f9a3a8b242816c661c1d99348b3448bc863d4edf");
  EXPECT_EQ(digest(key.qinv),
            "befb061013b9958b39501d2723e2774ddfbb435eebbd036756938052b9911085");
}

// The CRT pair paths this CPU runs: portable, and IFMA where CPUID has it.
std::vector<ModExpPair> pair_paths() {
  std::vector<ModExpPair> all = {mod_exp_pair_portable};
  if (ModExpPair ifma = mod_exp_pair_ifma()) all.push_back(ifma);
  return all;
}

TEST(Rsa, RawRoundTrip) {
  const auto& key = test_key();
  for (ModExpPair pair : pair_paths()) {
    ChaChaRng rng(1);
    for (int i = 0; i < 5; ++i) {
      BigInt m = BigInt::random_below(key.pub.n, rng);
      BigInt c = rsa_public_op(key.pub, m);
      EXPECT_EQ(rsa_private_op(key, c, pair), m);
      // And the other direction (sign then verify).
      BigInt s = rsa_private_op(key, m, pair);
      EXPECT_EQ(rsa_public_op(key.pub, s), m);
    }
  }
}

TEST(Rsa, CrtMatchesPlainExponentiation) {
  const auto& key = test_key();
  for (ModExpPair pair : pair_paths()) {
    ChaChaRng rng(2);
    BigInt c = BigInt::random_below(key.pub.n, rng);
    EXPECT_EQ(rsa_private_op(key, c, pair), c.mod_exp(key.d, key.pub.n));
  }
}

TEST(Rsa, DispatchFollowsCpuid) {
  const ModExpPair ifma = mod_exp_pair_ifma();
  EXPECT_EQ(mod_exp_pair_dispatched(),
            ifma != nullptr ? ifma : mod_exp_pair_portable);
}

// The IFMA pair against two Montgomery::mod_exp calls. On four seeded
// RSA-1024 keys: bases 0, 1, p - 1, q - 1, unreduced ones (p, p + 1, n - 1
// and one above n) and random ones, under the key's (dp, dq), exponents 0, 1,
// 2^k - 1 at each window-width boundary, all-ones 512-bit and random, and
// pairs of exponents of different lengths (the shorter one padded with zero
// windows). Then 8-limb moduli whose limbs are all ones or whose top limb is
// small, where the carries ripple furthest, and moduli the pair hands to the
// portable path (other limb counts, even) against that path.
TEST(Rsa, IfmaPairMatchesMontgomery) {
  const ModExpPair ifma = mod_exp_pair_ifma();
  if (ifma == nullptr) GTEST_SKIP() << "CPU lacks AVX-512F, VL or IFMA";
  const BigInt one(1);
  const auto ones = [&](std::size_t bits) { return (one << bits) - one; };
  const auto matches = [&](const BigInt& c, const BigInt& e1,
                           const BigInt& n1, const BigInt& e2,
                           const BigInt& n2) {
    const std::array<BigInt, 2> got = ifma(c, e1, n1, e2, n2);
    return got[0] == Montgomery(n1).mod_exp(c, e1) &&
           got[1] == Montgomery(n2).mod_exp(c, e2);
  };
  const auto describe = [](const BigInt& c, const BigInt& e1,
                           const BigInt& e2) {
    return "c=" + c.to_hex() + " e1=" + e1.to_hex() + " e2=" + e2.to_hex();
  };

  std::vector<RsaPrivateKey> keys = {test_key()};
  for (std::uint64_t seed : {1, 2, 3}) {
    ChaChaRng rng(seed);
    keys.push_back(rsa_generate(1024, rng));
  }
  ChaChaRng rng(0x1f3a);
  for (const RsaPrivateKey& key : keys) {
    std::vector<BigInt> bases = {BigInt(0),
                                 one,
                                 key.p - one,
                                 key.q - one,
                                 key.p,
                                 key.p + one,
                                 key.pub.n - one,
                                 key.pub.n + BigInt(7)};
    for (int i = 0; i < 4; ++i) {
      bases.push_back(BigInt::random_below(key.pub.n, rng));
    }
    std::vector<BigInt> exps = {BigInt(0), one, BigInt(2)};
    for (std::size_t k : {2, 5, 23, 24, 79, 80, 239, 240, 511, 512}) {
      exps.push_back(ones(k));
    }
    exps.push_back(BigInt::random_below(one << 512, rng));
    std::vector<std::pair<BigInt, BigInt>> pairs = {{key.dp, key.dq},
                                                    {key.dq, key.dp}};
    for (std::size_t i = 0; i < exps.size(); ++i) {
      pairs.emplace_back(exps[i], exps[i]);
      pairs.emplace_back(exps[i], exps[(i + 5) % exps.size()]);
    }
    for (const BigInt& c : bases) {
      for (const auto& [e1, e2] : pairs) {
        ASSERT_TRUE(matches(c, e1, key.p, e2, key.q)) << describe(c, e1, e2);
      }
    }
    for (int i = 0; i < 50; ++i) {
      const BigInt c = BigInt::random_below(key.pub.n, rng);
      const BigInt e1 = BigInt::random_below(one << rng.below(513), rng);
      const BigInt e2 = BigInt::random_below(one << rng.below(513), rng);
      ASSERT_TRUE(matches(c, e1, key.p, e2, key.q)) << describe(c, e1, e2);
    }
  }

  // 8-limb moduli at the edges: all-ones limbs, and a top limb of 1 or 2^63.
  const std::vector<BigInt> edge_moduli = {ones(512), (one << 448) + one,
                                           (one << 511) + one};
  for (const BigInt& n1 : edge_moduli) {
    for (const BigInt& n2 : edge_moduli) {
      for (const BigInt& c : {n1 - one, ones(512), ones(1024),
                              BigInt::random_below(n1, rng)}) {
        ASSERT_TRUE(matches(c, ones(512), n1, keys[0].dp, n2))
            << "n1=" << n1.to_hex() << " n2=" << n2.to_hex() << " "
            << describe(c, ones(512), keys[0].dp);
      }
    }
  }

  // Other shapes take the portable path.
  const BigInt p = keys[0].p;
  const std::vector<std::pair<BigInt, BigInt>> other_moduli = {
      {ones(448), p},       {p, ones(576)},      {keys[0].pub.n, p},
      {p - one, keys[0].q}, {p, keys[0].q - one}};
  for (const auto& [n1, n2] : other_moduli) {
    const BigInt c = BigInt::random_below(keys[0].pub.n, rng);
    EXPECT_EQ(ifma(c, keys[0].dp, n1, keys[0].dq, n2),
              mod_exp_pair_portable(c, keys[0].dp, n1, keys[0].dq, n2))
        << "n1=" << n1.to_hex() << " n2=" << n2.to_hex();
  }
}

TEST(Rsa, RawOpsRejectOutOfRange) {
  const auto& key = test_key();
  EXPECT_THROW(rsa_public_op(key.pub, key.pub.n), std::invalid_argument);
  EXPECT_THROW(rsa_private_op(key, key.pub.n + BigInt(1)),
               std::invalid_argument);
}

TEST(Mgf1, KnownProperties) {
  // MGF1 output is deterministic, prefix-consistent, and length-exact.
  Bytes seed = to_bytes("seed");
  Bytes m40 = mgf1_sha256(seed, 40);
  Bytes m20 = mgf1_sha256(seed, 20);
  EXPECT_EQ(m40.size(), 40u);
  EXPECT_EQ(Bytes(m40.begin(), m40.begin() + 20), m20);
  EXPECT_NE(mgf1_sha256(to_bytes("seed2"), 40), m40);
  EXPECT_TRUE(mgf1_sha256(seed, 0).empty());
}

TEST(Pss, EncodeVerifyRoundTrip) {
  ChaChaRng rng(3);
  Bytes msg = to_bytes("attack at dawn");
  for (std::size_t em_bits : {1023u, 1024u, 2047u}) {
    Bytes em = pss_encode(msg, em_bits, rng);
    EXPECT_EQ(em.size(), (em_bits + 7) / 8);
    EXPECT_TRUE(pss_verify(msg, em, em_bits));
    EXPECT_FALSE(pss_verify(to_bytes("attack at dusk"), em, em_bits));
  }
}

TEST(Pss, VerifyRejectsMalformedEncodings) {
  ChaChaRng rng(4);
  Bytes msg = to_bytes("m");
  Bytes em = pss_encode(msg, 1023, rng);
  // Wrong trailer byte.
  Bytes bad = em;
  bad.back() = 0xcc;
  EXPECT_FALSE(pss_verify(msg, bad, 1023));
  // Flipped hash byte.
  bad = em;
  bad[em.size() - 2] ^= 1;
  EXPECT_FALSE(pss_verify(msg, bad, 1023));
  // Wrong length.
  EXPECT_FALSE(pss_verify(msg, BytesView(em).first(em.size() - 1), 1023));
  // Top bits not cleared.
  bad = em;
  bad[0] |= 0x80;
  EXPECT_FALSE(pss_verify(msg, bad, 1023));
}

TEST(Pss, SaltRandomizesEncoding) {
  ChaChaRng rng(5);
  Bytes msg = to_bytes("same message");
  Bytes em1 = pss_encode(msg, 1023, rng);
  Bytes em2 = pss_encode(msg, 1023, rng);
  EXPECT_NE(em1, em2);  // fresh salt each time
  EXPECT_TRUE(pss_verify(msg, em1, 1023));
  EXPECT_TRUE(pss_verify(msg, em2, 1023));
}

TEST(RsaPss, SignVerify) {
  const auto& key = test_key();
  ChaChaRng rng(6);
  Bytes msg = to_bytes("hello pss");
  Bytes sig = rsa_pss_sign(key, msg, rng);
  EXPECT_EQ(sig.size(), key.pub.modulus_bytes());
  EXPECT_TRUE(rsa_pss_verify(key.pub, msg, sig));
  EXPECT_FALSE(rsa_pss_verify(key.pub, to_bytes("hello PSS"), sig));
  Bytes bad = sig;
  bad[10] ^= 1;
  EXPECT_FALSE(rsa_pss_verify(key.pub, msg, bad));
  EXPECT_FALSE(rsa_pss_verify(key.pub, msg, Bytes(sig.size() - 1)));
}

// Recorded from the library before the product-scanning kernel: pins the
// CRT signature byte for byte, and the salt draw.
TEST(RsaPss, SignGolden) {
  ChaChaRng rng(0x9551);
  Bytes sig = rsa_pss_sign(test_key(), to_bytes("pss golden"), rng);
  EXPECT_EQ(to_hex(sig),
            "2e139a44ba7cbe38f02eafe092dead76ff7a785561bfef009d84651028e15faa"
            "5dd8800b40f2be0475fb897ba1a378ada4a0cc57fbeb31b2573f52bbbb3dffc0"
            "9f517447b15204965642410d77bb0c8b711cdf9856f9f85dc8afee7a8f8d6670"
            "c3b8330d647596beb53788c6ed13f6ddb9d65be96789d06f61327b30bfe73a47");
  EXPECT_EQ(to_hex(rng.bytes(8)), "318708166130377e");
}

TEST(RsaPss, VerifyRejectsSignatureGeN) {
  const auto& key = test_key();
  Bytes too_big = key.pub.n.to_bytes_be(key.pub.modulus_bytes());
  EXPECT_FALSE(rsa_pss_verify(key.pub, to_bytes("m"), too_big));
}

TEST(BlindRsa, FullProtocolRoundTrip) {
  const auto& key = test_key();
  ChaChaRng rng(7);
  Bytes msg = to_bytes("token-nonce-123");

  BlindingState state = blind(key.pub, msg, rng);
  EXPECT_EQ(state.blinded_message.size(), key.pub.modulus_bytes());

  auto blind_sig = blind_sign(key, state.blinded_message);
  ASSERT_TRUE(blind_sig.ok());

  auto sig = finalize(key.pub, msg, state, blind_sig.value());
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(blind_verify(key.pub, msg, sig.value()));
  EXPECT_FALSE(blind_verify(key.pub, to_bytes("token-nonce-124"), sig.value()));
}

// blind() draws r until it is invertible mod n and keeps r^-1. These bytes
// were recorded when it tested gcd(r, n) == 1 separately and then inverted
// r; the single-pass inverse must consume the same draws (the next draw
// matches too) and produce the same state.
TEST(BlindRsa, BlindingStateGolden) {
  const auto& key = test_key();
  ChaChaRng rng(0xb11d);
  BlindingState state = blind(key.pub, to_bytes("blind golden"), rng);
  EXPECT_EQ(to_hex(state.blinded_message),
            "68427fd4767a4c4a0f31c8b8997bb7a93a64c5a4db6d0bb804d4eaaff11aa000"
            "f83e116acba65f07816d7c3b4e62f22080e5d101e4944e6273970414aa59166e"
            "a154c25554f735406b6654754353aad828f5725b04ea638e754f58ac286afa6a"
            "b4cd814fe16b73169998fc6df8a974760a2d6ecf0244dc474d1a2a415b25de75");
  EXPECT_EQ(to_hex(state.inv.to_bytes_be(key.pub.modulus_bytes())),
            "3940493f0043fcd4f70de1e63c54cf8a1bdf6836d80a9dc0b6d6009c89b9b218"
            "28d9a72b724fe97461d1c68f8902a0f918f16181df69f3b4eb91f6286c1e044c"
            "3d350eaad3ebdfb763a5b9e3c63d6a34e25a567e16cddfc48a676473992a373c"
            "61e4dc7813619d6184e4f9c9f1e7a48642b208f7f17289debe72b9bb9ae60e95");
  EXPECT_EQ(to_hex(rng.bytes(8)), "613bae7e1b1637a3");
}

// The issuer's signature on BlindingStateGolden's blinded message,
// recorded from the library before the product-scanning kernel.
TEST(BlindRsa, BlindSignGolden) {
  const auto& key = test_key();
  ChaChaRng rng(0xb11d);
  BlindingState state = blind(key.pub, to_bytes("blind golden"), rng);
  auto sig = blind_sign(key, state.blinded_message);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(to_hex(sig.value()),
            "5a6c03daa48d944dcc12aae7e4b3e93fdd0412f240d9321dc16c76b59d7e3ae4"
            "a658c9576cc389f1811ced890c84e970b94fb074f19a63f61dfecd2827e2fc63"
            "4b0cd411fd28f3c087d346da5555b2e34b840110271c7ac56d12e490beb0e05a"
            "f249a3433f36dd2b9e3032bc1f487f67238d1935e56eefb6e81063970fb5384c");
}

TEST(BlindRsa, BlindedMessageHidesMessage) {
  // The same message blinded twice yields unrelated blinded values, and
  // neither equals the PSS encoding itself: the signer learns nothing.
  const auto& key = test_key();
  ChaChaRng rng(8);
  Bytes msg = to_bytes("the same message");
  BlindingState s1 = blind(key.pub, msg, rng);
  BlindingState s2 = blind(key.pub, msg, rng);
  EXPECT_NE(s1.blinded_message, s2.blinded_message);
}

TEST(BlindRsa, SignaturesFromDistinctBlindingsBothVerify) {
  const auto& key = test_key();
  ChaChaRng rng(9);
  Bytes msg = to_bytes("msg");
  BlindingState s1 = blind(key.pub, msg, rng);
  BlindingState s2 = blind(key.pub, msg, rng);
  auto sig1 = finalize(key.pub, msg, s1, blind_sign(key, s1.blinded_message).value());
  auto sig2 = finalize(key.pub, msg, s2, blind_sign(key, s2.blinded_message).value());
  ASSERT_TRUE(sig1.ok());
  ASSERT_TRUE(sig2.ok());
  EXPECT_TRUE(blind_verify(key.pub, msg, sig1.value()));
  EXPECT_TRUE(blind_verify(key.pub, msg, sig2.value()));
}

TEST(BlindRsa, ServerRejectsMalformedBlindedMessage) {
  const auto& key = test_key();
  EXPECT_FALSE(blind_sign(key, Bytes(7)).ok());
  Bytes too_big = key.pub.n.to_bytes_be(key.pub.modulus_bytes());
  EXPECT_FALSE(blind_sign(key, too_big).ok());
}

TEST(BlindRsa, FinalizeRejectsGarbageSignature) {
  const auto& key = test_key();
  ChaChaRng rng(10);
  Bytes msg = to_bytes("msg");
  BlindingState state = blind(key.pub, msg, rng);
  Bytes garbage(key.pub.modulus_bytes(), 0x41);
  EXPECT_FALSE(finalize(key.pub, msg, state, garbage).ok());
  EXPECT_FALSE(finalize(key.pub, msg, state, Bytes(3)).ok());
}

TEST(BlindRsa, WrongKeySignatureRejected) {
  const auto& key = test_key();
  ChaChaRng rng(11);
  RsaPrivateKey other = rsa_generate(512, rng);
  Bytes msg = to_bytes("msg");
  BlindingState state = blind(key.pub, msg, rng);
  auto sig = blind_sign(key, state.blinded_message);
  ASSERT_TRUE(sig.ok());
  auto fin = finalize(key.pub, msg, state, sig.value());
  ASSERT_TRUE(fin.ok());
  EXPECT_FALSE(blind_verify(other.pub, msg, fin.value()));
}

}  // namespace
}  // namespace dcpl::crypto
