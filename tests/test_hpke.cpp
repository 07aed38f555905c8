// HPKE (RFC 9180) base mode: round trips, context binding, sequence
// handling, exporter, and golden known-answer values (self-generated, to
// pin the implementation against regressions).
#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "crypto/csprng.hpp"
#include "hpke/hpke.hpp"
#include "obs/metrics.hpp"

namespace dcpl::hpke {
namespace {

TEST(Hpke, SingleShotRoundTrip) {
  crypto::ChaChaRng rng(1);
  KeyPair kp = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, to_bytes("app info"), to_bytes("aad"),
                  to_bytes("hello hpke"), rng);
  auto pt = open(kp, to_bytes("app info"), to_bytes("aad"), ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "hello hpke");
}

TEST(Hpke, WrongRecipientCannotOpen) {
  crypto::ChaChaRng rng(2);
  KeyPair kp = KeyPair::generate(rng);
  KeyPair other = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, {}, {}, to_bytes("secret"), rng);
  EXPECT_FALSE(open(other, {}, {}, ct).ok());
}

TEST(Hpke, InfoAndAadAreBound) {
  crypto::ChaChaRng rng(3);
  KeyPair kp = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, to_bytes("info"), to_bytes("aad"),
                  to_bytes("secret"), rng);
  EXPECT_FALSE(open(kp, to_bytes("other info"), to_bytes("aad"), ct).ok());
  EXPECT_FALSE(open(kp, to_bytes("info"), to_bytes("other aad"), ct).ok());
  EXPECT_TRUE(open(kp, to_bytes("info"), to_bytes("aad"), ct).ok());
}

TEST(Hpke, MultiMessageContextSequencing) {
  crypto::ChaChaRng rng(4);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("session"), rng);
  auto r = setup_base_recipient(s.enc, kp, to_bytes("session"));
  ASSERT_TRUE(r.ok());

  for (int i = 0; i < 10; ++i) {
    Bytes msg = to_bytes("message " + std::to_string(i));
    Bytes ct = s.context.seal({}, msg);
    auto pt = r.value().open({}, ct);
    ASSERT_TRUE(pt.ok()) << i;
    EXPECT_EQ(pt.value(), msg);
  }
}

TEST(Hpke, OutOfOrderMessageFails) {
  crypto::ChaChaRng rng(5);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, {}, rng);
  auto r = setup_base_recipient(s.enc, kp, {});
  ASSERT_TRUE(r.ok());

  Bytes ct0 = s.context.seal({}, to_bytes("zero"));
  Bytes ct1 = s.context.seal({}, to_bytes("one"));
  // Delivering ct1 first fails (nonce mismatch) and does not advance seq.
  EXPECT_FALSE(r.value().open({}, ct1).ok());
  ASSERT_TRUE(r.value().open({}, ct0).ok());
  ASSERT_TRUE(r.value().open({}, ct1).ok());
}

TEST(Hpke, ExporterAgreesAcrossSides) {
  crypto::ChaChaRng rng(6);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("i"), rng);
  auto r = setup_base_recipient(s.enc, kp, to_bytes("i"));
  ASSERT_TRUE(r.ok());
  Bytes e1 = s.context.export_secret(to_bytes("label-a"), 32);
  Bytes e2 = r.value().export_secret(to_bytes("label-a"), 32);
  EXPECT_EQ(e1, e2);
  EXPECT_NE(e1, s.context.export_secret(to_bytes("label-b"), 32));
  EXPECT_EQ(s.context.export_secret(to_bytes("label-a"), 64).size(), 64u);
}

TEST(Hpke, DeterministicSenderIsReproducible) {
  KeyPair kp = KeyPair::derive(to_bytes("recipient seed"));
  Sender s1 =
      setup_base_sender_deterministic(kp.public_key, {}, to_bytes("eph"));
  Sender s2 =
      setup_base_sender_deterministic(kp.public_key, {}, to_bytes("eph"));
  EXPECT_EQ(s1.enc, s2.enc);
  EXPECT_EQ(s1.context.key(), s2.context.key());
}

// Golden known-answer test: pins the full RFC 9180 labeled-KDF pipeline.
// Values generated by this implementation once validated against the
// primitive-level RFC vectors (X25519/HKDF/ChaCha20-Poly1305); any change to
// labels, suite ids, or schedule ordering will break this test.
TEST(Hpke, GoldenKnownAnswer) {
  KeyPair kp = KeyPair::derive(to_bytes("golden recipient"));
  Sender s = setup_base_sender_deterministic(
      kp.public_key, to_bytes("golden info"), to_bytes("golden ephemeral"));
  Bytes ct = s.context.seal(to_bytes("golden aad"), to_bytes("golden pt"));

  auto r = setup_base_recipient(s.enc, kp, to_bytes("golden info"));
  ASSERT_TRUE(r.ok());
  auto pt = r.value().open(to_bytes("golden aad"), ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "golden pt");

  // These assertions pin byte-exact behaviour: hex recorded from the
  // library before the streaming key schedule.
  EXPECT_EQ(to_hex(s.enc),
            "dace104ad8da56fd9bf0b931df2a71afd04e1dd8a45d1e6ef4f148a9b48c790a");
  EXPECT_EQ(to_hex(ct),
            "17685e30c2a6d6a6302cbf301fa4a0513daa7ec2856cc4927c");
  EXPECT_EQ(to_hex(s.context.key()),
            "f76301a81640fcd0f1cd74c4af03f99182692c49ec461d11509992140de96748");
  EXPECT_EQ(to_hex(s.context.base_nonce()),
            "9b34f26b58ca77529392357c");
  EXPECT_EQ(to_hex(s.context.export_secret(to_bytes("golden exporter"), 32)),
            "e5c0709f0e084ba73de4b72a7b0ebd8ae1fb5f989a7f8a3d6b97161d28400e6b");
  EXPECT_EQ(r.value().export_secret(to_bytes("golden exporter"), 32),
            s.context.export_secret(to_bytes("golden exporter"), 32));
  // At 256 bytes the I2OSP(L, 2) length prefix has a nonzero high byte.
  const Bytes long_export =
      s.context.export_secret(to_bytes("golden exporter"), 256);
  EXPECT_EQ(to_hex(BytesView(long_export).first(32)),
            "2ed19c7c829bbf9e6abbe4a51623f11c36401940b776ce6eb3061060c9b4d623");
  EXPECT_EQ(to_hex(BytesView(long_export).last(32)),
            "6a116ff4152db171ee002fbc58a5d6edea27afb211b81437b68faecac786eaa5");
}

// Single-shot seals, enc || ct, pinned byte for byte: two seals to each of
// three curve keys (the first builds the key's comb table, the second runs
// on the cached one) and two to u = 2, a point of the twist, which has no
// table and takes the ladder. Hex recorded from the library before sender
// setups used comb tables. Each seal counts two x25519 operations on
// either path. Sealing to a small-order point still throws, and draws the
// ephemeral key first, as it did.
TEST(Hpke, SealGoldenOnEveryPath) {
  crypto::ChaChaRng rng(9180);
  std::vector<KeyPair> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(KeyPair::generate(rng));
  Bytes twist(32, 0);
  twist[0] = 2;
  keys.push_back(KeyPair{{}, twist});
  const char* const kGolden[4][2] = {
      {"490c00027ad3f1cbd1c677c8cdad5007bfcf7432e0b3703da6b8220953824a2a"
       "7bb7e8e34c5c41c66d0b9483f3c72336ddf45fa8f80ee564a5e502e5fa98b9",
       "050eb1b3500616277a2847b6fbe6a8b63f45feb25c2e9a211e458c5ad44bdc38"
       "aaa7de0acf916f755071721d61db3fe5cd3801716b19fb4c8ca184ddcd06d3"},
      {"fd9686f20ffd70fb8af50f74dd495f399804fbd522451be0616f0295df3f431e"
       "cfe1936d01c1488e9ed6816263625bede8be89a26a3073ad375523a6f1f4d5",
       "fb294ff2cbda2229ded3d0009225db8230857066b82c91bbf6c4a9e330845b1a"
       "17e966f01c21c11c37b89f538da145c3a417bcbf7b870e9ae106ff3dd8d037"},
      {"c4a24bf23a97fb6dfe461a2c88ffb8271186258658f0fc8e151144e0403d752e"
       "0a4654dd070ac9627c867bb073356f97185f9995f423ba4b00f917f28c04a0",
       "0eefc2f8d5180903319947c3ea16b51d5764d7035de31057669468a7d8dd3149"
       "291085390047551dcd96c7ce3e45a746a11f1ff5ee0990eb3d9c21d61cec82"},
      {"6056eb76af1dfd89e53a36538538f384dea08a461ae0861078bc615f7a787e5c"
       "ad294992fd60cfe6d238dd3e549858fdde383e5a77bf4740157ce37d77a708",
       "9ef81c4fa7fe6d7d08bad55aa9bfba0ca30a9bf0b10f70a8f7391171e4b04057"
       "3166efa66bf486f2c2bf9bf887913f0078e9e65aa85d3a2cfde437f9766f53"}};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (int j = 0; j < 2; ++j) {
      const std::string pt =
          "seal " + std::to_string(j) + " to key " + std::to_string(i);
      const std::uint64_t ops = obs::op_counter("crypto", "x25519").value();
      const Bytes ct = seal(keys[i].public_key, to_bytes("golden info"),
                            to_bytes("golden aad"), to_bytes(pt), rng);
      EXPECT_EQ(to_hex(ct), kGolden[i][j]) << "key " << i << " seal " << j;
      EXPECT_EQ(obs::op_counter("crypto", "x25519").value(), ops + 2);
      if (!keys[i].private_key.empty()) {
        auto opened = open(keys[i], to_bytes("golden info"),
                           to_bytes("golden aad"), ct);
        ASSERT_TRUE(opened.ok());
        EXPECT_EQ(to_string(opened.value()), pt);
      }
    }
  }
  for (const char* hex :
       {"0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"}) {
    Bytes u = from_hex(hex);
    EXPECT_THROW(seal(u, {}, {}, to_bytes("x"), rng), std::invalid_argument);
    u[31] |= 0x80;
    EXPECT_THROW(seal(u, {}, {}, to_bytes("x"), rng), std::invalid_argument);
  }
  EXPECT_EQ(to_hex(rng.bytes(8)), "b645fe46ab200b01");
}

// Four threads make their first seals to one fresh key at once, so they
// race to build and insert its comb table; every ciphertext opens.
TEST(Hpke, FirstSealsToOneKeyFromSeveralThreads) {
  const KeyPair kp = KeyPair::derive(to_bytes("first seals from 4 threads"));
  constexpr int kThreads = 4;
  std::vector<Bytes> cts(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      crypto::ChaChaRng rng(100 + t);
      start.arrive_and_wait();
      cts[t] = seal(kp.public_key, to_bytes("i"), to_bytes("a"),
                    to_bytes("from thread " + std::to_string(t)), rng);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    auto pt = open(kp, to_bytes("i"), to_bytes("a"), cts[t]);
    ASSERT_TRUE(pt.ok()) << "thread " << t;
    EXPECT_EQ(to_string(pt.value()), "from thread " + std::to_string(t));
  }
}

// Seals to more recipient keys than the table cache holds, twice round:
// the oldest tables are evicted while others are in use, and every
// ciphertext, to an evicted key or not, opens.
TEST(Hpke, SealsToMoreKeysThanTheTableCacheHolds) {
  crypto::ChaChaRng rng(34);
  std::vector<KeyPair> keys;
  for (std::size_t i = 0; i < kRecipientTableCacheKeys + 8; ++i) {
    keys.push_back(KeyPair::generate(rng));
  }
  for (int round = 0; round < 2; ++round) {
    for (const KeyPair& kp : keys) {
      const Bytes ct = seal(kp.public_key, {}, {}, to_bytes("x"), rng);
      auto pt = open(kp, {}, {}, ct);
      ASSERT_TRUE(pt.ok());
      EXPECT_EQ(to_string(pt.value()), "x");
    }
  }
}

TEST(Hpke, TruncatedAndCorruptedInputs) {
  crypto::ChaChaRng rng(7);
  KeyPair kp = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, {}, {}, to_bytes("x"), rng);
  EXPECT_FALSE(open(kp, {}, {}, BytesView(ct).first(10)).ok());
  EXPECT_FALSE(open(kp, {}, {}, Bytes{}).ok());
  Bytes bad = ct;
  bad[0] ^= 1;  // corrupt enc
  EXPECT_FALSE(open(kp, {}, {}, bad).ok());
  bad = ct;
  bad.back() ^= 1;  // corrupt tag
  EXPECT_FALSE(open(kp, {}, {}, bad).ok());

  // A truncated recipient key: every sender setup rejects it first, with
  // one message.
  const Bytes short_key(kp.public_key.begin(), kp.public_key.end() - 1);
  const auto expect_size_error = [](auto&& setup) {
    try {
      setup();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "hpke: recipient public key size");
    }
  };
  expect_size_error([&] { setup_base_sender(short_key, {}, rng); });
  expect_size_error([&] {
    setup_base_sender_deterministic(short_key, {}, to_bytes("eph"));
  });
  expect_size_error([&] {
    setup_psk_sender(short_key, {}, Bytes(32, 7), to_bytes("id"), rng);
  });
  expect_size_error([&] { seal(short_key, {}, {}, to_bytes("x"), rng); });
}

TEST(Hpke, RecipientRejectsLowOrderEnc) {
  crypto::ChaChaRng rng(8);
  KeyPair kp = KeyPair::generate(rng);
  Bytes enc(32, 0);  // low-order point
  EXPECT_FALSE(setup_base_recipient(enc, kp, {}).ok());
  EXPECT_FALSE(setup_base_recipient(Bytes(31), kp, {}).ok());
}

class HpkePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HpkePayloadSizes, RoundTrip) {
  crypto::ChaChaRng rng(GetParam() + 77);
  KeyPair kp = KeyPair::generate(rng);
  Bytes pt = rng.bytes(GetParam());
  Bytes ct = seal(kp.public_key, to_bytes("i"), to_bytes("a"), pt, rng);
  EXPECT_EQ(ct.size(), kNenc + pt.size() + kNt);
  auto opened = open(kp, to_bytes("i"), to_bytes("a"), ct);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), pt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HpkePayloadSizes,
                         ::testing::Values(0, 1, 64, 1024, 16384));


TEST(HpkePsk, RoundTripWithSharedPsk) {
  crypto::ChaChaRng rng(20);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32);
  Bytes psk_id = to_bytes("tenant-7");

  Sender s = setup_psk_sender(kp.public_key, to_bytes("i"), psk, psk_id, rng);
  auto r = setup_psk_recipient(s.enc, kp, to_bytes("i"), psk, psk_id);
  ASSERT_TRUE(r.ok());
  Bytes ct = s.context.seal({}, to_bytes("psk-protected"));
  auto pt = r.value().open({}, ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "psk-protected");
}

TEST(HpkePsk, WrongPskFailsToOpen) {
  crypto::ChaChaRng rng(21);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32), wrong = rng.bytes(32);
  Bytes psk_id = to_bytes("id");

  Sender s = setup_psk_sender(kp.public_key, {}, psk, psk_id, rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto r = setup_psk_recipient(s.enc, kp, {}, wrong, psk_id);
  ASSERT_TRUE(r.ok());  // setup succeeds; decryption must fail
  EXPECT_FALSE(r.value().open({}, ct).ok());
}

TEST(HpkePsk, WrongPskIdFailsToOpen) {
  crypto::ChaChaRng rng(22);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32);
  Sender s = setup_psk_sender(kp.public_key, {}, psk, to_bytes("id-a"), rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto r = setup_psk_recipient(s.enc, kp, {}, psk, to_bytes("id-b"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().open({}, ct).ok());
}

TEST(HpkePsk, BaseModeCannotReadPskMode) {
  crypto::ChaChaRng rng(23);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32);
  Sender s = setup_psk_sender(kp.public_key, {}, psk, to_bytes("id"), rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto base = setup_base_recipient(s.enc, kp, {});
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(base.value().open({}, ct).ok());
}

TEST(HpkePsk, RejectsWeakOrInconsistentPskInputs) {
  crypto::ChaChaRng rng(24);
  KeyPair kp = KeyPair::generate(rng);
  EXPECT_THROW(setup_psk_sender(kp.public_key, {}, rng.bytes(16),
                                to_bytes("id"), rng),
               std::invalid_argument);  // psk too short
  EXPECT_THROW(setup_psk_sender(kp.public_key, {}, rng.bytes(32), {}, rng),
               std::invalid_argument);  // missing psk_id
}

// ---- RFC 9180 §5.2 message limit -------------------------------------------

TEST(HpkeLimit, SealThrowsAtSequenceExhaustion) {
  crypto::ChaChaRng rng(31);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("limit"), rng);
  s.context.set_seq_for_testing(kSeqLimit);
  EXPECT_THROW(s.context.seal({}, to_bytes("x")), MessageLimitReached);
  // seal_append must refuse before touching the output frame.
  Bytes out = to_bytes("frame-prefix");
  EXPECT_THROW(s.context.seal_append({}, to_bytes("x"), out),
               MessageLimitReached);
  EXPECT_EQ(to_string(out), "frame-prefix");
  // The counter must not have moved (no wrap, no partial consume).
  EXPECT_EQ(s.context.seq(), kSeqLimit);
}

TEST(HpkeLimit, OpenFailsAtLimitWithoutConsumingSequence) {
  crypto::ChaChaRng rng(32);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("limit"), rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto r = setup_base_recipient(s.enc, kp, to_bytes("limit"));
  ASSERT_TRUE(r.ok());
  r.value().set_seq_for_testing(kSeqLimit);
  EXPECT_FALSE(r.value().open({}, ct).ok());
  EXPECT_EQ(r.value().seq(), kSeqLimit);
}

TEST(HpkeLimit, LastSequenceNumberStillWorksEndToEnd) {
  crypto::ChaChaRng rng(33);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("limit"), rng);
  auto r = setup_base_recipient(s.enc, kp, to_bytes("limit"));
  ASSERT_TRUE(r.ok());
  // Jump both halves to the final usable sequence number: one more message
  // round-trips, then both directions hit the wall.
  s.context.set_seq_for_testing(kSeqLimit - 1);
  r.value().set_seq_for_testing(kSeqLimit - 1);
  Bytes ct = s.context.seal(to_bytes("aad"), to_bytes("final message"));
  auto pt = r.value().open(to_bytes("aad"), ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "final message");
  EXPECT_EQ(s.context.seq(), kSeqLimit);
  EXPECT_EQ(r.value().seq(), kSeqLimit);
  EXPECT_THROW(s.context.seal({}, to_bytes("y")), MessageLimitReached);
  EXPECT_FALSE(r.value().open(to_bytes("aad"), ct).ok());
}

}  // namespace
}  // namespace dcpl::hpke
