// ChaCha20, Poly1305, and ChaCha20-Poly1305 AEAD vectors from RFC 8439.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/csprng.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"

namespace dcpl::crypto {
namespace {

const char* kSunscreen =
    "Ladies and Gentlemen of the class of '99: If I could offer you "
    "only one tip for the future, sunscreen would be it.";

// The process's first dispatch, from 4 threads at once: each seals and
// opens through the dispatched kernels, whose CPUID probe runs on first
// use. Defined first, so it runs before any other test has dispatched; the
// thread-sanitize job runs it.
TEST(Aead, FirstDispatchFromFourThreads) {
  XoshiroRng rng(4);
  const Bytes key = rng.bytes(kAeadKeySize), nonce = rng.bytes(kAeadNonceSize);
  const Bytes pt = rng.bytes(3000);
  const Bytes want = aead_seal(key, nonce, {}, pt, kAeadPortable);
  std::atomic<int> ready{0};
  std::vector<Bytes> sealed(4);
  std::vector<int> opened(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 4) {
      }
      sealed[t] = aead_seal(key, nonce, {}, pt);
      auto r = aead_open(key, nonce, {}, sealed[t]);
      opened[t] = r.ok() && r.value() == pt;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(sealed[t], want) << "thread " << t;
    EXPECT_TRUE(opened[t]) << "thread " << t;
  }
}

// RFC 8439 §2.3.2: first block with the test key/nonce/counter.
TEST(ChaCha20, BlockFunctionVector) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000090000004a00000000");
  std::uint8_t block[kChaChaBlockSize];
  chacha20_block(chacha20_state(key, 1, nonce), block);
  EXPECT_EQ(
      to_hex(BytesView(block)),
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 §2.4.2: full encryption vector.
TEST(ChaCha20, EncryptionVector) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000000000004a00000000");
  Bytes ct = chacha20_xor(key, 1, nonce, to_bytes(kSunscreen));
  EXPECT_EQ(
      to_hex(ct),
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  XoshiroRng rng(1);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 200u}) {
    Bytes pt = rng.bytes(len);
    Bytes ct = chacha20_xor(key, 7, nonce, pt);
    EXPECT_EQ(chacha20_xor(key, 7, nonce, ct), pt) << "len=" << len;
    if (len > 0) {
      EXPECT_NE(ct, pt);
    }
  }
}

TEST(ChaCha20, RejectsBadSizes) {
  Bytes ok_key(32), ok_nonce(12), msg(4);
  EXPECT_THROW(chacha20_xor(Bytes(16), 0, ok_nonce, msg),
               std::invalid_argument);
  EXPECT_THROW(chacha20_xor(ok_key, 0, Bytes(8), msg), std::invalid_argument);
}

// RFC 8439 §2.5.2.
TEST(Poly1305, TagVector) {
  Bytes key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes tag =
      poly1305_mac(key, to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, EmptyMessage) {
  // With r = 0 the tag equals s (the second key half).
  Bytes key(32, 0);
  for (int i = 16; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Bytes tag = poly1305_mac(key, {});
  EXPECT_EQ(tag, Bytes(key.begin() + 16, key.end()));
}

TEST(Poly1305, BlockBoundaryLengths) {
  XoshiroRng rng(3);
  Bytes key = rng.bytes(32);
  // Distinct messages around the 16-byte block boundary yield distinct tags.
  Bytes prev;
  for (std::size_t len : {15u, 16u, 17u, 31u, 32u, 33u}) {
    Bytes tag = poly1305_mac(key, rng.bytes(len));
    EXPECT_NE(tag, prev);
    prev = tag;
  }
}

// RFC 8439 §2.8.2.
TEST(Aead, Rfc8439Vector) {
  Bytes key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  Bytes nonce = from_hex("070000004041424344454647");
  Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");

  for (const AeadKernels& kernels :
       {kAeadPortable, aead_kernels_dispatched()}) {
    Bytes sealed = aead_seal(key, nonce, aad, to_bytes(kSunscreen), kernels);
    EXPECT_EQ(
        to_hex(sealed),
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
        "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
        "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
        "3ff4def08e4b7a9de576d26586cec64b6116"
        "1ae10b594f09e26a7e902ecbd0600691");

    auto opened = aead_open(key, nonce, aad, sealed, kernels);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(to_string(opened.value()), kSunscreen);
  }
}

TEST(Aead, TamperedCiphertextFails) {
  ChaChaRng rng(99);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes sealed = aead_seal(key, nonce, to_bytes("aad"), to_bytes("secret"));
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(aead_open(key, nonce, to_bytes("aad"), bad).ok()) << i;
  }
}

TEST(Aead, WrongAadFails) {
  ChaChaRng rng(100);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes sealed = aead_seal(key, nonce, to_bytes("aad"), to_bytes("secret"));
  EXPECT_FALSE(aead_open(key, nonce, to_bytes("AAD"), sealed).ok());
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).ok());
}

TEST(Aead, WrongKeyOrNonceFails) {
  ChaChaRng rng(101);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes sealed = aead_seal(key, nonce, {}, to_bytes("secret"));
  Bytes key2 = key;
  key2[0] ^= 1;
  Bytes nonce2 = nonce;
  nonce2[0] ^= 1;
  EXPECT_FALSE(aead_open(key2, nonce, {}, sealed).ok());
  EXPECT_FALSE(aead_open(key, nonce2, {}, sealed).ok());
}

TEST(Aead, TruncatedInputFails) {
  ChaChaRng rng(102);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  EXPECT_FALSE(aead_open(key, nonce, {}, Bytes(15)).ok());
  EXPECT_FALSE(aead_open(key, nonce, {}, Bytes{}).ok());
}

TEST(Aead, EmptyPlaintextRoundTrip) {
  ChaChaRng rng(103);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes sealed = aead_seal(key, nonce, to_bytes("hdr"), {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  auto opened = aead_open(key, nonce, to_bytes("hdr"), sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().empty());
}

class AeadRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadRoundTrip, SealOpenAtLength) {
  ChaChaRng rng(GetParam() + 1000);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes pt = rng.bytes(GetParam());
  Bytes aad = rng.bytes(GetParam() % 40);
  Bytes sealed = aead_seal(key, nonce, aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + kAeadTagSize);
  EXPECT_EQ(aead_seal(key, nonce, aad, pt, kAeadPortable), sealed);
  auto opened = aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), pt);
  auto opened_portable = aead_open(key, nonce, aad, sealed, kAeadPortable);
  ASSERT_TRUE(opened_portable.ok());
  EXPECT_EQ(opened_portable.value(), pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AeadRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 255,
                                           256, 1000, 1024, 1025, 4096,
                                           16411));

// RFC 8439's state has no carry from the 32-bit block counter into the
// nonce words, so a wrap would replay keystream blocks 0, 1, ... under the
// same (key, nonce). The guard must reject exactly the wrapping calls.
TEST(ChaCha20, CounterWrapGuard) {
  Bytes key(kChaChaKeySize, 0x01);
  Bytes nonce(kChaChaNonceSize, 0x02);
  const std::uint32_t last = 0xFFFFFFFFu;  // one block left before the wrap

  // 64 bytes = exactly the final block: allowed.
  EXPECT_NO_THROW(chacha20_xor(key, last, nonce, Bytes(64, 0)));
  // 65 bytes needs a second block at counter 0: keystream reuse, rejected.
  EXPECT_THROW(chacha20_xor(key, last, nonce, Bytes(65, 0)),
               std::length_error);
  // Same guard on the in-place variant.
  Bytes buf(65, 0);
  EXPECT_THROW(
      chacha20_xor_into(chacha20_state(key, last, nonce), buf, buf.data()),
      std::length_error);
  // Two blocks starting one before the end: allowed, the last usable pair.
  EXPECT_NO_THROW(chacha20_xor(key, last - 1, nonce, Bytes(128, 0)));
  EXPECT_THROW(chacha20_xor(key, last - 1, nonce, Bytes(129, 0)),
               std::length_error);
}

TEST(ChaCha20, XorIntoMatchesXorIncludingInPlace) {
  ChaChaRng rng(77);
  Bytes key = rng.bytes(kChaChaKeySize), nonce = rng.bytes(kChaChaNonceSize);
  Bytes data = rng.bytes(300);
  Bytes want = chacha20_xor(key, 7, nonce, data);
  Bytes out(data.size());
  chacha20_xor_into(chacha20_state(key, 7, nonce), data, out.data());
  EXPECT_EQ(out, want);
  // In-place: out aliases data.
  Bytes in_place = data;
  chacha20_xor_into(chacha20_state(key, 7, nonce), in_place, in_place.data());
  EXPECT_EQ(in_place, want);
}

// --- Oracles for the rewritten primitives ----------------------------------

// The RFC 8439 §2.3 block function as the RFC writes it: a 16-word array
// and a quarter round on indices.
std::array<std::uint8_t, 64> reference_block(BytesView key,
                                             std::uint32_t counter,
                                             BytesView nonce) {
  auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  };
  std::uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) state[4 + i] = le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = le32(nonce.data() + 4 * i);
  std::uint32_t x[16];
  std::copy(state, state + 16, x);
  auto rotl = [](std::uint32_t v, int n) { return (v << n) | (v >> (32 - n)); };
  auto qr = [&](int a, int b, int c, int d) {
    x[a] += x[b]; x[d] ^= x[a]; x[d] = rotl(x[d], 16);
    x[c] += x[d]; x[b] ^= x[c]; x[b] = rotl(x[b], 12);
    x[a] += x[b]; x[d] ^= x[a]; x[d] = rotl(x[d], 8);
    x[c] += x[d]; x[b] ^= x[c]; x[b] = rotl(x[b], 7);
  };
  for (int i = 0; i < 10; ++i) {
    qr(0, 4, 8, 12); qr(1, 5, 9, 13); qr(2, 6, 10, 14); qr(3, 7, 11, 15);
    qr(0, 5, 10, 15); qr(1, 6, 11, 12); qr(2, 7, 8, 13); qr(3, 4, 9, 14);
  }
  std::array<std::uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i] + state[i];
    for (int j = 0; j < 4; ++j) out[4 * i + j] = static_cast<std::uint8_t>(v >> (8 * j));
  }
  return out;
}

Bytes reference_xor(BytesView key, std::uint32_t counter, BytesView nonce,
                    BytesView data) {
  Bytes out(data.begin(), data.end());
  for (std::size_t off = 0; off < out.size(); off += 64) {
    const auto ks = reference_block(key, counter++, nonce);
    for (std::size_t i = off; i < std::min(out.size(), off + 64); ++i) {
      out[i] ^= ks[i - off];
    }
  }
  return out;
}

// The portable keystream XOR and, where the CPU has it, the AVX-512 one.
std::vector<ChaCha20Xor> chacha20_kernels() {
  std::vector<ChaCha20Xor> kernels = {chacha20_xor_portable};
  if (chacha20_xor_avx512() != nullptr) {
    kernels.push_back(chacha20_xor_avx512());
  }
  return kernels;
}

// Lengths up to three 16-block vector passes plus every tail, on every
// kernel, out of place through chacha20_xor() and in place through each.
TEST(ChaCha20, MatchesReferenceAtEveryLength) {
  XoshiroRng rng(8439);
  for (std::size_t len = 0; len <= 3200; ++len) {
    const Bytes key = rng.bytes(kChaChaKeySize);
    const Bytes nonce = rng.bytes(kChaChaNonceSize);
    const auto counter = static_cast<std::uint32_t>(rng.below(1u << 20));
    const Bytes data = rng.bytes(len);
    const Bytes want = reference_xor(key, counter, nonce, data);
    ASSERT_EQ(chacha20_xor(key, counter, nonce, data), want) << "len=" << len;
    for (const ChaCha20Xor kernel : chacha20_kernels()) {
      Bytes buf = data;
      kernel(chacha20_state(key, counter, nonce), buf, buf.data());
      ASSERT_EQ(buf, want) << "in place, len=" << len;
    }
  }
}

// Up to the wrap guard: the last k blocks before 2^32 are usable and match
// the reference; one byte more is rejected. With k up to 33 the last usable
// blocks fall in the second and third passes of the vector kernel.
TEST(ChaCha20, MatchesReferenceUpToWrapGuard) {
  XoshiroRng rng(3);
  const Bytes key = rng.bytes(kChaChaKeySize);
  const Bytes nonce = rng.bytes(kChaChaNonceSize);
  for (std::uint32_t k = 1; k <= 33; ++k) {
    const std::uint32_t counter = 0xFFFFFFFFu - (k - 1);
    const Bytes data = rng.bytes(64 * k);
    const Bytes want = reference_xor(key, counter, nonce, data);
    const Bytes over = rng.bytes(64 * k + 1);
    for (const ChaCha20Xor kernel : chacha20_kernels()) {
      const ChaChaState state = chacha20_state(key, counter, nonce);
      Bytes buf = data;
      kernel(state, buf, buf.data());
      EXPECT_EQ(buf, want) << "k=" << k;
      Bytes out(over.size());
      EXPECT_THROW(kernel(state, over, out.data()), std::length_error)
          << "k=" << k;
    }
    EXPECT_THROW(chacha20_xor(key, counter, nonce, over), std::length_error)
        << "k=" << k;
  }
}

// One read-write page followed by a PROT_NONE page: tail(n) is the last n
// bytes before the guard, so touching a byte past them faults.
class GuardedPage {
 public:
  GuardedPage() {
    void* p = mmap(nullptr, 2 * size(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<std::uint8_t*>(p);
    if (mprotect(base_ + size(), size(), PROT_NONE) != 0) {
      munmap(base_, 2 * size());
      throw std::bad_alloc();
    }
  }
  ~GuardedPage() { munmap(base_, 2 * size()); }
  GuardedPage(const GuardedPage&) = delete;
  GuardedPage& operator=(const GuardedPage&) = delete;

  static std::size_t size() {
    return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  }
  std::uint8_t* tail(std::size_t n) { return base_ + size() - n; }

 private:
  std::uint8_t* base_;
};

// The AVX-512 kernel against the portable one: 10,000 seeded lengths up to
// 16 passes at random counters, out of place (at a random offset, with the
// bytes around the output checked) and in place, and all-0xff data. Every
// length up to a page also runs with the input and the output each ending
// where a PROT_NONE page begins, so a read or a write past either faults.
TEST(ChaCha20, VectorMatchesPortable) {
  const ChaCha20Xor avx512 = chacha20_xor_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "CPU lacks AVX-512F or BW";
  XoshiroRng rng(1616);
  // The first 2,000 lengths run every length from 0, so both sides of the
  // kernel's one-block cutoff (inputs of 64 bytes or less go to the portable
  // block function) and of every pass boundary.
  GuardedPage in_page, out_page;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t len =
        i < 2000 ? static_cast<std::size_t>(i)
                 : static_cast<std::size_t>(rng.below(16384));
    const ChaChaState state =
        chacha20_state(rng.bytes(kChaChaKeySize),
                       static_cast<std::uint32_t>(rng.below(1u << 24)),
                       rng.bytes(kChaChaNonceSize));
    const Bytes data = i % 7 == 0 ? Bytes(len, 0xff) : rng.bytes(len);
    Bytes want(len);
    chacha20_xor_portable(state, data, want.data());

    const std::size_t off = static_cast<std::size_t>(rng.below(64));
    Bytes out(off + len + 64, 0xa5);
    avx512(state, data, out.data() + off);
    const auto first = out.begin() + static_cast<long>(off);
    const auto last = first + static_cast<long>(len);
    ASSERT_EQ(Bytes(first, last), want) << "len=" << len;
    const auto guard = [](std::uint8_t b) { return b == 0xa5; };
    ASSERT_TRUE(std::all_of(out.begin(), first, guard) &&
                std::all_of(last, out.end(), guard))
        << "bytes around the output changed, len=" << len;

    Bytes in_place = data;
    avx512(state, in_place, in_place.data());
    ASSERT_EQ(in_place, want) << "in place, len=" << len;

    if (len <= GuardedPage::size()) {
      std::copy(data.begin(), data.end(), in_page.tail(len));
      avx512(state, BytesView(in_page.tail(len), len), out_page.tail(len));
      ASSERT_TRUE(std::equal(want.begin(), want.end(), out_page.tail(len)))
          << "at a guard page, len=" << len;
    }
  }
}

// Poly1305 as RFC 8439 §2.5 defines it, on crypto::BigInt:
// h <- (h + m) * r mod 2^130 - 5 per 16-byte block (m carries its 0x01 pad
// byte), then tag = (h + s) mod 2^128.
Bytes reference_poly1305(BytesView key, BytesView msg) {
  auto from_le = [](BytesView le) {
    Bytes be(le.rbegin(), le.rend());
    return BigInt::from_bytes_be(be);
  };
  Bytes r_bytes(key.begin(), key.begin() + 16);
  for (int i : {3, 7, 11, 15}) r_bytes[i] &= 0x0f;
  for (int i : {4, 8, 12}) r_bytes[i] &= 0xfc;
  const BigInt r = from_le(r_bytes);
  const BigInt s = from_le(key.subspan(16, 16));
  const BigInt p = (BigInt(1) << 130) - BigInt(5);
  BigInt h(0);
  for (std::size_t off = 0; off < msg.size(); off += 16) {
    const std::size_t n = std::min<std::size_t>(16, msg.size() - off);
    Bytes block(msg.begin() + static_cast<long>(off),
                msg.begin() + static_cast<long>(off + n));
    block.push_back(0x01);
    h = ((h + from_le(block)) * r) % p;
  }
  const Bytes be = ((h + s) % (BigInt(1) << 128)).to_bytes_be(16);
  return Bytes(be.rbegin(), be.rend());
}

// The tag of `msg` fed to update() in random pieces below `max_piece` bytes.
Bytes poly1305_in_pieces(BytesView key, BytesView msg, XoshiroRng& rng,
                         std::uint64_t max_piece = 40,
                         Poly1305Blocks blocks = poly1305_blocks_dispatched()) {
  Poly1305 mac(key, blocks);
  std::size_t off = 0;
  while (off < msg.size()) {
    const std::size_t take = std::min<std::size_t>(
        msg.size() - off, static_cast<std::size_t>(rng.below(max_piece)));
    mac.update(msg.subspan(off, take));
    off += take;
  }
  const auto tag = mac.finish();
  return Bytes(tag.begin(), tag.end());
}

// Lengths past 32 blocks, so runs cross the IFMA kernel's eight-block step
// in one update, in small pieces (no run reaches eight blocks) and in large
// ones (runs of eight or more blocks after a buffered partial block).
TEST(Poly1305, MatchesBigIntReference) {
  XoshiroRng rng(1305);
  for (std::size_t len = 0; len <= 560; ++len) {
    const Bytes key = rng.bytes(kPoly1305KeySize);
    const Bytes msg = rng.bytes(len);
    const Bytes want = reference_poly1305(key, msg);
    EXPECT_EQ(poly1305_mac(key, msg), want) << "len=" << len;
    EXPECT_EQ(poly1305_in_pieces(key, msg, rng), want) << "split len=" << len;
    EXPECT_EQ(poly1305_in_pieces(key, msg, rng, 400), want)
        << "large pieces, len=" << len;
  }
}

// The carries' extremes: all-0xff blocks, r at its clamp maximum and an
// all-0xff s, alone and together.
TEST(Poly1305, MatchesBigIntReferenceAtEdges) {
  XoshiroRng rng(1306);
  const Bytes ones_key(kPoly1305KeySize, 0xff);  // clamped: r at its maximum
  Bytes max_r_key = rng.bytes(kPoly1305KeySize);
  std::fill(max_r_key.begin(), max_r_key.begin() + 16, 0xff);
  Bytes max_s_key = rng.bytes(kPoly1305KeySize);
  std::fill(max_s_key.begin() + 16, max_s_key.end(), 0xff);
  for (const Bytes& key : {ones_key, max_r_key, max_s_key,
                           rng.bytes(kPoly1305KeySize)}) {
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 32u, 160u, 1000u, 4096u}) {
      const Bytes ones(len, 0xff);
      EXPECT_EQ(poly1305_mac(key, ones), reference_poly1305(key, ones))
          << "0xff len=" << len;
      const Bytes msg = rng.bytes(len);
      EXPECT_EQ(poly1305_mac(key, msg), reference_poly1305(key, msg))
          << "len=" << len;
    }
  }
  // r = 0 leaves only s: the all-0xff s wraps nothing.
  Bytes zero_r(kPoly1305KeySize, 0xff);
  std::fill(zero_r.begin(), zero_r.begin() + 16, 0);
  EXPECT_EQ(poly1305_mac(zero_r, Bytes(48, 0xff)), Bytes(16, 0xff));
}

// With r = 1 and s = 0, three whole blocks x, 0, 0 leave h = x + 3·2^128
// unreduced, so x = 2^128 - 5 + k puts h at p + k when the final reduction
// runs: it must subtract p for k >= 0 and leave h alone for k < 0.
TEST(Poly1305, FinalReductionAroundP) {
  Bytes key(kPoly1305KeySize, 0);
  key[0] = 1;
  for (int k = -3; k <= 4; ++k) {
    const BigInt x = (BigInt(1) << 128) - BigInt(static_cast<std::uint64_t>(5 - k));
    const Bytes x_be = x.to_bytes_be(16);
    Bytes msg(x_be.rbegin(), x_be.rend());
    msg.resize(48, 0);
    const Bytes tag = poly1305_mac(key, msg);
    EXPECT_EQ(tag, reference_poly1305(key, msg)) << "k=" << k;
    if (k >= 0) {
      Bytes want(16, 0);
      want[0] = static_cast<std::uint8_t>(k);
      EXPECT_EQ(tag, want) << "k=" << k;
    }
  }
}

// The IFMA kernel against the portable one: 10,000 seeded lengths up to 1,024
// blocks, each in one update and in random pieces, under random keys, keys
// with r at its clamp maximum, and all-0xff messages (the limbs' largest
// values); then one key over many runs, so the powers of r computed on the
// first run serve the rest; then the kernel's limb bounds.
TEST(Poly1305, VectorMatchesPortable) {
  const Poly1305Blocks ifma = poly1305_blocks_ifma();
  if (ifma == nullptr) GTEST_SKIP() << "CPU lacks AVX-512F, VL or IFMA";
  XoshiroRng rng(2015);
  // The first 1,000 lengths run every length from 0, so runs of 0 to 62
  // whole blocks, on both sides of kPoly1305IfmaMinBlocks (16): shorter runs
  // go to the portable loop.
  static_assert(kPoly1305IfmaMinBlocks * 16 < 1000);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t len =
        i < 1000 ? static_cast<std::size_t>(i)
                 : static_cast<std::size_t>(rng.below(16384));
    Bytes key = rng.bytes(kPoly1305KeySize);
    if (i % 3 == 0) std::fill(key.begin(), key.begin() + 16, 0xff);
    const Bytes msg = i % 5 == 0 ? Bytes(len, 0xff) : rng.bytes(len);
    const Bytes want = poly1305_in_pieces(key, msg, rng, len + 1,
                                          poly1305_blocks_portable);
    ASSERT_EQ(poly1305_in_pieces(key, msg, rng, len + 1, ifma), want)
        << "len=" << len;
    ASSERT_EQ(poly1305_in_pieces(key, msg, rng, 600, ifma), want)
        << "split len=" << len;
  }
  const Bytes key(kPoly1305KeySize, 0xff);
  const Bytes msg = rng.bytes(64 * 1024);
  EXPECT_EQ(poly1305_in_pieces(key, msg, rng, 3000, ifma),
            poly1305_in_pieces(key, msg, rng, 3000, poly1305_blocks_portable));

  // Driven directly with r at its clamp maximum and all-0xff blocks, the
  // kernel leaves h within the bounds finish() assumes, run after run, below
  // its minimum run and above it.
  Poly1305State state;
  state.r[0] = 0xffc0fffffff;
  state.r[1] = 0xfffffc0ffff;
  state.r[2] = 0x00ffffffc0f;
  const Bytes ones(16 * 64, 0xff);
  for (std::size_t blocks = 1; blocks <= 64; ++blocks) {
    ifma(state, ones.data(), blocks);
    ASSERT_LT(state.h[0], std::uint64_t{1} << 44) << blocks;
    ASSERT_LT(state.h[1], (std::uint64_t{1} << 44) + (1u << 15)) << blocks;
    ASSERT_LT(state.h[2], std::uint64_t{1} << 42) << blocks;
  }
}

TEST(Aead, DispatchFollowsCpuid) {
  const ChaCha20Xor avx512 = chacha20_xor_avx512();
  EXPECT_EQ(chacha20_xor_dispatched(),
            avx512 != nullptr ? avx512 : chacha20_xor_portable);
  const Poly1305Blocks ifma = poly1305_blocks_ifma();
  EXPECT_EQ(poly1305_blocks_dispatched(),
            ifma != nullptr ? ifma : poly1305_blocks_portable);
  const AeadKernels dispatched = aead_kernels_dispatched();
  EXPECT_EQ(dispatched.chacha20, chacha20_xor_dispatched());
  EXPECT_EQ(dispatched.poly1305, poly1305_blocks_dispatched());
}

// Every party in src/systems draws from a ChaChaRng: its stream is pinned.
// Hex recorded from the library before the ChaCha20 rewrite.
TEST(ChaChaRng, StreamGolden) {
  ChaChaRng by_int(1);
  EXPECT_EQ(to_hex(by_int.bytes(1024)),
      "47b15744a5a89e49f3a05f68b7ce8f7c3b51989cc694d1d0264ac8bd50ca9567"
      "6d517660a25d2aaa3d8c974ccef552139827732e6ef93a0d7d37687d672d8494"
      "47e5825af0e87d0666beb55318f0824a39229ae113e5979192518c3dc52c0669"
      "58cf917152a6af4e5bf82cb41b82bbc25c59ba61a3b0105f1ce4e66525cd28e6"
      "4e564bc7542c449b6e2fe02ae77aacab588640d7450917749d18bf45c8c65583"
      "e65cd1df4e7b4395220cebea908fe7f52cda086ca4cc6571124215dd190bcd27"
      "93189e2dc08f63e4da4184a4e9d1e4f9e5ef73b8d1d020ee840588835dff6f95"
      "bb8fa085884f76224846e26d1243ddd912ba0203feb0f5452638dd6bcc99cb9e"
      "095c4decf8369d5aba28586ffd714f4d56357e6d193f4a2d7a24eae6691a56e6"
      "c3a59cc4bad620f64c1c558f4957faacea56ad0f0e53d5bc40dc8648e5bfd16e"
      "ba24f765fe26f89617cbbfbd2fb78d9a55c8bed2dc320f0f20d78c8b6c19619c"
      "82aa19254399009d25670846935d15959d60b00e45483d4423163d47a0b62c68"
      "55dcc2511d11061a3d6e0decbf05b82debbab01c745530d6f877dd9e4862c94a"
      "0fc275afd6e23d124a2b35e14e874f93904cd74f2abcd21ad0755ad1af03b8ae"
      "fff10c2df50c66317919fe3f39796e9c8bc39f2ef742abfd1e46c413cc0829f7"
      "3b7f38e67de394ea58dcb0d663dd383785ff05b0efa0822d89b063d64f42938f"
      "6f2eb3328fa58970d50e99e13c48cb1ec3769e2377dcb9e14dd94d62e17d09b3"
      "8ad5dc018f0424be5ca4df7147f0e4c87fe9f66e436f634fb512b6fd627ff1dd"
      "b5788e09f3522370aa6806597e36460f5850052e5f9fa14491ec8519b4eb7791"
      "6546be5788afffdcfa1665b952d37dc901de862471cfa4a70ce452b4c2d34a98"
      "17e3a6dad0c3cad0c7c498fcf85fa2b0804979cdb1969a364a97fdf743cf5378"
      "c1a1df044b4ef10561c882d83a738f3e8e5d06d790b6ae4dc3e8257c9d4e1ec9"
      "87c8eab2b6b338440bd9f0ab7d457b09e58ff3c84175d4a6007fe26f37c0bade"
      "20bca6e1705f2f6aafc6cc28b1c7d513bd096dc34b37f144d458cf35cf0ff989"
      "d0ff7c19d967fd3f8ad359a339e5c779288f623ec69d2ae2aa8021de0abc512e"
      "f4b5ff43a8923c37861ccb2481b824e7f5f66db35a4077eb29336e5cacc9f66a"
      "028f408e7fed24160c236ea41b1a410a42760a58945005749e57a64c1bf1f24d"
      "b78d3174d339dd7fc59f2943831fbd0792caeb33afb899dc8cd492df83257141"
      "3a31560d454393d02c2357951b415ae58de1eddaaa3ed081ce3cc246f9bae7fc"
      "d7fe57e13c16038d91f28374cd6f603d28d4a17e059a5e33c151c3f7d84d4ff9"
      "43a2b4132a866fa895460d5ad26002341f1c2dab36bec50a63ac7d58a84d736b"
      "5b45998127ad65892c6bf6a1d270daa1e569a66f950ef46f44025f8b0bace093");
  ChaChaRng by_bytes(BytesView(to_bytes("seed")));
  EXPECT_EQ(to_hex(by_bytes.bytes(1024)),
      "e9f5d902aebb39aa57fc233bacb995bf41211eb6c5255dbd79ef6290b11ee064"
      "e08fbc64f93c9cfa2b64072bfd9e3ade68143e8eead8440c5f41c0afe6210b51"
      "06b6487120c3d6880639b5ff857df7b0aaa00c160023e1f407ce26597c8dd275"
      "f1b7685d128d3f2f72870fcc416a88ed35701bb1f80b5ce1280c69b04a73bb1c"
      "5b86133773091deb5901d43ec6b8b15d8c744f92a1eab19118fc3f897505f93a"
      "82281cb433cf43617c225f7ae769e548f172a942b5cac2f772501f328a8d4cb7"
      "ff8bd3310b26f6b4b4bcdcb5eaf8265365960d721569df354b5c2205d7b2bfec"
      "9f3c4b44ab24058844ad059b5d5d12bdf41efc6e9626a34bfe90561484a38cfe"
      "baf92aa1a5521dfdc14a8e5260902fcc17680454156c50fb4bedf5f5a2a8ed9e"
      "b9af73db66e57b635a1bde91d3c055cd42537e09a9020531ae15c31cba4639c9"
      "64e8c2040faf999604943136dd9801653ab19d3f995918b2b7bab27464487e32"
      "37d865503a1739e5fffe7da6459361e445c2d6bdecbc5d896dd320f67aee7930"
      "90b16ddfebf88712c2ef092dc535ff00a02c96b27600c452272c6ce009476dba"
      "4f2f0ac42f33fcb3c98e7e0973f9e45e8d0513c88233ee5c41d2ef24cff6646b"
      "4b04693b5e140c18efd01158cbb3492e9e3229a2075569a082926c76dd89086c"
      "c2be61ad4ae3ded7c08e37b9070531637a09ce394820fdc235dda61be58d86a2"
      "fa7e3f57da45e280cc8152fb7044a8616f899a90868cdda07401ee3c738f06f5"
      "98aeaf5349225f41b9ffc01ecffe991f03eefc7e43bb37b217a8071b9a6c51c7"
      "16e9dd8116e17b1d5f3a93f688346484cf85f4f9107944b56fc2199cf5d8f96b"
      "996f2fa8c50414012a8d5df2e535db38ea4ca8f35c543158b4151fdbc345a7c4"
      "5a92683ab5d50bf5f0836376b989e6c3769c6b2c94c2a309b0dc64d39771f577"
      "75c23260cc8234dc46f12ffd4152b146aedc7de9a6c42437efa67712260adcb0"
      "1ec1e6f89c19b25d50148060642f548f71fc8d9e5c98a6e3410b2fa88a93a57b"
      "33b1acb6b60bd36b108d9cfae64435775f6140d53c625a95f27683efca87e08b"
      "c2b55d0bcf60da9d20a7263c8b598e9854367c15b49b0b17f1ad55a96a9a6e45"
      "42948d46e287ff51d6b24e297610b0e82398067792edb1c711445b84140f35ed"
      "47fa2e764cdc907d5bb155c0ad30ef1f5b53de1ea8475ad375a198c3d5bb772b"
      "84f9a8a1e56c8d74059b65db9b4f9af0512724f69097732171b2ecef081912f4"
      "a86a20f2812777f6ef61d9ace0132364f69a0e3c0b2ad1bae3d05775290cf343"
      "9ffc9479c7744fe28fa99a4ee55ab502573fed55707010ad35f9589272e20e50"
      "6a03c3ec650b70e108b886053528898371c4156017bffa3580f2027151f71d4f"
      "66356db3e89304553458e77165ed675322ee47275231100a068b2ded2dab59a4");
}

// Draws of any size read one stream: ChaCha20 under SHA-256(seed) with a
// zero nonce, from block 0.
TEST(ChaChaRng, AnySplitReadsTheKeystream) {
  const Bytes key = Sha256::hash(be_encode(1, 8));
  const Bytes want =
      chacha20_xor(key, 0, Bytes(kChaChaNonceSize, 0), Bytes(4096, 0));
  XoshiroRng sizes(5);
  ChaChaRng rng(1);
  Bytes got;
  while (got.size() < want.size()) {
    const std::size_t take = std::min<std::size_t>(
        want.size() - got.size(), static_cast<std::size_t>(sizes.below(150)));
    append(got, rng.bytes(take));
  }
  EXPECT_EQ(got, want);
}

TEST(ChaChaRng, DeterministicAndSeedSensitive) {
  ChaChaRng a(BytesView(to_bytes("seed"))), b(BytesView(to_bytes("seed")));
  EXPECT_EQ(a.bytes(100), b.bytes(100));
  ChaChaRng c(BytesView(to_bytes("seed2")));
  EXPECT_NE(a.bytes(100), c.bytes(100));
}

}  // namespace
}  // namespace dcpl::crypto
