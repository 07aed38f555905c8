// SHA-256 (FIPS 180-4), HMAC-SHA256 (RFC 4231) and HKDF (RFC 5869) vectors.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace dcpl::crypto {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(Sha256::hash(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, OneMillionAs) {
  Sha256 ctx;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  auto d = ctx.digest();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  // Feed the same message in every possible split position.
  Bytes msg = to_bytes("The quick brown fox jumps over the lazy dog.");
  Bytes expected = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.update(BytesView(msg).first(split));
    ctx.update(BytesView(msg).subspan(split));
    auto d = ctx.digest();
    EXPECT_EQ(Bytes(d.begin(), d.end()), expected) << "split=" << split;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64 padding boundaries must all differ and be
  // stable under re-computation.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    Bytes m(len, 0x5a);
    EXPECT_EQ(Sha256::hash(m), Sha256::hash(m));
    Bytes m2(len + 1, 0x5a);
    EXPECT_NE(Sha256::hash(m), Sha256::hash(m2));
  }
}

// Hashes `msg` through `compress`, feeding it in random update() pieces.
Bytes hash_in_pieces(Sha256Compress compress, BytesView msg, XoshiroRng& rng) {
  Sha256 ctx(compress);
  std::size_t off = 0;
  while (off < msg.size()) {
    const std::size_t take = std::min<std::size_t>(
        msg.size() - off, static_cast<std::size_t>(rng.below(140)));
    ctx.update(msg.subspan(off, take));
    off += take;
  }
  const auto d = ctx.digest();
  return Bytes(d.begin(), d.end());
}

// The portable compression is the oracle for every other path. Its half
// runs on every CPU: split feeding must not change the digest, and the
// dispatched default must agree with it.
TEST(Sha256, PortableSplitsMatchDispatched) {
  XoshiroRng rng(256);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes msg = rng.bytes(len);
    EXPECT_EQ(hash_in_pieces(sha256_compress_portable, msg, rng),
              Sha256::hash(msg))
        << "len=" << len;
  }
}

// digest() pads inside its block buffer, for both compressions. Check it
// against FIPS 180-4 §5.1.1 padding built by hand and fed straight to the
// portable compression, across the 55/56-byte boundary of every block.
TEST(Sha256, PaddingMatchesFips) {
  XoshiroRng rng(258);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes msg = rng.bytes(len);
    Bytes padded = msg;
    padded.push_back(0x80);
    while (padded.size() % Sha256::kBlockSize != 56) padded.push_back(0);
    append(padded, be_encode(std::uint64_t{len} * 8, 8));
    std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    sha256_compress_portable(h, padded.data(),
                             padded.size() / Sha256::kBlockSize);
    Bytes want;
    for (std::uint32_t w : h) append(want, be_encode(w, 4));
    Sha256 ctx(sha256_compress_portable);
    ctx.update(msg);
    const auto got = ctx.digest();
    EXPECT_EQ(Bytes(got.begin(), got.end()), want) << "len=" << len;
  }
}

TEST(Sha256, ShaNiMatchesPortable) {
  const Sha256Compress shani = sha256_compress_shani();
  if (shani == nullptr) {
    GTEST_SKIP() << "no SHA extensions on this CPU (or not an x86-64 build); "
                    "Sha256 runs the portable compression here";
  }
  XoshiroRng rng(257);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes msg = rng.bytes(len);
    Sha256 portable(sha256_compress_portable);
    portable.update(msg);
    const auto want = portable.digest();
    EXPECT_EQ(hash_in_pieces(shani, msg, rng), Bytes(want.begin(), want.end()))
        << "len=" << len;
  }
  // Multi-block calls carry the state across blocks inside the compression.
  const Bytes big = rng.bytes(64 * 37 + 5);
  Sha256 a(shani), b(sha256_compress_portable);
  a.update(big);
  b.update(big);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Sha256, DispatchFollowsCpuid) {
  const Sha256Compress shani = sha256_compress_shani();
  EXPECT_EQ(sha256_compress_dispatched(),
            shani != nullptr ? shani : sha256_compress_portable);
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: short key.
TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // Keys longer than the block size are pre-hashed; equivalent short key.
  Bytes long_key(100, 0x42);
  Bytes short_key = Sha256::hash(long_key);
  Bytes msg = to_bytes("message");
  EXPECT_EQ(hmac_sha256(long_key, msg), hmac_sha256(short_key, msg));
}

// HMAC as RFC 2104 writes it, with the padded keys concatenated.
Bytes reference_hmac(BytesView key, BytesView data) {
  Bytes k(key.begin(), key.end());
  if (k.size() > Sha256::kBlockSize) k = Sha256::hash(k);
  k.resize(Sha256::kBlockSize, 0);
  Bytes ipad(k), opad(k);
  for (auto& b : ipad) b ^= 0x36;
  for (auto& b : opad) b ^= 0x5c;
  return Sha256::hash(concat({opad, Sha256::hash(concat({ipad, data}))}));
}

// One keyed HmacSha256, copied per message, matches the textbook
// construction for every key length class and any update() split.
TEST(Hmac, KeyedCopiesMatchReference) {
  XoshiroRng rng(4231);
  for (std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 100u}) {
    const Bytes key = rng.bytes(key_len);
    const HmacSha256 keyed(key);
    for (std::size_t len : {0u, 1u, 55u, 56u, 64u, 119u, 200u}) {
      const Bytes msg = rng.bytes(len);
      HmacSha256 mac = keyed;
      const std::size_t cut = len / 3;
      mac.update(BytesView(msg).first(cut));
      mac.update(BytesView(msg).subspan(cut));
      const auto tag = mac.finish();
      EXPECT_EQ(Bytes(tag.begin(), tag.end()), reference_hmac(key, msg))
          << "key_len=" << key_len << " len=" << len;
      EXPECT_EQ(hmac_sha256(key, msg), reference_hmac(key, msg));
    }
  }
}

// Info given as parts expands exactly like the concatenated info.
TEST(Hkdf, ExpandIntoPartsMatchesConcatenatedInfo) {
  const Bytes prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
  const Bytes a = to_bytes("HPKE-v1"), b = to_bytes("suite"), c = to_bytes("");
  const BytesView parts[] = {a, b, c, a};
  const Bytes joined = concat({a, b, c, a});
  for (std::size_t len : {0u, 1u, 12u, 32u, 33u, 64u, 65u, 255u * 32}) {
    Bytes out(len);
    hkdf_expand_into(HmacSha256(prk), parts, out);
    EXPECT_EQ(out, hkdf_expand(prk, joined, len)) << "len=" << len;
  }
  Bytes too_long(255 * 32 + 1);
  EXPECT_THROW(hkdf_expand_into(HmacSha256(prk), parts, too_long),
               std::invalid_argument);
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");

  Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3: empty salt and info.
TEST(Hkdf, Rfc5869Case3) {
  Bytes ikm(22, 0x0b);
  Bytes prk = hkdf_extract({}, ikm);
  EXPECT_EQ(to_hex(prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
  Bytes okm = hkdf_expand(prk, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandLengthLimits) {
  Bytes prk = hkdf_extract({}, to_bytes("ikm"));
  EXPECT_EQ(hkdf_expand(prk, {}, 255 * 32).size(), 255u * 32);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
  EXPECT_TRUE(hkdf_expand(prk, {}, 0).empty());
}

TEST(Hkdf, PrefixConsistency) {
  // Shorter outputs are prefixes of longer ones (streaming KDF property).
  Bytes prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
  Bytes info = to_bytes("ctx");
  Bytes long_okm = hkdf_expand(prk, info, 80);
  for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 79u}) {
    Bytes short_okm = hkdf_expand(prk, info, len);
    EXPECT_EQ(short_okm, Bytes(long_okm.begin(),
                               long_okm.begin() + static_cast<long>(len)));
  }
}

}  // namespace
}  // namespace dcpl::crypto
