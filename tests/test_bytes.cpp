#include "common/bytes.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <stdexcept>
#include <string>

#include "common/io.hpp"
#include "common/rng.hpp"

namespace dcpl {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(b), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001deadbeefff"), b);
  EXPECT_EQ(from_hex("0001DEADBEEFFF"), b);
}

TEST(Bytes, HexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

// RFC 4648 §10 test vectors.
TEST(Bytes, Base64Rfc4648Vectors) {
  EXPECT_EQ(to_base64(to_bytes("")), "");
  EXPECT_EQ(to_base64(to_bytes("f")), "Zg==");
  EXPECT_EQ(to_base64(to_bytes("fo")), "Zm8=");
  EXPECT_EQ(to_base64(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(to_base64(to_bytes("foob")), "Zm9vYg==");
  EXPECT_EQ(to_base64(to_bytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(to_base64(to_bytes("foobar")), "Zm9vYmFy");

  EXPECT_EQ(to_string(from_base64("Zm9vYmFy")), "foobar");
  EXPECT_EQ(to_string(from_base64("Zm9vYg==")), "foob");
}

TEST(Bytes, Base64RoundTripRandom) {
  XoshiroRng rng(42);
  for (std::size_t len = 0; len < 64; ++len) {
    Bytes b = rng.bytes(len);
    EXPECT_EQ(from_base64(to_base64(b)), b) << "len=" << len;
  }
}

TEST(Bytes, Base64RejectsBadInput) {
  EXPECT_THROW(from_base64("Zg="), std::invalid_argument);
  EXPECT_THROW(from_base64("Z!=="), std::invalid_argument);
  EXPECT_THROW(from_base64("=AAA"), std::invalid_argument);
}

TEST(Bytes, Concat) {
  Bytes a = {1, 2}, b = {}, c = {3};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
}

TEST(Bytes, XorBytes) {
  Bytes a = {0xff, 0x00, 0x55};
  Bytes b = {0x0f, 0xf0, 0x55};
  EXPECT_EQ(xor_bytes(a, b), (Bytes{0xf0, 0xf0, 0x00}));
  EXPECT_THROW(xor_bytes(a, Bytes{1}), std::invalid_argument);
}

TEST(Bytes, CtEqual) {
  EXPECT_TRUE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(Bytes, BigEndianEncode) {
  EXPECT_EQ(be_encode(0x0102, 2), (Bytes{0x01, 0x02}));
  EXPECT_EQ(be_encode(0xff, 4), (Bytes{0, 0, 0, 0xff}));
  EXPECT_EQ(be_decode(Bytes{0x01, 0x02, 0x03}), 0x010203u);
  EXPECT_THROW(be_encode(1, 9), std::invalid_argument);
}

TEST(ByteWriter, FieldsAndVectors) {
  // Every field type the wire formats write, pinned byte for byte.
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x0102);
  w.u24(0x030405);
  w.u32(0xdeadbeef);
  w.u64(0x1122334455667788ULL);
  w.raw(std::string_view("hi"));
  w.vec(Bytes{}, 2);
  w.vec(Bytes{9, 9}, 2);
  w.vec(Bytes{7}, 1);
  w.vec(Bytes{5, 6}, 4);
  EXPECT_EQ(to_hex(w.bytes()),
            "ab"                  // u8
            "0102"                // u16
            "030405"              // u24
            "deadbeef"            // u32
            "1122334455667788"    // u64
            "6869"                // raw(string_view)
            "0000"                // empty vec, width 2
            "00020909"            // vec, width 2
            "0107"                // vec, width 1
            "000000020506");      // vec, width 4
  EXPECT_EQ(w.size(), w.bytes().size());
}

TEST(ByteWriter, VecRejectsLengthsItsPrefixCannotHold) {
  // The largest length a width can state round-trips; one past it throws
  // std::length_error and leaves the buffer as it was.
  for (std::size_t width : {1u, 2u}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const std::size_t largest = (std::size_t{1} << (8 * width)) - 1;
    const Bytes body(largest, 0x5a);
    ByteWriter w;
    w.u8(0xee);
    w.vec(body, width);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xee);
    EXPECT_EQ(r.vec(width), body);
    EXPECT_TRUE(r.done());
    const Bytes before = w.bytes();
    EXPECT_THROW(w.vec(Bytes(largest + 1), width), std::length_error);
    EXPECT_EQ(w.bytes(), before);
  }

  // Width 4: one past its largest length is 4 GiB. The view spans reserved,
  // unreadable address space, since the writer must reject it from its size
  // alone. (The largest width-4 length itself would need a 4 GiB buffer.)
  const std::size_t past = std::size_t{1} << 32;
  void* reserved = ::mmap(nullptr, past, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (reserved == MAP_FAILED) GTEST_SKIP() << "cannot reserve 4 GiB";
  ByteWriter w;
  w.u8(0xee);
  EXPECT_THROW(
      w.vec(BytesView(static_cast<const std::uint8_t*>(reserved), past), 4),
      std::length_error);
  EXPECT_EQ(w.bytes(), Bytes{0xee});
  ::munmap(reserved, past);
}

TEST(ByteReader, ReadsBackWriterOutput) {
  ByteWriter w;
  w.u8(7);
  w.u16(0x1234);
  w.u64(0x1122334455667788ULL);
  w.vec(to_bytes("hello"), 1);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(to_string(r.vec(1)), "hello");
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, ThrowsOnTruncation) {
  Bytes b = {1, 2};
  ByteReader r(b);
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(ByteReader, VecLengthBeyondBufferThrows) {
  Bytes b = {0x00, 0x10, 1, 2};  // claims 16 bytes, has 2
  ByteReader r(b);
  EXPECT_THROW(r.vec(2), ParseError);
}

TEST(Rng, DeterministicAcrossInstances) {
  XoshiroRng a(123), b(123);
  EXPECT_EQ(a.bytes(32), b.bytes(32));
  XoshiroRng c(124);
  EXPECT_NE(a.bytes(32), c.bytes(32));
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  XoshiroRng rng(7);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UnitInHalfOpenInterval) {
  XoshiroRng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}


TEST(Zipf, RanksAreInRangeAndSkewed) {
  XoshiroRng rng(55);
  ZipfSampler zipf(100, 1.0);
  std::vector<std::size_t> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    std::size_t r = zipf.sample(rng);
    ASSERT_LT(r, 100u);
    counts[r]++;
  }
  // Rank 0 should dominate rank 50 heavily under s=1.
  EXPECT_GT(counts[0], counts[50] * 10);
  // And the tail is still reachable.
  std::size_t tail = 0;
  for (int i = 50; i < 100; ++i) tail += counts[i];
  EXPECT_GT(tail, 100u);
}

TEST(Zipf, UniformWhenExponentZero) {
  XoshiroRng rng(56);
  ZipfSampler zipf(10, 0.0);
  std::vector<std::size_t> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[zipf.sample(rng)]++;
  for (std::size_t c : counts) {
    EXPECT_GT(c, 700u);
    EXPECT_LT(c, 1300u);
  }
}

TEST(Zipf, RejectsEmptyDomain) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace dcpl
