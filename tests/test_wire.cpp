// Wire codec tier: QUIC varint edge widths, ByteWriter/ByteReader round
// trips with varints and views, reader view aliasing (the zero-copy
// contract), and truncation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/bytes.hpp"
#include "common/io.hpp"

namespace dcpl {
namespace {

Bytes materialize(BytesView v) { return Bytes(v.begin(), v.end()); }

Bytes varint_bytes(std::uint64_t v) {
  ByteWriter w;
  w.varint(v);
  return std::move(w).take();
}

// --- varint ---------------------------------------------------------------

TEST(Varint, WidthBoundaries) {
  // RFC 9000 §16: 6/14/30/62 usable bits per width.
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(0x3F), 1u);
  EXPECT_EQ(varint_size(0x40), 2u);
  EXPECT_EQ(varint_size(0x3FFF), 2u);
  EXPECT_EQ(varint_size(0x4000), 4u);
  EXPECT_EQ(varint_size(0x3FFFFFFF), 4u);
  EXPECT_EQ(varint_size(0x40000000), 8u);
  EXPECT_EQ(varint_size(kVarintMax), 8u);
  EXPECT_THROW(varint_size(kVarintMax + 1), std::invalid_argument);
  ByteWriter w;
  EXPECT_THROW(w.varint(kVarintMax + 1), std::invalid_argument);
  EXPECT_EQ(w.size(), 0u);
}

TEST(Varint, KnownEncodings) {
  // Worked examples from RFC 9000 appendix A.1, through both the free
  // function and the writer.
  auto enc = [](std::uint64_t v) {
    Bytes out;
    varint_append(v, out);
    EXPECT_EQ(out, varint_bytes(v)) << v;
    return to_hex(out);
  };
  EXPECT_EQ(enc(37), "25");
  EXPECT_EQ(enc(15293), "7bbd");
  EXPECT_EQ(enc(494878333), "9d7f3e7d");
  EXPECT_EQ(enc(151288809941952652ull), "c2197c5eff14e88c");
}

TEST(Varint, RoundTripAtEveryBoundary) {
  const std::uint64_t cases[] = {
      0,          1,          0x3F,       0x40,         0x3FFF,
      0x4000,     0x3FFFFFFF, 0x40000000, 0x1234567890, kVarintMax - 1,
      kVarintMax,
  };
  for (std::uint64_t v : cases) {
    const Bytes out = varint_bytes(v);
    ASSERT_EQ(out.size(), varint_size(v)) << v;
    std::size_t pos = 0;
    EXPECT_EQ(varint_decode(out, pos), v);
    EXPECT_EQ(pos, out.size());
    ByteReader r(out);
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, RoundTripPropertySweep) {
  // Deterministic xorshift sweep across the value space.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  ByteWriter w;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x & kVarintMax;
    values.push_back(v);
    w.varint(v);
  }
  ByteReader r(w.bytes());
  for (std::uint64_t v : values) {
    ASSERT_EQ(r.varint(), v);
  }
  EXPECT_TRUE(r.done());
}

TEST(Varint, TruncationThrows) {
  const Bytes out = varint_bytes(0x4000);  // 4-byte encoding
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    Bytes partial(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t pos = 0;
    EXPECT_THROW(varint_decode(partial, pos), ParseError) << cut;
    EXPECT_EQ(pos, 0u) << cut;
    ByteReader r(partial);
    EXPECT_THROW(r.varint(), ParseError) << cut;
    EXPECT_EQ(r.position(), 0u) << cut;
  }
}

// --- writer / reader round trips ------------------------------------------

TEST(ByteCodec, RoundTripWithVarintsAndViews) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ull);
  w.varint(15293);
  const Bytes body = to_bytes("payload-bytes");
  w.varint(body.size());
  w.raw(body);
  w.raw(to_bytes("tail"));
  const Bytes frame = std::move(w).take();

  ByteReader r(frame);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.varint(), 15293u);
  EXPECT_EQ(materialize(r.view(r.varint())), body);
  EXPECT_EQ(to_string(r.view(r.remaining())), "tail");
  EXPECT_TRUE(r.done());
}

TEST(ByteCodec, ReaderViewsAliasTheInputBuffer) {
  ByteWriter w;
  w.vec(to_bytes("first"), 2);
  w.vec(to_bytes("second-longer-chunk"), 4);
  const Bytes frame = std::move(w).take();

  ByteReader r(frame);
  BytesView a = r.view(r.u16());
  BytesView b = r.view(r.u32());
  // Zero-copy contract: views point into `frame`, not into fresh storage.
  const std::uint8_t* lo = frame.data();
  const std::uint8_t* hi = frame.data() + frame.size();
  EXPECT_GE(a.data(), lo);
  EXPECT_LE(a.data() + a.size(), hi);
  EXPECT_GE(b.data(), lo);
  EXPECT_LE(b.data() + b.size(), hi);
  EXPECT_EQ(to_string(a), "first");
  EXPECT_EQ(to_string(b), "second-longer-chunk");
}

TEST(ByteCodec, ReaderTruncationThrows) {
  ByteWriter w;
  w.u32(7);
  const Bytes frame = std::move(w).take();
  ByteReader r(frame);
  EXPECT_THROW(r.u64(), ParseError);
  ByteReader r2(frame);
  r2.u32();
  EXPECT_THROW(r2.view(1), ParseError);
  // A varint length that exceeds the remaining bytes.
  Bytes bogus = varint_bytes(100);
  bogus.push_back(0x01);
  ByteReader r3(bogus);
  EXPECT_THROW(r3.view(r3.varint()), ParseError);
  EXPECT_EQ(r3.remaining(), 1u);
}

}  // namespace
}  // namespace dcpl
