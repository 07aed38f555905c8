// Wire codec tier: ByteWriter/ByteReader round trips with length prefixes
// and views, reader view aliasing (the zero-copy contract), and truncation.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/bytes.hpp"
#include "common/io.hpp"

namespace dcpl {
namespace {

Bytes materialize(BytesView v) { return Bytes(v.begin(), v.end()); }

// --- writer / reader round trips ------------------------------------------

TEST(ByteCodec, RoundTripWithLengthPrefixesAndViews) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ull);
  w.u16(15293);
  const Bytes body = to_bytes("payload-bytes");
  w.vec(body, 2);
  w.raw(to_bytes("tail"));
  const Bytes frame = std::move(w).take();

  ByteReader r(frame);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.u16(), 15293u);
  EXPECT_EQ(materialize(r.view(r.u16())), body);
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
  // A length prefix that exceeds the remaining bytes.
  ByteWriter w3;
  w3.u16(100);
  w3.u8(0x01);
  const Bytes bogus = std::move(w3).take();
  ByteReader r3(bogus);
  EXPECT_THROW(r3.view(r3.u16()), ParseError);
  EXPECT_EQ(r3.remaining(), 1u);
  ByteReader r4(bogus);
  EXPECT_THROW(r4.vec(2), ParseError);
  EXPECT_EQ(r4.remaining(), 1u);
}

}  // namespace
}  // namespace dcpl
