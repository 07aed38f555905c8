// Binary readers/writers used by all wire formats (DNS, HPKE contexts,
// binary HTTP, onion layers, session frames). Big-endian throughout,
// matching network order, plus QUIC-style varints for self-describing
// lengths and sequence numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace dcpl {

/// Thrown by ByteReader on truncated or malformed input.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

// --- varints (RFC 9000 §16) -------------------------------------------------
//
// The top two bits of the first byte select a 1/2/4/8-byte big-endian
// encoding, so short values cost one byte and the framing stays
// self-describing.

/// Largest value a QUIC-style varint can carry (2^62 - 1).
constexpr std::uint64_t kVarintMax = (std::uint64_t{1} << 62) - 1;

/// Encoded size of `v` in bytes (1, 2, 4, or 8). Throws
/// std::invalid_argument above kVarintMax.
inline std::size_t varint_size(std::uint64_t v) {
  if (v < 0x40) return 1;
  if (v < 0x4000) return 2;
  if (v < 0x40000000) return 4;
  if (v <= kVarintMax) return 8;
  throw std::invalid_argument("varint: value exceeds 2^62 - 1");
}

/// Appends the varint encoding of `v` to `out`.
inline void varint_append(std::uint64_t v, Bytes& out) {
  const std::size_t n = varint_size(v);
  // Two-bit length prefix (00/01/10/11 for 1/2/4/8 bytes) in the top bits
  // of the big-endian encoding.
  const std::uint8_t prefix =
      n == 1 ? 0x00 : n == 2 ? 0x40 : n == 4 ? 0x80 : 0xC0;
  const std::size_t start = out.size();
  out.resize(start + n);
  for (std::size_t i = 0; i < n; ++i) {
    out[start + n - 1 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  out[start] |= prefix;
}

/// Decodes one varint at `data[pos]`, advancing `pos`. Throws ParseError on
/// truncation.
inline std::uint64_t varint_decode(BytesView data, std::size_t& pos) {
  if (pos >= data.size()) throw ParseError("varint: truncated input");
  const std::size_t n = std::size_t{1} << (data[pos] >> 6);
  if (data.size() - pos < n) throw ParseError("varint: truncated input");
  std::uint64_t v = data[pos] & 0x3F;
  for (std::size_t i = 1; i < n; ++i) {
    v = (v << 8) | data[pos + i];
  }
  pos += n;
  return v;
}

/// Appends big-endian fields to an owned buffer, each written in place.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { be(v, 2); }
  void u24(std::uint32_t v) { be(v, 3); }
  void u32(std::uint32_t v) { be(v, 4); }
  void u64(std::uint64_t v) { be(v, 8); }
  void varint(std::uint64_t v) { varint_append(v, buf_); }
  void raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void raw(std::string_view s) { buf_.insert(buf_.end(), s.begin(), s.end()); }

  /// Length-prefixed vector with a `width`-byte big-endian length. Throws
  /// std::length_error, having written nothing, when `b` is longer than
  /// the prefix can state, and std::invalid_argument when width > 8.
  void vec(BytesView b, std::size_t width) {
    if (width > 8) throw std::invalid_argument("ByteWriter::vec: width > 8");
    if (width < 8 && (std::uint64_t{b.size()} >> (8 * width)) != 0) {
      throw std::length_error("ByteWriter::vec: " + std::to_string(b.size()) +
                              " bytes overflow a " + std::to_string(width) +
                              "-byte length");
    }
    be(b.size(), width);
    raw(b);
  }

  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void be(std::uint64_t v, std::size_t width) {
    const std::size_t at = buf_.size();
    buf_.resize(at + width);
    for (std::size_t i = 0; i < width; ++i) {
      buf_[at + width - 1 - i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  Bytes buf_;
};

/// Consumes big-endian fields from a borrowed buffer; throws ParseError on
/// truncation. view() and varint() read without copying, so nested
/// payloads can alias the input instead of being copied out.
class ByteReader {
 public:
  explicit ByteReader(BytesView b) : data_(b) {}

  std::uint8_t u8() { return view(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(be_decode(view(2))); }
  std::uint32_t u24() { return static_cast<std::uint32_t>(be_decode(view(3))); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be_decode(view(4))); }
  std::uint64_t u64() { return be_decode(view(8)); }
  std::uint64_t varint() { return varint_decode(data_, pos_); }

  /// The next `n` bytes as a subspan of the input (no copy).
  BytesView view(std::size_t n) {
    if (remaining() < n) throw ParseError("ByteReader: truncated input");
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  Bytes raw(std::size_t n) {
    BytesView v = view(n);
    return Bytes(v.begin(), v.end());
  }

  /// Reads a `width`-byte length then that many bytes.
  Bytes vec(std::size_t width) {
    std::uint64_t len = be_decode(view(width));
    return raw(static_cast<std::size_t>(len));
  }

  /// Remaining unread bytes, consumed.
  Bytes rest() { return raw(remaining()); }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return remaining() == 0; }

  /// Absolute-offset peek used by DNS name decompression.
  BytesView whole() const { return data_; }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace dcpl
