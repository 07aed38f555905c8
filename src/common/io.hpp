// Binary readers/writers used by all wire formats (DNS, HPKE contexts,
// binary HTTP, onion layers). Big-endian throughout, matching network
// order.
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

/// Appends big-endian fields to an owned buffer, each written in place.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { be(v, 2); }
  void u24(std::uint32_t v) { be(v, 3); }
  void u32(std::uint32_t v) { be(v, 4); }
  void u64(std::uint64_t v) { be(v, 8); }
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
/// truncation. view() reads without copying, so nested payloads can alias
/// the input instead of being copied out.
class ByteReader {
 public:
  explicit ByteReader(BytesView b) : data_(b) {}

  std::uint8_t u8() { return view(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(be_decode(view(2))); }
  std::uint32_t u24() { return static_cast<std::uint32_t>(be_decode(view(3))); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be_decode(view(4))); }
  std::uint64_t u64() { return be_decode(view(8)); }

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
