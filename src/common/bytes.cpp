#include "common/bytes.hpp"

#include <stdexcept>

namespace dcpl {

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_string(BytesView b) { return std::string(b.begin(), b.end()); }

std::string to_hex(BytesView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0x0f]);
  }
  return out;
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: bad hex digit");
}

}  // namespace

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_nibble(hex[i]) << 4 |
                                            hex_nibble(hex[i + 1])));
  }
  return out;
}

Bytes concat(std::initializer_list<BytesView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Bytes xor_bytes(BytesView a, BytesView b) {
  if (a.size() != b.size()) throw std::invalid_argument("xor_bytes: length");
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

bool ct_equal(BytesView a, BytesView b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

Bytes be_encode(std::uint64_t v, std::size_t width) {
  if (width > 8) throw std::invalid_argument("be_encode: width > 8");
  Bytes out(width);
  for (std::size_t i = 0; i < width; ++i) {
    out[width - 1 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}

std::uint64_t be_decode(BytesView b) {
  if (b.size() > 8) throw std::invalid_argument("be_decode: span > 8 bytes");
  std::uint64_t v = 0;
  for (std::uint8_t byte : b) v = v << 8 | byte;
  return v;
}

}  // namespace dcpl
