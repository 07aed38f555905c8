#include "crypto/poly1305.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace dcpl::crypto {

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = (std::uint64_t{1} << 44) - 1;
constexpr std::uint64_t kMask42 = (std::uint64_t{1} << 42) - 1;
// The 2^128 pad bit of a whole block, in limb 2 (which starts at bit 88).
constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, 8);
}

}  // namespace

// h, r and the message blocks are held as three limbs at bits 0, 44 and 88.
Poly1305::Poly1305(BytesView key) {
  if (key.size() != kPoly1305KeySize) {
    throw std::invalid_argument("poly1305: key size");
  }
  // r is clamped per the spec (r &= 0x0ffffffc0ffffffc0ffffffc0fffffff)
  // while it is split into limbs.
  const std::uint64_t t0 = load_le64(key.data());
  const std::uint64_t t1 = load_le64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  s_[0] = load_le64(key.data() + 16);
  s_[1] = load_le64(key.data() + 24);
}

void Poly1305::process_blocks(const std::uint8_t* m, std::size_t blocks,
                              std::uint64_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // A product at bit 132 folds back to bit 0 as 2^132 = 4 * 2^130 ≡ 20.
  const std::uint64_t s1 = r1 * 20, s2 = r2 * 20;
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  for (; blocks != 0; --blocks, m += 16) {
    const std::uint64_t t0 = load_le64(m);
    const std::uint64_t t1 = load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s2 +
                    static_cast<u128>(h2) * s1;
    u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 +
              static_cast<u128>(h2) * s2;
    u128 d2 = static_cast<u128>(h0) * r2 + static_cast<u128>(h1) * r1 +
              static_cast<u128>(h2) * r0;

    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }

  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  absorbed_ += n;
  if (buffered_ != 0) {
    const std::size_t take = std::min<std::size_t>(16 - buffered_, n);
    std::memcpy(buf_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < 16) return;
    process_blocks(buf_, 1, kHibit);
    buffered_ = 0;
  }
  const std::size_t whole = n / 16;
  if (whole != 0) {
    process_blocks(p, whole, kHibit);
    p += 16 * whole;
    n -= 16 * whole;
  }
  if (n != 0) {
    std::memcpy(buf_, p, n);
    buffered_ = n;
  }
}

void Poly1305::pad16() {
  const std::size_t rem = absorbed_ % 16;
  if (rem == 0) return;
  static constexpr std::uint8_t kZeros[16] = {0};
  update(BytesView(kZeros, 16 - rem));
}

std::array<std::uint8_t, kPoly1305TagSize> Poly1305::finish() {
  if (buffered_ != 0) {
    // Pad the final partial block with 0x01 then zeros; no high bit.
    buf_[buffered_] = 1;
    for (std::size_t i = buffered_ + 1; i < 16; ++i) buf_[i] = 0;
    process_blocks(buf_, 1, 0);
    buffered_ = 0;
  }

  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  // Full carry. process_blocks() leaves h0 < 2^44 and h2 < 2^42, so only
  // h1 can exceed its limb, by a small carry. One pass then makes every
  // limb canonical: if h1 carries, it is small before the carry that comes
  // back into it; if it does not, no limb carries.
  std::uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // Compute h + 5 - 2^130 and select it if non-negative.
  std::uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  std::uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  const std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);

  const std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= 2^130 - 5
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // Add s (the pad) mod 2^128.
  const std::uint64_t t0 = s_[0], t1 = s_[1];
  h0 += t0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += (t1 >> 24) + c;
  h2 &= kMask42;

  std::array<std::uint8_t, kPoly1305TagSize> tag;
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Bytes poly1305_mac(BytesView key, BytesView msg) {
  Poly1305 mac(key);
  mac.update(msg);
  const auto tag = mac.finish();
  return Bytes(tag.begin(), tag.end());
}

}  // namespace dcpl::crypto
