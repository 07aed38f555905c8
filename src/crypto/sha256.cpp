#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dcpl::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// Four rounds per step with the SHA extensions. The rounds instruction
// holds the working variables as ABEF and CDGH and does two rounds per
// call; sha256msg1/msg2 extend the message schedule four words at a time:
// W[g] = msg2(msg1(W[g-4], W[g-3]) + W[g-2..g-1] shifted one word, W[g-1]).
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL,
                                       0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH

  for (; blocks != 0; --blocks, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      } else {
        __m128i t = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        t = _mm_add_epi32(t, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(t, w[(g + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#endif  // __x86_64__

}  // namespace

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks != 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[4 * i]) << 24 |
             static_cast<std::uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Compress sha256_compress_shani() {
#if defined(__x86_64__)
  if (detail::cpu_features().sha) return compress_shani;
#endif
  return nullptr;
}

Sha256Compress sha256_compress_dispatched() {
  const Sha256Compress shani = sha256_compress_shani();
  return shani != nullptr ? shani : sha256_compress_portable;
}

Sha256::Sha256() : Sha256(sha256_compress_dispatched()) {}

Sha256::Sha256(Sha256Compress compress) : compress_(compress) {
  static constexpr std::uint32_t kInit[8] = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::memcpy(h_, kInit, sizeof(h_));
}

void Sha256::update(BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  total_bytes_ += n;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, n);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < kBlockSize) return;
    compress_(h_, buffer_, 1);
    buffered_ = 0;
  }
  const std::size_t whole = n / kBlockSize;
  if (whole != 0) {
    compress_(h_, p, whole);
    p += whole * kBlockSize;
    n -= whole * kBlockSize;
  }
  if (n != 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian bit length, written straight
  // into the block buffer.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > kBlockSize - 8) {
    std::memset(buffer_ + buffered_, 0, kBlockSize - buffered_);
    compress_(h_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, kBlockSize - 8 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(h_, buffer_, 1);
  buffered_ = 0;

  std::array<std::uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Bytes Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  auto d = ctx.digest();
  return Bytes(d.begin(), d.end());
}

}  // namespace dcpl::crypto
