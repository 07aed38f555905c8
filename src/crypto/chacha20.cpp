#include "crypto/chacha20.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dcpl::crypto {

namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

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

[[gnu::always_inline]] inline void quarter_round(std::uint32_t& a,
                                                 std::uint32_t& b,
                                                 std::uint32_t& c,
                                                 std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

// The 16 keystream words of `in`: 20 rounds plus the feed-forward. The
// working words are locals, so the inlined double round keeps them in
// registers rather than in an array.
[[gnu::always_inline]] inline void keystream_words(const ChaChaState& in,
                                                   std::uint32_t ks[16]) {
  std::uint32_t x0 = in[0], x1 = in[1], x2 = in[2], x3 = in[3];
  std::uint32_t x4 = in[4], x5 = in[5], x6 = in[6], x7 = in[7];
  std::uint32_t x8 = in[8], x9 = in[9], x10 = in[10], x11 = in[11];
  std::uint32_t x12 = in[12], x13 = in[13], x14 = in[14], x15 = in[15];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x0, x4, x8, x12);
    quarter_round(x1, x5, x9, x13);
    quarter_round(x2, x6, x10, x14);
    quarter_round(x3, x7, x11, x15);
    quarter_round(x0, x5, x10, x15);
    quarter_round(x1, x6, x11, x12);
    quarter_round(x2, x7, x8, x13);
    quarter_round(x3, x4, x9, x14);
  }
  ks[0] = x0 + in[0];
  ks[1] = x1 + in[1];
  ks[2] = x2 + in[2];
  ks[3] = x3 + in[3];
  ks[4] = x4 + in[4];
  ks[5] = x5 + in[5];
  ks[6] = x6 + in[6];
  ks[7] = x7 + in[7];
  ks[8] = x8 + in[8];
  ks[9] = x9 + in[9];
  ks[10] = x10 + in[10];
  ks[11] = x11 + in[11];
  ks[12] = x12 + in[12];
  ks[13] = x13 + in[13];
  ks[14] = x14 + in[14];
  ks[15] = x15 + in[15];
}

// The 32-bit block counter must not wrap: state word 12 has no carry into
// the nonce, so block `counter + k` with k past the wrap would repeat
// keystream emitted for low counters. Every path rejects such a call up
// front.
void check_counter(const ChaChaState& state, std::size_t size) {
  const std::uint64_t blocks =
      (static_cast<std::uint64_t>(size) + kChaChaBlockSize - 1) /
      kChaChaBlockSize;
  const std::uint64_t available = (std::uint64_t{1} << 32) - state[12];
  if (blocks > available) {
    throw std::length_error("chacha20: 32-bit block counter would wrap");
  }
}

#if defined(__x86_64__)
// ---------------------------------------------------------------------------
// 16 blocks per pass on AVX-512 (the layout of Goll and Gueron, ITNG 2014):
// x[i] holds word i of the 16 blocks, block b in 32-bit lane b, so the
// quarter rounds run on whole vectors and need no shuffles. Lane b starts
// at counter + b; lanes past a short input compute blocks nothing reads, and
// their counters may wrap, which check_counter() allows since they are
// never used.
// ---------------------------------------------------------------------------
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw")

// vprold, vpunpck{l,h}{dq,qdq} and vshufi32x4 on every lane. The unmasked
// intrinsics merge into an undefined vector, which gcc 12 reports under
// -Wmaybe-uninitialized; the forms masked to all lanes compile to the same
// instructions.
template <int kBits>
[[gnu::always_inline]] inline __m512i rotl16(__m512i v) {
  return _mm512_mask_rol_epi32(v, 0xFFFF, v, kBits);
}
[[gnu::always_inline]] inline __m512i unpacklo32(__m512i a, __m512i b) {
  return _mm512_mask_unpacklo_epi32(a, 0xFFFF, a, b);
}
[[gnu::always_inline]] inline __m512i unpackhi32(__m512i a, __m512i b) {
  return _mm512_mask_unpackhi_epi32(a, 0xFFFF, a, b);
}
[[gnu::always_inline]] inline __m512i unpacklo64(__m512i a, __m512i b) {
  return _mm512_mask_unpacklo_epi64(a, 0xFF, a, b);
}
[[gnu::always_inline]] inline __m512i unpackhi64(__m512i a, __m512i b) {
  return _mm512_mask_unpackhi_epi64(a, 0xFF, a, b);
}
template <int kImm>
[[gnu::always_inline]] inline __m512i shuffle128(__m512i a, __m512i b) {
  return _mm512_mask_shuffle_i32x4(a, 0xFFFF, a, b, kImm);
}

[[gnu::always_inline]] inline void quarter_round16(__m512i& a, __m512i& b,
                                                   __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b); d = _mm512_xor_si512(d, a); d = rotl16<16>(d);
  c = _mm512_add_epi32(c, d); b = _mm512_xor_si512(b, c); b = rotl16<12>(b);
  a = _mm512_add_epi32(a, b); d = _mm512_xor_si512(d, a); d = rotl16<8>(d);
  c = _mm512_add_epi32(c, d); b = _mm512_xor_si512(b, c); b = rotl16<7>(b);
}

// Turns the 16 word vectors into 16 block vectors: x[b] then holds the 16
// words of block b in order. Within each group of four words, 32- and then
// 64-bit unpacks leave w[4g + e] holding, in 128-bit lane q, words 4g..4g+3
// of block 4q + e; two rounds of vshufi32x4 then transpose those 128-bit
// lanes across the four groups.
[[gnu::always_inline]] inline void transpose16(__m512i x[16]) {
  __m512i w[16];
#pragma GCC unroll 4
  for (int g = 0; g < 4; ++g) {
    const __m512i lo01 = unpacklo32(x[4 * g], x[4 * g + 1]);
    const __m512i hi01 = unpackhi32(x[4 * g], x[4 * g + 1]);
    const __m512i lo23 = unpacklo32(x[4 * g + 2], x[4 * g + 3]);
    const __m512i hi23 = unpackhi32(x[4 * g + 2], x[4 * g + 3]);
    w[4 * g] = unpacklo64(lo01, lo23);
    w[4 * g + 1] = unpackhi64(lo01, lo23);
    w[4 * g + 2] = unpacklo64(hi01, hi23);
    w[4 * g + 3] = unpackhi64(hi01, hi23);
  }
  // Lane selectors: 0x44 takes 128-bit lanes 0, 1 of each source, 0xee
  // lanes 2, 3, 0x88 lanes 0, 2 and 0xdd lanes 1, 3.
#pragma GCC unroll 4
  for (int e = 0; e < 4; ++e) {
    const __m512i c0 = shuffle128<0x44>(w[e], w[4 + e]);
    const __m512i c1 = shuffle128<0xee>(w[e], w[4 + e]);
    const __m512i c2 = shuffle128<0x44>(w[8 + e], w[12 + e]);
    const __m512i c3 = shuffle128<0xee>(w[8 + e], w[12 + e]);
    x[e] = shuffle128<0x88>(c0, c2);
    x[4 + e] = shuffle128<0xdd>(c0, c2);
    x[8 + e] = shuffle128<0x88>(c1, c3);
    x[12 + e] = shuffle128<0xdd>(c1, c3);
  }
}

// The keystream of the 16 blocks from `counter` (lane b: counter + b) as
// block vectors: x[b] holds block b.
[[gnu::always_inline]] inline void keystream16(const ChaChaState& state,
                                               __m512i counter,
                                               __m512i x[16]) {
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    x[i] = i == 12 ? counter : _mm512_set1_epi32(static_cast<int>(state[i]));
  }
  for (int round = 0; round < 10; ++round) {
    quarter_round16(x[0], x[4], x[8], x[12]);
    quarter_round16(x[1], x[5], x[9], x[13]);
    quarter_round16(x[2], x[6], x[10], x[14]);
    quarter_round16(x[3], x[7], x[11], x[15]);
    quarter_round16(x[0], x[5], x[10], x[15]);
    quarter_round16(x[1], x[6], x[11], x[12]);
    quarter_round16(x[2], x[7], x[8], x[13]);
    quarter_round16(x[3], x[4], x[9], x[14]);
  }
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    const __m512i in =
        i == 12 ? counter : _mm512_set1_epi32(static_cast<int>(state[i]));
    x[i] = _mm512_add_epi32(x[i], in);
  }
  transpose16(x);
}

void xor_avx512(const ChaChaState& state, BytesView data, std::uint8_t* out) {
  // A pass makes 16 blocks whatever the length: for one block or less the
  // portable block function is faster (on the Xeon the kernel was tuned on,
  // 126-151 ns against about 194 for a pass).
  if (data.size() <= kChaChaBlockSize) {
    chacha20_xor_portable(state, data, out);
    return;
  }
  check_counter(state, data.size());
  constexpr std::size_t kPass = 16 * kChaChaBlockSize;
  const std::uint8_t* in = data.data();
  std::size_t n = data.size();
  __m512i counter = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(state[12])),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  __m512i x[16];
  // Each block is loaded before it is stored, so out == in is safe.
  for (; n >= kPass; in += kPass, out += kPass, n -= kPass) {
    keystream16(state, counter, x);
#pragma GCC unroll 16
    for (int b = 0; b < 16; ++b) {
      const __m512i m = _mm512_loadu_si512(in + 64 * b);
      _mm512_storeu_si512(out + 64 * b, _mm512_xor_si512(m, x[b]));
    }
    counter = _mm512_add_epi32(counter, _mm512_set1_epi32(16));
  }
  if (n == 0) return;
  // The last, partial pass: every block under a byte mask, which is empty
  // for the blocks past the input.
  keystream16(state, counter, x);
#pragma GCC unroll 16
  for (std::size_t b = 0; b < 16; ++b) {
    const std::size_t off = kChaChaBlockSize * b;
    const std::size_t take = off < n ? std::min(n - off, kChaChaBlockSize) : 0;
    const __mmask64 mask = take == kChaChaBlockSize
                               ? ~__mmask64{0}
                               : (__mmask64{1} << take) - 1;
    const __m512i m = _mm512_maskz_loadu_epi8(mask, in + off);
    _mm512_mask_storeu_epi8(out + off, mask, _mm512_xor_si512(m, x[b]));
  }
}

#pragma GCC pop_options
#endif  // __x86_64__

}  // namespace

ChaChaState chacha20_state(BytesView key, std::uint32_t counter,
                           BytesView nonce) {
  if (key.size() != kChaChaKeySize) throw std::invalid_argument("chacha20: key");
  if (nonce.size() != kChaChaNonceSize) {
    throw std::invalid_argument("chacha20: nonce");
  }
  ChaChaState state;
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);
  return state;
}

void chacha20_block(const ChaChaState& state,
                    std::uint8_t out[kChaChaBlockSize]) {
  std::uint32_t ks[16];
  keystream_words(state, ks);
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, ks[i]);
}

void chacha20_xor_portable(const ChaChaState& state, BytesView data,
                           std::uint8_t* out) {
  check_counter(state, data.size());
  ChaChaState st = state;
  const std::uint8_t* in = data.data();
  std::size_t n = data.size();
  std::uint32_t ks[16];
  // Whole blocks XOR as eight 64-bit words; each word is read before it is
  // written, so out == in is safe.
  while (n >= kChaChaBlockSize) {
    keystream_words(st, ks);
    ++st[12];
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t k = static_cast<std::uint64_t>(ks[2 * i]) |
                              static_cast<std::uint64_t>(ks[2 * i + 1]) << 32;
      store_le64(out + 8 * i, load_le64(in + 8 * i) ^ k);
    }
    in += kChaChaBlockSize;
    out += kChaChaBlockSize;
    n -= kChaChaBlockSize;
  }
  if (n != 0) {
    std::uint8_t tail[kChaChaBlockSize];
    chacha20_block(st, tail);
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] ^ tail[i];
  }
}

ChaCha20Xor chacha20_xor_avx512() {
#if defined(__x86_64__)
  if (detail::cpu_features().avx512bw) return xor_avx512;
#endif
  return nullptr;
}

ChaCha20Xor chacha20_xor_dispatched() {
  const ChaCha20Xor avx512 = chacha20_xor_avx512();
  return avx512 != nullptr ? avx512 : chacha20_xor_portable;
}

void chacha20_xor_into(const ChaChaState& state, BytesView data,
                       std::uint8_t* out) {
  chacha20_xor_dispatched()(state, data, out);
}

Bytes chacha20_xor(BytesView key, std::uint32_t initial_counter,
                   BytesView nonce, BytesView data) {
  Bytes out(data.size());
  chacha20_xor_into(chacha20_state(key, initial_counter, nonce), data,
                    out.data());
  return out;
}

}  // namespace dcpl::crypto
