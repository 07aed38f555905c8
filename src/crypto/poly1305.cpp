#include "crypto/poly1305.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// h <- h * r mod 2^130 - 5, given s1 = 20 * r1 and s2 = 20 * r2: a product
// at bit 132 folds back to bit 0 as 2^132 = 4 * 2^130 ≡ 20. Leaves h0 <
// 2^44, h2 < 2^42 and h1 below 2^44 plus a small carry.
[[gnu::always_inline]] inline void mul_reduce(std::uint64_t& h0,
                                              std::uint64_t& h1,
                                              std::uint64_t& h2,
                                              const std::uint64_t r[3],
                                              std::uint64_t s1,
                                              std::uint64_t s2) {
  const u128 d0 = static_cast<u128>(h0) * r[0] + static_cast<u128>(h1) * s2 +
                  static_cast<u128>(h2) * s1;
  u128 d1 = static_cast<u128>(h0) * r[1] + static_cast<u128>(h1) * r[0] +
            static_cast<u128>(h2) * s2;
  u128 d2 = static_cast<u128>(h0) * r[2] + static_cast<u128>(h1) * r[1] +
            static_cast<u128>(h2) * r[0];

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

// Absorbs `blocks` 16-byte blocks; `hibit` is 2^128 in limb 2's position
// for whole blocks and 0 for the padded final block.
void absorb(Poly1305State& st, const std::uint8_t* m, std::size_t blocks,
            std::uint64_t hibit) {
  const std::uint64_t s1 = st.r[1] * 20, s2 = st.r[2] * 20;
  std::uint64_t h0 = st.h[0], h1 = st.h[1], h2 = st.h[2];
  for (; blocks != 0; --blocks, m += 16) {
    const std::uint64_t t0 = load_le64(m);
    const std::uint64_t t1 = load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;
    mul_reduce(h0, h1, h2, st.r, s1, s2);
  }
  st.h[0] = h0;
  st.h[1] = h1;
  st.h[2] = h2;
}

#if defined(__x86_64__)
// Fills st.powers with r^8 ... r^1, limbs bounded as mul_reduce() leaves
// them.
void fill_powers(Poly1305State& st) {
  const std::uint64_t s1 = st.r[1] * 20, s2 = st.r[2] * 20;
  std::uint64_t p0 = st.r[0], p1 = st.r[1], p2 = st.r[2];
  for (int k = 1; k <= 8; ++k) {
    if (k > 1) mul_reduce(p0, p1, p2, st.r, s1, s2);
    st.powers[0][8 - k] = p0;
    st.powers[1][8 - k] = p1;
    st.powers[2][8 - k] = p2;
  }
  st.powers_ready = true;
}

// ---------------------------------------------------------------------------
// Eight blocks per step on AVX-512 IFMA (Goll and Gueron, ITNG 2015): block
// 8g + j goes to 64-bit lane j, and lane j runs Horner's rule on its own
// blocks with r^8. After a run of 8k blocks m_0 ... m_{8k-1} whose last
// group multiplies lane j by r^(8 - j) instead, lane j holds the sum of
// m_i * r^(8k - i) over its i (lane 0 also h * r^(8k)), so the lanes add up
// to what 8k scalar steps leave in h.
//
// vpmadd52luq/vpmadd52huq multiply the low 52 bits of two lanes and add the
// low or the high 52 bits of the 104-bit product to an accumulator; bits of
// a factor above 52 are ignored, not wrapped. mul8() states why every limb
// it multiplies is below 2^52.
// ---------------------------------------------------------------------------
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512ifma")

// Eight field elements, one per 64-bit lane; v[i] holds limb i of each.
struct Fe8 {
  __m512i v[3];
};

// Shifts on every lane. The unmasked intrinsics merge into an undefined
// vector, which gcc 12 reports under -Wmaybe-uninitialized; the forms
// masked to all lanes compile to the same instructions.
[[gnu::always_inline]] inline __m512i shr8(__m512i v, unsigned n) {
  return _mm512_mask_srli_epi64(v, 0xFF, v, n);
}
[[gnu::always_inline]] inline __m512i shl8(__m512i v, unsigned n) {
  return _mm512_mask_slli_epi64(v, 0xFF, v, n);
}

[[gnu::always_inline]] inline Fe8 add8(const Fe8& a, const Fe8& b) {
  return {{_mm512_add_epi64(a.v[0], b.v[0]), _mm512_add_epi64(a.v[1], b.v[1]),
           _mm512_add_epi64(a.v[2], b.v[2])}};
}

// Eight whole blocks at m, block j in lane j, split into limbs with the
// 2^128 pad bit set.
[[gnu::always_inline]] inline Fe8 load8(const std::uint8_t* m) {
  const __m512i a = _mm512_loadu_si512(m);
  const __m512i b = _mm512_loadu_si512(m + 64);
  const __m512i lo = _mm512_permutex2var_epi64(
      a, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), b);
  const __m512i hi = _mm512_permutex2var_epi64(
      a, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), b);
  const __m512i mask44 = _mm512_set1_epi64(static_cast<long long>(kMask44));
  return {{_mm512_and_si512(lo, mask44),
           _mm512_and_si512(_mm512_or_si512(shr8(lo, 44), shl8(hi, 20)),
                            mask44),
           _mm512_or_si512(shr8(hi, 24),
                           _mm512_set1_epi64(static_cast<long long>(kHibit)))}};
}

// 20 * b for each lane of a multiplier limb.
[[gnu::always_inline]] inline __m512i times20(__m512i b) {
  return _mm512_add_epi64(shl8(b, 4), shl8(b, 2));
}

// a * b mod 2^130 - 5 in each lane, given s1 = 20 * b1 and s2 = 20 * b2.
//
// Limb bounds: a is a product of this function (limbs below 2^44, 2^44 +
// 2^15 and 2^42) or a state h that the portable loop left (2^44, 2^44 plus
// a small carry, 2^42), plus one message block (2^44, 2^44, 2^41), so a's
// limbs are below 2^46. b is a power of r as mul_reduce() leaves it (below
// 2^45), and s1, s2 are below 20 * 2^45 < 2^50. All are below 2^52.
//
// Column k is lo_k + hi_k * 2^52: lo_k sums three low halves (< 2^54) and
// hi_k three high halves (< 2^46), so no column overflows 64 bits.
// hi_k * 2^52 is (hi_k << 8) * 2^44, a carry into column k + 1; out of
// column 2, (lo_2 >> 42) + (hi_2 << 10) counts multiples of 2^130, which
// fold into limb 0 times 5. The result's limbs are below 2^44, 2^44 + 2^15
// and 2^42.
[[gnu::always_inline]] inline Fe8 mul8(const Fe8& a, const Fe8& b,
                                       __m512i s1, __m512i s2) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i lo0 = _mm512_madd52lo_epu64(zero, a.v[0], b.v[0]);
  __m512i hi0 = _mm512_madd52hi_epu64(zero, a.v[0], b.v[0]);
  __m512i lo1 = _mm512_madd52lo_epu64(zero, a.v[0], b.v[1]);
  __m512i hi1 = _mm512_madd52hi_epu64(zero, a.v[0], b.v[1]);
  __m512i lo2 = _mm512_madd52lo_epu64(zero, a.v[0], b.v[2]);
  __m512i hi2 = _mm512_madd52hi_epu64(zero, a.v[0], b.v[2]);
  lo0 = _mm512_madd52lo_epu64(lo0, a.v[1], s2);
  hi0 = _mm512_madd52hi_epu64(hi0, a.v[1], s2);
  lo1 = _mm512_madd52lo_epu64(lo1, a.v[1], b.v[0]);
  hi1 = _mm512_madd52hi_epu64(hi1, a.v[1], b.v[0]);
  lo2 = _mm512_madd52lo_epu64(lo2, a.v[1], b.v[1]);
  hi2 = _mm512_madd52hi_epu64(hi2, a.v[1], b.v[1]);
  lo0 = _mm512_madd52lo_epu64(lo0, a.v[2], s1);
  hi0 = _mm512_madd52hi_epu64(hi0, a.v[2], s1);
  lo1 = _mm512_madd52lo_epu64(lo1, a.v[2], s2);
  hi1 = _mm512_madd52hi_epu64(hi1, a.v[2], s2);
  lo2 = _mm512_madd52lo_epu64(lo2, a.v[2], b.v[0]);
  hi2 = _mm512_madd52hi_epu64(hi2, a.v[2], b.v[0]);

  const __m512i mask44 = _mm512_set1_epi64(static_cast<long long>(kMask44));
  const __m512i mask42 = _mm512_set1_epi64(static_cast<long long>(kMask42));
  Fe8 h;
  h.v[0] = _mm512_and_si512(lo0, mask44);
  lo1 = _mm512_add_epi64(lo1, _mm512_add_epi64(shr8(lo0, 44), shl8(hi0, 8)));
  h.v[1] = _mm512_and_si512(lo1, mask44);
  lo2 = _mm512_add_epi64(lo2, _mm512_add_epi64(shr8(lo1, 44), shl8(hi1, 8)));
  h.v[2] = _mm512_and_si512(lo2, mask42);
  const __m512i c = _mm512_add_epi64(shr8(lo2, 42), shl8(hi2, 10));
  h.v[0] = _mm512_add_epi64(h.v[0], _mm512_add_epi64(c, shl8(c, 2)));
  h.v[1] = _mm512_add_epi64(h.v[1], shr8(h.v[0], 44));
  h.v[0] = _mm512_and_si512(h.v[0], mask44);
  return h;
}

void blocks_ifma(Poly1305State& st, const std::uint8_t* m,
                 std::size_t blocks) {
  // Shorter runs go to the portable loop: there the r-power fill costs what
  // the lanes save.
  const std::size_t groups =
      blocks >= kPoly1305IfmaMinBlocks ? blocks / 8 : 0;
  if (groups != 0) {
    if (!st.powers_ready) fill_powers(st);
    Fe8 desc, r8;  // lane j: r^(8 - j); every lane: r^8
    for (int i = 0; i < 3; ++i) {
      desc.v[i] = _mm512_loadu_si512(st.powers[i]);
      r8.v[i] = _mm512_set1_epi64(static_cast<long long>(st.powers[i][0]));
    }
    const __m512i r8_s1 = times20(r8.v[1]), r8_s2 = times20(r8.v[2]);
    Fe8 h;
    for (int i = 0; i < 3; ++i) {
      h.v[i] = _mm512_maskz_set1_epi64(1, static_cast<long long>(st.h[i]));
    }
    for (std::size_t g = 1; g < groups; ++g, m += 128) {
      h = mul8(add8(h, load8(m)), r8, r8_s1, r8_s2);
    }
    h = mul8(add8(h, load8(m)), desc, times20(desc.v[1]), times20(desc.v[2]));
    m += 128;

    // The lane sums are below 2^48; one carry pass brings them back to the
    // bounds a block kernel leaves.
    std::uint64_t lanes[3][8];
    for (int i = 0; i < 3; ++i) _mm512_storeu_si512(lanes[i], h.v[i]);
    std::uint64_t h0 = 0, h1 = 0, h2 = 0;
    for (int j = 0; j < 8; ++j) {
      h0 += lanes[0][j];
      h1 += lanes[1][j];
      h2 += lanes[2][j];
    }
    std::uint64_t c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
    c = h1 >> 44;
    h1 &= kMask44;
    h2 += c;
    c = h2 >> 42;
    h2 &= kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
    st.h[0] = h0;
    st.h[1] = h1;
    st.h[2] = h2;
    // gcc 12 emits no vzeroupper before the tail call below, and with the
    // upper halves left dirty a run of 8 blocks took 6 times as long.
    _mm256_zeroupper();
  }
  absorb(st, m, blocks - 8 * groups, kHibit);
}

#pragma GCC pop_options
#endif  // __x86_64__

}  // namespace

void poly1305_blocks_portable(Poly1305State& state, const std::uint8_t* m,
                              std::size_t blocks) {
  absorb(state, m, blocks, kHibit);
}

Poly1305Blocks poly1305_blocks_ifma() {
#if defined(__x86_64__)
  if (detail::cpu_features().ifma) return blocks_ifma;
#endif
  return nullptr;
}

Poly1305Blocks poly1305_blocks_dispatched() {
  const Poly1305Blocks ifma = poly1305_blocks_ifma();
  return ifma != nullptr ? ifma : poly1305_blocks_portable;
}

Poly1305::Poly1305(BytesView key)
    : Poly1305(key, poly1305_blocks_dispatched()) {}

Poly1305::Poly1305(BytesView key, Poly1305Blocks blocks) : blocks_(blocks) {
  if (key.size() != kPoly1305KeySize) {
    throw std::invalid_argument("poly1305: key size");
  }
  // r is clamped per the spec (r &= 0x0ffffffc0ffffffc0ffffffc0fffffff)
  // while it is split into limbs.
  const std::uint64_t t0 = load_le64(key.data());
  const std::uint64_t t1 = load_le64(key.data() + 8);
  state_.r[0] = t0 & 0xffc0fffffff;
  state_.r[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  state_.r[2] = (t1 >> 24) & 0x00ffffffc0f;
  s_[0] = load_le64(key.data() + 16);
  s_[1] = load_le64(key.data() + 24);
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
    blocks_(state_, buf_, 1);
    buffered_ = 0;
  }
  const std::size_t whole = n / 16;
  if (whole != 0) {
    blocks_(state_, p, whole);
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
    absorb(state_, buf_, 1, 0);
    buffered_ = 0;
  }

  std::uint64_t h0 = state_.h[0], h1 = state_.h[1], h2 = state_.h[2];

  // Full carry. The block kernels leave h0 < 2^44 and h2 < 2^42, so only
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
