#include "crypto/x25519.hpp"

#include <sys/mman.h>

#include <array>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "crypto/cpu_features.hpp"
#include "crypto/hkdf.hpp"
#include "obs/metrics.hpp"

namespace dcpl::crypto {

namespace {

// Field element mod p = 2^255 - 19, five 51-bit limbs, little-endian.
//
// Limb bounds: fe_mul/fe_sq outputs are below 2^52, and they accept inputs
// below 2^54. fe_sub adds 2p, so its subtrahend must be such a product (not
// a sum); the Edwards formulas below order their operations to keep that.
struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

using u128 = unsigned __int128;

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }
Fe fe_small(std::uint64_t s) { return Fe{{s, 0, 0, 0, 0}}; }

Fe fe_add(const Fe& a, const Fe& b) {
  Fe c;
  for (int i = 0; i < 5; ++i) c.v[i] = a.v[i] + b.v[i];
  return c;
}

// a - b + 2p, keeping limbs positive.
Fe fe_sub(const Fe& a, const Fe& b) {
  Fe c;
  c.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL - b.v[0];
  c.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL - b.v[1];
  c.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL - b.v[2];
  c.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL - b.v[3];
  c.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL - b.v[4];
  return c;
}

// Carries a five-column product back to 51-bit limbs; the carry out of the
// top limb folds into limb 0 times 19 (2^255 = 19 mod p).
//
// fe_carry, fe_mul and fe_sq are forced inline: as calls, with the five
// 128-bit columns passed through memory, they made the ladder about 14%
// and the comb about 20% slower (gcc 12.2 -O2, x86-64 Xeon).
[[gnu::always_inline]] inline Fe fe_carry(u128 t0, u128 t1, u128 t2, u128 t3,
                                          u128 t4) {
  Fe c;
  std::uint64_t carry;
  carry = static_cast<std::uint64_t>(t0 >> 51);
  c.v[0] = static_cast<std::uint64_t>(t0) & kMask51;
  t1 += carry;
  carry = static_cast<std::uint64_t>(t1 >> 51);
  c.v[1] = static_cast<std::uint64_t>(t1) & kMask51;
  t2 += carry;
  carry = static_cast<std::uint64_t>(t2 >> 51);
  c.v[2] = static_cast<std::uint64_t>(t2) & kMask51;
  t3 += carry;
  carry = static_cast<std::uint64_t>(t3 >> 51);
  c.v[3] = static_cast<std::uint64_t>(t3) & kMask51;
  t4 += carry;
  carry = static_cast<std::uint64_t>(t4 >> 51);
  c.v[4] = static_cast<std::uint64_t>(t4) & kMask51;
  c.v[0] += carry * 19;
  carry = c.v[0] >> 51;
  c.v[0] &= kMask51;
  c.v[1] += carry;
  return c;
}

[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
                      b4_19 = b4 * 19;

  return fe_carry((u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
                      (u128)a3 * b2_19 + (u128)a4 * b1_19,
                  (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
                      (u128)a3 * b3_19 + (u128)a4 * b2_19,
                  (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
                      (u128)a3 * b4_19 + (u128)a4 * b3_19,
                  (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
                      (u128)a3 * b0 + (u128)a4 * b4_19,
                  (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
                      (u128)a3 * b1 + (u128)a4 * b0);
}

// fe_mul(a, a) with the symmetric cross terms computed once: 15 limb
// products instead of 25.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t d0 = a0 * 2, d1 = a1 * 2, d2 = a2 * 2, d3 = a3 * 2;
  const std::uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;

  return fe_carry((u128)a0 * a0 + (u128)d1 * a4_19 + (u128)d2 * a3_19,
                  (u128)d0 * a1 + (u128)d2 * a4_19 + (u128)a3 * a3_19,
                  (u128)d0 * a2 + (u128)a1 * a1 + (u128)d3 * a4_19,
                  (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19,
                  (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2);
}

// a^(2^n).
Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// Multiply by a small constant (used with a24 = 121665).
Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  return fe_carry((u128)a.v[0] * s, (u128)a.v[1] * s, (u128)a.v[2] * s,
                  (u128)a.v[3] * s, (u128)a.v[4] * s);
}

void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = ~(swap - 1);  // all-ones if swap==1
  for (int i = 0; i < 5; ++i) {
    std::uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

// a = b if move == 1, unchanged if move == 0, without branching on it.
void fe_cmov(Fe& a, const Fe& b, std::uint64_t move) {
  const std::uint64_t mask = 0 - move;
  for (int i = 0; i < 5; ++i) a.v[i] ^= mask & (a.v[i] ^ b.v[i]);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // little-endian host assumed (x86-64/aarch64)
}

Fe fe_frombytes(BytesView b) {
  Fe f;
  f.v[0] = load_le64(b.data()) & kMask51;
  f.v[1] = (load_le64(b.data() + 6) >> 3) & kMask51;
  f.v[2] = (load_le64(b.data() + 12) >> 6) & kMask51;
  f.v[3] = (load_le64(b.data() + 19) >> 1) & kMask51;
  f.v[4] = (load_le64(b.data() + 24) >> 12) & kMask51;
  return f;
}

// The canonical form of in: limbs below 2^51, value below p.
Fe fe_canonical(const Fe& in) {
  Fe t = in;
  // Carry three times; each pass folds the top carry back in times 19.
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t carry;
    for (int i = 0; i < 4; ++i) {
      carry = t.v[i] >> 51;
      t.v[i] &= kMask51;
      t.v[i + 1] += carry;
    }
    carry = t.v[4] >> 51;
    t.v[4] &= kMask51;
    t.v[0] += carry * 19;
  }
  // Now t < 2^255; subtract p if t >= p.
  // t >= p iff t + 19 >= 2^255.
  Fe u = t;
  u.v[0] += 19;
  for (int i = 0; i < 4; ++i) {
    u.v[i + 1] += u.v[i] >> 51;
    u.v[i] &= kMask51;
  }
  std::uint64_t ge_p = u.v[4] >> 51;  // 1 iff t >= p
  u.v[4] &= kMask51;
  const std::uint64_t mask = ~(ge_p - 1);
  for (int i = 0; i < 5; ++i) t.v[i] = (t.v[i] & ~mask) | (u.v[i] & mask);
  return t;
}

Bytes fe_tobytes(const Fe& in) {
  const Fe t = fe_canonical(in);
  Bytes out(32, 0);
  // Pack 5x51 bits little-endian.
  std::uint64_t w0 = t.v[0] | (t.v[1] << 51);
  std::uint64_t w1 = (t.v[1] >> 13) | (t.v[2] << 38);
  std::uint64_t w2 = (t.v[2] >> 26) | (t.v[3] << 25);
  std::uint64_t w3 = (t.v[3] >> 39) | (t.v[4] << 12);
  std::memcpy(out.data(), &w0, 8);
  std::memcpy(out.data() + 8, &w1, 8);
  std::memcpy(out.data() + 16, &w2, 8);
  std::memcpy(out.data() + 24, &w3, 8);
  return out;
}

// z^(2^250 - 1), the prefix of the square-root exponent (the curve25519
// paper's addition chain).
Fe fe_pow_2_250_1(const Fe& z) {
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(fe_sq_n(z2, 2), z);
  const Fe z11 = fe_mul(z9, z2);
  const Fe z_5 = fe_mul(fe_sq(z11), z9);  // z^(2^5 - 1)
  const Fe z_10 = fe_mul(fe_sq_n(z_5, 5), z_5);
  const Fe z_20 = fe_mul(fe_sq_n(z_10, 10), z_10);
  const Fe z_40 = fe_mul(fe_sq_n(z_20, 20), z_20);
  const Fe z_50 = fe_mul(fe_sq_n(z_40, 10), z_10);
  const Fe z_100 = fe_mul(fe_sq_n(z_50, 50), z_50);
  const Fe z_200 = fe_mul(fe_sq_n(z_100, 100), z_100);
  return fe_mul(fe_sq_n(z_200, 50), z_50);
}

// ---------------------------------------------------------------------------
// Inversion by the constant-time safegcd of Bernstein and Yang ("Fast
// constant-time gcd computation and modular inversion", TCHES 2019), in the
// shape of libsecp256k1's modinv64. Divsteps on (f, g) = (p, z) drive g to
// 0 and f to +-1, while (d, e), which start at (0, 1), track f = d z and
// g = e z mod p, so d ends as +-z^-1. The divsteps run in 10 batches of 59
// on the low 64 bits of f and g; each batch's 2x2 transition matrix, scaled
// by 2^62, is then applied exactly to f and g and modulo p to d and e, all
// held as five signed 62-bit limbs.
//
// 590 divsteps reach g = 0 for every 256-bit input (the bound libsecp256k1
// takes from Bernstein and Yang's analysis, checked by its hull
// computation). The batch count, the shifts and the limb loops are fixed;
// every choice a divstep makes is a mask from the sign of zeta and the low
// bit of g. So no branch, memory index or loop count depends on z.
// ---------------------------------------------------------------------------

using i128 = __int128;

// sum v[i] 2^(62 i): limbs 0..3 in [0, 2^62) once normalized, the sign in
// limb 4.
struct Signed62 {
  std::int64_t v[5];
};

constexpr std::uint64_t kMask62 = (std::uint64_t{1} << 62) - 1;
// p = 2^255 - 19 = 128 * 2^248 - 19.
constexpr Signed62 kP62{{-19, 0, 0, 0, 128}};
// p^-1 mod 2^62, by Newton's iteration on p mod 2^64 (each step doubles the
// correct low bits, from 3 for x = p).
constexpr std::uint64_t kPInv62 = [] {
  const std::uint64_t p = 0 - std::uint64_t{19};
  std::uint64_t x = p;
  for (int i = 0; i < 5; ++i) x *= 2 - p * x;
  return x & kMask62;
}();
static_assert(((0 - std::uint64_t{19}) * kPInv62 & kMask62) == 1);

// The matrix [[u, v], [q, r]] of one batch, scaled by 2^62: its 59 divsteps
// map (f, g) to (u f + v g, q f + r g) / 2^62.
struct Transition {
  std::int64_t u, v, q, r;
};

// 59 divsteps on the low 64 bits of f (odd) and g, from zeta = -(delta +
// 1/2); returns the new zeta. The matrix starts at 8 times the identity, so
// it ends scaled by 2^62, its entries in [-2^62, 2^62]. A step: when zeta <
// 0 (delta > 0) and g is odd, (f, g) <- (g, (g - f) / 2) and zeta <- -zeta
// - 2; otherwise g <- (g + (g odd) f) / 2 and zeta <- zeta - 1.
std::int64_t divsteps_59(std::int64_t zeta, std::uint64_t f, std::uint64_t g,
                         Transition& t) {
  std::uint64_t u = 8, v = 0, q = 0, r = 8;
  for (int i = 3; i < 62; ++i) {
    // All-ones when zeta < 0, and when g is odd.
    const std::uint64_t neg = static_cast<std::uint64_t>(zeta >> 63);
    const std::uint64_t odd = 0 - (g & 1);
    // g += +-f (and q, r by +-u, +-v) when g is odd, negated when zeta < 0.
    g += ((f ^ neg) - neg) & odd;
    q += ((u ^ neg) - neg) & odd;
    r += ((v ^ neg) - neg) & odd;
    // When both, zeta <- -zeta - 2 and f <- f + (g - f) = the old g.
    const std::uint64_t swap = neg & odd;
    zeta = (zeta ^ static_cast<std::int64_t>(swap)) - 1;
    f += g & swap;
    u += q & swap;
    v += r & swap;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = Transition{static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
                 static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
  return zeta;
}

// (d, e) <- t (d, e) / 2^62 mod p. The division is exact once md and me
// multiples of p are added: md and me start as the corrections that keep
// negative inputs in range, and their low 62 bits are then chosen so that
// the low limb of t (d, e) + p (md, me) is zero. d and e stay in (-2p, p),
// with limbs in (-2^62, 2^62).
void update_de(Signed62& d, Signed62& e, const Transition& t) {
  const std::int64_t sd = d.v[4] >> 63, se = e.v[4] >> 63;
  std::int64_t md = (t.u & sd) + (t.v & se);
  std::int64_t me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d.v[0] + static_cast<i128>(t.v) * e.v[0];
  i128 ce = static_cast<i128>(t.q) * d.v[0] + static_cast<i128>(t.r) * e.v[0];
  md -= static_cast<std::int64_t>(
      (kPInv62 * static_cast<std::uint64_t>(cd) +
       static_cast<std::uint64_t>(md)) &
      kMask62);
  me -= static_cast<std::int64_t>(
      (kPInv62 * static_cast<std::uint64_t>(ce) +
       static_cast<std::uint64_t>(me)) &
      kMask62);
  cd += static_cast<i128>(kP62.v[0]) * md;
  ce += static_cast<i128>(kP62.v[0]) * me;
  cd >>= 62;  // the low 62 bits are zero
  ce >>= 62;
#pragma GCC unroll 4
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t.u) * d.v[i] + static_cast<i128>(t.v) * e.v[i] +
          static_cast<i128>(kP62.v[i]) * md;
    ce += static_cast<i128>(t.q) * d.v[i] + static_cast<i128>(t.r) * e.v[i] +
          static_cast<i128>(kP62.v[i]) * me;
    d.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) &
                                           kMask62);
    e.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) &
                                           kMask62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

// (f, g) <- t (f, g) / 2^62, exactly: the batch's divsteps made the low 62
// bits of both products zero.
void update_fg(Signed62& f, Signed62& g, const Transition& t) {
  i128 cf = static_cast<i128>(t.u) * f.v[0] + static_cast<i128>(t.v) * g.v[0];
  i128 cg = static_cast<i128>(t.q) * f.v[0] + static_cast<i128>(t.r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
#pragma GCC unroll 4
  for (int i = 1; i < 5; ++i) {
    cf += static_cast<i128>(t.u) * f.v[i] + static_cast<i128>(t.v) * g.v[i];
    cg += static_cast<i128>(t.q) * f.v[i] + static_cast<i128>(t.r) * g.v[i];
    f.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cf) &
                                           kMask62);
    g.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cg) &
                                           kMask62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<std::int64_t>(cf);
  g.v[4] = static_cast<std::int64_t>(cg);
}

// r + p when `add` is all-ones, else r; limbs not carried.
void add_p(Signed62& r, std::int64_t add) {
  for (int i = 0; i < 5; ++i) r.v[i] += kP62.v[i] & add;
}

// Carries limbs 0..3 into [0, 2^62), and into limb 4, which keeps the sign.
void carry62(Signed62& r) {
  for (int i = 0; i < 4; ++i) {
    r.v[i + 1] += r.v[i] >> 62;
    r.v[i] &= static_cast<std::int64_t>(kMask62);
  }
}

// z^-1 mod p, limbs below 2^51 (0 for z = 0 mod p).
Fe fe_invert(const Fe& z) {
  const Fe c = fe_canonical(z);
  Signed62 f = kP62;
  Signed62 g{{static_cast<std::int64_t>((c.v[0] | c.v[1] << 51) & kMask62),
              static_cast<std::int64_t>((c.v[1] >> 11 | c.v[2] << 40) & kMask62),
              static_cast<std::int64_t>((c.v[2] >> 22 | c.v[3] << 29) & kMask62),
              static_cast<std::int64_t>((c.v[3] >> 33 | c.v[4] << 18) & kMask62),
              static_cast<std::int64_t>(c.v[4] >> 44)}};
  Signed62 d{{0, 0, 0, 0, 0}}, e{{1, 0, 0, 0, 0}};
  std::int64_t zeta = -1;  // delta = 1/2
  for (int batch = 0; batch < 10; ++batch) {
    Transition t;
    zeta = divsteps_59(zeta, static_cast<std::uint64_t>(f.v[0]),
                       static_cast<std::uint64_t>(g.v[0]), t);
    update_de(d, e, t);
    update_fg(f, g, t);
  }
  // Now g = 0 and f = +-1, so d = +-z^-1 in (-2p, p), its sign that of limb
  // 4 (limbs 0..3 are in [0, 2^62)). Bring it to (-p, p), negate it when
  // f = -1, and bring it to [0, p).
  add_p(d, d.v[4] >> 63);
  const std::int64_t negate = f.v[4] >> 63;
  for (int i = 0; i < 5; ++i) d.v[i] = (d.v[i] ^ negate) - negate;
  carry62(d);
  add_p(d, d.v[4] >> 63);
  carry62(d);
  const auto limb = [&](int i) { return static_cast<std::uint64_t>(d.v[i]); };
  return Fe{{limb(0) & kMask51, (limb(0) >> 51 | limb(1) << 11) & kMask51,
             (limb(1) >> 40 | limb(2) << 22) & kMask51,
             (limb(2) >> 29 | limb(3) << 33) & kMask51,
             (limb(3) >> 18 | limb(4) << 44) & kMask51}};
}

// ---------------------------------------------------------------------------
// Fixed-base scalar multiplication on edwards25519
// (-x^2 + y^2 = 1 + d x^2 y^2), which maps onto curve25519 by
// u = (1 + y) / (1 - y). One comb serves every base point P: P's table of
// 128 multiples is built once, and each k * P is then 64 mixed additions and
// 12 doublings.
// ---------------------------------------------------------------------------

// d = -121665 / 121666, 2d and sqrt(-1) = 2^((p - 1) / 4), carried.
constexpr Fe kD{{0x34dca135978a3ULL, 0x1a8283b156ebdULL, 0x5e7a26001c029ULL,
                 0x739c663a03cbbULL, 0x52036cee2b6ffULL}};
constexpr Fe kD2{{0x69b9426b2f159ULL, 0x35050762add7aULL, 0x3cf44c0038052ULL,
                  0x6738cc7407977ULL, 0x2406d9dc56dffULL}};
constexpr Fe kSqrtM1{{0x61b274a0ea0b0ULL, 0x0d5a5fc8f189dULL,
                      0x7ef5e9cbd0c60ULL, 0x78595a6804c9eULL,
                      0x2b8324804fc1dULL}};

// a with its limbs carried to at most 2^51, for sums and differences.
Fe fe_carried(const Fe& a) {
  return fe_carry(a.v[0], a.v[1], a.v[2], a.v[3], a.v[4]);
}

// Compares canonical encodings. Table setup only: it works on public data.
bool fe_equal(const Fe& a, const Fe& b) {
  return fe_tobytes(a) == fe_tobytes(b);
}

// Extended coordinates: x = X/Z, y = Y/Z, x*y = T/Z.
struct GeP3 {
  Fe X, Y, Z, T;
};

// An affine point prepared for mixed addition: (y + x, y - x, 2*d*x*y).
struct GePrecomp {
  Fe ypx, ymx, xy2d;
};

// p + q (madd-2008-hwcd-3 for a = -1): 7 multiplications.
GeP3 ge_madd(const GeP3& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), q.ypx);
  const Fe b = fe_mul(fe_sub(p.Y, p.X), q.ymx);
  const Fe c = fe_mul(p.T, q.xy2d);
  const Fe d = fe_add(p.Z, p.Z);
  const Fe e = fe_sub(a, b), f = fe_sub(d, c), g = fe_add(d, c),
           h = fe_add(a, b);
  return GeP3{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// p + q, both projective (add-2008-hwcd-3 for a = -1, complete): 9
// multiplications. Table setup only.
GeP3 ge_add(const GeP3& p, const GeP3& q) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), fe_add(q.Y, q.X));
  const Fe b = fe_mul(fe_sub(p.Y, p.X), fe_sub(q.Y, q.X));
  const Fe c = fe_mul(fe_mul(p.T, q.T), kD2);
  const Fe zz = fe_mul(p.Z, q.Z);
  const Fe d = fe_add(zz, zz);
  const Fe e = fe_sub(a, b), f = fe_sub(d, c), g = fe_add(d, c),
           h = fe_add(a, b);
  return GeP3{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// 2p (dbl-2008-hwcd for a = -1, every output coordinate negated, which is
// the same projective point).
GeP3 ge_dbl(const GeP3& p) {
  const Fe a = fe_sq(p.X), b = fe_sq(p.Y);
  const Fe zz = fe_sq(p.Z);
  const Fe e = fe_sub(fe_sub(fe_sq(fe_add(p.X, p.Y)), a), b);
  const Fe g = fe_sub(b, a), h = fe_add(a, b);
  const Fe f = fe_sub(fe_add(fe_add(zz, zz), a), b);
  return GeP3{fe_mul(e, f), fe_mul(h, g), fe_mul(g, f), fe_mul(e, h)};
}

// A square root of w into root, for p = 5 mod 8: w^((p+3)/8), times sqrt(-1)
// when that squares to -w. False when w is not a square. Table setup only.
bool fe_sqrt(const Fe& w, Fe& root) {
  root = fe_mul(fe_mul(fe_sq_n(fe_pow_2_250_1(w), 2), w), w);
  if (!fe_equal(fe_sq(root), w)) root = fe_mul(root, kSqrtM1);
  return fe_equal(fe_sq(root), w);
}

// The edwards25519 point p with u(p) = u, or false for the u the comb does
// not serve (see x25519_comb_table in the header). x's sign is free: u(-p) =
// u(p). Table setup only.
bool ge_from_u(const Fe& u, GeP3& p) {
  // y = (u - 1) / (u + 1) and x^2 = (y^2 - 1) / (d y^2 + 1) = -4u / n with
  // n = d (u - 1)^2 + (u + 1)^2, both from one inversion of (u + 1) n; n is
  // (u + 1)^2 (d y^2 + 1), nonzero since -1/d is not a square.
  const Fe um1 = fe_sub(u, fe_one()), up1 = fe_add(u, fe_one());
  if (fe_equal(up1, fe_zero())) return false;  // u = -1: no edwards25519 image
  const Fe n = fe_add(fe_mul(kD, fe_sq(um1)), fe_sq(up1));
  const Fe inv = fe_invert(fe_mul(up1, n));
  const Fe y = fe_mul(fe_mul(um1, n), inv);
  const Fe xx = fe_mul(fe_mul(fe_sub(fe_zero(), fe_mul_small(u, 4)), up1), inv);
  Fe x;
  if (!fe_sqrt(xx, x)) return false;  // a point of the twist
  p = GeP3{x, y, fe_one(), fe_mul(x, y)};
  // 8p is the identity (x = 0) exactly when p's order divides 8; otherwise
  // p has a component of prime order l, and no clamped k (8 | k, 2^254 <=
  // k < 2^255 < 8l) is a multiple of l, so k * p is never the identity.
  GeP3 q = p;
  for (int i = 0; i < 3; ++i) q = ge_dbl(q);
  return !fe_equal(q.X, fe_zero());
}

constexpr int kCombRows = 16;
constexpr int kCombCols = 8;

// One stored multiple: (y + x, y - x, 2dxy) with every limb carried to at
// most 2^51, limb-interleaved (limb l of the three at words 3l, 3l + 1 and
// 3l + 2), so the IFMA comb loads each limb's triple with one masked load.
using CombEntry = std::uint64_t[15];

}  // namespace

// Row i holds j * 2^(16i) * P for j = 1..8, so a scalar written in signed
// radix 16, s = sum e_k 16^k with e_k in [-8, 8], is
// sum_{r < 4} 16^r sum_i e_{4i + r} row_i: 4 digit groups of 16 additions,
// 4 doublings apart.
struct X25519CombTable {
  CombEntry row[kCombRows][kCombCols];
};

namespace {

void entry_store(CombEntry& e, const Fe& a, const Fe& b, const Fe& c) {
  for (int l = 0; l < 5; ++l) {
    e[3 * l] = a.v[l];
    e[3 * l + 1] = b.v[l];
    e[3 * l + 2] = c.v[l];
  }
}

void entry_load(const CombEntry& e, Fe& a, Fe& b, Fe& c) {
  for (int l = 0; l < 5; ++l) {
    a.v[l] = e[3 * l];
    b.v[l] = e[3 * l + 1];
    c.v[l] = e[3 * l + 2];
  }
}

// Fills p's table in place. Each multiple is first stored projective, as
// (X, Y, Z) in its entry's place, while prefix[k] collects the product of
// the Z of every multiple before it; one inversion then normalizes all 128
// (Montgomery's trick). Public data only.
void build_comb_table(const GeP3& p, X25519CombTable& table) {
  constexpr int kPoints = kCombRows * kCombCols;
  std::array<Fe, kPoints> prefix;
  Fe acc = fe_one();
  GeP3 base = p;  // 2^(16i) * p
  for (int i = 0; i < kCombRows; ++i) {
    GeP3 m = base;  // (j + 1) * base
    for (int j = 0; j < kCombCols; ++j) {
      if (j > 0) m = ge_add(m, base);
      entry_store(table.row[i][j], m.X, m.Y, m.Z);
      prefix[i * kCombCols + j] = acc;
      acc = fe_mul(acc, m.Z);
    }
    if (i + 1 < kCombRows) {  // 2^16 * base = 2^13 * (8 * base)
      base = m;
      for (int k = 0; k < 13; ++k) base = ge_dbl(base);
    }
  }
  Fe inv = fe_invert(acc);  // 1 / (Z_0 * ... * Z_k) at step k
  for (int k = kPoints; k-- > 0;) {
    CombEntry& e = table.row[k / kCombCols][k % kCombCols];
    Fe X, Y, Z;
    entry_load(e, X, Y, Z);
    const Fe z_inv = fe_mul(inv, prefix[k]);
    inv = fe_mul(inv, Z);
    const Fe x = fe_mul(X, z_inv), y = fe_mul(Y, z_inv);
    entry_store(e, fe_carried(fe_add(y, x)), fe_carried(fe_sub(y, x)),
                fe_mul(fe_mul(x, y), kD2));
  }
}

// B's table (u = 9), built once, on first use; a function-local static is
// thread-safe.
const X25519CombTable& base_table() {
  static const X25519CombTable table = [] {
    GeP3 b;
    ge_from_u(fe_small(9), b);  // B is a point of prime order
    X25519CombTable t;
    build_comb_table(b, t);
    return t;
  }();
  return table;
}

// The signed radix-16 digits e_k in [-8, 8] of a clamped scalar k =
// sum e_k 16^k (k[31] <= 127, so the top digit is at most 8).
void recode(const std::uint8_t k[32], int e[64]) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = k[i] & 15;
    e[2 * i + 1] = k[i] >> 4;
  }
  int carry = 0;  // recode to [-8, 8)
  for (int i = 0; i < 63; ++i) {
    e[i] += carry;
    carry = (e[i] + 8) >> 4;
    e[i] -= carry * 16;
  }
  e[63] += carry;
}

// |digit| and whether digit < 0 (1 or 0), without branching on the digit.
struct Digit {
  std::uint32_t abs, neg;
};

Digit split_digit(int digit) {
  const std::uint32_t neg = static_cast<std::uint32_t>(digit) >> 31;
  return {(static_cast<std::uint32_t>(digit) ^ (0u - neg)) + neg, neg};
}

// row[|digit| - 1], negated if digit < 0, or the identity for digit 0. All
// eight entries are read and merged by mask, as fe_cswap does, so neither
// the memory access pattern nor any branch depends on the digit.
GePrecomp ge_select(const CombEntry (&row)[kCombCols], int digit) {
  const Digit dg = split_digit(digit);
  CombEntry t = {1, 1, 0};  // the identity (1, 1, 0)
  for (std::uint32_t j = 0; j < kCombCols; ++j) {
    const std::uint64_t mask =  // all-ones iff abs == j + 1
        0 - static_cast<std::uint64_t>(((dg.abs ^ (j + 1)) - 1) >> 31);
    for (int w = 0; w < 15; ++w) t[w] ^= mask & (t[w] ^ row[j][w]);
  }
  GePrecomp q;
  entry_load(t, q.ypx, q.ymx, q.xy2d);
  // -(x, y) = (-x, y): swap y + x with y - x and negate 2dxy.
  const Fe minus_xy2d = fe_sub(fe_zero(), q.xy2d);
  fe_cswap(dg.neg, q.ypx, q.ymx);
  fe_cmov(q.xy2d, minus_xy2d, dg.neg);
  return q;
}

// k * P over P's table, from k's digits e: the projective Y and Z, all that
// u = (Z + Y) / (Z - Y) needs.
void comb_portable(const int e[64], const X25519CombTable& table, Fe& y,
                   Fe& z) {
  GeP3 h{fe_zero(), fe_one(), fe_one(), fe_zero()};
  for (int r = 3; r >= 0; --r) {
    for (int i = 0; r < 3 && i < 4; ++i) h = ge_dbl(h);
    for (int i = 0; i < kCombRows; ++i) {
      h = ge_madd(h, ge_select(table.row[i], e[4 * i + r]));
    }
  }
  y = h.Y;
  z = h.Z;
}

// decodeScalar25519 (RFC 7748 §5). Every entry point counts one x25519
// operation per X25519 output it computes.
void clamp_scalar(BytesView scalar, std::uint8_t k[32],
                  std::uint64_t outputs = 1) {
  static obs::OpCounter ops("crypto", "x25519");
  ops.inc(outputs);
  if (scalar.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  std::memcpy(k, scalar.data(), 32);
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
}

// A Montgomery ladder over the bits of a clamped scalar k, from the
// projective start (x2 : z2) = (1 : 0), (x3 : z3) = (x1 : 1). It returns
// (x2 : z2) = k * (x1 : 1) with limbs below 2^54.
using LadderCore = void (*)(const std::uint8_t k[32], const Fe& x1, Fe& x2,
                            Fe& z2);

void ladder_portable(const std::uint8_t k[32], const Fe& x1, Fe& x2_out,
                     Fe& z2_out) {
  Fe x2 = fe_one(), z2 = fe_zero(), x3 = x1, z3 = fe_one();
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t kt = (k[t / 8] >> (t % 8)) & 1;
    swap ^= kt;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = kt;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);
  x2_out = x2;
  z2_out = z2;
}

#if defined(__x86_64__)
// ---------------------------------------------------------------------------
// The same ladder on AVX-512 IFMA: the state [x2, z2, x3, z3] is one
// four-lane field vector, and each ladder step is three four-lane products
// (the 4-way layout of Nath and Sarkar, IEEE Trans. Computers 2022).
//
// vpmadd52luq/vpmadd52huq multiply the low 52 bits of two lanes and add the
// low or the high 52 bits of the 104-bit product to an accumulator. Every
// limb that enters one must therefore be below 2^52 (the bits above are
// ignored, not wrapped); each function below states why its inputs are.
//
// Every helper is forced inline and its limb loops fully unrolled: with the
// loops left rolled (gcc 12.2 -O2), the vectors went through the stack and
// the ladder ran 2.5x slower, 1.4x slower than the portable one.
// ---------------------------------------------------------------------------
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512ifma")

// Four field elements, one per 64-bit lane; v[i] holds limb i of each.
struct Fe4 {
  __m256i v[5];
};

// One parallel carry round: each limb keeps its low 51 bits and adds the
// carry of the limb below; limb 4's carry enters limb 0 times 19. For input
// limbs below 2^62 every carry is below 2^11, so the outputs are below
// 2^51 + 19 * 2^11 (limb 0) and 2^51 + 2^11 (the rest), all below 2^52.
[[gnu::always_inline]] inline Fe4 fe4_carry(const Fe4& a) {
  const __m256i mask = _mm256_set1_epi64x(kMask51);
  __m256i carry[5];
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    carry[i] = _mm256_srli_epi64(a.v[i], 51);
    r.v[i] = _mm256_and_si256(a.v[i], mask);
  }
#pragma GCC unroll 4
  for (int i = 1; i < 5; ++i) r.v[i] = _mm256_add_epi64(r.v[i], carry[i - 1]);
  // 19 * carry < 2^52, so the 52-bit low product is exact.
  r.v[0] = _mm256_madd52lo_epu64(r.v[0], carry[4], _mm256_set1_epi64x(19));
  return r;
}

// a * b, for limbs below 2^52. The product of limbs i and j is below 2^104:
// its low 52 bits belong to column i + j, and its high half, weighted
// 2^52 = 2 * 2^51, twice over to column i + j + 1. Columns 5..9 fold onto
// 0..4 times 19 (2^255 = 19 mod p). A column holds at most five low and
// five doubled high halves, under 15 * 2^52 < 2^56, so a folded column is
// below 20 * 2^56 < 2^62 and one carry round brings the limbs under 2^52.
[[gnu::always_inline]] inline Fe4 fe4_mul(const Fe4& a, const Fe4& b) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i lo[10], hi[10];  // hi[k]: high halves that belong to column k
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) lo[k] = hi[k] = zero;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
      lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], a.v[i], b.v[j]);
      hi[i + j + 1] = _mm256_madd52hi_epu64(hi[i + j + 1], a.v[i], b.v[j]);
    }
  }
  Fe4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    const __m256i low = _mm256_add_epi64(lo[k], _mm256_slli_epi64(hi[k], 1));
    const __m256i high =
        _mm256_add_epi64(lo[k + 5], _mm256_slli_epi64(hi[k + 5], 1));
    // 19 * high = high + 2 * high + 16 * high.
    r.v[k] = _mm256_add_epi64(
        _mm256_add_epi64(low, high),
        _mm256_add_epi64(_mm256_slli_epi64(high, 1),
                         _mm256_slli_epi64(high, 4)));
  }
  return fe4_carry(r);
}

// base + a * c for a constant c below 2^17 and limbs of a below 2^52. Each
// product's low half (below 2^52) stays in its limb and its doubled high
// half (below 2^18) goes to the next; the one out of limb 4 enters limb 0
// times 2 * 19. Not carried: each limb ends below base + 2^52 + 2^23.
[[gnu::always_inline]] inline Fe4 fe4_mul_small_add(const Fe4& base,
                                                    const Fe4& a, __m256i c) {
  const __m256i zero = _mm256_setzero_si256();
  Fe4 r;
  __m256i hi[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r.v[i] = _mm256_madd52lo_epu64(base.v[i], a.v[i], c);
    hi[i] = _mm256_madd52hi_epu64(zero, a.v[i], c);
  }
#pragma GCC unroll 4
  for (int i = 1; i < 5; ++i) {
    r.v[i] = _mm256_add_epi64(r.v[i], _mm256_slli_epi64(hi[i - 1], 1));
  }
  r.v[0] = _mm256_madd52lo_epu64(r.v[0], hi[4], _mm256_set1_epi64x(38));
  return r;
}

// Lane i of the result is lane s_i of a, for kImm = _MM_SHUFFLE(s_3, s_2,
// s_1, s_0).
template <int kImm>
[[gnu::always_inline]] inline Fe4 fe4_permute(const Fe4& a) {
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) r.v[i] = _mm256_permute4x64_epi64(a.v[i], kImm);
  return r;
}

// Each lane from a, or from b where kMask (one bit per lane) is set.
template <int kMask>
[[gnu::always_inline]] inline Fe4 fe4_blend(const Fe4& a, const Fe4& b) {
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r.v[i] = _mm256_mask_blend_epi64(kMask, a.v[i], b.v[i]);
  }
  return r;
}

[[gnu::always_inline]] inline Fe4 fe4_add(const Fe4& a, const Fe4& b) {
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) r.v[i] = _mm256_add_epi64(a.v[i], b.v[i]);
  return r;
}

// a - b + 2p, as fe_sub: b's limbs must be at most 2p's (2^52 - 38 for limb
// 0, 2^52 - 2 for the rest), which every carried limb is.
[[gnu::always_inline]] inline Fe4 fe4_sub(const Fe4& a, const Fe4& b) {
  const __m256i two_p0 = _mm256_set1_epi64x(0xFFFFFFFFFFFDAULL);
  const __m256i two_p = _mm256_set1_epi64x(0xFFFFFFFFFFFFEULL);
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r.v[i] = _mm256_sub_epi64(
        _mm256_add_epi64(a.v[i], i == 0 ? two_p0 : two_p), b.v[i]);
  }
  return r;
}

constexpr int kSwapPairs = _MM_SHUFFLE(2, 3, 0, 1);   // [1, 0, 3, 2]
constexpr int kSwapHalves = _MM_SHUFFLE(1, 0, 3, 2);  // [2, 3, 0, 1]

// Exchanges lanes (0, 1) with (2, 3) when swap == 1: the permuted state is
// merged by an all-ones or all-zero mask, so no branch or index depends on
// swap.
[[gnu::always_inline]] inline Fe4 fe4_cswap(const Fe4& a, std::uint64_t swap) {
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(0 - swap));
  const Fe4 b = fe4_permute<kSwapHalves>(a);
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r.v[i] = _mm256_xor_si256(
        a.v[i], _mm256_and_si256(mask, _mm256_xor_si256(a.v[i], b.v[i])));
  }
  return r;
}

// Lanes 0..3 = limbs of a, b, c, d.
[[gnu::always_inline]] inline Fe4 fe4_pack(const Fe& a, const Fe& b,
                                           const Fe& c, const Fe& d) {
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r.v[i] = _mm256_set_epi64x(static_cast<long long>(d.v[i]),
                               static_cast<long long>(c.v[i]),
                               static_cast<long long>(b.v[i]),
                               static_cast<long long>(a.v[i]));
  }
  return r;
}

// One ladder step maps [x2, z2, x3, z3] (limbs below 2^52) to
// [AA * BB, E * (BB + 121666 E), (DA + CB)^2, x1 * (DA - CB)^2]: the
// portable step's outputs, with z2 using AA + 121665 E = BB + 121666 E.
// x1v is [1, 1, 1, x1]. Sums and differences are carried before they are
// multiplied, since their limbs can reach 2^53.
void ladder_ifma(const std::uint8_t k[32], const Fe& x1, Fe& x2_out,
                 Fe& z2_out) {
  const Fe4 x1v = fe4_pack(fe_one(), fe_one(), fe_one(), x1);
  const __m256i a24 = _mm256_set_epi64x(0, 0, 121666, 0);  // lane 1 only
  Fe4 s = fe4_pack(fe_one(), fe_zero(), x1, fe_one());
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t kt = (k[t / 8] >> (t % 8)) & 1;
    swap ^= kt;
    s = fe4_cswap(s, swap);
    swap = kt;

    // [A, B, C, D] = [x2 + z2, x2 - z2, x3 + z3, x3 - z3].
    const Fe4 sp = fe4_permute<kSwapPairs>(s);  // [z2, x2, z3, x3]
    const Fe4 abcd =
        fe4_carry(fe4_blend<0b1010>(fe4_add(s, sp), fe4_sub(sp, s)));
    // [A, B, D, C] * [A, B, A, B] = [AA, BB, DA, CB].
    const Fe4 p = fe4_mul(fe4_permute<_MM_SHUFFLE(2, 3, 1, 0)>(abcd),
                          fe4_permute<_MM_SHUFFLE(1, 0, 1, 0)>(abcd));
    const Fe4 q = fe4_permute<kSwapPairs>(p);  // [BB, AA, CB, DA]
    // u = [AA, E, DA + CB, DA - CB], E = AA - BB.
    const Fe4 u = fe4_carry(fe4_blend<0b0001>(
        fe4_blend<0b1010>(fe4_add(p, q), fe4_sub(q, p)), p));
    // v = [BB, BB + 121666 E, DA + CB, DA - CB].
    const Fe4 v = fe4_carry(fe4_mul_small_add(
        fe4_blend<0b1100>(fe4_blend<0b0001>(p, q), u), u, a24));
    s = fe4_mul(fe4_mul(u, v), x1v);
  }
  // RFC 7748's closing swap. Clamping clears bit 0 of k, so swap is 0 here
  // and no test can tell this line from its absence.
  s = fe4_cswap(s, swap);

  alignas(32) std::uint64_t lanes[4];
  for (int i = 0; i < 5; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), s.v[i]);
    x2_out.v[i] = lanes[0];
    z2_out.v[i] = lanes[1];
  }
}

// ---------------------------------------------------------------------------
// The comb on AVX-512 IFMA: one point per Fe4, as [X, Y, Z, T]. A mixed
// addition and a doubling are two four-lane products each (the 4-way
// parallel formulas of Hisil et al., "Twisted Edwards Curves Revisited",
// ASIACRYPT 2008), and the table is comb_portable's.
// ---------------------------------------------------------------------------

// Lanes [y + x, y - x, 2dxy, 0] of a stored entry: each limb's triple by one
// masked load with the fixed mask 0b0111 (the masked lane is not read).
[[gnu::always_inline]] inline Fe4 fe4_load_entry(const CombEntry& e) {
  Fe4 r;
#pragma GCC unroll 5
  for (int l = 0; l < 5; ++l) {
    r.v[l] = _mm256_maskz_loadu_epi64(0b0111, e + 3 * l);
  }
  return r;
}

[[gnu::always_inline]] inline Fe4 fe4_zero() {
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) r.v[i] = _mm256_setzero_si256();
  return r;
}

// Each lane from a, or from b where `take` is all-ones (0 or 0xff).
[[gnu::always_inline]] inline Fe4 fe4_merge(const Fe4& a, const Fe4& b,
                                            __mmask8 take) {
  Fe4 r;
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r.v[i] = _mm256_mask_blend_epi64(take, a.v[i], b.v[i]);
  }
  return r;
}

// ge_select on four lanes: row[|digit| - 1] as fe4_load_entry gives it,
// negated if digit < 0, or the identity [1, 1, 0, 0] for digit 0. Every
// entry is loaded with the same fixed mask and merged under a mask computed
// from the digit, and so is the negation; no load mask, branch or index
// depends on the digit. Stored limbs are at most 2^51, so the negated 2dxy,
// 2p - 2dxy, has limbs below 2^52.
[[gnu::always_inline]] inline Fe4 fe4_select(const CombEntry (&row)[kCombCols],
                                             int digit) {
  const Digit dg = split_digit(digit);
  const __m256i abs = _mm256_set1_epi64x(dg.abs);
  Fe4 t = fe4_zero();
  t.v[0] = _mm256_set_epi64x(0, 0, 1, 1);
#pragma GCC unroll 8
  for (int j = 0; j < kCombCols; ++j) {
    const __mmask8 take =
        _mm256_cmpeq_epi64_mask(abs, _mm256_set1_epi64x(j + 1));
    t = fe4_merge(t, fe4_load_entry(row[j]), take);
  }
  // -(x, y) = (-x, y): swap y + x with y - x and negate 2dxy.
  const Fe4 neg = fe4_blend<0b0100>(fe4_permute<_MM_SHUFFLE(3, 2, 0, 1)>(t),
                                    fe4_sub(fe4_zero(), t));
  return fe4_merge(t, neg, static_cast<__mmask8>(0u - dg.neg));
}

// p + q as ge_madd, for p = [X, Y, Z, T] carried (as fe4_mul leaves it)
// and q = [y + x, y - x, 2dxy, 0] with limbs below 2^52; the result is
// carried too.
[[gnu::always_inline]] inline Fe4 ge4_madd(const Fe4& p, const Fe4& q) {
  // [Y + X, Y - X, T, Z], carried: the sum and the 2p-biased difference
  // reach 2^53.
  const Fe4 yytz = fe4_permute<_MM_SHUFFLE(2, 3, 1, 1)>(p);
  const Fe4 xx00 =
      fe4_blend<0b1100>(fe4_permute<_MM_SHUFFLE(0, 0, 0, 0)>(p), fe4_zero());
  const Fe4 l =
      fe4_carry(fe4_blend<0b0010>(fe4_add(yytz, xx00), fe4_sub(yytz, xx00)));
  // [a, b, c, 0] = [(Y + X)(y + x), (Y - X)(y - x), T * 2dxy, 0].
  const Fe4 abc = fe4_mul(l, q);
  // [e, h, f, g] = [a, a, d, d] -+ [b, b, c, c] with d = 2Z (below 2^53);
  // b and c are carried products, as fe4_sub needs. Carried for the product.
  const Fe4 aadd =
      fe4_blend<0b1100>(fe4_permute<_MM_SHUFFLE(0, 0, 0, 0)>(abc),
                        fe4_permute<_MM_SHUFFLE(2, 2, 2, 2)>(fe4_add(p, p)));
  const Fe4 bbcc = fe4_permute<_MM_SHUFFLE(2, 2, 1, 1)>(abc);
  const Fe4 ehfg =
      fe4_carry(fe4_blend<0b1010>(fe4_sub(aadd, bbcc), fe4_add(aadd, bbcc)));
  // [e, g, f, e] * [f, h, g, h] = [ef, gh, fg, eh]: the new [X, Y, Z, T].
  return fe4_mul(fe4_permute<_MM_SHUFFLE(0, 2, 3, 0)>(ehfg),
                 fe4_permute<_MM_SHUFFLE(1, 3, 1, 2)>(ehfg));
}

// 2p as ge_dbl, for p = [X, Y, Z, .] carried; the result is carried too.
[[gnu::always_inline]] inline Fe4 ge4_dbl(const Fe4& p) {
  // [A, B, ZZ, S] = [X, Y, Z, X + Y]^2, the sum carried first.
  const Fe4 s = fe4_carry(fe4_add(
      fe4_permute<_MM_SHUFFLE(1, 2, 1, 0)>(p),
      fe4_blend<0b0111>(fe4_permute<_MM_SHUFFLE(0, 0, 0, 0)>(p), fe4_zero())));
  const Fe4 q = fe4_mul(s, s);
  // [e, h, g, f] = [S - A - B, A + B, B - A, 2ZZ + A - B] in two steps:
  // [S, A, B, 2ZZ] - [A, 0, A, B], then - B, + B, + 0 and + A by lane. Each
  // subtrahend is 0 or a carried product, as fe4_sub needs, and the sums stay
  // below 2^55. Carried for the product.
  const Fe4 sabz = fe4_permute<_MM_SHUFFLE(2, 1, 0, 3)>(q);
  const Fe4 a0ab =
      fe4_blend<0b0010>(fe4_permute<_MM_SHUFFLE(1, 0, 0, 0)>(q), fe4_zero());
  const Fe4 bb0a =
      fe4_blend<0b0100>(fe4_permute<_MM_SHUFFLE(0, 1, 1, 1)>(q), fe4_zero());
  const Fe4 r =
      fe4_sub(fe4_add(sabz, fe4_blend<0b0111>(sabz, fe4_zero())), a0ab);
  const Fe4 ehgf =
      fe4_carry(fe4_blend<0b1110>(fe4_sub(r, bb0a), fe4_add(r, bb0a)));
  // [e, h, g, e] * [f, g, f, h] = [ef, hg, gf, eh]: the new [X, Y, Z, T].
  return fe4_mul(fe4_permute<_MM_SHUFFLE(0, 2, 1, 0)>(ehgf),
                 fe4_permute<_MM_SHUFFLE(1, 3, 2, 3)>(ehgf));
}

// comb_portable on four lanes.
void comb_ifma(const int e[64], const X25519CombTable& table, Fe& y, Fe& z) {
  Fe4 h = fe4_pack(fe_zero(), fe_one(), fe_one(), fe_zero());
  for (int r = 3; r >= 0; --r) {
    for (int i = 0; r < 3 && i < 4; ++i) h = ge4_dbl(h);
    for (int i = 0; i < kCombRows; ++i) {
      h = ge4_madd(h, fe4_select(table.row[i], e[4 * i + r]));
    }
  }
  alignas(32) std::uint64_t lanes[4];
  for (int i = 0; i < 5; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), h.v[i]);
    y.v[i] = lanes[1];
    z.v[i] = lanes[2];
  }
}

#pragma GCC pop_options
#endif  // __x86_64__

// X25519 with the given ladder; the inversion and the encoding are the
// 51-bit code's for every ladder.
template <LadderCore kLadder>
Bytes x25519_with(BytesView scalar, BytesView u) {
  std::uint8_t k[32];
  clamp_scalar(scalar, k);
  if (u.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  Fe x2, z2;
  kLadder(k, fe_frombytes(u), x2, z2);
  return fe_tobytes(fe_mul(x2, fe_invert(z2)));
}

// k * P over P's table from k's digits, as projective Y and Z.
using CombCore = void (*)(const int e[64], const X25519CombTable& table,
                          Fe& y, Fe& z);

// X25519(k, 9) and, with a peer table, X25519(k, u) by the given comb. The
// u-coordinates are (Z + Y) / (Z - Y), and both share one inversion
// (Montgomery's trick). Z - Y is nonzero: k * P is never the identity for a
// clamped k and a point that has a table (see ge_from_u).
template <CombCore kComb>
X25519CombOutput comb_with(BytesView scalar, const X25519CombTable* peer) {
  std::uint8_t k[32];
  clamp_scalar(scalar, k, peer != nullptr ? 2 : 1);
  int e[64];
  recode(k, e);
  Fe y, z;
  kComb(e, base_table(), y, z);
  const Fe num = fe_add(z, y), den = fe_sub(z, y);
  if (peer == nullptr) return {fe_tobytes(fe_mul(num, fe_invert(den))), {}};
  Fe peer_y, peer_z;
  kComb(e, *peer, peer_y, peer_z);
  const Fe peer_num = fe_add(peer_z, peer_y),
           peer_den = fe_sub(peer_z, peer_y);
  const Fe inv = fe_invert(fe_mul(den, peer_den));
  return {fe_tobytes(fe_mul(fe_mul(num, peer_den), inv)),
          fe_tobytes(fe_mul(fe_mul(peer_num, den), inv))};
}

}  // namespace

Bytes x25519_ladder_portable(BytesView scalar, BytesView u) {
  return x25519_with<ladder_portable>(scalar, u);
}

X25519Ladder x25519_ladder_ifma() {
#if defined(__x86_64__)
  if (detail::cpu_features().ifma) return x25519_with<ladder_ifma>;
#endif
  return nullptr;
}

X25519Ladder x25519_ladder_dispatched() {
  const X25519Ladder ifma = x25519_ladder_ifma();
  return ifma != nullptr ? ifma : x25519_ladder_portable;
}

Bytes x25519(BytesView scalar, BytesView u) {
  return x25519_ladder_dispatched()(scalar, u);
}

std::shared_ptr<const X25519CombTable> x25519_comb_table(BytesView u) {
  if (u.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  GeP3 p;
  if (!ge_from_u(fe_frombytes(u), p)) return nullptr;
  // Each table has its own anonymous mapping. A table is built mid-run, at
  // its key's first seal, and heap chunks of this size placed then raised
  // the peak RSS of a `perfbench` `stack` run by about 1.7 times the
  // tables' size; a mapping adds only its own pages.
  void* mem = mmap(nullptr, sizeof(X25519CombTable), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  std::shared_ptr<X25519CombTable> table(
      new (mem) X25519CombTable, [](X25519CombTable* t) {
        munmap(t, sizeof(X25519CombTable));
      });
  build_comb_table(p, *table);
  return table;
}

X25519CombOutput x25519_comb_portable(BytesView scalar,
                                      const X25519CombTable* peer) {
  return comb_with<comb_portable>(scalar, peer);
}

X25519Comb x25519_comb_ifma() {
#if defined(__x86_64__)
  if (detail::cpu_features().ifma) return comb_with<comb_ifma>;
#endif
  return nullptr;
}

X25519Comb x25519_comb_dispatched() {
  const X25519Comb ifma = x25519_comb_ifma();
  return ifma != nullptr ? ifma : x25519_comb_portable;
}

Bytes x25519_public(BytesView scalar) {
  return x25519_comb_dispatched()(scalar, nullptr).public_key;
}

Bytes x25519_field_invert(const std::array<std::uint64_t, 5>& limbs) {
  return fe_tobytes(fe_invert(Fe{{limbs[0], limbs[1], limbs[2], limbs[3],
                                  limbs[4]}}));
}

X25519KeyPair X25519KeyPair::generate(Rng& rng) {
  X25519KeyPair kp;
  kp.private_key = rng.bytes(kX25519KeySize);
  kp.public_key = x25519_public(kp.private_key);
  return kp;
}

X25519KeyPair X25519KeyPair::derive(BytesView seed) {
  X25519KeyPair kp;
  kp.private_key =
      hkdf(to_bytes("x25519-derive"), seed, to_bytes("sk"), kX25519KeySize);
  kp.public_key = x25519_public(kp.private_key);
  return kp;
}

Result<Bytes> x25519_shared(BytesView private_key, BytesView peer_public) {
  Bytes shared = x25519(private_key, peer_public);
  static constexpr std::uint8_t kZero[kX25519KeySize] = {};
  if (ct_equal(shared, BytesView(kZero, kX25519KeySize))) {
    return Result<Bytes>::failure("x25519: low-order peer public key");
  }
  return shared;
}

}  // namespace dcpl::crypto
