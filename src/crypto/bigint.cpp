#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

namespace dcpl::crypto {

using u128 = unsigned __int128;
using i128 = __int128;

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(BytesView b) {
  BigInt out;
  out.limbs_.assign((b.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    // byte i (from the big end) contributes to bit offset 8*(size-1-i)
    std::size_t bit = 8 * (b.size() - 1 - i);
    out.limbs_[bit / 64] |= static_cast<std::uint64_t>(b[i]) << (bit % 64);
  }
  out.trim();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  if (hex.size() % 2 == 1) {
    std::string padded = "0";
    padded += hex;
    return from_bytes_be(dcpl::from_hex(padded));
  }
  return from_bytes_be(dcpl::from_hex(hex));
}

Bytes BigInt::to_bytes_be(std::size_t width) const {
  std::size_t needed = (bit_length() + 7) / 8;
  if (width == 0) width = std::max<std::size_t>(needed, 1);
  if (needed > width) throw std::invalid_argument("to_bytes_be: overflow");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < needed; ++i) {
    std::size_t bit = 8 * i;
    out[width - 1 - i] =
        static_cast<std::uint8_t>(limbs_[bit / 64] >> (bit % 64));
  }
  return out;
}

std::string BigInt::to_hex() const { return dcpl::to_hex(to_bytes_be()); }

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::strong_ordering BigInt::operator<=>(const BigInt& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() <=> o.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] <=> o.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 s = carry;
    if (i < limbs_.size()) s += limbs_[i];
    if (i < o.limbs_.size()) s += o.limbs_[i];
    out.limbs_[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw std::invalid_argument("BigInt: negative result");
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 rhs = borrow;
    if (i < o.limbs_.size()) rhs += o.limbs_[i];
    u128 lhs = limbs_[i];
    if (lhs >= rhs) {
      out.limbs_[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<std::uint64_t>((u128{1} << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  out.trim();
  return out;
}

namespace {
// Below this limb count, schoolbook beats Karatsuba's recursion overhead.
constexpr std::size_t kKaratsubaThreshold = 24;
}  // namespace

BigInt BigInt::low_limbs(std::size_t limb_count) const {
  BigInt out;
  const std::size_t n = std::min(limb_count, limbs_.size());
  out.limbs_.assign(limbs_.begin(), limbs_.begin() + static_cast<long>(n));
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt{};

  // Karatsuba for large balanced operands: 3 half-size multiplications
  // instead of 4. Built on the (well-tested) +/-/shift primitives.
  if (limbs_.size() >= kKaratsubaThreshold &&
      o.limbs_.size() >= kKaratsubaThreshold) {
    const std::size_t m = std::min(limbs_.size(), o.limbs_.size()) / 2;
    BigInt a0 = low_limbs(m);
    BigInt a1 = *this >> (64 * m);
    BigInt b0 = o.low_limbs(m);
    BigInt b1 = o >> (64 * m);
    BigInt z0 = a0 * b0;
    BigInt z2 = a1 * b1;
    BigInt z1 = (a0 + a1) * (b0 + b1) - z0 - z2;
    return z0 + (z1 << (64 * m)) + (z2 << (128 * m));
  }

  BigInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      u128 s = static_cast<u128>(limbs_[i]) * o.limbs_[j] +
               out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    out.limbs_[i + o.limbs_.size()] += carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt{};
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
  if (b.is_zero()) throw std::invalid_argument("BigInt: division by zero");
  if (a < b) {
    q = BigInt{};
    r = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    const std::uint64_t d = b.limbs_[0];
    q.limbs_.assign(a.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<std::uint64_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    r = BigInt(static_cast<std::uint64_t>(rem));
    return;
  }

  // Knuth Algorithm D (Hacker's Delight divmnu64 structure).
  const int shift = std::countl_zero(b.limbs_.back());
  BigInt ub = a << static_cast<std::size_t>(shift);
  BigInt vb = b << static_cast<std::size_t>(shift);
  const std::size_t n = vb.limbs_.size();
  std::vector<std::uint64_t>& u = ub.limbs_;
  const std::vector<std::uint64_t>& v = vb.limbs_;
  // Ensure u has an extra high limb.
  u.resize(std::max(u.size(), a.limbs_.size() + (shift ? 1 : 0)) + 1, 0);
  const std::size_t m = u.size() - 1 - n;

  q.limbs_.assign(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    u128 num = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = num / v[n - 1];
    u128 rhat = num % v[n - 1];
    while (qhat >= (u128{1} << 64) ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= (u128{1} << 64)) break;
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    i128 t = 0;
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 p = qhat * v[i];
      t = static_cast<i128>(u[i + j]) - k - static_cast<std::uint64_t>(p);
      u[i + j] = static_cast<std::uint64_t>(t);
      k = static_cast<std::uint64_t>(p >> 64) -
          static_cast<std::uint64_t>(t >> 64);
    }
    t = static_cast<i128>(u[j + n]) - k;
    u[j + n] = static_cast<std::uint64_t>(t);

    if (t < 0) {  // estimate was one too high; add v back
      --qhat;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 s = static_cast<u128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<std::uint64_t>(s);
        carry = static_cast<std::uint64_t>(s >> 64);
      }
      u[j + n] += carry;
    }
    q.limbs_[j] = static_cast<std::uint64_t>(qhat);
  }
  q.trim();

  BigInt rem;
  rem.limbs_.assign(u.begin(), u.begin() + static_cast<long>(n));
  rem.trim();
  r = rem >> static_cast<std::size_t>(shift);
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return r;
}

BigInt BigInt::mod_exp(const BigInt& exponent, const BigInt& modulus) const {
  if (modulus.is_zero()) throw std::invalid_argument("mod_exp: zero modulus");
  if (modulus == BigInt(1)) return BigInt{};
  if (modulus.is_odd()) {
    Montgomery mont(modulus);
    return mont.mod_exp(*this, exponent);
  }
  // Generic square-and-multiply for even moduli (rarely used).
  BigInt result(1);
  BigInt base = *this % modulus;
  const std::size_t bits = exponent.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % modulus;
    if (exponent.bit(i)) result = (result * base) % modulus;
  }
  return result;
}

namespace {

// One column of a product-scanning sum: a 128-bit sum plus a word that
// counts the carries out of it, so a column holds up to 2^64 products of
// two limbs.
struct Column {
  u128 sum = 0;
  std::uint64_t carry = 0;

  [[gnu::always_inline]] void add(u128 v) {
    sum += v;
    carry += sum < v;
  }
  [[gnu::always_inline]] void add(const Column& o) {
    add(o.sum);
    carry += o.carry;
  }
  [[gnu::always_inline]] void mul_add(std::uint64_t x, std::uint64_t y) {
    add(static_cast<u128>(x) * y);
  }
  [[gnu::always_inline]] void twice() {
    carry = (carry << 1) | static_cast<std::uint64_t>(sum >> 127);
    sum <<= 1;
  }
  /// Returns the low limb and moves the column one limb to the right.
  [[gnu::always_inline]] std::uint64_t shift() {
    const auto low = static_cast<std::uint64_t>(sum);
    sum = (sum >> 64) | (static_cast<u128>(carry) << 64);
    carry = 0;
    return low;
  }
};

// A Lehmer cosequence (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L): the
// matrix [[a, b], [c, d]] of the Euclid steps that the leading 63 bits of
// two remainders decide by themselves. After `steps` steps the current
// remainders are (a u + b v, c u + d v); a and b, like c and d, have
// opposite signs (or one is zero), and every step flips them.
struct Cosequence {
  std::int64_t a = 1, b = 0, c = 0, d = 1;
  std::size_t steps = 0;
};

bool fits_int64(i128 x) {
  return x >= -std::numeric_limits<std::int64_t>::max() &&
         x <= std::numeric_limits<std::int64_t>::max();
}

std::uint64_t magnitude(std::int64_t x) {
  return static_cast<std::uint64_t>(x < 0 ? -x : x);
}

// uh and vh are u >> s and v >> s for one shift s, uh < 2^63 and vh <= uh.
// A step is taken only when Algorithm L's two quotients, the bounds of the
// true quotient, agree; an entry that would leave int64 ends the run.
Cosequence lehmer_cosequence(std::uint64_t uh, std::uint64_t vh) {
  Cosequence m;
  for (;;) {
    const i128 num1 = static_cast<i128>(uh) + m.a;
    const i128 num2 = static_cast<i128>(uh) + m.b;
    const i128 den1 = static_cast<i128>(vh) + m.c;
    const i128 den2 = static_cast<i128>(vh) + m.d;
    if (den1 <= 0 || den2 <= 0 || num1 < 0 || num2 < 0) break;
    const std::uint64_t q = static_cast<std::uint64_t>(num1) /
                            static_cast<std::uint64_t>(den1);
    if (q != static_cast<std::uint64_t>(num2) /
                 static_cast<std::uint64_t>(den2)) {
      break;
    }
    const i128 c = m.a - static_cast<i128>(q) * m.c;
    const i128 d = m.b - static_cast<i128>(q) * m.d;
    if (!fits_int64(c) || !fits_int64(d)) break;
    m.a = m.c;
    m.b = m.d;
    m.c = static_cast<std::int64_t>(c);
    m.d = static_cast<std::int64_t>(d);
    const std::uint64_t r = uh - q * vh;
    uh = vh;
    vh = r;
    ++m.steps;
  }
  return m;
}

// (u, v) <- (a u + b v, c u + d v) in place over `len` limbs. Both results
// are remainders of the Euclid sequence, so they are non-negative and fit.
void apply_to_remainders(const Cosequence& m, std::uint64_t* u,
                         std::uint64_t* v, std::size_t len) {
  i128 cu = 0, cv = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const i128 ui = u[i], vi = v[i];
    const i128 tu = m.a * ui + m.b * vi + cu;
    const i128 tv = m.c * ui + m.d * vi + cv;
    u[i] = static_cast<std::uint64_t>(tu);
    v[i] = static_cast<std::uint64_t>(tv);
    cu = tu >> 64;
    cv = tv >> 64;
  }
}

// (x, y) <- (a x + b y, c x + d y) on magnitudes, in place over `len`
// limbs; the caller leaves a zero limb on top for the carry.
void apply_to_cofactors(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                        std::uint64_t d, std::uint64_t* x, std::uint64_t* y,
                        std::size_t len) {
  Column cx, cy;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t xi = x[i], yi = y[i];
    cx.mul_add(a, xi);
    cx.mul_add(b, yi);
    cy.mul_add(c, xi);
    cy.mul_add(d, yi);
    x[i] = cx.shift();
    y[i] = cy.shift();
  }
}

// The 63 bits of x starting at bit s (x >> s < 2^63 by the caller).
std::uint64_t bits_from(const std::uint64_t* x, std::size_t len,
                        std::size_t s) {
  const std::size_t limb = s / 64, off = s % 64;
  std::uint64_t out = x[limb] >> off;
  if (off != 0 && limb + 1 < len) out |= x[limb + 1] << (64 - off);
  return out;
}

}  // namespace

std::optional<BigInt> BigInt::try_mod_inverse(const BigInt& modulus) const {
  // Extended Euclid on (u, v) = (modulus, this mod modulus), tracking each
  // remainder's cofactor s with r == s * this (mod modulus). Consecutive
  // cofactors alternate in sign, so they are kept as magnitudes plus the
  // sign of u's, and each step only adds: |s'| = |s_prev| + q |s|. Lehmer
  // (Algorithm L) runs the steps on the leading 63 bits and applies them
  // to the full remainders and cofactors in batches.
  if (modulus.is_zero()) throw std::invalid_argument("mod_inverse: modulus 0");
  const std::size_t k = modulus.limbs_.size();
  // u and v take k limbs each; the cofactors, at most the modulus, take
  // k + 1 each so an update has a limb for its carry.
  std::vector<std::uint64_t> buf(4 * k + 2, 0);
  std::uint64_t* u = buf.data();
  std::uint64_t* v = u + k;
  std::uint64_t* x = v + k;      // |s| of u
  std::uint64_t* y = x + k + 1;  // |s| of v
  std::copy(modulus.limbs_.begin(), modulus.limbs_.end(), u);
  const BigInt reduced = *this % modulus;
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), v);
  y[0] = 1;
  bool u_negative = true;  // s of u is 0; s of v is +1
  std::size_t len = k;     // limbs of u (and so of v)
  std::size_t clen = 1;    // limbs of the cofactors

  const auto is_zero = [](const std::uint64_t* p, std::size_t n) {
    return std::all_of(p, p + n, [](std::uint64_t w) { return w == 0; });
  };
  const auto to_big = [](const std::uint64_t* p, std::size_t n) {
    BigInt out;
    out.limbs_.assign(p, p + n);
    out.trim();
    return out;
  };
  const auto store = [](const BigInt& val, std::uint64_t* p, std::size_t n) {
    std::fill(p, p + n, 0);
    std::copy(val.limbs_.begin(), val.limbs_.end(), p);
  };

  while (!is_zero(v, len)) {
    if (len == 1) {
      // Single precision: run Euclid on the words and apply the row of
      // the final remainder to the cofactors once. Every entry is at most
      // the starting u, so the magnitudes fit a word.
      std::uint64_t uw = u[0], vw = v[0];
      std::uint64_t a = 1, b = 0, c = 0, d = 1;
      while (vw != 0) {
        const std::uint64_t q = uw / vw, r = uw % vw;
        uw = vw;
        vw = r;
        const std::uint64_t c2 = a + q * c, d2 = b + q * d;
        a = c;
        b = d;
        c = c2;
        d = d2;
        u_negative = !u_negative;
      }
      u[0] = uw;
      v[0] = 0;
      apply_to_cofactors(a, b, 0, 0, x, y, clen + 1);
      if (x[clen] != 0) ++clen;
      break;
    }
    // u's leading 63 bits, and v's bits at the same place.
    const std::size_t s =
        64 * len - static_cast<std::size_t>(std::countl_zero(u[len - 1])) - 63;
    const Cosequence m =
        lehmer_cosequence(bits_from(u, len, s), bits_from(v, len, s));
    if (m.steps == 0) {
      // The leading bits decide no step (a quotient of 2^63 or more, such
      // as a small v against a large u): take one full division step.
      BigInt q, r;
      divmod(to_big(u, len), to_big(v, len), q, r);
      const BigInt next = to_big(x, clen) + q * to_big(y, clen);
      std::copy(v, v + len, u);
      store(r, v, len);
      std::copy(y, y + clen, x);
      clen = std::max(clen, next.limbs_.size());
      store(next, y, clen + 1);
      u_negative = !u_negative;
    } else {
      apply_to_remainders(m, u, v, len);
      apply_to_cofactors(magnitude(m.a), magnitude(m.b), magnitude(m.c),
                         magnitude(m.d), x, y, clen + 1);
      if (x[clen] != 0 || y[clen] != 0) ++clen;
      if (m.steps % 2 == 1) u_negative = !u_negative;
    }
    while (len > 1 && u[len - 1] == 0) --len;
  }

  // u is the gcd. When it is 1, |s| < modulus (at most half of it, or 0
  // for modulus 1).
  if (len != 1 || u[0] != 1) return std::nullopt;
  BigInt inv = to_big(x, clen);
  if (u_negative && !inv.is_zero()) inv = modulus - inv;
  return inv;
}

BigInt BigInt::mod_inverse(const BigInt& modulus) const {
  std::optional<BigInt> inv = try_mod_inverse(modulus);
  if (!inv) throw std::invalid_argument("mod_inverse: not coprime");
  return std::move(*inv);
}

BigInt BigInt::random_below(const BigInt& bound, Rng& rng) {
  if (bound.is_zero()) throw std::invalid_argument("random_below: bound 0");
  const std::size_t bits = bound.bit_length();
  const std::size_t bytes = (bits + 7) / 8;
  for (;;) {
    Bytes b = rng.bytes(bytes);
    // Mask excess top bits so rejection is efficient.
    if (bits % 8 != 0) b[0] &= static_cast<std::uint8_t>((1 << (bits % 8)) - 1);
    BigInt candidate = from_bytes_be(b);
    if (candidate < bound) return candidate;
  }
}

namespace {
constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// kSmallPrimes cut, in order, into runs whose products fit in one limb:
// n mod p is (n mod product) mod p for every p of a run.
struct PrimeRun {
  std::uint64_t product = 1;
  std::size_t end = 0;  // one past the run's last index in kSmallPrimes
};

constexpr std::size_t kPrimeRuns = 6;

constexpr std::array<PrimeRun, kPrimeRuns> make_prime_runs() {
  std::array<PrimeRun, kPrimeRuns> runs{};
  std::size_t r = 0;
  for (std::size_t i = 0; i < std::size(kSmallPrimes); ++i) {
    if (runs[r].product > std::numeric_limits<std::uint64_t>::max() /
                              kSmallPrimes[i]) {
      ++r;  // out of range at compile time if kPrimeRuns is too small
    }
    runs[r].product *= kSmallPrimes[i];
    runs[r].end = i + 1;
  }
  return runs;
}

constexpr std::array<PrimeRun, kPrimeRuns> kRuns = make_prime_runs();
static_assert(kRuns.back().end == std::size(kSmallPrimes));
}  // namespace

bool BigInt::is_probable_prime(int rounds, Rng& rng) const {
  if (bit_length() < 2) return false;
  // Trial division by each prime in table order, with the same early exits
  // as dividing n itself: each run's remainder takes one allocation-free
  // pass over the limbs, made only when the run is reached.
  for (std::size_t r = 0, i = 0; r < kPrimeRuns; ++r) {
    std::uint64_t rem = 0;
    for (std::size_t j = limbs_.size(); j-- > 0;) {
      rem = static_cast<std::uint64_t>(
          ((static_cast<u128>(rem) << 64) | limbs_[j]) % kRuns[r].product);
    }
    for (; i < kRuns[r].end; ++i) {
      const std::uint64_t p = kSmallPrimes[i];
      if (limbs_.size() == 1 && limbs_[0] == p) return true;
      if (rem % p == 0) return false;
    }
  }

  // Write n-1 = d * 2^s.
  const BigInt n_minus_1 = *this - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  Montgomery mont(*this);
  const BigInt two(2);
  for (int round = 0; round < rounds; ++round) {
    BigInt a = random_below(*this - BigInt(3), rng) + two;  // in [2, n-2]
    BigInt x = mont.mod_exp(a, d);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < s; ++i) {
      x = mont.mod_exp(x, two);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(std::size_t bits, Rng& rng) {
  if (bits < 16) throw std::invalid_argument("generate_prime: too small");
  for (;;) {
    Bytes b = rng.bytes((bits + 7) / 8);
    std::size_t excess = b.size() * 8 - bits;
    b[0] &= static_cast<std::uint8_t>(0xff >> excess);
    // Set the top two bits and force odd.
    std::size_t top = bits - 1;
    BigInt candidate = from_bytes_be(b);
    candidate.limbs_.resize(std::max(candidate.limbs_.size(), top / 64 + 1), 0);
    candidate.limbs_[top / 64] |= std::uint64_t{1} << (top % 64);
    if (top >= 1) {
      candidate.limbs_[(top - 1) / 64] |= std::uint64_t{1} << ((top - 1) % 64);
    }
    candidate.limbs_[0] |= 1;
    candidate.trim();
    if (candidate.is_probable_prime(20, rng)) return candidate;
  }
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

namespace {

// out = a * b / R mod n (kSquare: a * a / R mod n, b unused), by product
// scanning (Koc, Acar and Kaliski, IEEE Micro 1996): column i of the
// product and column i of m * n are summed in one Column, and in each of
// the low k columns m[i] is chosen to zero the column's low limb. A
// square sums each cross product of a column once, doubles it, and adds
// the diagonal. m lives in t[0, k); column k + i no longer reads m[i], so
// the result limbs overwrite it, and `t` needs k + 1 limbs. `out` is
// written only at the end, so it may alias `a` or `b`.
//
// K > 0 fixes the limb count at compile time, so the loops unroll; K == 0
// takes it from `k` at run time.
template <std::size_t K, bool kSquare>
void mont_kernel(const std::uint64_t* a, const std::uint64_t* b,
                 const std::uint64_t* n, std::uint64_t n_prime,
                 std::size_t k_runtime, std::uint64_t* out,
                 std::uint64_t* t) {
  const std::size_t k = K != 0 ? K : k_runtime;
  Column c;
#pragma GCC unroll 32
  for (std::size_t i = 0; i + 1 < 2 * k; ++i) {
    // Column i pairs limb j with limb i - j for j in [lo, i] and j < k; of
    // m, the limbs below hi are known.
    const std::size_t lo = i < k ? 0 : i - k + 1;
    const std::size_t hi = i < k ? i : k;
    if constexpr (kSquare) {
      Column cross;
#pragma GCC unroll 16
      for (std::size_t j = lo; 2 * j < i; ++j) cross.mul_add(a[j], a[i - j]);
      cross.twice();
      if (i % 2 == 0) cross.mul_add(a[i / 2], a[i / 2]);
      c.add(cross);
    } else {
      const std::size_t top = i < k ? i + 1 : k;
#pragma GCC unroll 16
      for (std::size_t j = lo; j < top; ++j) c.mul_add(a[j], b[i - j]);
    }
#pragma GCC unroll 16
    for (std::size_t j = lo; j < hi; ++j) c.mul_add(t[j], n[i - j]);
    if (i < k) {
      t[i] = static_cast<std::uint64_t>(c.sum) * n_prime;
      c.mul_add(t[i], n[0]);
      c.shift();  // the low limb is zero by the choice of m[i]
    } else {
      t[i - k] = c.shift();
    }
  }
  // What is left is the carry out of column 2k - 2: t < 2n, so t[k] <= 1.
  t[k - 1] = c.shift();
  t[k] = static_cast<std::uint64_t>(c.sum);

  // out = t - n if t >= n, else t.
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(t, t + k, out);
    return;
  }
  std::uint64_t borrow = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(t[i]) - n[i] - borrow;
    out[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
}

}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (!modulus.is_odd()) throw std::invalid_argument("Montgomery: even modulus");
  n_limbs_ = modulus.limbs();

  // n' = -n^{-1} mod 2^64 via Newton iteration.
  std::uint64_t inv = 1;
  const std::uint64_t n0 = n_limbs_[0];
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  n_prime_ = ~inv + 1;  // negate mod 2^64

  // R^2 mod n, R = 2^(64k).
  const std::size_t k = n_limbs_.size();
  r2_ = ((BigInt(1) << (128 * k)) % n_).limbs_;
  r2_.resize(k, 0);

  // RSA-1024's modulus has 16 limbs and its CRT halves (and Miller-Rabin
  // on their 512-bit candidates) 8; other sizes run the same kernel with
  // the limb count read at run time.
  switch (k) {
    case 8:
      mul_ = &mont_kernel<8, false>;
      sqr_ = &mont_kernel<8, true>;
      break;
    case 16:
      mul_ = &mont_kernel<16, false>;
      sqr_ = &mont_kernel<16, true>;
      break;
    default:
      mul_ = &mont_kernel<0, false>;
      sqr_ = &mont_kernel<0, true>;
  }
}

void Montgomery::to_mont(const BigInt& a, std::uint64_t* out,
                         std::uint64_t* t) const {
  std::vector<std::uint64_t> reduced = (a % n_).limbs_;
  reduced.resize(n_limbs_.size(), 0);
  mont_mul(reduced.data(), r2_.data(), out, t);
}

BigInt Montgomery::from_mont(const std::uint64_t* a, std::uint64_t* t) const {
  std::vector<std::uint64_t> one(n_limbs_.size(), 0);
  one[0] = 1;
  BigInt out;
  out.limbs_.resize(n_limbs_.size());
  mont_mul(a, one.data(), out.limbs_.data(), t);
  out.trim();
  return out;
}

void Montgomery::mont_mul(const std::uint64_t* a, const std::uint64_t* b,
                          std::uint64_t* out, std::uint64_t* t) const {
  mul_(a, b, n_limbs_.data(), n_prime_, n_limbs_.size(), out, t);
}

void Montgomery::mont_sqr(const std::uint64_t* a, std::uint64_t* out,
                          std::uint64_t* t) const {
  sqr_(a, nullptr, n_limbs_.data(), n_prime_, n_limbs_.size(), out, t);
}

std::size_t Montgomery::window_bits(std::size_t exponent_bits) {
  if (exponent_bits > 239) return 5;
  if (exponent_bits > 79) return 4;
  if (exponent_bits > 23) return 3;
  return 1;
}

BigInt Montgomery::mod_exp(const BigInt& base, const BigInt& exponent) const {
  const std::size_t k = n_limbs_.size();
  const std::size_t bits = exponent.bit_length();
  const std::size_t w = window_bits(bits);
  const std::size_t entries = std::size_t{1} << w;

  // One allocation: base^0 .. base^(2^w - 1) in Montgomery form, the
  // accumulator, and k + 1 limbs of kernel scratch.
  std::vector<std::uint64_t> buf((entries + 1) * k + k + 1);
  std::uint64_t* table = buf.data();
  std::uint64_t* acc = table + entries * k;
  std::uint64_t* t = acc + k;
  to_mont(BigInt(1), table, t);
  if (bits == 0) return from_mont(table, t);
  to_mont(base, table + k, t);
  for (std::size_t j = 2; j < entries; ++j) {
    mont_mul(table + (j - 1) * k, table + k, table + j * k, t);
  }

  // Fixed windows from the top; the top window holds the top set bit, so
  // the accumulator starts at a nonzero digit's entry.
  const auto digit = [&](std::size_t window) {
    std::size_t d = 0;
    for (std::size_t b = w; b-- > 0;) {
      d = (d << 1) | static_cast<std::size_t>(exponent.bit(window * w + b));
    }
    return d;
  };
  std::size_t window = (bits + w - 1) / w - 1;
  std::copy_n(table + digit(window) * k, k, acc);
  while (window-- > 0) {
    for (std::size_t i = 0; i < w; ++i) mont_sqr(acc, acc, t);
    const std::size_t d = digit(window);
    if (d != 0) mont_mul(acc, table + d * k, acc, t);
  }
  return from_mont(acc, t);
}

}  // namespace dcpl::crypto
