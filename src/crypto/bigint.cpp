#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "crypto/cpu_features.hpp"

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

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt{};

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

// The digit of `e` in window `window` of width w.
std::size_t window_digit(const BigInt& e, std::size_t window, std::size_t w) {
  std::size_t d = 0;
  for (std::size_t b = w; b-- > 0;) {
    d = (d << 1) | static_cast<std::size_t>(e.bit(window * w + b));
  }
  return d;
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
  std::size_t window = (bits + w - 1) / w - 1;
  std::copy_n(table + window_digit(exponent, window, w) * k, k, acc);
  while (window-- > 0) {
    for (std::size_t i = 0; i < w; ++i) mont_sqr(acc, acc, t);
    const std::size_t d = window_digit(exponent, window, w);
    if (d != 0) mont_mul(acc, table + d * k, acc, t);
  }
  return from_mont(acc, t);
}

std::array<BigInt, 2> mod_exp_pair_portable(const BigInt& base,
                                            const BigInt& e1, const BigInt& n1,
                                            const BigInt& e2, const BigInt& n2) {
  return {(base % n1).mod_exp(e1, n1), (base % n2).mod_exp(e2, n2)};
}

#if defined(__x86_64__)
namespace {

// ---------------------------------------------------------------------------
// Two exponentiations in lockstep on AVX-512 IFMA, for two moduli of 8 limbs
// (RSA-1024's CRT halves; OpenSSL's rsaz_avx512 runs RSA-2048's the same
// way). A value is ten 52-bit limbs, R = 2^520, in 16 lanes of two zmm
// registers: limbs 0..7 and limbs 8..15, of which 10..15 are zero.
//
// The product is an almost-Montgomery multiplication (AMM): out = (a b + m
// n) / R for the m < R that makes the division exact, which is congruent to
// a b / R and, for a, b < 2n and 4n < R, below 2n. So every value stays
// below 2n with no conditional subtraction, and only the final conversion
// reduces below n. It scans b one limb at a time: add a b_i + m_i n, where
// m_i zeroes the low limb, and shift the sum down one limb.
//
// vpmadd52luq/vpmadd52huq multiply the low 52 bits of two lanes and add the
// low or the high 52 bits of the 104-bit product to an accumulator, so every
// limb entering one must be below 2^52, which a carried value is.
// ---------------------------------------------------------------------------

constexpr std::size_t kLimbs52 = 10;
constexpr std::size_t kBits52 = 52 * kLimbs52;  // R = 2^520
constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;

// A value in ten 52-bit limbs, lanes 10..15 zero.
struct alignas(64) Limbs52 {
  std::uint64_t v[16];
};

Limbs52 to_limbs52(const BigInt& x) {
  Limbs52 out{};
  const std::vector<std::uint64_t>& w = x.limbs();
  for (std::size_t j = 0; j < kLimbs52; ++j) {
    const std::size_t bit = 52 * j, word = bit / 64, off = bit % 64;
    std::uint64_t limb = word < w.size() ? w[word] >> off : 0;
    if (off > 12 && word + 1 < w.size()) limb |= w[word + 1] << (64 - off);
    out.v[j] = limb & kMask52;
  }
  return out;
}

BigInt from_limbs52(const Limbs52& x) {
  BigInt out;
  for (std::size_t j = kLimbs52; j-- > 0;) out = (out << 52) + BigInt(x.v[j]);
  return out;
}

// One modulus: its limbs, and k0 = -n^-1 mod 2^52.
struct Modulus52 {
  Limbs52 n;
  std::uint64_t k0;
};

Modulus52 to_modulus52(const BigInt& n) {
  std::uint64_t inv = 1;  // n^-1 mod 2^64 by Newton's iteration
  for (int i = 0; i < 6; ++i) inv *= 2 - n.limbs()[0] * inv;
  return Modulus52{to_limbs52(n), (0 - inv) & kMask52};
}

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512ifma")

// The one-limb shifts on every lane. The unmasked valignq merges into an
// undefined vector, which gcc 12 reports under -Wmaybe-uninitialized; the
// form masked to all lanes compiles to the same instruction.
[[gnu::always_inline]] inline __m512i align1(__m512i hi, __m512i lo) {
  return _mm512_mask_alignr_epi64(lo, 0xFF, hi, lo, 1);
}

// Lane j of the result is lane j - 1 of the 16 lanes (lo, hi), lane 0 zero:
// one limb up.
[[gnu::always_inline]] inline __m512i up1_lo(__m512i lo, __m512i zero) {
  return _mm512_mask_alignr_epi64(lo, 0xFF, lo, zero, 7);
}
[[gnu::always_inline]] inline __m512i up1_hi(__m512i hi, __m512i lo) {
  return _mm512_mask_alignr_epi64(hi, 0xFF, hi, lo, 7);
}

// One AMM of a pair, advanced a limb of b at a time.
//
// The sum is kept as s + sum_{j >= 1} t_j 2^(52 j), with s, limb 0, in a
// scalar register. A step shifts t down one limb and adds a b_i, made in
// fresh registers off t's chain; reads lane 0, which then holds limb 1 of the
// old sum plus a_1 b_i's low half and a_0 b_i's high half; makes m_i and the
// next s from that and s with scalar products (a_0 b_i's low half, m_i n_0
// whole and m_i n_1's low half); and then adds m_i n. So m_i waits for m_i-1
// only through scalar registers, and the vector round trip (broadcast,
// multiply-add, shift, read) spans two steps. Lane 0 of t is not read again
// after m_i n is added: finish() puts s in its place.
//
// The low halves of a product come from a and n shifted down one limb (as,
// ns), so they land in the lane the high halves do, one below their own limb,
// and a step is shift, then add. A lane gains at most four terms below 2^52 a
// step, so after ten it is below 2^58.
struct AmmLane {
  __m512i a_lo, a_hi, as_lo, as_hi, n_lo, n_hi, ns_lo, ns_hi, t_lo, t_hi;
  std::uint64_t a0, n0_12, n1, k0, s;
  const std::uint64_t* b;

  [[gnu::always_inline]] void start(const Limbs52& a, const Limbs52& b_in,
                                    const Modulus52& mod, __m512i zero) {
    a_lo = _mm512_load_si512(a.v);
    a_hi = _mm512_load_si512(a.v + 8);
    as_lo = align1(a_hi, a_lo);
    as_hi = align1(zero, a_hi);
    n_lo = _mm512_load_si512(mod.n.v);
    n_hi = _mm512_load_si512(mod.n.v + 8);
    ns_lo = align1(n_hi, n_lo);
    ns_hi = align1(zero, n_hi);
    t_lo = t_hi = zero;
    a0 = a.v[0];
    n0_12 = mod.n.v[0] << 12;  // the high word of m (n_0 2^12) is m n_0 >> 52
    n1 = mod.n.v[1];
    k0 = mod.k0;
    s = 0;
    b = b_in.v;
  }

  [[gnu::always_inline]] void step(std::size_t i, __m512i zero) {
    const std::uint64_t bi = b[i];
    const __m512i bv = _mm512_set1_epi64(static_cast<long long>(bi));
    // a b_i into fresh registers, off t's chain.
    const __m512i p_lo = _mm512_madd52hi_epu64(
        _mm512_madd52lo_epu64(zero, as_lo, bv), a_lo, bv);
    const __m512i p_hi = _mm512_madd52hi_epu64(
        _mm512_madd52lo_epu64(zero, as_hi, bv), a_hi, bv);
    t_lo = _mm512_add_epi64(align1(t_hi, t_lo), p_lo);
    t_hi = _mm512_add_epi64(align1(zero, t_hi), p_hi);
    // Lane 0 (a GCC vector subscript: one vmovq).
    const std::uint64_t x = static_cast<std::uint64_t>(t_lo[0]);

    // With t = s + a_0 b_i, u = s + (a_0 b_i mod 2^52) is t mod 2^52 plus a
    // carry, and m = u k0 mod 2^52. t + m n_0 is 0 mod 2^52, so the low 52
    // bits of t and of m n_0 sum to 0 (when t's are 0) or to 2^52, and (t + m
    // n_0) >> 52 is a_0 b_i >> 52 (in x), plus u >> 52 rounded up, plus m
    // n_0 >> 52.
    const std::uint64_t u = s + ((a0 * bi) & kMask52);
    const std::uint64_t m = (u * k0) & kMask52;
    s = x + ((u + kMask52) >> 52) + ((n1 * m) & kMask52) +
        static_cast<std::uint64_t>((static_cast<u128>(m) * n0_12) >> 64);

    const __m512i mv = _mm512_set1_epi64(static_cast<long long>(m));
    t_lo = _mm512_madd52lo_epu64(t_lo, ns_lo, mv);
    t_hi = _mm512_madd52lo_epu64(t_hi, ns_hi, mv);
    t_lo = _mm512_madd52hi_epu64(t_lo, n_lo, mv);
    t_hi = _mm512_madd52hi_epu64(t_hi, n_hi, mv);
  }

  // Writes the sum, carried to 52-bit limbs: below 2n < 2^513, so lanes
  // 10..15 stay zero. One parallel round leaves each limb below 2^52 + 2^12,
  // so at most one carry leaves a limb, and it crosses every limb equal to
  // 2^52 - 1 above it; the ripple is a 16-bit addition on lane masks, as
  // OpenSSL's rsaz_avx512 does it.
  [[gnu::always_inline]] void finish(Limbs52& out, __m512i zero) {
    const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
    __m512i lo = _mm512_mask_set1_epi64(t_lo, 1, static_cast<long long>(s));
    __m512i hi = t_hi;
    const __m512i c_lo = _mm512_mask_srli_epi64(lo, 0xFF, lo, 52);
    const __m512i c_hi = _mm512_mask_srli_epi64(hi, 0xFF, hi, 52);
    lo = _mm512_add_epi64(_mm512_and_si512(lo, mask), up1_lo(c_lo, zero));
    hi = _mm512_add_epi64(_mm512_and_si512(hi, mask), up1_hi(c_hi, c_lo));
    const unsigned carry_out = static_cast<unsigned>(
        _mm512_cmpgt_epu64_mask(lo, mask) |
        _mm512_cmpgt_epu64_mask(hi, mask) << 8);
    const unsigned all_ones = static_cast<unsigned>(
        _mm512_cmpeq_epu64_mask(lo, mask) |
        _mm512_cmpeq_epu64_mask(hi, mask) << 8);
    const unsigned carry_in = ((carry_out << 1) + all_ones) ^ all_ones;
    const __m512i one = _mm512_set1_epi64(1);
    lo = _mm512_mask_add_epi64(lo, static_cast<__mmask8>(carry_in), lo, one);
    hi = _mm512_mask_add_epi64(hi, static_cast<__mmask8>(carry_in >> 8), hi,
                               one);
    _mm512_store_si512(out.v, _mm512_and_si512(lo, mask));
    _mm512_store_si512(out.v + 8, _mm512_and_si512(hi, mask));
  }
};

// out_k = AMM(a_k, b_k) mod n_k for k = 0, 1; out_k may alias a_k or b_k.
[[gnu::always_inline]] inline void amm_pair(const Limbs52* a,
                                            const Limbs52* b,
                                            const Modulus52* mod,
                                            Limbs52* out) {
  const __m512i zero = _mm512_setzero_si512();
  AmmLane l0, l1;
  l0.start(a[0], b[0], mod[0], zero);
  l1.start(a[1], b[1], mod[1], zero);
#pragma GCC unroll 10
  for (std::size_t i = 0; i < kLimbs52; ++i) {
    l0.step(i, zero);
    l1.step(i, zero);
  }
  l0.finish(out[0], zero);
  l1.finish(out[1], zero);
}

// acc_k = base_k^e_k mod n_k for k = 0, 1, at most n_k, from base_k and
// one_k = R mod n_k in Montgomery form. Montgomery::mod_exp's fixed windows,
// in lockstep: the shorter exponent is padded with zero digits, and both
// take every multiplication.
void exp_pair_ifma(const Limbs52* base, const Limbs52* one,
                   const BigInt* const* e, const Modulus52* mod,
                   Limbs52* acc) {
  const std::size_t bits = std::max(e[0]->bit_length(), e[1]->bit_length());
  const std::size_t w = Montgomery::window_bits(bits);
  const std::size_t entries = std::size_t{1} << w;
  // table[j] holds the pair's j-th powers; 32 entries (w <= 5), 8 KiB.
  Limbs52 table[32][2];
  table[0][0] = one[0];
  table[0][1] = one[1];
  table[1][0] = base[0];
  table[1][1] = base[1];
  for (std::size_t j = 2; j < entries; ++j) {
    amm_pair(table[j - 1], table[1], mod, table[j]);
  }
  // Fixed windows from the top; exponents of 0 have one window, digit 0.
  std::size_t window = std::max<std::size_t>((bits + w - 1) / w, 1) - 1;
  acc[0] = table[window_digit(*e[0], window, w)][0];
  acc[1] = table[window_digit(*e[1], window, w)][1];
  while (window-- > 0) {
    for (std::size_t i = 0; i < w; ++i) amm_pair(acc, acc, mod, acc);
    const Limbs52 entry[2] = {table[window_digit(*e[0], window, w)][0],
                              table[window_digit(*e[1], window, w)][1]};
    amm_pair(acc, entry, mod, acc);
  }
  // Out of Montgomery form: AMM(acc, 1) = (acc + m n) / R <= n, equal to n
  // only for acc = 0 mod n.
  Limbs52 unit[2] = {};
  unit[0].v[0] = unit[1].v[0] = 1;
  amm_pair(acc, unit, mod, acc);
}

#pragma GCC pop_options

std::array<BigInt, 2> mod_exp_pair_ifma_impl(const BigInt& base,
                                             const BigInt& e1,
                                             const BigInt& n1,
                                             const BigInt& e2,
                                             const BigInt& n2) {
  if (!n1.is_odd() || !n2.is_odd() || n1.limbs().size() != 8 ||
      n2.limbs().size() != 8) {
    return mod_exp_pair_portable(base, e1, n1, e2, n2);
  }
  const BigInt* n[2] = {&n1, &n2};
  const BigInt* e[2] = {&e1, &e2};
  Modulus52 mod[2];
  Limbs52 one[2], x[2], acc[2];
  for (int k = 0; k < 2; ++k) {
    mod[k] = to_modulus52(*n[k]);
    // R mod n, and base R mod n, both exact.
    one[k] = to_limbs52((BigInt(1) << kBits52) % *n[k]);
    x[k] = to_limbs52(((base % *n[k]) << kBits52) % *n[k]);
  }
  exp_pair_ifma(x, one, e, mod, acc);
  std::array<BigInt, 2> out;
  for (int k = 0; k < 2; ++k) {
    out[k] = from_limbs52(acc[k]);
    if (out[k] == *n[k]) out[k] = BigInt{};
  }
  return out;
}

}  // namespace
#endif  // __x86_64__

ModExpPair mod_exp_pair_ifma() {
#if defined(__x86_64__)
  if (detail::cpu_features().ifma) return mod_exp_pair_ifma_impl;
#endif
  return nullptr;
}

ModExpPair mod_exp_pair_dispatched() {
  const ModExpPair ifma = mod_exp_pair_ifma();
  return ifma != nullptr ? ifma : mod_exp_pair_portable;
}

}  // namespace dcpl::crypto
