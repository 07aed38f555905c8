#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
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

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

std::optional<BigInt> BigInt::try_mod_inverse(const BigInt& modulus) const {
  // Iterative extended Euclid with sign tracking: maintain x such that
  // a*x == r (mod modulus), over (magnitude, negative) pairs.
  if (modulus.is_zero()) throw std::invalid_argument("mod_inverse: modulus 0");
  BigInt r0 = modulus;
  BigInt r1 = *this % modulus;
  BigInt x0{}, x1{1};
  bool neg0 = false, neg1 = false;

  BigInt q, r2;
  while (!r1.is_zero()) {
    divmod(r0, r1, q, r2);
    // x2 = x0 - q * x1 (signed)
    BigInt qx = q * x1;
    BigInt x2;
    bool neg2;
    if (neg0 == neg1) {
      if (x0 >= qx) {
        x2 = x0 - qx;
        neg2 = neg0;
      } else {
        x2 = qx - x0;
        neg2 = !neg0;
      }
    } else {
      x2 = x0 + qx;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    x0 = std::move(x1);
    neg0 = neg1;
    x1 = std::move(x2);
    neg1 = neg2;
  }
  if (r0 != BigInt(1)) return std::nullopt;
  BigInt inv = x0 % modulus;
  if (neg0 && !inv.is_zero()) inv = modulus - inv;
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
}  // namespace

bool BigInt::is_probable_prime(int rounds, Rng& rng) const {
  if (*this < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    BigInt bp(p);
    if (*this == bp) return true;
    if ((*this % bp).is_zero()) return false;
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
  const std::size_t k = n_limbs_.size();
  const std::uint64_t* n = n_limbs_.data();
  std::fill(t, t + k + 2, 0);

  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      u128 s = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    u128 s = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<std::uint64_t>(s);
    t[k + 1] = static_cast<std::uint64_t>(s >> 64);

    // Reduce: add m * n where m = t[0] * n' mod 2^64, then shift one limb.
    const std::uint64_t m = t[0] * n_prime_;
    s = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<std::uint64_t>(s >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      s = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    s = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<std::uint64_t>(s);
    t[k] = t[k + 1] + static_cast<std::uint64_t>(s >> 64);
    t[k + 1] = 0;
  }

  // out = t - n if t >= n, else t. `out` is written only here, so it may
  // alias `a` or `b`.
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
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(t[i]) - n[i] - borrow;
    out[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
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
  // accumulator, and k + 2 limbs of mont_mul scratch.
  std::vector<std::uint64_t> buf((entries + 1) * k + k + 2);
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
    for (std::size_t i = 0; i < w; ++i) mont_mul(acc, acc, acc, t);
    const std::size_t d = digit(window);
    if (d != 0) mont_mul(acc, table + d * k, acc, t);
  }
  return from_mont(acc, t);
}

}  // namespace dcpl::crypto
