// Arbitrary-precision unsigned integers with the operations RSA needs:
// schoolbook and Karatsuba mul, Knuth Algorithm D division, fixed-window
// Montgomery modular exponentiation, a Lehmer extended-GCD modular
// inverse, Miller-Rabin primality, and prime generation.
//
// An RSA private operation's two CRT exponentiations run as one pair
// (ModExpPair), chosen once per process: two Montgomery::mod_exp calls on
// every CPU, the fallback and the oracle; and, on x86-64 CPUs whose CPUID
// reports AVX-512F, VL and IFMA, one two-lane IFMA exponentiation that runs
// both in lockstep when both moduli are odd and 8 limbs (RSA-1024's halves).
// It holds a value as ten 52-bit limbs in two zmm registers, multiplies by
// almost-Montgomery products with R = 2^520 (every value stays below 2n, so
// no conditional subtraction), and scans both exponents in Montgomery's
// fixed windows. Like Montgomery, it is not constant-time.
//
// Values are non-negative; subtraction that would go negative throws.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace dcpl::crypto {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)

  /// Parses big-endian bytes (leading zeros allowed).
  static BigInt from_bytes_be(BytesView b);

  /// Parses a hex string (no 0x prefix).
  static BigInt from_hex(std::string_view hex);

  /// Serializes big-endian. If width > 0, left-pads with zeros to exactly
  /// `width` bytes (throws if the value does not fit).
  Bytes to_bytes_be(std::size_t width = 0) const;

  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;

  /// Bit `i` (0 = least significant).
  bool bit(std::size_t i) const;

  std::strong_ordering operator<=>(const BigInt& o) const;
  bool operator==(const BigInt& o) const = default;

  /// Low `limb_count` limbs as a value (used by Karatsuba splitting).
  BigInt low_limbs(std::size_t limb_count) const;

  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;  // throws if o > *this
  BigInt operator*(const BigInt& o) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass.
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);

  /// (this ^ exponent) mod modulus. Montgomery for odd moduli, generic
  /// square-and-multiply otherwise.
  BigInt mod_exp(const BigInt& exponent, const BigInt& modulus) const;

  /// Multiplicative inverse mod `modulus`; throws if gcd != 1.
  BigInt mod_inverse(const BigInt& modulus) const;

  /// Multiplicative inverse mod `modulus`, or nullopt if gcd != 1 (one
  /// extended-GCD pass, so it doubles as a coprimality test). Any modulus,
  /// odd or even, of any width. Throws only for a zero modulus.
  std::optional<BigInt> try_mod_inverse(const BigInt& modulus) const;

  /// Uniform value in [0, bound).
  static BigInt random_below(const BigInt& bound, Rng& rng);

  /// Miller-Rabin with `rounds` random bases (plus small-prime sieve).
  bool is_probable_prime(int rounds, Rng& rng) const;

  /// Random prime with exactly `bits` bits (top two bits set so that a
  /// product of two such primes has exactly 2*bits bits).
  static BigInt generate_prime(std::size_t bits, Rng& rng);

  const std::vector<std::uint64_t>& limbs() const { return limbs_; }

 private:
  void trim();

  // Little-endian 64-bit limbs; empty means zero.
  std::vector<std::uint64_t> limbs_;

  friend class Montgomery;
};

/// Montgomery context for repeated modular multiplication mod an odd modulus.
///
/// Products and squares run one product-scanning kernel, written once as a
/// template over the limb count: 8 limbs (RSA-1024's CRT halves) and 16
/// (its modulus) are compiled with the count known, every other size with
/// it read at run time. A square computes each cross product once and
/// doubles it, so a * a takes k(k + 1)/2 limb products where a * b takes
/// k^2 (the reduction is the same); mod_exp squares with it.
///
/// mod_exp scans the exponent in fixed windows whose width follows its bit
/// length: 1 bit up to 23 bits (plain square-and-multiply, so e = 65537
/// costs 16 squarings and 1 multiplication), 3 bits up to 79, 4 up to 239
/// and 5 above (the 512-bit CRT exponents of RSA-1024). A w-bit window
/// costs 2^w - 2 multiplications to build its table, then one per nonzero
/// window (about bits / w), where bit-by-bit pays one per set bit (about
/// bits / 2); the squarings are the same.
///
/// NOTE: this is not constant-time. Zero windows skip their multiplication,
/// each window's digit indexes the table directly, and the kernel's final
/// subtraction is conditional, so running time and memory access follow
/// the exponent. The private-key operations that use it (RSA signing,
/// Miller-Rabin) leak through timing as a result; this library is a
/// research artifact, not audited constant-time code.
class Montgomery {
 public:
  explicit Montgomery(const BigInt& modulus);

  /// (base ^ exponent) mod modulus.
  BigInt mod_exp(const BigInt& base, const BigInt& exponent) const;

  /// The window width mod_exp uses for an exponent of `exponent_bits` bits.
  static std::size_t window_bits(std::size_t exponent_bits);

 private:
  // Limb arrays below hold k = n_limbs_.size() limbs; `t` is k + 1 limbs of
  // caller-owned scratch, so the kernels allocate nothing.
  void to_mont(const BigInt& a, std::uint64_t* out, std::uint64_t* t) const;
  BigInt from_mont(const std::uint64_t* a, std::uint64_t* t) const;
  /// out = a * b / R mod n; `out` may alias `a` or `b`.
  void mont_mul(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::uint64_t* t) const;
  /// out = a * a / R mod n; `out` may alias `a`.
  void mont_sqr(const std::uint64_t* a, std::uint64_t* out,
                std::uint64_t* t) const;

  // The product-scanning kernels for this modulus's limb count (the square
  // ignores b).
  using Kernel = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* n, std::uint64_t n_prime,
                          std::size_t k, std::uint64_t* out,
                          std::uint64_t* t);

  BigInt n_;
  std::vector<std::uint64_t> n_limbs_;
  std::uint64_t n_prime_;          // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r2_;  // R^2 mod n, k limbs
  Kernel mul_;
  Kernel sqr_;
};

/// Two exponentiations of one base under two moduli, {base^e1 mod n1,
/// base^e2 mod n2}: the halves of an RSA private operation by the CRT
/// (rsa_private_op). Each result is below its modulus.
using ModExpPair = std::array<BigInt, 2> (*)(const BigInt& base,
                                              const BigInt& e1,
                                              const BigInt& n1,
                                              const BigInt& e2,
                                              const BigInt& n2);

/// The pair as two BigInt::mod_exp calls, so two Montgomery::mod_exp calls
/// for odd moduli: the fallback and the oracle.
std::array<BigInt, 2> mod_exp_pair_portable(const BigInt& base,
                                            const BigInt& e1, const BigInt& n1,
                                            const BigInt& e2, const BigInt& n2);

/// The two-lane AVX-512 IFMA pair, or nullptr where the build is not x86-64
/// or CPUID lacks AVX-512F, VL or IFMA. It runs both exponentiations in
/// lockstep when both moduli are odd and exactly 8 limbs (RSA-1024's CRT
/// halves), and the portable pair otherwise.
ModExpPair mod_exp_pair_ifma();

/// The pair rsa_private_op runs by default: IFMA when available, else
/// portable.
ModExpPair mod_exp_pair_dispatched();

}  // namespace dcpl::crypto
