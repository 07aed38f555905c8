#include "crypto/rsa.hpp"

#include <optional>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace dcpl::crypto {

RsaPrivateKey rsa_generate(std::size_t bits, Rng& rng) {
  if (bits < 512 || bits % 2 != 0) {
    throw std::invalid_argument("rsa_generate: bits must be even and >= 512");
  }
  const BigInt e(65537);
  for (;;) {
    BigInt p = BigInt::generate_prime(bits / 2, rng);
    BigInt q = BigInt::generate_prime(bits / 2, rng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);

    const BigInt one(1);
    const BigInt phi = (p - one) * (q - one);
    // The inverse exists exactly when gcd(e, phi) == 1, so computing it is
    // the coprimality test.
    std::optional<BigInt> d = e.try_mod_inverse(phi);
    if (!d) continue;

    RsaPrivateKey key;
    key.pub.n = p * q;
    key.pub.e = e;
    key.d = std::move(*d);
    key.p = p;
    key.q = q;
    key.dp = key.d % (p - one);
    key.dq = key.d % (q - one);
    key.qinv = q.mod_inverse(p);
    if (key.pub.n.bit_length() != bits) continue;  // top-bit trick failed
    return key;
  }
}

BigInt rsa_public_op(const RsaPublicKey& pub, const BigInt& m) {
  if (m >= pub.n) throw std::invalid_argument("rsa_public_op: m >= n");
  return m.mod_exp(pub.e, pub.n);
}

BigInt rsa_private_op(const RsaPrivateKey& priv, const BigInt& c,
                      ModExpPair pair) {
  if (c >= priv.pub.n) throw std::invalid_argument("rsa_private_op: c >= n");
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q, h = qinv(m1-m2) mod p,
  // m = m2 + h*q.
  const auto [m1, m2] = pair(c, priv.dp, priv.p, priv.dq, priv.q);
  BigInt diff = (m1 + priv.p - (m2 % priv.p)) % priv.p;
  BigInt h = (priv.qinv * diff) % priv.p;
  return m2 + h * priv.q;
}

Bytes mgf1_sha256(BytesView seed, std::size_t length) {
  Bytes out;
  out.reserve(length);
  std::uint32_t counter = 0;
  while (out.size() < length) {
    Bytes block = concat({seed, be_encode(counter, 4)});
    Bytes digest = Sha256::hash(block);
    std::size_t take = std::min(digest.size(), length - out.size());
    out.insert(out.end(), digest.begin(), digest.begin() + static_cast<long>(take));
    ++counter;
  }
  return out;
}

namespace {
constexpr std::size_t kHashLen = Sha256::kDigestSize;
constexpr std::size_t kSaltLen = Sha256::kDigestSize;
}  // namespace

Bytes pss_encode(BytesView message, std::size_t em_bits, Rng& rng) {
  const std::size_t em_len = (em_bits + 7) / 8;
  if (em_len < kHashLen + kSaltLen + 2) {
    throw std::invalid_argument("pss_encode: encoding too short");
  }
  Bytes m_hash = Sha256::hash(message);
  Bytes salt = rng.bytes(kSaltLen);

  Bytes zeros(8, 0);
  Bytes h = Sha256::hash(concat({zeros, m_hash, salt}));

  Bytes db(em_len - kHashLen - 1, 0);
  db[db.size() - kSaltLen - 1] = 0x01;
  std::copy(salt.begin(), salt.end(), db.end() - static_cast<long>(kSaltLen));

  Bytes db_mask = mgf1_sha256(h, db.size());
  Bytes masked_db = xor_bytes(db, db_mask);
  // Clear the leftmost 8*emLen - emBits bits.
  const std::size_t top_bits = 8 * em_len - em_bits;
  masked_db[0] &= static_cast<std::uint8_t>(0xff >> top_bits);

  Bytes em = concat({masked_db, h});
  em.push_back(0xbc);
  return em;
}

bool pss_verify(BytesView message, BytesView em, std::size_t em_bits) {
  const std::size_t em_len = (em_bits + 7) / 8;
  if (em.size() != em_len) return false;
  if (em_len < kHashLen + kSaltLen + 2) return false;
  if (em[em_len - 1] != 0xbc) return false;

  const std::size_t db_len = em_len - kHashLen - 1;
  BytesView masked_db = em.first(db_len);
  BytesView h = em.subspan(db_len, kHashLen);

  const std::size_t top_bits = 8 * em_len - em_bits;
  if ((masked_db[0] & static_cast<std::uint8_t>(~(0xff >> top_bits))) != 0) {
    return false;
  }

  Bytes db_mask = mgf1_sha256(h, db_len);
  Bytes db = xor_bytes(masked_db, db_mask);
  db[0] &= static_cast<std::uint8_t>(0xff >> top_bits);

  // DB must be zeros || 0x01 || salt.
  const std::size_t ps_len = db_len - kSaltLen - 1;
  for (std::size_t i = 0; i < ps_len; ++i) {
    if (db[i] != 0) return false;
  }
  if (db[ps_len] != 0x01) return false;
  BytesView salt = BytesView(db).last(kSaltLen);

  Bytes m_hash = Sha256::hash(message);
  Bytes zeros(8, 0);
  Bytes expected = Sha256::hash(concat({zeros, m_hash, salt}));
  return ct_equal(expected, h);
}

Bytes rsa_pss_sign(const RsaPrivateKey& priv, BytesView message, Rng& rng) {
  const std::size_t em_bits = priv.pub.modulus_bits() - 1;
  Bytes em = pss_encode(message, em_bits, rng);
  BigInt m = BigInt::from_bytes_be(em);
  BigInt s = rsa_private_op(priv, m);
  return s.to_bytes_be(priv.pub.modulus_bytes());
}

bool rsa_pss_verify(const RsaPublicKey& pub, BytesView message,
                    BytesView signature) {
  if (signature.size() != pub.modulus_bytes()) return false;
  BigInt s = BigInt::from_bytes_be(signature);
  if (s >= pub.n) return false;
  BigInt m = rsa_public_op(pub, s);
  const std::size_t em_bits = pub.modulus_bits() - 1;
  Bytes em = m.to_bytes_be((em_bits + 7) / 8);
  return pss_verify(message, em, em_bits);
}

}  // namespace dcpl::crypto
