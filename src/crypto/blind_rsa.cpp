#include "crypto/blind_rsa.hpp"

#include <optional>

#include "obs/metrics.hpp"

namespace dcpl::crypto {

BlindingState blind(const RsaPublicKey& pub, BytesView message, Rng& rng) {
  static obs::OpCounter ops("crypto", "rsa_blind");
  ops.inc();
  const std::size_t em_bits = pub.modulus_bits() - 1;
  Bytes em = pss_encode(message, em_bits, rng);
  BigInt m = BigInt::from_bytes_be(em);

  // r uniform in [1, n) with gcd(r, n) = 1: the inverse exists exactly
  // when r is coprime to n, so computing it is the coprimality test.
  BigInt r;
  std::optional<BigInt> inv;
  while (!inv) {
    r = BigInt::random_below(pub.n, rng);
    if (!r.is_zero()) inv = r.try_mod_inverse(pub.n);
  }

  BigInt blinded = (m * r.mod_exp(pub.e, pub.n)) % pub.n;

  BlindingState state;
  state.blinded_message = blinded.to_bytes_be(pub.modulus_bytes());
  state.inv = std::move(*inv);
  return state;
}

Result<Bytes> blind_sign(const RsaPrivateKey& priv, BytesView blinded_message,
                         ModExpPair pair) {
  static obs::OpCounter ops("crypto", "rsa_blind_sign");
  ops.inc();
  if (blinded_message.size() != priv.pub.modulus_bytes()) {
    return Result<Bytes>::failure("blind_sign: wrong message size");
  }
  BigInt m = BigInt::from_bytes_be(blinded_message);
  if (m >= priv.pub.n) {
    return Result<Bytes>::failure("blind_sign: message out of range");
  }
  BigInt s = rsa_private_op(priv, m, pair);
  return s.to_bytes_be(priv.pub.modulus_bytes());
}

Result<Bytes> finalize(const RsaPublicKey& pub, BytesView message,
                       const BlindingState& state, BytesView blind_signature) {
  if (blind_signature.size() != pub.modulus_bytes()) {
    return Result<Bytes>::failure("finalize: wrong signature size");
  }
  BigInt s_blind = BigInt::from_bytes_be(blind_signature);
  if (s_blind >= pub.n) {
    return Result<Bytes>::failure("finalize: signature out of range");
  }
  BigInt s = (s_blind * state.inv) % pub.n;
  Bytes sig = s.to_bytes_be(pub.modulus_bytes());
  if (!rsa_pss_verify(pub, message, sig)) {
    return Result<Bytes>::failure("finalize: invalid signature from signer");
  }
  return sig;
}

bool blind_verify(const RsaPublicKey& pub, BytesView message,
                  BytesView signature) {
  static obs::OpCounter ops("crypto", "rsa_blind_verify");
  ops.inc();
  return rsa_pss_verify(pub, message, signature);
}

}  // namespace dcpl::crypto
