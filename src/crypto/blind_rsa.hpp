// RSA blind signatures in the style of RSABSSA (RFC 9474), SHA-256 / PSS.
//
// This is Chaum's construction: the requester blinds a PSS-encoded message
// with r^e, the signer exponentiates blindly, and the requester unblinds with
// r^{-1}. The signer learns nothing about the message it signed, and cannot
// later link a (message, signature) pair back to the signing interaction —
// the unlinkability that powers the paper's §3.1.1 (e-cash) and §3.2.1
// (Privacy Pass) decoupling analyses.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"

namespace dcpl::crypto {

/// Client-side state kept between blind() and finalize().
struct BlindingState {
  Bytes blinded_message;  // what is sent to the signer (modulus-sized)
  BigInt inv;             // r^{-1} mod n
};

/// Blinds `message` for the signer holding `pub`. The returned
/// `blinded_message` reveals nothing about `message`.
BlindingState blind(const RsaPublicKey& pub, BytesView message, Rng& rng);

/// Signer: raw private-key operation on a blinded message, its CRT halves on
/// `pair` (by default the dispatched one). Fails on out-of-range input.
Result<Bytes> blind_sign(const RsaPrivateKey& priv, BytesView blinded_message,
                         ModExpPair pair = mod_exp_pair_dispatched());

/// Client: unblinds the signer's response and checks the resulting signature
/// before accepting it.
Result<Bytes> finalize(const RsaPublicKey& pub, BytesView message,
                       const BlindingState& state, BytesView blind_signature);

/// Anyone: verifies a finalized blind signature (plain RSASSA-PSS verify).
bool blind_verify(const RsaPublicKey& pub, BytesView message,
                  BytesView signature);

}  // namespace dcpl::crypto
