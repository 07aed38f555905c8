// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// Each call runs one ChaCha20 keystream XOR and one Poly1305 block kernel
// (chacha20.hpp, poly1305.hpp). By default those are the dispatched ones:
// on x86-64 CPUs with AVX-512 and IFMA, the 16-block ChaCha20 and the
// eight-lane Poly1305; elsewhere the portable ones. Every path produces the
// same bytes; tests and benches pass kAeadPortable to run the portable pair.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"

namespace dcpl::crypto {

constexpr std::size_t kAeadKeySize = 32;
constexpr std::size_t kAeadNonceSize = 12;
constexpr std::size_t kAeadTagSize = 16;

/// The two kernels an AEAD call runs.
struct AeadKernels {
  ChaCha20Xor chacha20;
  Poly1305Blocks poly1305;
};

/// The portable pair: the fallback and the oracle.
inline constexpr AeadKernels kAeadPortable = {chacha20_xor_portable,
                                              poly1305_blocks_portable};

/// The dispatched pair.
AeadKernels aead_kernels_dispatched();

/// Encrypts `plaintext` under (key, nonce) binding `aad`.
/// Returns ciphertext || 16-byte tag.
Bytes aead_seal(BytesView key, BytesView nonce, BytesView aad,
                BytesView plaintext,
                AeadKernels kernels = aead_kernels_dispatched());

/// Zero-copy framing variant: appends ciphertext || tag directly onto
/// `out`, so a caller assembling a frame (header ‖ enc ‖ ct) pays no
/// intermediate concat. The MAC input (aad‖pad‖ct‖pad‖lengths) is folded
/// through an incremental Poly1305 pass instead of being materialized.
void aead_seal_append(BytesView key, BytesView nonce, BytesView aad,
                      BytesView plaintext, Bytes& out,
                      AeadKernels kernels = aead_kernels_dispatched());

/// Opens ciphertext || tag produced by aead_seal. Fails (never throws) on
/// forgery or truncation — attacker-controlled input path.
Result<Bytes> aead_open(BytesView key, BytesView nonce, BytesView aad,
                        BytesView ciphertext,
                        AeadKernels kernels = aead_kernels_dispatched());

}  // namespace dcpl::crypto
