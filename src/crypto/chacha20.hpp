// ChaCha20 stream cipher (RFC 8439 §2.4): 256-bit key, 96-bit nonce,
// 32-bit block counter.
//
// The keystream XOR has two implementations, chosen once per process:
//   - chacha20_xor_portable() makes one 64-byte block at a time, its 16
//     words in registers. It runs on every CPU, and it is the fallback and
//     the oracle the vector path is tested against.
//   - On x86-64 CPUs whose CPUID reports AVX-512F and BW, the AVX-512 path
//     makes 16 blocks per pass: lane b of vector i holds word i of block b,
//     with per-lane counters, vpaddd/vpxord/vprold rounds, and an
//     unpack/vshufi32x4 transpose back to 16 block vectors. A last partial
//     pass loads and stores under byte masks, so no byte past the input or
//     the output is touched. An input of one block or less goes to the
//     portable path, which makes just that block.
// chacha20_xor_into(), the AEAD and chacha20_xor() run the dispatched path.
//
// NOTE: both paths are free of branches and memory indices that depend on
// the key, nonce or data; what varies is the length, which is public. Still,
// this library is a research artifact, not audited constant-time code.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace dcpl::crypto {

constexpr std::size_t kChaChaKeySize = 32;
constexpr std::size_t kChaChaNonceSize = 12;
constexpr std::size_t kChaChaBlockSize = 64;

/// The 16-word ChaCha20 input state (RFC 8439 §2.3): four constants, eight
/// key words, the block counter (word 12) and three nonce words.
using ChaChaState = std::array<std::uint32_t, 16>;

/// Builds the state for (key, counter, nonce). Throws
/// std::invalid_argument unless the key is 32 bytes and the nonce 12.
ChaChaState chacha20_state(BytesView key, std::uint32_t counter,
                           BytesView nonce);

/// Writes the keystream block of `state` (20 rounds plus the feed-forward)
/// to `out`. The state is not advanced.
void chacha20_block(const ChaChaState& state, std::uint8_t out[kChaChaBlockSize]);

/// A keystream XOR: XORs `data` with the keystream of `state`, starting at
/// its block counter, into `out` (which must hold data.size() bytes; `out ==
/// data.data()` encrypts in place). Throws std::length_error if the
/// keystream would exhaust the 32-bit block counter (the RFC 8439 state has
/// no carry into the nonce words — wrapping would reuse keystream blocks).
using ChaCha20Xor = void (*)(const ChaChaState& state, BytesView data,
                             std::uint8_t* out);

/// The portable keystream XOR.
void chacha20_xor_portable(const ChaChaState& state, BytesView data,
                           std::uint8_t* out);

/// The 16-block AVX-512 keystream XOR, or nullptr where the build is not
/// x86-64 or CPUID lacks AVX-512F or BW.
ChaCha20Xor chacha20_xor_avx512();

/// The keystream XOR chacha20_xor_into() runs: AVX-512 when available, else
/// portable.
ChaCha20Xor chacha20_xor_dispatched();

/// The dispatched keystream XOR (see ChaCha20Xor).
void chacha20_xor_into(const ChaChaState& state, BytesView data,
                       std::uint8_t* out);

/// XORs `data` with the ChaCha20 keystream starting at `initial_counter`
/// into a new buffer. Encrypt and decrypt are the same operation. Throws
/// as chacha20_state() and chacha20_xor_into() do.
Bytes chacha20_xor(BytesView key, std::uint32_t initial_counter,
                   BytesView nonce, BytesView data);

}  // namespace dcpl::crypto
