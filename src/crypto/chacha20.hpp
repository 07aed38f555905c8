// ChaCha20 stream cipher (RFC 8439 §2.4): 256-bit key, 96-bit nonce,
// 32-bit block counter.
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

/// XORs `data` with the keystream of `state`, starting at its block
/// counter, into `out` (which must hold data.size() bytes; `out ==
/// data.data()` encrypts in place). Throws std::length_error if the
/// keystream would exhaust the 32-bit block counter (the RFC 8439 state has
/// no carry into the nonce words — wrapping would reuse keystream blocks).
void chacha20_xor_into(const ChaChaState& state, BytesView data,
                       std::uint8_t* out);

/// XORs `data` with the ChaCha20 keystream starting at `initial_counter`
/// into a new buffer. Encrypt and decrypt are the same operation. Throws
/// as chacha20_state() and chacha20_xor_into() do.
Bytes chacha20_xor(BytesView key, std::uint32_t initial_counter,
                   BytesView nonce, BytesView data);

}  // namespace dcpl::crypto
