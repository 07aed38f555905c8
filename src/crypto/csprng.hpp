// ChaCha20-based deterministic CSPRNG implementing the common Rng interface.
// Used wherever key material is generated; seedable for reproducible runs.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "crypto/chacha20.hpp"

namespace dcpl::crypto {

/// Deterministic CSPRNG: ChaCha20 keystream under a seed-derived key.
class ChaChaRng final : public Rng {
 public:
  /// Seeds from arbitrary bytes (hashed to a key).
  explicit ChaChaRng(BytesView seed);

  /// Seeds from a 64-bit integer (convenience for tests/benches).
  explicit ChaChaRng(std::uint64_t seed);

  void fill(std::span<std::uint8_t> out) override;

 private:
  void refill();

  // Key words from the seed; the block counter's low 32 bits go in word 12
  // and its high 64 bits in the nonce words 14–15 at each refill.
  ChaChaState state_;
  std::uint64_t block_counter_ = 0;
  std::uint8_t buffer_[64];
  std::size_t available_ = 0;
};

}  // namespace dcpl::crypto
