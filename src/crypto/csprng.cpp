#include "crypto/csprng.hpp"

#include <cstring>

#include "crypto/sha256.hpp"

namespace dcpl::crypto {

ChaChaRng::ChaChaRng(BytesView seed) {
  static constexpr std::uint8_t kZeroNonce[kChaChaNonceSize] = {};
  state_ = chacha20_state(Sha256::hash(seed), 0, BytesView(kZeroNonce));
}

ChaChaRng::ChaChaRng(std::uint64_t seed)
    : ChaChaRng(BytesView(be_encode(seed, 8))) {}

void ChaChaRng::refill() {
  // Nonce bytes 4..11 carry the high 64 bits of the block counter, little
  // endian; the ChaCha counter word carries the low 32. This yields a
  // practically unbounded stream.
  const std::uint64_t hi = block_counter_ >> 32;
  state_[12] = static_cast<std::uint32_t>(block_counter_);
  state_[14] = static_cast<std::uint32_t>(hi);
  state_[15] = static_cast<std::uint32_t>(hi >> 32);
  chacha20_block(state_, buffer_);
  available_ = 64;
  ++block_counter_;
}

void ChaChaRng::fill(std::span<std::uint8_t> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    if (available_ == 0) refill();
    std::size_t take = std::min(available_, out.size() - off);
    std::memcpy(out.data() + off, buffer_ + (64 - available_), take);
    available_ -= take;
    off += take;
  }
}

}  // namespace dcpl::crypto
