// Poly1305 one-time authenticator (RFC 8439 §2.5), as an incremental
// (init/update/finish) pass so callers can fold multi-part inputs — e.g.
// the AEAD's aad‖pad‖ct‖pad‖lengths layout — without materializing them
// into one contiguous buffer first.
#pragma once

#include <array>

#include "common/bytes.hpp"

namespace dcpl::crypto {

constexpr std::size_t kPoly1305KeySize = 32;
constexpr std::size_t kPoly1305TagSize = 16;

/// Streaming Poly1305 (44/44/42-bit limbs with 128-bit products,
/// poly1305-donna-64 style). One-time key: construct, update() any number
/// of times, finish() once.
class Poly1305 {
 public:
  /// Throws std::invalid_argument unless `key` is 32 bytes.
  explicit Poly1305(BytesView key);

  /// Absorbs `data`. Updates may split the input at any byte boundary;
  /// the result only depends on the concatenation.
  void update(BytesView data);

  /// Absorbs zero bytes up to the next 16-byte block boundary (the RFC
  /// 8439 pad16 step) without materializing them.
  void pad16();

  /// Completes the MAC. The object must not be used afterwards.
  std::array<std::uint8_t, kPoly1305TagSize> finish();

 private:
  /// Absorbs `blocks` 16-byte blocks; `hibit` is 2^128 in limb 2's
  /// position for whole blocks and 0 for the padded final block.
  void process_blocks(const std::uint8_t* m, std::size_t blocks,
                      std::uint64_t hibit);

  std::uint64_t r_[3];
  std::uint64_t s_[2];   // last 16 key bytes, added mod 2^128 at finish
  std::uint64_t h_[3] = {0, 0, 0};
  std::uint8_t buf_[16];
  std::size_t buffered_ = 0;
  std::uint64_t absorbed_ = 0;  // total bytes, for pad16()
};

/// One-shot convenience: the 16-byte Poly1305 tag of `msg` under `key`.
Bytes poly1305_mac(BytesView key, BytesView msg);

}  // namespace dcpl::crypto
