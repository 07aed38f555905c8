// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include <array>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace dcpl::crypto {

/// Streaming HMAC-SHA256. The constructor hashes the padded key into the
/// inner and outer states once. A keyed object can be copied and each copy
/// fed a different message, so repeated MACs under one key (HKDF-Expand's
/// blocks, HPKE's key schedule) pay for the two key blocks only once.
class HmacSha256 {
 public:
  static constexpr std::size_t kTagSize = Sha256::kDigestSize;

  /// Any key length; keys longer than a block are hashed first.
  explicit HmacSha256(BytesView key);

  /// Absorbs `data`; the tag depends only on the concatenation.
  void update(BytesView data) { inner_.update(data); }

  /// Completes the MAC. The object must not be used afterwards.
  std::array<std::uint8_t, kTagSize> finish();

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA256(key, data). Any key length.
Bytes hmac_sha256(BytesView key, BytesView data);

}  // namespace dcpl::crypto
