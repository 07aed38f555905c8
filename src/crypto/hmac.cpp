#include "crypto/hmac.hpp"

#include <cstring>

namespace dcpl::crypto {

HmacSha256::HmacSha256(BytesView key) {
  constexpr std::size_t kBlock = Sha256::kBlockSize;
  std::uint8_t k[kBlock] = {};
  if (key.size() > kBlock) {
    Sha256 h;
    h.update(key);
    const auto d = h.digest();
    std::memcpy(k, d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  std::uint8_t pad[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_.update(BytesView(pad, kBlock));
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.update(BytesView(pad, kBlock));
}

std::array<std::uint8_t, HmacSha256::kTagSize> HmacSha256::finish() {
  const auto inner_digest = inner_.digest();
  outer_.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer_.digest();
}

Bytes hmac_sha256(BytesView key, BytesView data) {
  HmacSha256 mac(key);
  mac.update(data);
  const auto tag = mac.finish();
  return Bytes(tag.begin(), tag.end());
}

}  // namespace dcpl::crypto
