#include "crypto/hkdf.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace dcpl::crypto {

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  return hmac_sha256(salt, ikm);
}

void hkdf_expand_into(const HmacSha256& prk, std::span<const BytesView> info,
                      std::span<std::uint8_t> out) {
  constexpr std::size_t kHash = HmacSha256::kTagSize;
  if (out.size() > 255 * kHash) throw std::invalid_argument("hkdf_expand: length");
  // T(i) = HMAC(prk, T(i-1) || info || i), with T(0) empty.
  std::array<std::uint8_t, kHash> t;
  std::size_t done = 0;
  for (std::uint8_t counter = 1; done < out.size(); ++counter) {
    HmacSha256 mac = prk;
    if (counter > 1) mac.update(BytesView(t.data(), t.size()));
    for (BytesView part : info) mac.update(part);
    mac.update(BytesView(&counter, 1));
    t = mac.finish();
    const std::size_t take = std::min(kHash, out.size() - done);
    std::memcpy(out.data() + done, t.data(), take);
    done += take;
  }
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  if (length > 255 * HmacSha256::kTagSize) {
    throw std::invalid_argument("hkdf_expand: length");
  }
  Bytes okm(length);
  const BytesView parts[] = {info};
  hkdf_expand_into(HmacSha256(prk), parts, okm);
  return okm;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

}  // namespace dcpl::crypto
