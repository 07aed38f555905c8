// HKDF-SHA256 (RFC 5869).
#pragma once

#include <span>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace dcpl::crypto {

/// HKDF-Extract(salt, ikm) -> 32-byte PRK.
Bytes hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand(prk, info, length); length <= 255*32.
Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length);

/// HKDF-Expand into `out` (at most 255*32 bytes) with the PRK already keyed
/// into `prk` and the info given as consecutive parts, which are absorbed
/// one after another and never concatenated.
void hkdf_expand_into(const HmacSha256& prk, std::span<const BytesView> info,
                      std::span<std::uint8_t> out);

/// Extract-then-expand convenience.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length);

}  // namespace dcpl::crypto
