// Byte-buffer utilities shared by every module.
//
// The whole library expresses wire data as `Bytes` (a std::vector<uint8_t>)
// and reads borrowed data through std::span. Helpers here cover the hex
// codec, concatenation, XOR, and constant-time comparison.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dcpl {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Builds a Bytes from a string's raw characters (no encoding applied).
Bytes to_bytes(std::string_view s);

/// Interprets a byte buffer as a std::string (no encoding applied).
std::string to_string(BytesView b);

/// Lowercase hex encoding, e.g. {0xde,0xad} -> "dead".
std::string to_hex(BytesView b);

/// Parses lowercase/uppercase hex. Throws std::invalid_argument on bad input.
Bytes from_hex(std::string_view hex);

/// Concatenates any number of byte spans.
Bytes concat(std::initializer_list<BytesView> parts);

/// a XOR b; spans must be the same length (throws otherwise).
Bytes xor_bytes(BytesView a, BytesView b);

/// Constant-time equality; returns false for mismatched lengths.
bool ct_equal(BytesView a, BytesView b) noexcept;

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// Encodes `v` as a big-endian fixed-width integer of `width` bytes.
Bytes be_encode(std::uint64_t v, std::size_t width);

/// Decodes a big-endian integer from the whole span (max 8 bytes).
std::uint64_t be_decode(BytesView b);

}  // namespace dcpl
