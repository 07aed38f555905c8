// SHA-256 (FIPS 180-4). Streaming and one-shot interfaces.
//
// The compression function has two implementations: a portable one that
// runs everywhere, and one built on the x86 SHA extensions (x86-64 builds
// only). Each Sha256 uses the SHA-NI compression when CPUID reports the
// extensions and the portable one otherwise; the choice is made once per
// process. The portable compression stays callable on every CPU as the
// fallback and as the oracle the SHA-NI path is tested against.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace dcpl::crypto {

/// A SHA-256 compression function: folds `blocks` consecutive 64-byte
/// blocks at `data` into the eight state words (FIPS 180-4 §6.2.2).
using Sha256Compress = void (*)(std::uint32_t state[8],
                                const std::uint8_t* data, std::size_t blocks);

/// The portable compression.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks);

/// The SHA-NI compression, or nullptr where the build is not x86-64 or
/// CPUID lacks the SHA extensions.
Sha256Compress sha256_compress_shani();

/// The compression a default-constructed Sha256 uses: SHA-NI when
/// available, else portable.
Sha256Compress sha256_compress_dispatched();

/// Incremental SHA-256. Construct, update() any number of times, digest().
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  /// Uses the dispatched compression.
  Sha256();

  /// Uses `compress`, e.g. sha256_compress_portable (tests and benches
  /// compare the two paths this way).
  explicit Sha256(Sha256Compress compress);

  void update(BytesView data);

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated afterwards.
  std::array<std::uint8_t, kDigestSize> digest();

  /// One-shot convenience.
  static Bytes hash(BytesView data);

 private:
  Sha256Compress compress_;
  std::uint32_t h_[8];
  std::uint8_t buffer_[kBlockSize];
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace dcpl::crypto
