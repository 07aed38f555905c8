// Poly1305 one-time authenticator (RFC 8439 §2.5), as an incremental
// (init/update/finish) pass so callers can fold multi-part inputs — e.g.
// the AEAD's aad‖pad‖ct‖pad‖lengths layout — without materializing them
// into one contiguous buffer first.
//
// Whole 16-byte blocks go through one of two block kernels, chosen once per
// process; both keep h in 44/44/42-bit limbs:
//   - poly1305_blocks_portable() does h <- (h + m) * r one block at a time
//     with 128-bit products (poly1305-donna-64 style). It runs on every CPU,
//     and it is the fallback and the oracle the vector kernel is tested
//     against.
//   - On x86-64 CPUs whose CPUID reports AVX-512F, VL and IFMA, the IFMA
//     kernel takes runs of kPoly1305IfmaMinBlocks or more whole blocks eight
//     at a time, block 8g + j in 64-bit lane j: each lane runs Horner's rule
//     with r^8 on every eighth block, products by vpmadd52luq/vpmadd52huq,
//     and the lanes are folded by r^8 ... r^1 at the end of the run. It
//     computes r^1 ... r^8 once per key, on its first such run, and leaves
//     the last blocks % 8 of a run, and shorter runs, to the portable loop.
// A Poly1305 made from a key alone, and so the AEAD by default, uses the
// dispatched kernel.
//
// NOTE: neither kernel has a branch or memory index that depends on the
// key or the message; what varies is the length, which is public. Still,
// this library is a research artifact, not audited constant-time code.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace dcpl::crypto {

constexpr std::size_t kPoly1305KeySize = 32;
constexpr std::size_t kPoly1305TagSize = 16;

/// The shortest run of whole blocks the IFMA kernel takes itself. With a
/// one-time key, as in the AEAD, a run pays the r-power fill, and up to 15
/// blocks (one group of eight plus a portable tail) it was no faster than the
/// portable loop on the host the kernel was tuned on; at 16 it was twice as
/// fast.
constexpr std::size_t kPoly1305IfmaMinBlocks = 16;

/// What a Poly1305 pass carries between blocks, in limbs at bits 0, 44 and
/// 88: the clamped key r, the accumulator h, and r^8 ... r^1 for the IFMA
/// kernel, which fills them on its first run of kPoly1305IfmaMinBlocks or
/// more blocks.
struct Poly1305State {
  std::uint64_t r[3];
  std::uint64_t h[3] = {0, 0, 0};
  std::uint64_t powers[3][8];  // powers[i][j]: limb i of r^(8 - j)
  bool powers_ready = false;
};

/// A block kernel: absorbs `blocks` whole 16-byte blocks at `m`, h <- (h +
/// m + 2^128) * r mod 2^130 - 5 for each. It accepts and leaves h0 < 2^44,
/// h2 < 2^42 and h1 below 2^44 plus a small carry, the bounds finish()
/// assumes.
using Poly1305Blocks = void (*)(Poly1305State& state, const std::uint8_t* m,
                                std::size_t blocks);

/// The portable block kernel.
void poly1305_blocks_portable(Poly1305State& state, const std::uint8_t* m,
                              std::size_t blocks);

/// The eight-lane AVX-512 IFMA block kernel, or nullptr where the build is
/// not x86-64 or CPUID lacks AVX-512F, VL or IFMA.
Poly1305Blocks poly1305_blocks_ifma();

/// The block kernel Poly1305(key) uses: IFMA when available, else
/// portable.
Poly1305Blocks poly1305_blocks_dispatched();

/// Streaming Poly1305. One-time key: construct, update() any number of
/// times, finish() once.
class Poly1305 {
 public:
  /// Uses the dispatched block kernel. Throws std::invalid_argument unless
  /// `key` is 32 bytes.
  explicit Poly1305(BytesView key);

  /// Uses `blocks`, e.g. poly1305_blocks_portable (tests and benches
  /// compare the two kernels this way).
  Poly1305(BytesView key, Poly1305Blocks blocks);

  /// Absorbs `data`. Updates may split the input at any byte boundary;
  /// the result only depends on the concatenation.
  void update(BytesView data);

  /// Absorbs zero bytes up to the next 16-byte block boundary (the RFC
  /// 8439 pad16 step) without materializing them.
  void pad16();

  /// Completes the MAC. The object must not be used afterwards.
  std::array<std::uint8_t, kPoly1305TagSize> finish();

 private:
  Poly1305Blocks blocks_;
  Poly1305State state_;
  std::uint64_t s_[2];   // last 16 key bytes, added mod 2^128 at finish
  std::uint8_t buf_[16];
  std::size_t buffered_ = 0;
  std::uint64_t absorbed_ = 0;  // total bytes, for pad16()
};

/// One-shot convenience: the 16-byte Poly1305 tag of `msg` under `key`.
Bytes poly1305_mac(BytesView key, BytesView msg);

}  // namespace dcpl::crypto
