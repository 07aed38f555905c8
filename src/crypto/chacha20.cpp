#include "crypto/chacha20.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace dcpl::crypto {

namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, 8);
}

[[gnu::always_inline]] inline void quarter_round(std::uint32_t& a,
                                                 std::uint32_t& b,
                                                 std::uint32_t& c,
                                                 std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

// The 16 keystream words of `in`: 20 rounds plus the feed-forward. The
// working words are locals, so the inlined double round keeps them in
// registers rather than in an array.
[[gnu::always_inline]] inline void keystream_words(const ChaChaState& in,
                                                   std::uint32_t ks[16]) {
  std::uint32_t x0 = in[0], x1 = in[1], x2 = in[2], x3 = in[3];
  std::uint32_t x4 = in[4], x5 = in[5], x6 = in[6], x7 = in[7];
  std::uint32_t x8 = in[8], x9 = in[9], x10 = in[10], x11 = in[11];
  std::uint32_t x12 = in[12], x13 = in[13], x14 = in[14], x15 = in[15];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x0, x4, x8, x12);
    quarter_round(x1, x5, x9, x13);
    quarter_round(x2, x6, x10, x14);
    quarter_round(x3, x7, x11, x15);
    quarter_round(x0, x5, x10, x15);
    quarter_round(x1, x6, x11, x12);
    quarter_round(x2, x7, x8, x13);
    quarter_round(x3, x4, x9, x14);
  }
  ks[0] = x0 + in[0];
  ks[1] = x1 + in[1];
  ks[2] = x2 + in[2];
  ks[3] = x3 + in[3];
  ks[4] = x4 + in[4];
  ks[5] = x5 + in[5];
  ks[6] = x6 + in[6];
  ks[7] = x7 + in[7];
  ks[8] = x8 + in[8];
  ks[9] = x9 + in[9];
  ks[10] = x10 + in[10];
  ks[11] = x11 + in[11];
  ks[12] = x12 + in[12];
  ks[13] = x13 + in[13];
  ks[14] = x14 + in[14];
  ks[15] = x15 + in[15];
}

}  // namespace

ChaChaState chacha20_state(BytesView key, std::uint32_t counter,
                           BytesView nonce) {
  if (key.size() != kChaChaKeySize) throw std::invalid_argument("chacha20: key");
  if (nonce.size() != kChaChaNonceSize) {
    throw std::invalid_argument("chacha20: nonce");
  }
  ChaChaState state;
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);
  return state;
}

void chacha20_block(const ChaChaState& state,
                    std::uint8_t out[kChaChaBlockSize]) {
  std::uint32_t ks[16];
  keystream_words(state, ks);
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, ks[i]);
}

void chacha20_xor_into(const ChaChaState& state, BytesView data,
                       std::uint8_t* out) {
  // The 32-bit block counter must not wrap: state word 12 has no carry
  // into the nonce, so block `counter + k` with k past the wrap would
  // repeat keystream emitted for low counters. Reject up front.
  const std::uint64_t blocks =
      (static_cast<std::uint64_t>(data.size()) + kChaChaBlockSize - 1) /
      kChaChaBlockSize;
  const std::uint64_t available = (std::uint64_t{1} << 32) - state[12];
  if (blocks > available) {
    throw std::length_error("chacha20: 32-bit block counter would wrap");
  }
  ChaChaState st = state;
  const std::uint8_t* in = data.data();
  std::size_t n = data.size();
  std::uint32_t ks[16];
  // Whole blocks XOR as eight 64-bit words; each word is read before it is
  // written, so out == in is safe.
  while (n >= kChaChaBlockSize) {
    keystream_words(st, ks);
    ++st[12];
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t k = static_cast<std::uint64_t>(ks[2 * i]) |
                              static_cast<std::uint64_t>(ks[2 * i + 1]) << 32;
      store_le64(out + 8 * i, load_le64(in + 8 * i) ^ k);
    }
    in += kChaChaBlockSize;
    out += kChaChaBlockSize;
    n -= kChaChaBlockSize;
  }
  if (n != 0) {
    std::uint8_t tail[kChaChaBlockSize];
    chacha20_block(st, tail);
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] ^ tail[i];
  }
}

Bytes chacha20_xor(BytesView key, std::uint32_t initial_counter,
                   BytesView nonce, BytesView data) {
  Bytes out(data.size());
  chacha20_xor_into(chacha20_state(key, initial_counter, nonce), data,
                    out.data());
  return out;
}

}  // namespace dcpl::crypto
