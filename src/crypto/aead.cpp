#include "crypto/aead.hpp"

#include <array>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace dcpl::crypto {

namespace {

// Validates the sizes and returns the ChaCha20 state at block counter 1,
// where the payload keystream starts; block 0 goes to `otk`, whose first 32
// bytes are the one-time Poly1305 key. The state is built once per call.
ChaChaState init(BytesView key, BytesView nonce,
                 std::uint8_t otk[kChaChaBlockSize]) {
  if (key.size() != kAeadKeySize) throw std::invalid_argument("aead: key size");
  if (nonce.size() != kAeadNonceSize) {
    throw std::invalid_argument("aead: nonce size");
  }
  ChaChaState state = chacha20_state(key, 0, nonce);
  chacha20_block(state, otk);
  state[12] = 1;
  return state;
}

// Folds mac_data = aad || pad16 || ct || pad16 || le64(len(aad)) ||
// le64(len(ct)) through one incremental Poly1305 pass — nothing is copied
// into a scratch vector.
std::array<std::uint8_t, kAeadTagSize> compute_tag(const std::uint8_t* otk,
                                                   BytesView aad, BytesView ct,
                                                   Poly1305Blocks blocks) {
  Poly1305 mac(BytesView(otk, kPoly1305KeySize), blocks);
  mac.update(aad);
  mac.pad16();
  mac.update(ct);
  mac.pad16();
  std::uint8_t lens[16];
  for (int i = 0; i < 8; ++i) {
    lens[i] = static_cast<std::uint8_t>(aad.size() >> (8 * i));
    lens[8 + i] = static_cast<std::uint8_t>(ct.size() >> (8 * i));
  }
  mac.update(BytesView(lens, 16));
  return mac.finish();
}

}  // namespace

AeadKernels aead_kernels_dispatched() {
  return {chacha20_xor_dispatched(), poly1305_blocks_dispatched()};
}

void aead_seal_append(BytesView key, BytesView nonce, BytesView aad,
                      BytesView plaintext, Bytes& out, AeadKernels kernels) {
  static obs::OpCounter ops("crypto", "aead_seal");
  ops.inc();
  std::uint8_t otk[kChaChaBlockSize];
  const ChaChaState state = init(key, nonce, otk);
  const std::size_t ct_off = out.size();
  out.resize(ct_off + plaintext.size() + kAeadTagSize);
  kernels.chacha20(state, plaintext, out.data() + ct_off);
  const auto tag = compute_tag(otk, aad,
                               BytesView(out.data() + ct_off, plaintext.size()),
                               kernels.poly1305);
  std::copy(tag.begin(), tag.end(),
            out.begin() + static_cast<std::ptrdiff_t>(ct_off + plaintext.size()));
}

Bytes aead_seal(BytesView key, BytesView nonce, BytesView aad,
                BytesView plaintext, AeadKernels kernels) {
  Bytes out;
  out.reserve(plaintext.size() + kAeadTagSize);
  aead_seal_append(key, nonce, aad, plaintext, out, kernels);
  return out;
}

Result<Bytes> aead_open(BytesView key, BytesView nonce, BytesView aad,
                        BytesView ciphertext, AeadKernels kernels) {
  static obs::OpCounter ops("crypto", "aead_open");
  ops.inc();
  std::uint8_t otk[kChaChaBlockSize];
  const ChaChaState state = init(key, nonce, otk);
  if (ciphertext.size() < kAeadTagSize) {
    return Result<Bytes>::failure("aead_open: ciphertext too short");
  }
  BytesView ct = ciphertext.first(ciphertext.size() - kAeadTagSize);
  BytesView tag = ciphertext.last(kAeadTagSize);
  const auto expected = compute_tag(otk, aad, ct, kernels.poly1305);
  if (!ct_equal(BytesView(expected.data(), expected.size()), tag)) {
    return Result<Bytes>::failure("aead_open: authentication failed");
  }
  Bytes pt(ct.size());
  kernels.chacha20(state, ct, pt.data());
  return pt;
}

}  // namespace dcpl::crypto
