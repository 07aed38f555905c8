#include "systems/channel.hpp"

#include <stdexcept>

#include "crypto/aead.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace dcpl::systems {

namespace {
constexpr std::string_view kExportLabel = "dcpl response key";
}  // namespace

RequestState seal_request(BytesView server_public, BytesView info,
                          BytesView request, Rng& rng) {
  static obs::OpCounter ops("channel", "seal_request");
  ops.inc();
  obs::StageTimer stage(obs::Stage::kCryptoSeal);
  hpke::Sender sender = hpke::setup_base_sender(server_public, info, rng);

  RequestState state;
  // Frame layout (unchanged): enc || AEAD ct || tag — assembled in one
  // exactly-sized buffer, the ciphertext sealed in place behind enc.
  state.encapsulated.reserve(sender.enc.size() + request.size() + hpke::kNt);
  append(state.encapsulated, sender.enc);
  sender.context.seal_append({}, request, state.encapsulated);
  state.response_key =
      sender.context.export_secret(to_bytes(kExportLabel), crypto::kAeadKeySize);
  return state;
}

Result<ServerState> open_request(const hpke::KeyPair& server_kp, BytesView info,
                                 BytesView encapsulated) {
  static obs::OpCounter ops("channel", "open_request");
  ops.inc();
  obs::StageTimer stage(obs::Stage::kCryptoOpen);
  if (encapsulated.size() < hpke::kNenc) {
    return Result<ServerState>::failure("open_request: too short");
  }
  auto ctx =
      hpke::setup_base_recipient(encapsulated.first(hpke::kNenc), server_kp, info);
  if (!ctx.ok()) return Result<ServerState>::failure(ctx.error().message);

  auto request = ctx.value().open({}, encapsulated.subspan(hpke::kNenc));
  if (!request.ok()) {
    return Result<ServerState>::failure(request.error().message);
  }

  ServerState state;
  state.request = std::move(request.value());
  state.response_key = ctx.value().export_secret(to_bytes(kExportLabel),
                                                 crypto::kAeadKeySize);
  return state;
}

Bytes seal_response(BytesView response_key, BytesView response, Rng& rng) {
  static obs::OpCounter ops("channel", "seal_response");
  ops.inc();
  obs::StageTimer stage(obs::Stage::kCryptoSeal);
  Bytes out = rng.bytes(crypto::kAeadNonceSize);
  // Frame layout (unchanged): nonce || AEAD ct || tag, sealed in place.
  out.reserve(crypto::kAeadNonceSize + response.size() + crypto::kAeadTagSize);
  crypto::aead_seal_append(response_key,
                           BytesView(out.data(), crypto::kAeadNonceSize), {},
                           response, out);
  return out;
}

Result<Bytes> open_response(BytesView response_key, BytesView sealed) {
  static obs::OpCounter ops("channel", "open_response");
  ops.inc();
  obs::StageTimer stage(obs::Stage::kCryptoOpen);
  if (sealed.size() < crypto::kAeadNonceSize) {
    return Result<Bytes>::failure("open_response: too short");
  }
  return crypto::aead_open(response_key, sealed.first(crypto::kAeadNonceSize),
                           {}, sealed.subspan(crypto::kAeadNonceSize));
}

Bytes pad_to_bucket(BytesView payload, std::size_t bucket) {
  if (bucket == 0) throw std::invalid_argument("pad_to_bucket: bucket == 0");
  Bytes out(payload.begin(), payload.end());
  out.push_back(0x80);
  const std::size_t rem = out.size() % bucket;
  if (rem != 0) out.resize(out.size() + (bucket - rem), 0);
  return out;
}

Result<Bytes> unpad(BytesView padded) {
  std::size_t i = padded.size();
  while (i > 0 && padded[i - 1] == 0) --i;
  if (i == 0 || padded[i - 1] != 0x80) {
    return Result<Bytes>::failure("unpad: malformed padding");
  }
  return Bytes(padded.begin(), padded.begin() + static_cast<long>(i - 1));
}

}  // namespace dcpl::systems
