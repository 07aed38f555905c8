#include "systems/channel.hpp"

#include <stdexcept>

#include "common/io.hpp"
#include "crypto/aead.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace dcpl::systems {

namespace {
constexpr std::string_view kExportLabel = "dcpl response key";
constexpr std::string_view kSessionExportLabel = "dcpl session response key";
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

// --- Session channels -------------------------------------------------------

namespace {

// Response-direction nonce: the response key is unique per session, so a
// deterministic sequence-derived nonce (le64(seq) in the tail, zero head)
// never repeats under it and needs no wire bytes.
Bytes response_nonce(std::uint64_t seq) {
  Bytes nonce(crypto::kAeadNonceSize, 0);
  for (int i = 0; i < 8; ++i) {
    nonce[crypto::kAeadNonceSize - 1 - i] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

}  // namespace

SessionSender::SessionSender(BytesView server_public, BytesView info,
                             Rng& rng) {
  static obs::OpCounter ops("channel", "session_setup");
  ops.inc();
  hpke::Sender sender = hpke::setup_base_sender(server_public, info, rng);
  context_ = std::move(sender.context);
  enc_ = std::move(sender.enc);
  response_key_ = context_.export_secret(to_bytes(kSessionExportLabel),
                                         crypto::kAeadKeySize);
}

Bytes SessionSender::seal(BytesView message) {
  static obs::OpCounter ops("channel", "session_seal");
  ops.inc();
  Bytes frame;
  {
    obs::StageTimer stage(obs::Stage::kWireFrame);
    frame.reserve(varint_size(context_.seq()) + message.size() + hpke::kNt);
    varint_append(context_.seq(), frame);
  }
  obs::StageTimer stage(obs::Stage::kCryptoSeal);
  context_.seal_append({}, message, frame);
  return frame;
}

Result<Bytes> SessionSender::open_response(BytesView frame) {
  ByteReader r(frame);
  std::uint64_t seq = 0;
  try {
    obs::StageTimer stage(obs::Stage::kWireFrame);
    seq = r.varint();
  } catch (const ParseError&) {
    return Result<Bytes>::failure("session: truncated response frame");
  }
  if (seq != response_seq_) {
    return Result<Bytes>::failure("session: response out of sequence");
  }
  obs::StageTimer stage(obs::Stage::kCryptoOpen);
  auto pt = crypto::aead_open(response_key_, response_nonce(response_seq_), {},
                              r.view(r.remaining()));
  if (pt.ok()) ++response_seq_;
  return pt;
}

Result<SessionReceiver> SessionReceiver::accept(const hpke::KeyPair& server_kp,
                                                BytesView info, BytesView enc) {
  static obs::OpCounter ops("channel", "session_accept");
  ops.inc();
  auto ctx = hpke::setup_base_recipient(enc, server_kp, info);
  if (!ctx.ok()) return Result<SessionReceiver>::failure(ctx.error().message);
  SessionReceiver receiver;
  receiver.context_ = std::move(ctx.value());
  receiver.response_key_ = receiver.context_.export_secret(
      to_bytes(kSessionExportLabel), crypto::kAeadKeySize);
  return receiver;
}

Result<Bytes> SessionReceiver::open(BytesView frame) {
  static obs::OpCounter ops("channel", "session_open");
  ops.inc();
  ByteReader r(frame);
  std::uint64_t seq = 0;
  try {
    obs::StageTimer stage(obs::Stage::kWireFrame);
    seq = r.varint();
  } catch (const ParseError&) {
    return Result<Bytes>::failure("session: truncated frame");
  }
  if (seq != context_.seq()) {
    return Result<Bytes>::failure("session: frame out of sequence");
  }
  obs::StageTimer stage(obs::Stage::kCryptoOpen);
  return context_.open({}, r.view(r.remaining()));
}

Bytes SessionReceiver::seal_response(BytesView message) {
  Bytes frame;
  {
    obs::StageTimer stage(obs::Stage::kWireFrame);
    frame.reserve(varint_size(response_seq_) + message.size() +
                  crypto::kAeadTagSize);
    varint_append(response_seq_, frame);
  }
  obs::StageTimer stage(obs::Stage::kCryptoSeal);
  crypto::aead_seal_append(response_key_, response_nonce(response_seq_), {},
                           message, frame);
  ++response_seq_;
  return frame;
}

}  // namespace dcpl::systems
