// Bidirectional request/response encapsulation over HPKE, in the style of
// Oblivious HTTP (RFC 9458 §4): the request is sealed to the gateway's key;
// the response comes back under a key exported from the same HPKE context,
// so only the original requester can read it. Reused by OHTTP, ODoH, the
// multi-party relay tunnels, and ECH.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "hpke/hpke.hpp"

namespace dcpl::systems {

/// Client-side handle kept between sending a request and reading the reply.
struct RequestState {
  Bytes encapsulated;  // enc || ciphertext: send this to the server
  Bytes response_key;  // derived; used to open the response
};

/// Server-side handle produced by opening a request.
struct ServerState {
  Bytes request;       // decrypted request payload
  Bytes response_key;  // derived; used to seal the response
};

/// Seals `request` to `server_public` under application label `info`.
RequestState seal_request(BytesView server_public, BytesView info,
                          BytesView request, Rng& rng);

/// Opens an encapsulated request with the server key pair.
Result<ServerState> open_request(const hpke::KeyPair& server_kp, BytesView info,
                                 BytesView encapsulated);

/// Seals `response` under the state's response key. Wire format:
/// 12-byte nonce || AEAD ciphertext.
Bytes seal_response(BytesView response_key, BytesView response, Rng& rng);

/// Opens a response sealed by seal_response.
Result<Bytes> open_response(BytesView response_key, BytesView sealed);

/// Pads `payload` to the next multiple of `bucket` bytes (ISO/IEC 7816-4
/// style: 0x80 marker then zeros), so ciphertext lengths quantize into
/// buckets and no longer fingerprint the content (§4.3). bucket >= 1.
Bytes pad_to_bucket(BytesView payload, std::size_t bucket);

/// Removes pad_to_bucket padding; fails on malformed padding.
Result<Bytes> unpad(BytesView padded);

// --- Session channels -------------------------------------------------------
//
// seal_request pays one KEM encapsulation (X25519 + key schedule) per
// message. A session amortizes that setup across many messages using the
// RFC 9180 multi-message context: the encapsulated key travels once, then
// every frame is one AEAD operation. Frames are varint-framed
// (common/io.hpp): varint(seq) ‖ ct‖tag, so a receiver detects reordered
// or replayed frames before wasting an AEAD open on them. Sessions require
// in-order exactly-once delivery (run them above the retry layer's dedup,
// not below it); the stateless per-message API above remains the default
// on every wire path.

/// Client half of a session: one HPKE setup, then seal() per message and
/// open_response() for the return direction (a key exported from the same
/// context, nonces derived from the response sequence).
class SessionSender {
 public:
  /// Throws on an invalid server key (same contract as seal_request).
  SessionSender(BytesView server_public, BytesView info, Rng& rng);

  /// The encapsulated key: transmit once, ahead of (or beside) the first
  /// frame.
  const Bytes& enc() const { return enc_; }

  /// Seals the next request frame: varint(seq) ‖ AEAD(ct‖tag). Throws
  /// hpke::MessageLimitReached when the context sequence is exhausted.
  Bytes seal(BytesView message);

  /// Opens the next response frame from the receiver.
  Result<Bytes> open_response(BytesView frame);

  /// Messages sealed so far.
  std::uint64_t sealed() const { return context_.seq(); }

 private:
  hpke::Context context_;
  Bytes enc_;
  Bytes response_key_;
  std::uint64_t response_seq_ = 0;
};

/// Server half of a session, accepted from the sender's enc.
class SessionReceiver {
 public:
  /// Decapsulates `enc`; fails on a malformed encapsulated key.
  static Result<SessionReceiver> accept(const hpke::KeyPair& server_kp,
                                        BytesView info, BytesView enc);

  /// Opens the next request frame; fails on forgery, truncation, or a
  /// sequence number that is not the next expected one.
  Result<Bytes> open(BytesView frame);

  /// Seals the next response frame: varint(seq) ‖ AEAD(ct‖tag) under the
  /// session's exported response key.
  Bytes seal_response(BytesView message);

  /// Messages opened so far.
  std::uint64_t opened() const { return context_.seq(); }

 private:
  SessionReceiver() = default;

  hpke::Context context_;
  Bytes response_key_;
  std::uint64_t response_seq_ = 0;
};

}  // namespace dcpl::systems
