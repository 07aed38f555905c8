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

}  // namespace dcpl::systems
