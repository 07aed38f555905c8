#include "systems/mixnet/mixnet.hpp"

#include <algorithm>

#include "common/io.hpp"
#include "crypto/aead.hpp"
#include "obs/trace.hpp"

namespace dcpl::systems::mixnet {

Bytes ReplyBlock::encode() const {
  ByteWriter w;
  w.vec(to_bytes(first_hop), 2);
  w.vec(header, 4);
  return std::move(w).take();
}

Result<ReplyBlock> ReplyBlock::decode(BytesView data) {
  try {
    ByteReader r(data);
    ReplyBlock block;
    block.first_hop = to_string(r.vec(2));
    block.header = r.vec(4);
    if (!r.done()) return Result<ReplyBlock>::failure("reply block: trailing");
    return block;
  } catch (const ParseError& e) {
    return Result<ReplyBlock>::failure(e.what());
  }
}

namespace {

struct Layer {
  net::Address next;
  Bytes blob;
};

constexpr const char* kMixProto = "mix";
constexpr const char* kReplyProto = "mixreply";

Bytes encode_layer(const Layer& layer) {
  ByteWriter w;
  w.vec(to_bytes(layer.next), 2);
  w.vec(layer.blob, 4);
  return std::move(w).take();
}

}  // namespace

// ---------------------------------------------------------------------------
// MixNode
// ---------------------------------------------------------------------------

MixNode::MixNode(net::Address address, std::size_t batch_size,
                 net::Time max_hold_us, core::ObservationLog& log,
                 const core::AddressBook& book, std::uint64_t seed)
    : Node(std::move(address)), rng_(seed),
      batch_size_(std::max<std::size_t>(1, batch_size)),
      max_hold_us_(max_hold_us), log_(&log), book_(&book) {
  kp_ = hpke::KeyPair::generate(rng_);
}

void MixNode::on_packet(const net::Packet& p, net::Simulator& sim) {
  obs::Span span("mixnet.peel_layer");
  static obs::OpCounter peeled("systems", "mixnet_peeled");
  peeled.inc();
  book_->observe_src(*log_, address(), p.src, p.context);

  if (p.protocol == "mixreply") {
    // Untraceable return address: peel our header layer, ENCRYPT the body
    // with the key the sender hid inside, batch-forward. The frame is
    // parsed by view (ByteReader::view never copies) and the output built
    // in one buffer, the AEAD sealing the body directly into its tail —
    // byte-for-byte the frame the old concat-based assembly produced.
    try {
      ByteReader r(p.payload);
      BytesView header = r.view(r.u32());
      BytesView body = r.view(r.u32());
      auto opened = open_request(kp_, to_bytes(kReplyInfo), header);
      if (!opened.ok()) return;
      ByteReader hr(opened->request);
      net::Address next = to_string(hr.view(hr.u16()));
      BytesView key = hr.view(crypto::kAeadKeySize);
      BytesView inner_header = hr.view(hr.u32());
      if (!hr.done()) return;  // trailing bytes: dropped, as for a layer

      Bytes nonce = rng_.bytes(crypto::kAeadNonceSize);
      // frame = vec4(inner_header) ‖ vec4(nonce ‖ ct ‖ tag).
      ByteWriter w;
      w.vec(inner_header, 4);
      w.u32(static_cast<std::uint32_t>(crypto::kAeadNonceSize + body.size() +
                                       crypto::kAeadTagSize));
      w.raw(nonce);
      Bytes frame = std::move(w).take();
      frame.reserve(frame.size() + body.size() + crypto::kAeadTagSize);
      crypto::aead_seal_append(key, nonce, {}, body, frame);

      log_->observe(address(), core::benign_data("mix:reply-ciphertext"),
                    p.context);
      const std::uint64_t out_ctx = sim.new_context();
      log_->link(address(), p.context, out_ctx);
      queue_.push_back(
          Queued{std::move(next), std::move(frame), out_ctx, kReplyProto});
      ++processed_;
      if (queue_.size() >= batch_size_) {
        flush(sim);
      } else if (!flush_scheduled_ && max_hold_us_ > 0) {
        flush_scheduled_ = true;
        sim.at(sim.now() + max_hold_us_, [this, &sim] {
          flush_scheduled_ = false;
          flush(sim);
        });
      }
    } catch (const ParseError&) {
    }
    return;
  }

  auto opened = open_request(kp_, to_bytes(kLayerInfo), p.payload);
  if (!opened.ok()) return;
  // Fused layer decode: parse {next, blob} as views into the decrypted
  // buffer, then trim that buffer in place down to the blob — the onion
  // sheds its header by memmove instead of reallocating the remainder.
  net::Address next;
  std::size_t blob_off = 0;
  try {
    ByteReader r(opened->request);
    next = to_string(r.view(r.u16()));
    const std::size_t blob_len = r.u32();
    blob_off = r.position();
    r.view(blob_len);
    if (!r.done()) return;  // trailing bytes: same rejection as before
  } catch (const ParseError&) {
    return;
  }
  Bytes blob = std::move(opened.value().request);
  blob.erase(blob.begin(),
             blob.begin() + static_cast<std::ptrdiff_t>(blob_off));

  log_->observe(address(), core::benign_data("mix:ciphertext"), p.context);

  const std::uint64_t out_ctx = sim.new_context();
  log_->link(address(), p.context, out_ctx);
  queue_.push_back(Queued{std::move(next), std::move(blob), out_ctx, kMixProto});
  ++processed_;

  if (queue_.size() >= batch_size_) {
    flush(sim);
  } else if (!flush_scheduled_ && max_hold_us_ > 0) {
    flush_scheduled_ = true;
    sim.at(sim.now() + max_hold_us_, [this, &sim] {
      flush_scheduled_ = false;
      flush(sim);
    });
  }
}

void MixNode::flush(net::Simulator& sim) {
  if (queue_.empty()) return;
  obs::Span span("mixnet.batch_flush");
  span.arg("batch", std::to_string(queue_.size()));
  // Fisher-Yates shuffle with the mix's own randomness: egress order carries
  // no information about ingress order.
  for (std::size_t i = queue_.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(rng_.below(i));
    std::swap(queue_[i - 1], queue_[j]);
  }
  for (auto& q : queue_) {
    sim.send(net::Packet{address(), q.next, std::move(q.blob), q.out_context,
                         q.protocol});
  }
  queue_.clear();
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

Receiver::Receiver(net::Address address, core::ObservationLog& log,
                   const core::AddressBook& book, std::uint64_t seed)
    : Node(std::move(address)), log_(&log), book_(&book) {
  crypto::ChaChaRng rng(seed);
  kp_ = hpke::KeyPair::generate(rng);
}

void Receiver::on_packet(const net::Packet& p, net::Simulator& sim) {
  book_->observe_src(*log_, address(), p.src, p.context);
  if (!seen_payloads_.insert(p.payload).second) {
    ++duplicates_;
    return;
  }
  auto opened = open_request(kp_, to_bytes(kFinalInfo), p.payload);
  if (!opened.ok()) return;
  std::string message = to_string(opened->request);
  if (message.starts_with("CHAFF:")) {
    // Cover traffic: discard. It carries no user data at all.
    log_->observe(address(), core::benign_data("chaff"), p.context);
    ++chaff_;
    return;
  }
  log_->observe(address(), core::sensitive_data("msg:" + message), p.context);
  deliveries_.push_back(Delivery{std::move(message), sim.now(), p.src});
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

Sender::Sender(net::Address address, std::string user_label,
               core::ObservationLog& log, std::uint64_t seed)
    : Node(std::move(address)), user_label_(std::move(user_label)), rng_(seed),
      log_(&log) {}

ReplyBlock Sender::make_reply_block(const std::vector<HopInfo>& chain,
                                    net::Simulator& sim) {
  (void)sim;
  if (chain.empty()) {
    throw std::invalid_argument("mixnet: reply block needs >= 1 mix");
  }
  const std::uint32_t id = next_reply_id_++;
  ReplySecret secret;

  // Innermost header content: the reply id, delivered to us by the last
  // mix along with the (by then multiply-encrypted) body.
  Bytes header = be_encode(id, 4);
  net::Address next = address();
  // Wrap from the last mix inward to the first.
  std::vector<Bytes> keys(chain.size());
  for (std::size_t i = chain.size(); i-- > 0;) {
    keys[i] = rng_.bytes(crypto::kAeadKeySize);
    ByteWriter layer;
    layer.vec(to_bytes(next), 2);
    layer.raw(keys[i]);
    layer.vec(header, 4);
    header = seal_request(chain[i].public_key, to_bytes(kReplyInfo),
                          layer.bytes(), rng_)
                 .encapsulated;
    next = chain[i].address;
  }
  secret.hop_keys = std::move(keys);
  reply_secrets_[id] = std::move(secret);

  return ReplyBlock{next, std::move(header)};
}

void Sender::on_packet(const net::Packet& p, net::Simulator&) {
  if (p.protocol != "mixreply") return;
  try {
    ByteReader r(p.payload);
    Bytes id_bytes = r.vec(4);
    Bytes body = r.vec(4);
    if (id_bytes.size() != 4) return;
    const auto id = static_cast<std::uint32_t>(be_decode(id_bytes));
    auto secret = reply_secrets_.find(id);
    if (secret == reply_secrets_.end()) return;

    // Mixes wrapped in chain order (first hop's layer is outermost... no:
    // the FIRST hop encrypted first, so its layer is INNERMOST. Strip in
    // reverse chain order: last hop's layer first.
    for (std::size_t i = secret->second.hop_keys.size(); i-- > 0;) {
      if (body.size() < crypto::kAeadNonceSize) return;
      auto opened = crypto::aead_open(
          secret->second.hop_keys[i],
          BytesView(body).first(crypto::kAeadNonceSize), {},
          BytesView(body).subspan(crypto::kAeadNonceSize));
      if (!opened.ok()) return;
      body = std::move(opened.value());
    }
    log_->observe(address(), core::sensitive_data("reply:" + to_string(body)),
                  p.context);
    replies_.push_back(to_string(body));
    reply_secrets_.erase(secret);  // single-use
  } catch (const ParseError&) {
  }
}

void send_reply(const ReplyBlock& block, const std::string& message,
                const net::Address& from, net::Simulator& sim) {
  ByteWriter w;
  w.vec(block.header, 4);
  w.vec(to_bytes(message), 4);
  sim.send(net::Packet{from, block.first_hop, std::move(w).take(),
                       sim.new_context(), "mixreply"});
}

void Sender::send_chaff(const std::vector<HopInfo>& chain,
                        const HopInfo& receiver, net::Simulator& sim) {
  send_message("CHAFF:" + to_hex(rng_.bytes(8)), chain, receiver, sim);
}

Bytes Sender::wrap_onion(const std::string& message,
                         const std::vector<HopInfo>& chain,
                         const HopInfo& receiver, net::Simulator& sim,
                         net::Address& first_hop, std::uint64_t& ctx) {
  obs::Span span("mixnet.onion_wrap");
  if (chain.empty()) {
    throw std::invalid_argument("mixnet: need at least one mix");
  }
  // Innermost: the message sealed to the receiver.
  Bytes blob = seal_request(receiver.public_key, to_bytes(kFinalInfo),
                            to_bytes(message), rng_)
                   .encapsulated;
  net::Address next = receiver.address;
  for (std::size_t i = chain.size(); i-- > 0;) {
    Layer layer{next, std::move(blob)};
    blob = seal_request(chain[i].public_key, to_bytes(kLayerInfo),
                        encode_layer(layer), rng_)
               .encapsulated;
    next = chain[i].address;
  }

  ctx = sim.new_context();
  log_->observe(address(), core::sensitive_identity(user_label_, "network"),
                ctx);
  if (message.starts_with("CHAFF:")) {
    log_->observe(address(), core::benign_data("chaff"), ctx);
  } else {
    log_->observe(address(), core::sensitive_data("msg:" + message), ctx);
  }
  first_hop = std::move(next);
  return blob;
}

void Sender::send_message(const std::string& message,
                          const std::vector<HopInfo>& chain,
                          const HopInfo& receiver, net::Simulator& sim) {
  net::Address first_hop;
  std::uint64_t ctx = 0;
  Bytes blob = wrap_onion(message, chain, receiver, sim, first_hop, ctx);
  sim.send(net::Packet{address(), first_hop, std::move(blob), ctx, "mix"});
}

void Sender::send_message_reliable(const std::string& message,
                                   const std::vector<HopInfo>& chain,
                                   const HopInfo& receiver, net::Simulator& sim,
                                   const RetryPolicy& policy) {
  net::Address first_hop;
  std::uint64_t ctx = 0;
  Bytes blob = wrap_onion(message, chain, receiver, sim, first_hop, ctx);
  retry_run(
      sim, policy, rng_,
      [this, &sim, first_hop = std::move(first_hop),
       blob = sim.make_payload(std::move(blob)), ctx](unsigned) {
        sim.send_shared(address(), first_hop, blob, ctx, "mix");
      },
      nullptr, nullptr);
}

}  // namespace dcpl::systems::mixnet
