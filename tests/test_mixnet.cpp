// Mix-net (§3.1.2, Figure 1): delivery through a chain, batching semantics,
// the paper's T2 table, and timing-correlation resistance.
#include "systems/mixnet/mixnet.hpp"

#include <gtest/gtest.h>

#include "common/io.hpp"
#include "core/analysis.hpp"
#include "crypto/aead.hpp"

namespace dcpl::systems::mixnet {
namespace {

struct Fixture {
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;

  std::vector<std::unique_ptr<MixNode>> mixes;
  std::vector<std::unique_ptr<Receiver>> receivers;
  std::vector<std::unique_ptr<Sender>> senders;

  Fixture(std::size_t n_mixes, std::size_t batch, std::size_t n_senders,
          std::size_t n_receivers, net::Time max_hold = 1'000'000) {
    for (std::size_t i = 0; i < n_mixes; ++i) {
      std::string addr = "mix" + std::to_string(i + 1);
      book.set(addr, core::benign_identity("addr:" + addr));
      mixes.push_back(
          std::make_unique<MixNode>(addr, batch, max_hold, log, book, 10 + i));
      sim.add_node(*mixes.back());
    }
    for (std::size_t i = 0; i < n_receivers; ++i) {
      std::string addr = "rcv" + std::to_string(i + 1);
      book.set(addr, core::benign_identity("addr:" + addr));
      receivers.push_back(std::make_unique<Receiver>(addr, log, book, 50 + i));
      sim.add_node(*receivers.back());
    }
    for (std::size_t i = 0; i < n_senders; ++i) {
      std::string addr = "10.1.0." + std::to_string(i + 1);
      std::string user = "user:sender" + std::to_string(i);
      book.set(addr, core::sensitive_identity(user, "network"));
      senders.push_back(std::make_unique<Sender>(addr, user, log, 100 + i));
      sim.add_node(*senders.back());
    }
  }

  std::vector<HopInfo> chain() const {
    std::vector<HopInfo> out;
    for (const auto& m : mixes) {
      out.push_back(HopInfo{m->address(), m->key().public_key});
    }
    return out;
  }

  HopInfo receiver_info(std::size_t i) const {
    return HopInfo{receivers[i]->address(), receivers[i]->key().public_key};
  }
};

TEST(Mixnet, DeliversThroughThreeMixes) {
  Fixture f(3, 1, 1, 1);
  f.senders[0]->send_message("hello bob", f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();
  ASSERT_EQ(f.receivers[0]->deliveries().size(), 1u);
  EXPECT_EQ(f.receivers[0]->deliveries()[0].message, "hello bob");
  // The receiver heard from the last mix, not from the sender.
  EXPECT_EQ(f.receivers[0]->deliveries()[0].from, "mix3");
  for (auto& m : f.mixes) EXPECT_EQ(m->processed(), 1u);
}

// Paper table §3.1.2: Sender (▲,●), Mix 1 (▲,⊙), Mix N (△,⊙), Receiver (△,●).
TEST(Mixnet, TableT2TuplesMatchPaper) {
  Fixture f(3, 1, 1, 1);
  f.senders[0]->send_message("secret", f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();

  core::DecouplingAnalysis a(f.log);
  EXPECT_EQ(a.tuple_for("10.1.0.1").to_string(), "(▲, ●)");
  EXPECT_EQ(a.tuple_for("mix1").to_string(), "(▲, ⊙)");
  EXPECT_EQ(a.tuple_for("mix2").to_string(), "(△, ⊙)");
  EXPECT_EQ(a.tuple_for("mix3").to_string(), "(△, ⊙)");
  EXPECT_EQ(a.tuple_for("rcv1").to_string(), "(△, ●)");
  EXPECT_TRUE(a.is_decoupled("10.1.0.1"));
}

TEST(Mixnet, FullChainCollusionRecouples) {
  Fixture f(3, 1, 1, 1);
  f.senders[0]->send_message("secret", f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();
  core::DecouplingAnalysis a(f.log);
  EXPECT_FALSE(a.coalition_recouples({"mix1", "mix2", "mix3"}));
  EXPECT_TRUE(a.coalition_recouples({"mix1", "mix2", "mix3", "rcv1"}));
  auto min_size = a.min_recoupling_coalition("10.1.0.1");
  ASSERT_TRUE(min_size.has_value());
  // All mixes plus the receiver are needed.
  EXPECT_EQ(*min_size, 4u);
}

TEST(Mixnet, BatchingHoldsMessagesUntilThreshold) {
  Fixture f(1, 3, 3, 1, /*max_hold=*/0);  // no flush timer
  // Two messages: below threshold, nothing delivered.
  f.senders[0]->send_message("m0", f.chain(), f.receiver_info(0), f.sim);
  f.senders[1]->send_message("m1", f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();
  EXPECT_EQ(f.receivers[0]->deliveries().size(), 0u);
  // Third message completes the batch.
  f.senders[2]->send_message("m2", f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();
  EXPECT_EQ(f.receivers[0]->deliveries().size(), 3u);
}

TEST(Mixnet, HoldTimerFlushesPartialBatch) {
  Fixture f(1, 100, 1, 1, /*max_hold=*/5000);
  f.senders[0]->send_message("lonely", f.chain(), f.receiver_info(0), f.sim);
  net::Time end = f.sim.run();
  ASSERT_EQ(f.receivers[0]->deliveries().size(), 1u);
  EXPECT_GE(end, 5000u);
}

TEST(Mixnet, BatchedDeliveryLeavesSimultaneously) {
  Fixture f(1, 4, 4, 4, 0);
  for (int i = 0; i < 4; ++i) {
    f.senders[i]->send_message("m" + std::to_string(i), f.chain(),
                               f.receiver_info(i), f.sim);
  }
  f.sim.run();
  // All four receivers got their message, all at the same delivery time
  // (same flush, same per-link latency).
  std::set<net::Time> times;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(f.receivers[i]->deliveries().size(), 1u);
    times.insert(f.receivers[i]->deliveries()[0].time);
  }
  EXPECT_EQ(times.size(), 1u);
}

TEST(Mixnet, MessagesRoutedToCorrectReceivers) {
  Fixture f(2, 1, 6, 3);
  for (int i = 0; i < 6; ++i) {
    f.senders[i]->send_message("for-" + std::to_string(i % 3), f.chain(),
                               f.receiver_info(i % 3), f.sim);
  }
  f.sim.run();
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(f.receivers[r]->deliveries().size(), 2u) << r;
    for (const auto& d : f.receivers[r]->deliveries()) {
      EXPECT_EQ(d.message, "for-" + std::to_string(r));
    }
  }
}

TEST(Mixnet, MixesNeverSeePlaintextOrFinalDestination) {
  Fixture f(3, 1, 1, 1);
  f.senders[0]->send_message("the secret text", f.chain(), f.receiver_info(0),
                             f.sim);
  f.sim.run();
  // Mix 1 and 2 must not know the receiver; no mix may know the message.
  for (const char* mix : {"mix1", "mix2", "mix3"}) {
    for (const auto& obs : f.log.for_party(mix)) {
      EXPECT_EQ(obs.atom.label.find("secret"), std::string::npos) << mix;
      EXPECT_NE(obs.atom.kind, core::AtomKind::kSensitiveData) << mix;
    }
  }
  for (const char* mix : {"mix1", "mix2"}) {
    for (const auto& obs : f.log.for_party(mix)) {
      EXPECT_EQ(obs.atom.label.find("rcv"), std::string::npos) << mix;
    }
  }
}

TEST(Mixnet, RequiresAtLeastOneMix) {
  Fixture f(1, 1, 1, 1);
  EXPECT_THROW(
      f.senders[0]->send_message("x", {}, f.receiver_info(0), f.sim),
      std::invalid_argument);
}

TEST(Mixnet, GarbageToMixIsDropped) {
  Fixture f(1, 1, 1, 1);
  f.sim.send(net::Packet{"10.1.0.1", "mix1", Bytes(80, 1),
                         f.sim.new_context(), "mix"});
  f.sim.run();
  EXPECT_EQ(f.mixes[0]->processed(), 0u);
}

// Hostile frames: a mix drops every malformed reply frame and every layer
// or reply header whose decrypted encoding is cut short or runs long, with
// no state change — nothing processed, queued, observed, linked or
// forwarded.
TEST(Mixnet, MalformedFramesLeaveTheMixUnchanged) {
  Fixture f(1, 2, 1, 1, 0);  // batch 2, no hold timer: one message stays queued
  const MixNode& mix = *f.mixes[0];
  crypto::ChaChaRng rng(7);
  std::size_t sent = 0;
  auto deliver = [&](BytesView payload, const char* protocol) {
    f.sim.send(net::Packet{"10.1.0.1", "mix1",
                           Bytes(payload.begin(), payload.end()),
                           f.sim.new_context(), protocol});
    f.sim.run();
    ++sent;
  };
  auto ciphertext_observations = [&] {
    std::size_t n = 0;
    for (const auto& o : f.log.for_party("mix1")) {
      if (o.atom.label == "mix:ciphertext" ||
          o.atom.label == "mix:reply-ciphertext") {
        ++n;
      }
    }
    return n;
  };

  // A well-formed reply frame, vec4(header) ‖ vec4(body) as send_reply
  // builds it: every strict prefix, then each u32 length set one past the
  // bytes that follow it.
  const ReplyBlock block = f.senders[0]->make_reply_block(f.chain(), f.sim);
  ByteWriter reply;
  reply.vec(block.header, 4);
  reply.vec(to_bytes("reply body"), 4);
  const Bytes frame = std::move(reply).take();
  for (std::size_t n = 0; n < frame.size(); ++n) {
    deliver(BytesView(frame).first(n), "mixreply");
  }
  for (std::size_t at : {std::size_t{0}, 4 + block.header.size()}) {
    Bytes overlong = frame;
    const auto past = static_cast<std::uint32_t>(frame.size() - at - 4 + 1);
    for (std::size_t i = 0; i < 4; ++i) {
      overlong[at + i] = static_cast<std::uint8_t>(past >> (24 - 8 * i));
    }
    deliver(overlong, "mixreply");
  }

  // Layers sealed to the mix's own key, so they decrypt: each strict prefix
  // of a well-formed {next, blob} encoding, then one with a trailing byte.
  ByteWriter layer;
  layer.vec(to_bytes("rcv1"), 2);
  layer.vec(Bytes(16, 0xab), 4);
  const Bytes plain = std::move(layer).take();
  auto seal = [&](std::string_view info, BytesView pt) {
    return seal_request(mix.key().public_key, to_bytes(info), pt, rng)
        .encapsulated;
  };
  for (std::size_t n = 0; n < plain.size(); ++n) {
    deliver(seal(kLayerInfo, BytesView(plain).first(n)), "mix");
  }
  Bytes trailing = plain;
  trailing.push_back(0);
  deliver(seal(kLayerInfo, trailing), "mix");

  // The same for reply headers sealed to the mix, each inside an otherwise
  // well-formed reply frame: {next, key, inner header} cut short or with a
  // trailing byte.
  ByteWriter hop;
  hop.vec(to_bytes("10.1.0.1"), 2);
  hop.raw(Bytes(crypto::kAeadKeySize, 0x11));
  hop.vec(Bytes(4, 0), 4);
  const Bytes hop_plain = std::move(hop).take();
  auto reply_frame = [&](BytesView header_plain) {
    ByteWriter w;
    w.vec(seal(kReplyInfo, header_plain), 4);
    w.vec(to_bytes("reply body"), 4);
    return std::move(w).take();
  };
  for (std::size_t n = 0; n < hop_plain.size(); ++n) {
    deliver(reply_frame(BytesView(hop_plain).first(n)), "mixreply");
  }
  Bytes hop_trailing = hop_plain;
  hop_trailing.push_back(0);
  deliver(reply_frame(hop_trailing), "mixreply");

  EXPECT_EQ(mix.processed(), 0u);
  EXPECT_EQ(ciphertext_observations(), 0u);
  EXPECT_TRUE(f.log.links().empty());
  EXPECT_EQ(f.sim.packets_delivered(), sent);  // nothing forwarded

  // The queue is still empty: the intact reply frame is held below the
  // batch of two, and the intact layer flushes both.
  deliver(frame, "mixreply");
  EXPECT_EQ(mix.processed(), 1u);
  EXPECT_EQ(f.sim.packets_delivered(), sent);
  deliver(seal(kLayerInfo, plain), "mix");
  EXPECT_EQ(mix.processed(), 2u);
  EXPECT_EQ(f.sim.packets_delivered(), sent + 2);
  EXPECT_EQ(ciphertext_observations(), 2u);
  EXPECT_EQ(f.log.links().size(), 2u);
}

// Timing attack (§4.3): a global observer correlating k-th ingress with
// k-th egress succeeds against batch=1 streaming but degrades with batching.
double timing_attack_success(std::size_t batch, std::size_t n_senders,
                             std::uint64_t seed) {
  Fixture f(1, batch, n_senders, n_senders, 0);
  std::vector<std::pair<net::Time, std::string>> ingress;  // (time, sender)
  std::vector<std::pair<net::Time, std::string>> egress;   // (time, receiver)
  f.sim.add_wiretap([&](const net::TraceEntry& e) {
    if (e.dst == "mix1") ingress.emplace_back(e.time, e.src);
    if (e.dst.starts_with("rcv")) egress.emplace_back(e.time, e.dst);
  });

  // Sender i messages receiver i; stagger sends so arrival order is unique.
  XoshiroRng order_rng(seed);
  for (std::size_t i = 0; i < n_senders; ++i) {
    const net::Time when = 1 + i * 100;
    f.sim.at(when, [&f, i] {
      f.senders[i]->send_message("m", f.chain(), f.receiver_info(i), f.sim);
    });
  }
  f.sim.run();
  if (ingress.size() != n_senders || egress.size() != n_senders) return -1;

  // FIFO guess: k-th in = k-th out.
  std::size_t correct = 0;
  for (std::size_t k = 0; k < n_senders; ++k) {
    // Ground truth: sender at 10.1.0.(i+1) messaged rcv(i+1).
    std::string expected_rcv =
        "rcv" + ingress[k].second.substr(std::string("10.1.0.").size());
    if (egress[k].second == expected_rcv) ++correct;
  }
  return static_cast<double>(correct) / n_senders;
}

TEST(Mixnet, StreamingModeIsFullyCorrelatable) {
  EXPECT_DOUBLE_EQ(timing_attack_success(1, 16, 7), 1.0);
}

TEST(Mixnet, BatchingDefeatsTimingCorrelation) {
  double rate = timing_attack_success(16, 16, 7);
  ASSERT_GE(rate, 0.0);
  // Random matching within a batch of 16: expected ~1/16.
  EXPECT_LT(rate, 0.35);
}


TEST(Mixnet, ChaffIsDiscardedByReceiver) {
  Fixture f(2, 1, 1, 1);
  f.senders[0]->send_chaff(f.chain(), f.receiver_info(0), f.sim);
  f.senders[0]->send_message("real", f.chain(), f.receiver_info(0), f.sim);
  f.senders[0]->send_chaff(f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();
  ASSERT_EQ(f.receivers[0]->deliveries().size(), 1u);
  EXPECT_EQ(f.receivers[0]->deliveries()[0].message, "real");
  EXPECT_EQ(f.receivers[0]->chaff_received(), 2u);
}

TEST(Mixnet, ChaffIsIndistinguishableOnTheWire) {
  // A wiretap sees the same packet sizes for chaff and real messages of the
  // same length (both are onion-encrypted blobs).
  Fixture f(1, 1, 1, 1);
  std::vector<std::size_t> sizes;
  f.sim.add_wiretap([&](const net::TraceEntry& e) {
    if (e.dst == "mix1") sizes.push_back(e.size);
  });
  f.senders[0]->send_chaff(f.chain(), f.receiver_info(0), f.sim);
  // Same length as "CHAFF:" + 16 hex chars (22 bytes).
  f.senders[0]->send_message("exactly-22-characters!", f.chain(),
                             f.receiver_info(0), f.sim);
  f.sim.run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], sizes[1]);
}

TEST(Mixnet, ChaffCarriesNoSensitiveData) {
  Fixture f(1, 1, 1, 1);
  f.senders[0]->send_chaff(f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();
  core::DecouplingAnalysis a(f.log);
  // Chaff reveals the sender participates (▲) but no data anywhere.
  for (const auto& party : f.log.parties()) {
    EXPECT_FALSE(a.tuple_for(party).sensitive_data) << party;
  }
}

TEST(Mixnet, ChaffHidesActiveSenders) {
  // Without chaff only the 2 real senders emit traffic (activity leak);
  // with every sender emitting chaff, the active set is hidden.
  auto active_senders = [](bool with_chaff) {
    Fixture f(1, 1, 8, 8, 0);
    std::set<std::string> seen;
    f.sim.add_wiretap([&](const net::TraceEntry& e) {
      if (e.dst == "mix1") seen.insert(e.src);
    });
    for (int i = 0; i < 8; ++i) {
      if (i < 2) {
        f.senders[i]->send_message("m", f.chain(), f.receiver_info(i), f.sim);
      } else if (with_chaff) {
        f.senders[i]->send_chaff(f.chain(), f.receiver_info(i), f.sim);
      }
    }
    f.sim.run();
    return seen.size();
  };
  EXPECT_EQ(active_senders(false), 2u);
  EXPECT_EQ(active_senders(true), 8u);
}


// Chaum's untraceable return addresses (cited via [6] in §3.1.2).
TEST(MixnetReply, ReceiverCanReplyWithoutKnowingSender) {
  Fixture f(3, 1, 1, 1);
  ReplyBlock block = f.senders[0]->make_reply_block(f.chain(), f.sim);

  // The receiver (or anyone holding the block) replies through the chain.
  send_reply(block, "meet at noon", "rcv1", f.sim);
  f.sim.run();

  ASSERT_EQ(f.senders[0]->replies().size(), 1u);
  EXPECT_EQ(f.senders[0]->replies()[0], "meet at noon");
}

TEST(MixnetReply, ReplyBlockEncodeDecodeRoundTrip) {
  Fixture f(2, 1, 1, 1);
  ReplyBlock block = f.senders[0]->make_reply_block(f.chain(), f.sim);
  auto decoded = ReplyBlock::decode(block.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first_hop, block.first_hop);
  EXPECT_EQ(decoded->header, block.header);
  EXPECT_FALSE(ReplyBlock::decode(Bytes(3)).ok());
}

TEST(MixnetReply, FullAnonymousConversation) {
  // Forward message carries a serialized reply block; the receiver parses
  // it and answers — never learning the sender's address.
  Fixture f(3, 1, 1, 1);
  ReplyBlock block = f.senders[0]->make_reply_block(f.chain(), f.sim);
  std::string payload = "question|" + to_hex(block.encode());
  f.senders[0]->send_message(payload, f.chain(), f.receiver_info(0), f.sim);
  f.sim.run();
  ASSERT_EQ(f.receivers[0]->deliveries().size(), 1u);

  // Receiver-side: extract the block from the delivered message and reply.
  const std::string& got = f.receivers[0]->deliveries()[0].message;
  auto sep = got.find('|');
  ASSERT_NE(sep, std::string::npos);
  auto parsed = ReplyBlock::decode(from_hex(got.substr(sep + 1)));
  ASSERT_TRUE(parsed.ok());
  send_reply(parsed.value(), "the answer", "rcv1", f.sim);
  f.sim.run();

  ASSERT_EQ(f.senders[0]->replies().size(), 1u);
  EXPECT_EQ(f.senders[0]->replies()[0], "the answer");
}

TEST(MixnetReply, MixesNeverSeeReplyPlaintextOrSenderBeforeLastHop) {
  Fixture f(3, 1, 1, 1);
  ReplyBlock block = f.senders[0]->make_reply_block(f.chain(), f.sim);
  send_reply(block, "needle-reply", "rcv1", f.sim);
  f.sim.run();
  // No mix may log the reply text; mixes 1 and 2 must not know the sender.
  for (const char* mix : {"mix1", "mix2", "mix3"}) {
    for (const auto& obs : f.log.for_party(mix)) {
      EXPECT_EQ(obs.atom.label.find("needle"), std::string::npos) << mix;
    }
  }
  for (const char* mix : {"mix1", "mix2"}) {
    for (const auto& obs : f.log.for_party(mix)) {
      EXPECT_EQ(obs.atom.label.find("10.1.0.1"), std::string::npos) << mix;
    }
  }
}

TEST(MixnetReply, ReplyBlockIsSingleUse) {
  Fixture f(2, 1, 1, 1);
  ReplyBlock block = f.senders[0]->make_reply_block(f.chain(), f.sim);
  send_reply(block, "first", "rcv1", f.sim);
  f.sim.run();
  EXPECT_EQ(f.senders[0]->replies().size(), 1u);
  // Replay: the sender has forgotten the keys; nothing is accepted.
  send_reply(block, "second", "rcv1", f.sim);
  f.sim.run();
  EXPECT_EQ(f.senders[0]->replies().size(), 1u);
}

TEST(MixnetReply, RepliesBatchLikeForwardTraffic) {
  Fixture f(1, 3, 3, 1, 0);  // batch=3, no hold timer
  std::vector<ReplyBlock> blocks;
  for (int i = 0; i < 3; ++i) {
    blocks.push_back(f.senders[i]->make_reply_block(f.chain(), f.sim));
  }
  send_reply(blocks[0], "r0", "rcv1", f.sim);
  send_reply(blocks[1], "r1", "rcv1", f.sim);
  f.sim.run();
  // Two replies held below the batch threshold.
  EXPECT_TRUE(f.senders[0]->replies().empty());
  send_reply(blocks[2], "r2", "rcv1", f.sim);
  f.sim.run();
  EXPECT_EQ(f.senders[0]->replies().size(), 1u);
  EXPECT_EQ(f.senders[1]->replies().size(), 1u);
  EXPECT_EQ(f.senders[2]->replies().size(), 1u);
}

TEST(MixnetReply, RequiresAtLeastOneMix) {
  Fixture f(1, 1, 1, 1);
  EXPECT_THROW(f.senders[0]->make_reply_block({}, f.sim),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcpl::systems::mixnet
