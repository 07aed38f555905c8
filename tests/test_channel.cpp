// The shared request/response HPKE channel used by OHTTP, ODoH, MPR, ECH.
#include "systems/channel.hpp"

#include <gtest/gtest.h>

#include "crypto/csprng.hpp"

namespace dcpl::systems {
namespace {

TEST(Channel, RequestResponseRoundTrip) {
  crypto::ChaChaRng rng(1);
  auto kp = hpke::KeyPair::generate(rng);

  RequestState req = seal_request(kp.public_key, to_bytes("app"),
                                  to_bytes("the request"), rng);
  auto server = open_request(kp, to_bytes("app"), req.encapsulated);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(to_string(server->request), "the request");
  EXPECT_EQ(server->response_key, req.response_key);

  Bytes sealed = seal_response(server->response_key, to_bytes("the reply"),
                               rng);
  auto reply = open_response(req.response_key, sealed);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(reply.value()), "the reply");
}

TEST(Channel, InfoStringIsBinding) {
  crypto::ChaChaRng rng(2);
  auto kp = hpke::KeyPair::generate(rng);
  RequestState req =
      seal_request(kp.public_key, to_bytes("proto-a"), to_bytes("x"), rng);
  EXPECT_FALSE(open_request(kp, to_bytes("proto-b"), req.encapsulated).ok());
}

TEST(Channel, WrongServerKeyFails) {
  crypto::ChaChaRng rng(3);
  auto kp = hpke::KeyPair::generate(rng);
  auto other = hpke::KeyPair::generate(rng);
  RequestState req =
      seal_request(kp.public_key, to_bytes("app"), to_bytes("x"), rng);
  EXPECT_FALSE(open_request(other, to_bytes("app"), req.encapsulated).ok());
}

TEST(Channel, ResponseKeysDifferPerRequest) {
  crypto::ChaChaRng rng(4);
  auto kp = hpke::KeyPair::generate(rng);
  RequestState a =
      seal_request(kp.public_key, to_bytes("app"), to_bytes("same"), rng);
  RequestState b =
      seal_request(kp.public_key, to_bytes("app"), to_bytes("same"), rng);
  EXPECT_NE(a.response_key, b.response_key);
  EXPECT_NE(a.encapsulated, b.encapsulated);
}

TEST(Channel, ResponseCannotBeReadWithWrongKey) {
  crypto::ChaChaRng rng(5);
  auto kp = hpke::KeyPair::generate(rng);
  RequestState a =
      seal_request(kp.public_key, to_bytes("app"), to_bytes("q1"), rng);
  RequestState b =
      seal_request(kp.public_key, to_bytes("app"), to_bytes("q2"), rng);
  Bytes sealed = seal_response(a.response_key, to_bytes("for a"), rng);
  EXPECT_FALSE(open_response(b.response_key, sealed).ok());
  EXPECT_TRUE(open_response(a.response_key, sealed).ok());
}

TEST(Channel, TamperedMessagesRejected) {
  crypto::ChaChaRng rng(6);
  auto kp = hpke::KeyPair::generate(rng);
  RequestState req =
      seal_request(kp.public_key, to_bytes("app"), to_bytes("payload"), rng);

  Bytes bad = req.encapsulated;
  bad[bad.size() / 2] ^= 1;
  EXPECT_FALSE(open_request(kp, to_bytes("app"), bad).ok());

  Bytes sealed = seal_response(req.response_key, to_bytes("resp"), rng);
  Bytes bad_resp = sealed;
  bad_resp.back() ^= 1;
  EXPECT_FALSE(open_response(req.response_key, bad_resp).ok());
}

TEST(Channel, TruncatedInputsRejectedGracefully) {
  crypto::ChaChaRng rng(7);
  auto kp = hpke::KeyPair::generate(rng);
  EXPECT_FALSE(open_request(kp, {}, Bytes(5)).ok());
  EXPECT_FALSE(open_request(kp, {}, Bytes{}).ok());
  EXPECT_FALSE(open_response(rng.bytes(32), Bytes(4)).ok());
}

TEST(Channel, EmptyPayloadsWork) {
  crypto::ChaChaRng rng(8);
  auto kp = hpke::KeyPair::generate(rng);
  RequestState req = seal_request(kp.public_key, {}, {}, rng);
  auto server = open_request(kp, {}, req.encapsulated);
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(server->request.empty());
  Bytes sealed = seal_response(server->response_key, {}, rng);
  auto reply = open_response(req.response_key, sealed);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->empty());
}

class ChannelSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChannelSizes, RoundTripAtSize) {
  crypto::ChaChaRng rng(GetParam() + 9);
  auto kp = hpke::KeyPair::generate(rng);
  Bytes payload = rng.bytes(GetParam());
  RequestState req = seal_request(kp.public_key, to_bytes("s"), payload, rng);
  auto server = open_request(kp, to_bytes("s"), req.encapsulated);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server->request, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChannelSizes,
                         ::testing::Values(1, 100, 10000, 100000));


TEST(Channel, PaddingQuantizesAndRoundTrips) {
  XoshiroRng rng(11);
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 100u, 255u}) {
    Bytes payload = rng.bytes(len);
    Bytes padded = pad_to_bucket(payload, 32);
    EXPECT_EQ(padded.size() % 32, 0u) << len;
    EXPECT_GE(padded.size(), len + 1);
    auto unpadded = unpad(padded);
    ASSERT_TRUE(unpadded.ok()) << len;
    EXPECT_EQ(unpadded.value(), payload);
  }
  EXPECT_THROW(pad_to_bucket(Bytes{}, 0), std::invalid_argument);
}

TEST(Channel, UnpadRejectsMalformedPadding) {
  EXPECT_FALSE(unpad(Bytes{}).ok());
  EXPECT_FALSE(unpad(Bytes(16, 0)).ok());          // no 0x80 marker
  EXPECT_FALSE(unpad(Bytes{0x01, 0x02}).ok());     // ends in data
}

TEST(Channel, PaddingHidesLengthWithinBucket) {
  // Two payloads of different length in the same bucket produce identical
  // padded sizes — the §4.3 anti-fingerprinting property.
  Bytes a(10, 'a'), b(25, 'b');
  EXPECT_EQ(pad_to_bucket(a, 64).size(), pad_to_bucket(b, 64).size());
}

// ---- Session channels ------------------------------------------------------

TEST(SessionChannel, ManyMessagesOverOneEncapsulation) {
  crypto::ChaChaRng rng(40);
  auto kp = hpke::KeyPair::generate(rng);
  SessionSender sender(kp.public_key, to_bytes("session"), rng);
  auto accepted = SessionReceiver::accept(kp, to_bytes("session"),
                                          sender.enc());
  ASSERT_TRUE(accepted.ok());
  SessionReceiver receiver = std::move(accepted.value());

  // One KEM setup, then both directions stream frames: request i up,
  // response i down, interleaved like a real exchange.
  for (int i = 0; i < 50; ++i) {
    const std::string msg = "request " + std::to_string(i);
    Bytes frame = sender.seal(to_bytes(msg));
    auto got = receiver.open(frame);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(to_string(got.value()), msg);

    const std::string reply = "response " + std::to_string(i);
    Bytes rframe = receiver.seal_response(to_bytes(reply));
    auto rgot = sender.open_response(rframe);
    ASSERT_TRUE(rgot.ok()) << i;
    EXPECT_EQ(to_string(rgot.value()), reply);
  }
  EXPECT_EQ(sender.sealed(), 50u);
  EXPECT_EQ(receiver.opened(), 50u);
}

TEST(SessionChannel, RejectsReorderedAndReplayedFrames) {
  crypto::ChaChaRng rng(41);
  auto kp = hpke::KeyPair::generate(rng);
  SessionSender sender(kp.public_key, to_bytes("session"), rng);
  auto accepted = SessionReceiver::accept(kp, to_bytes("session"),
                                          sender.enc());
  ASSERT_TRUE(accepted.ok());
  SessionReceiver receiver = std::move(accepted.value());

  Bytes first = sender.seal(to_bytes("one"));
  Bytes second = sender.seal(to_bytes("two"));
  // Reordered: the seq prefix exposes the skip before any AEAD work.
  EXPECT_FALSE(receiver.open(second).ok());
  ASSERT_TRUE(receiver.open(first).ok());
  // Replay of an already-consumed frame.
  EXPECT_FALSE(receiver.open(first).ok());
  ASSERT_TRUE(receiver.open(second).ok());
  EXPECT_EQ(receiver.opened(), 2u);
}

TEST(SessionChannel, RejectsTamperedAndTruncatedFrames) {
  crypto::ChaChaRng rng(42);
  auto kp = hpke::KeyPair::generate(rng);
  SessionSender sender(kp.public_key, to_bytes("session"), rng);
  auto accepted = SessionReceiver::accept(kp, to_bytes("session"),
                                          sender.enc());
  ASSERT_TRUE(accepted.ok());
  SessionReceiver receiver = std::move(accepted.value());

  Bytes frame = sender.seal(to_bytes("payload"));
  Bytes flipped = frame;
  flipped.back() ^= 0x01;
  EXPECT_FALSE(receiver.open(flipped).ok());
  // Every strict prefix, and a varint whose first byte claims eight bytes
  // where three follow.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(receiver.open(BytesView(frame).first(n)).ok()) << n;
  }
  EXPECT_FALSE(receiver.open(Bytes{0xC0, 0x00, 0x00}).ok());
  EXPECT_EQ(receiver.opened(), 0u);
  // The intact frame still opens: failed attempts consumed no sequence,
  // and the response direction is still in step.
  EXPECT_TRUE(receiver.open(frame).ok());
  EXPECT_EQ(receiver.opened(), 1u);
  const Bytes ack = receiver.seal_response(to_bytes("ok"));
  EXPECT_TRUE(sender.open_response(ack).ok());
}

TEST(SessionChannel, ResponseDirectionEnforcesOrderToo) {
  crypto::ChaChaRng rng(43);
  auto kp = hpke::KeyPair::generate(rng);
  SessionSender sender(kp.public_key, to_bytes("session"), rng);
  auto accepted = SessionReceiver::accept(kp, to_bytes("session"),
                                          sender.enc());
  ASSERT_TRUE(accepted.ok());
  SessionReceiver receiver = std::move(accepted.value());
  ASSERT_TRUE(receiver.open(sender.seal(to_bytes("hi"))).ok());

  Bytes r1 = receiver.seal_response(to_bytes("a"));
  Bytes r2 = receiver.seal_response(to_bytes("b"));
  // Truncated responses and an overlong varint consume no response sequence.
  for (std::size_t n = 0; n < r1.size(); ++n) {
    EXPECT_FALSE(sender.open_response(BytesView(r1).first(n)).ok()) << n;
  }
  EXPECT_FALSE(sender.open_response(Bytes{0x80, 0x00}).ok());
  EXPECT_FALSE(sender.open_response(r2).ok());  // out of order
  ASSERT_TRUE(sender.open_response(r1).ok());
  ASSERT_TRUE(sender.open_response(r2).ok());
  EXPECT_FALSE(sender.open_response(r2).ok());  // replay
}

TEST(SessionChannel, AcceptRejectsMalformedEncapsulatedKey) {
  crypto::ChaChaRng rng(44);
  auto kp = hpke::KeyPair::generate(rng);
  EXPECT_FALSE(SessionReceiver::accept(kp, to_bytes("s"), Bytes(5, 1)).ok());
  SessionSender sender(kp.public_key, to_bytes("s"), rng);
  auto other = hpke::KeyPair::generate(rng);
  // Wrong key decapsulates to a different context: frames won't open.
  auto wrong = SessionReceiver::accept(other, to_bytes("s"), sender.enc());
  if (wrong.ok()) {
    EXPECT_FALSE(wrong.value().open(sender.seal(to_bytes("x"))).ok());
  }
}

}  // namespace
}  // namespace dcpl::systems
