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

}  // namespace
}  // namespace dcpl::systems
