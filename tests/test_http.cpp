// HTTP message model: the binary encoding and malformed-input handling.
#include "http/message.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace dcpl::http {
namespace {

Request sample_request() {
  Request req;
  req.method = "POST";
  req.authority = "origin.example";
  req.path = "/api/v1/search?q=test";
  req.headers = {{"Content-Type", "application/json"}, {"X-Trace", "abc"}};
  req.body = to_bytes("{\"q\":\"test\"}");
  return req;
}

TEST(HttpRequest, BinaryRoundTrip) {
  Request req = sample_request();
  auto decoded = Request::decode_binary(req.encode_binary());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->method, "POST");
  EXPECT_EQ(decoded->authority, "origin.example");
  EXPECT_EQ(decoded->path, "/api/v1/search?q=test");
  EXPECT_EQ(decoded->headers, req.headers);
  EXPECT_EQ(decoded->body, req.body);
}

TEST(HttpRequest, DefaultsRoundTrip) {
  Request req;
  auto decoded = Request::decode_binary(req.encode_binary());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->method, "GET");
  EXPECT_EQ(decoded->path, "/");
  EXPECT_TRUE(decoded->headers.empty());
  EXPECT_TRUE(decoded->body.empty());
}

TEST(HttpRequest, HeaderLookupIsCaseInsensitive) {
  Request req = sample_request();
  EXPECT_EQ(req.header("content-type"), "application/json");
  EXPECT_EQ(req.header("CONTENT-TYPE"), "application/json");
  EXPECT_EQ(req.header("missing"), "");
}

TEST(HttpRequest, DecodeRejectsTruncation) {
  Bytes enc = sample_request().encode_binary();
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(Request::decode_binary(BytesView(enc).first(len)).ok())
        << "len=" << len;
  }
}

TEST(HttpRequest, DecodeRejectsTrailingGarbage) {
  Bytes enc = sample_request().encode_binary();
  enc.push_back(0);
  EXPECT_FALSE(Request::decode_binary(enc).ok());
}

TEST(HttpResponse, BinaryRoundTrip) {
  Response resp;
  resp.status = 404;
  resp.headers = {{"Server", "dcpl"}};
  resp.body = to_bytes("not found");
  auto decoded = Response::decode_binary(resp.encode_binary());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, 404);
  EXPECT_EQ(decoded->headers, resp.headers);
  EXPECT_EQ(to_string(decoded->body), "not found");
}

TEST(HttpResponse, DecodeRejectsTruncation) {
  Response resp;
  resp.body = to_bytes("payload");
  Bytes enc = resp.encode_binary();
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(Response::decode_binary(BytesView(enc).first(len)).ok());
  }
}

TEST(HttpRequest, LargeBodyRoundTrip) {
  dcpl::XoshiroRng rng(5);
  Request req;
  req.body = rng.bytes(100'000);
  auto decoded = Request::decode_binary(req.encode_binary());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->body, req.body);
}

TEST(HttpRequest, ManyHeadersRoundTrip) {
  Request req;
  for (int i = 0; i < 300; ++i) {
    req.headers.emplace_back("h" + std::to_string(i), std::to_string(i));
  }
  auto decoded = Request::decode_binary(req.encode_binary());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->headers.size(), 300u);
  EXPECT_EQ(decoded->headers[299].second, "299");
}

// Every length prefix and the header count are checked against their
// width: one past the largest value throws std::length_error instead of
// emitting a frame whose prefix was silently truncated.
TEST(HttpRequest, EncodeRejectsLengthsItsPrefixesCannotHold) {
  Request req;
  req.headers.assign(0xFFFF, Header{});
  auto decoded = Request::decode_binary(req.encode_binary());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->headers.size(), 0xFFFFu);
  req.headers.emplace_back();
  EXPECT_THROW(req.encode_binary(), std::length_error);

  Response resp;
  resp.headers.assign(0x10000, Header{});
  EXPECT_THROW(resp.encode_binary(), std::length_error);

  Request method;
  method.method = std::string(256, 'M');
  EXPECT_THROW(method.encode_binary(), std::length_error);
  method.method.pop_back();
  EXPECT_TRUE(Request::decode_binary(method.encode_binary()).ok());

  Request value;
  value.headers = {{"x-big", std::string(0x10000, 'v')}};
  EXPECT_THROW(value.encode_binary(), std::length_error);
}

}  // namespace
}  // namespace dcpl::http
