// Minimal HTTP message model with one encoding: binary (length-prefixed, in
// the spirit of RFC 9292 Binary HTTP), the payload format inside OHTTP / MPR
// encapsulation.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace dcpl::http {

using Header = std::pair<std::string, std::string>;

struct Request {
  std::string method = "GET";
  std::string authority;  // host, e.g. "origin.example"
  std::string path = "/";
  std::vector<Header> headers;
  Bytes body;

  /// First matching header value, or empty string.
  std::string header(std::string_view name) const;

  Bytes encode_binary() const;
  static Result<Request> decode_binary(BytesView data);
};

struct Response {
  int status = 200;
  std::vector<Header> headers;
  Bytes body;

  std::string header(std::string_view name) const;

  Bytes encode_binary() const;
  static Result<Response> decode_binary(BytesView data);
};

}  // namespace dcpl::http
