#include "http/message.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/io.hpp"

namespace dcpl::http {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

void encode_headers(ByteWriter& w, const std::vector<Header>& headers) {
  if (headers.size() > 0xFFFF) {
    throw std::length_error("http: " + std::to_string(headers.size()) +
                            " headers overflow a 2-byte count");
  }
  w.u16(static_cast<std::uint16_t>(headers.size()));
  for (const auto& [name, value] : headers) {
    w.vec(to_bytes(name), 2);
    w.vec(to_bytes(value), 2);
  }
}

std::vector<Header> decode_headers(ByteReader& r) {
  std::vector<Header> headers;
  const std::uint16_t count = r.u16();
  headers.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    std::string name = to_string(r.vec(2));
    std::string value = to_string(r.vec(2));
    headers.emplace_back(std::move(name), std::move(value));
  }
  return headers;
}

std::string find_header(const std::vector<Header>& headers,
                        std::string_view name) {
  for (const auto& [n, v] : headers) {
    if (iequals(n, name)) return v;
  }
  return {};
}

}  // namespace

std::string Request::header(std::string_view name) const {
  return find_header(headers, name);
}

std::string Response::header(std::string_view name) const {
  return find_header(headers, name);
}

Bytes Request::encode_binary() const {
  ByteWriter w;
  w.vec(to_bytes(method), 1);
  w.vec(to_bytes(authority), 2);
  w.vec(to_bytes(path), 2);
  encode_headers(w, headers);
  w.vec(body, 4);
  return std::move(w).take();
}

Result<Request> Request::decode_binary(BytesView data) {
  try {
    ByteReader r(data);
    Request req;
    req.method = to_string(r.vec(1));
    req.authority = to_string(r.vec(2));
    req.path = to_string(r.vec(2));
    req.headers = decode_headers(r);
    req.body = r.vec(4);
    if (!r.done()) return Result<Request>::failure("request: trailing bytes");
    return req;
  } catch (const ParseError& e) {
    return Result<Request>::failure(e.what());
  }
}

std::string Request::encode_text() const {
  std::ostringstream out;
  out << method << " " << path << " HTTP/1.1\r\n";
  out << "Host: " << authority << "\r\n";
  for (const auto& [n, v] : headers) out << n << ": " << v << "\r\n";
  out << "Content-Length: " << body.size() << "\r\n\r\n";
  out << to_string(body);
  return out.str();
}

Bytes Response::encode_binary() const {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(status));
  encode_headers(w, headers);
  w.vec(body, 4);
  return std::move(w).take();
}

Result<Response> Response::decode_binary(BytesView data) {
  try {
    ByteReader r(data);
    Response resp;
    resp.status = r.u16();
    resp.headers = decode_headers(r);
    resp.body = r.vec(4);
    if (!r.done()) return Result<Response>::failure("response: trailing bytes");
    return resp;
  } catch (const ParseError& e) {
    return Result<Response>::failure(e.what());
  }
}

std::string Response::encode_text() const {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << " \r\n";
  for (const auto& [n, v] : headers) out << n << ": " << v << "\r\n";
  out << "Content-Length: " << body.size() << "\r\n\r\n";
  out << to_string(body);
  return out.str();
}

}  // namespace dcpl::http
