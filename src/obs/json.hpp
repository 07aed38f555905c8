// Minimal dependency-free JSON support for the observability layer.
//
// The writer is a streaming emitter (no intermediate DOM) used for metric
// snapshots, Chrome trace-event files, and bench reports. The parser builds
// a small value tree and exists so tests and the report checker can validate
// what the writer (and the bench binaries) produced — it accepts exactly the
// JSON subset the writer emits (RFC 8259 minus surrogate-pair recombination).
// Write→parse round-trips are lossless for every byte string: valid UTF-8
// passes through verbatim, while C0 controls, DEL, and bytes that are not
// part of a valid UTF-8 sequence are escaped as \u00XX and decoded back to
// the identical single byte. write_file() is the one writer that puts a
// finished document (report, trace, flow log, page) on disk.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dcpl::obs {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
/// Valid UTF-8 passes through verbatim; C0 controls, DEL, and bytes that do
/// not form a valid UTF-8 sequence (stray continuations, overlongs,
/// surrogates, truncated tails) are escaped as \u00XX so the output is
/// always well-formed JSON and the parser below can reconstruct the exact
/// byte string.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  auto escape_byte = [&out](unsigned char c) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "\\u%04x", c);
    out += buf;
  };
  std::size_t i = 0;
  while (i < s.size()) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (c < 0x20 || c == 0x7F) {
      escape_byte(c);
      ++i;
      continue;
    }
    if (c < 0x80) {
      out += static_cast<char>(c);
      ++i;
      continue;
    }
    // Multibyte lead byte: measure the expected length, then validate the
    // continuation bytes and the decoded range (rejecting overlong forms and
    // surrogate code points, which strict decoders treat as invalid).
    std::size_t len = 0;
    std::uint32_t code = 0, min_code = 0;
    if ((c & 0xE0) == 0xC0) { len = 2; code = c & 0x1Fu; min_code = 0x80; }
    else if ((c & 0xF0) == 0xE0) { len = 3; code = c & 0x0Fu; min_code = 0x800; }
    else if ((c & 0xF8) == 0xF0) { len = 4; code = c & 0x07u; min_code = 0x10000; }
    bool ok = len != 0 && i + len <= s.size();
    for (std::size_t k = 1; ok && k < len; ++k) {
      const unsigned char cc = static_cast<unsigned char>(s[i + k]);
      if ((cc & 0xC0) != 0x80) ok = false;
      else code = (code << 6) | (cc & 0x3Fu);
    }
    ok = ok && code >= min_code && code <= 0x10FFFF &&
         !(code >= 0xD800 && code <= 0xDFFF);
    if (ok) {
      out.append(s.substr(i, len));
      i += len;
    } else {
      escape_byte(c);  // escape the bad byte alone and resync at the next one
      ++i;
    }
  }
  return out;
}

/// Streaming JSON writer. Handles commas and nesting; the caller is
/// responsible for balanced begin/end calls (checked with asserts in tests
/// by re-parsing the output).
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(256); }

  void begin_object() { element(); out_ += '{'; stack_.push_back(First::kYes); }
  void end_object() { out_ += '}'; stack_.pop_back(); }
  void begin_array() { element(); out_ += '['; stack_.push_back(First::kYes); }
  void end_array() { out_ += ']'; stack_.pop_back(); }

  /// Emits `"key":` — must be followed by exactly one value/container.
  void key(std::string_view k) {
    element();
    out_ += '"';
    out_ += json_escape(k);
    out_ += "\":";
    pending_value_ = true;
  }

  void value(std::string_view v) {
    element();
    out_ += '"';
    out_ += json_escape(v);
    out_ += '"';
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v) { element(); out_ += v ? "true" : "false"; }
  void value(double v) {
    element();
    char buf[32];
    // %.17g round-trips doubles; trim to a friendlier %.6g when exact.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    double back = 0;
    std::sscanf(buf, "%lf", &back);
    char short_buf[32];
    std::snprintf(short_buf, sizeof short_buf, "%.6g", v);
    double short_back = 0;
    std::sscanf(short_buf, "%lf", &short_back);
    out_ += (short_back == v) ? short_buf : buf;
  }
  void value(std::uint64_t v) { element(); out_ += std::to_string(v); }
  void value(std::int64_t v) { element(); out_ += std::to_string(v); }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void null() { element(); out_ += "null"; }

  /// Splices `json` — one complete, already-serialized JSON value — as the
  /// next element. The caller vouches for its validity (the report writer
  /// uses this to embed sections serialized earlier by another JsonWriter).
  void raw(std::string_view json) {
    element();
    out_ += json;
  }

  /// Convenience: key + scalar value in one call.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  enum class First { kYes, kNo };

  void element() {
    if (pending_value_) {  // value directly after key(): no comma
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back() == First::kNo) out_ += ',';
      stack_.back() = First::kNo;
    }
  }

  std::string out_;
  std::vector<First> stack_;
  bool pending_value_ = false;
};

/// Parsed JSON value (tree form). Only what the tests/checkers need.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_bool() const { return type == Type::kBool; }

  bool has(const std::string& k) const {
    return is_object() && object.count(k) > 0;
  }
  const JsonValue* find(const std::string& k) const {
    if (!is_object()) return nullptr;
    auto it = object.find(k);
    return it == object.end() ? nullptr : &it->second;
  }
  const JsonValue& at(const std::string& k) const { return object.at(k); }
};

/// Minimal recursive-descent parser. Returns false on malformed input.
class JsonParser {
 public:
  static bool parse(std::string_view text, JsonValue& out) {
    JsonParser p(text);
    if (!p.parse_value(out)) return false;
    p.skip_ws();
    return p.pos_ == text.size();
  }

 private:
  explicit JsonParser(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string k;
      if (!parse_string(k)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.object.emplace(std::move(k), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + 1 + i];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            pos_ += 4;
            // The writer escapes C0 controls, DEL, and invalid-UTF-8 bytes
            // as \u00XX; decode those back to the identical single byte so
            // write→parse round-trips every byte string losslessly. Codes
            // >= 0x100 are UTF-8 encoded (no surrogate-pair recombination;
            // that is the subset the writer emits).
            if (code < 0x100) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return false;
        }
        ++pos_;
      } else {
        out += c;
        ++pos_;
      }
    }
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = JsonValue::Type::kNumber;
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(num.c_str(), &end);
    return end == num.c_str() + num.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Writes `body` to `path`, replacing the file. Returns false when the
/// open, the write or the close fails.
inline bool write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace dcpl::obs
