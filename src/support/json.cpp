#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace sts {

namespace {

[[noreturn]] void fail_kind(const char* expected, JsonValue::Kind got) {
  const char* name = "?";
  switch (got) {
    case JsonValue::Kind::kNull: name = "null"; break;
    case JsonValue::Kind::kBool: name = "bool"; break;
    case JsonValue::Kind::kNumber: name = "number"; break;
    case JsonValue::Kind::kString: name = "string"; break;
    case JsonValue::Kind::kArray: name = "array"; break;
    case JsonValue::Kind::kObject: name = "object"; break;
  }
  throw std::invalid_argument(std::string("json: expected ") + expected + ", got " + name);
}

}  // namespace

namespace detail {

/// Recursive-descent parser over a string_view with offset-annotated errors.
/// Appends each value to the document's node array in document order and
/// decodes each string literal into the document's byte buffer.
class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits), p_(text.data()), end_(text.data() + text.size()) {}

  JsonDocument parse_document() {
    // Node sizes and string lengths are 32-bit, so no input may reach 4 GiB.
    const std::size_t max_bytes =
        limits_.max_bytes > 0 ? limits_.max_bytes : std::numeric_limits<std::uint32_t>::max();
    if (text_.size() > max_bytes) {
      throw std::invalid_argument("json: input of " + std::to_string(text_.size()) +
                                  " bytes exceeds the " + std::to_string(max_bytes) +
                                  "-byte limit");
    }
    // Both buffers are sized once, up front, so no node or string moves. A
    // decoded string is never longer than its literal. Every value but the
    // root, and every key, follows one of '[', '{', ',' or ':', so counting
    // those bytes bounds the node count.
    doc_.bytes_.reset(new char[text_.size()]);
    std::size_t nodes = 1;
    for (const char c : text_) nodes += c == ',' || c == ':' || c == '[' || c == '{';
    doc_.nodes_.reset(new JsonValue[nodes]);
    capacity_ = nodes;
    parse_value(0);
    skip_ws();
    if (p_ != end_) fail("trailing garbage after document");
    return std::move(doc_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(p_ - text_.data()));
  }

  /// Appends a node and returns its index.
  std::size_t push(JsonValue::Kind kind) {
    // Unreachable: each node but the root consumes one counted separator.
    if (used_ == capacity_) throw std::logic_error("json: node bound exceeded");
    JsonValue& node = doc_.nodes_[used_];
    node.kind_ = kind;
    node.integral_ = false;
    node.size_ = 0;
    node.int_ = 0;
    return used_++;
  }

  JsonValue& node(std::size_t index) { return doc_.nodes_[index]; }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }

  char peek() {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (p_ == end_ || *p_ != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool consume_literal(std::string_view literal) {
    if (!std::string_view(p_, static_cast<std::size_t>(end_ - p_)).starts_with(literal)) {
      return false;
    }
    p_ += literal.size();
    return true;
  }

  void parse_value(int depth) {
    if (depth > limits_.max_depth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': parse_object(depth); return;
      case '[': parse_array(depth); return;
      case '"': parse_string(); return;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        node(push(JsonValue::Kind::kBool)).bool_ = true;
        return;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        node(push(JsonValue::Kind::kBool)).bool_ = false;
        return;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        (void)push(JsonValue::Kind::kNull);
        return;
      default: parse_number(); return;
    }
  }

  /// Records a finished container's element count and subtree size.
  void close(std::size_t self, std::uint32_t count) {
    JsonValue& container = node(self);
    container.size_ = count;
    container.span_ = used_ - self - 1;
  }

  void parse_object(int depth) {
    expect('{');
    const std::size_t self = push(JsonValue::Kind::kObject);
    std::uint32_t count = 0;
    skip_ws();
    if (peek() == '}') {
      ++p_;
      close(self, count);
      return;
    }
    for (;;) {
      skip_ws();
      const std::size_t key = parse_string();
      const std::string_view name = node(key).as_string();
      for (std::size_t k = self + 1; k < key;
           k = static_cast<std::size_t>(node(k + 1).next() - doc_.nodes_.get())) {
        if (node(k).as_string() == name) fail("duplicate object key '" + std::string(name) + "'");
      }
      skip_ws();
      expect(':');
      parse_value(depth + 1);
      ++count;
      skip_ws();
      const char c = peek();
      ++p_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    close(self, count);
  }

  void parse_array(int depth) {
    expect('[');
    const std::size_t self = push(JsonValue::Kind::kArray);
    std::uint32_t count = 0;
    skip_ws();
    if (peek() == ']') {
      ++p_;
      close(self, count);
      return;
    }
    for (;;) {
      parse_value(depth + 1);
      ++count;
      skip_ws();
      const char c = peek();
      ++p_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    close(self, count);
  }

  /// Decodes one string literal into the document's bytes as a string node;
  /// returns the node's index.
  std::size_t parse_string() {
    expect('"');
    char* const start = doc_.bytes_.get() + bytes_used_;
    char* out = start;
    for (;;) {
      // Copy the run up to the next quote, backslash or control byte at once.
      const char* const run = p_;
      const char* p = run;
      while (p != end_ && *p != '"' && *p != '\\' && static_cast<unsigned char>(*p) >= 0x20) ++p;
      const auto length = static_cast<std::size_t>(p - run);
      std::memcpy(out, run, length);
      out += length;
      p_ = p;
      if (p_ == end_) fail("unterminated string");
      const char c = *p_++;
      if (c == '"') break;
      if (c != '\\') fail("unescaped control character");
      if (p_ == end_) fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"': *out++ = '"'; break;
        case '\\': *out++ = '\\'; break;
        case '/': *out++ = '/'; break;
        case 'b': *out++ = '\b'; break;
        case 'f': *out++ = '\f'; break;
        case 'n': *out++ = '\n'; break;
        case 'r': *out++ = '\r'; break;
        case 't': *out++ = '\t'; break;
        case 'u': out = parse_unicode_escape(out); break;
        default: fail("invalid escape");
      }
    }
    const auto length = static_cast<std::size_t>(out - start);
    bytes_used_ += length;
    const std::size_t self = push(JsonValue::Kind::kString);
    node(self).size_ = static_cast<std::uint32_t>(length);
    node(self).chars_ = start;
    return self;
  }

  /// \uXXXX escapes, UTF-8 encoded at `out`; returns the end of what was
  /// written. Surrogate pairs are handled; a lone surrogate is rejected (the
  /// envelope never needs one).
  char* parse_unicode_escape(char* out) {
    const auto hex4 = [this]() -> std::uint32_t {
      if (end_ - p_ < 4) fail("truncated \\u escape");
      std::uint32_t value = 0;
      for (int i = 0; i < 4; ++i) {
        const char c = *p_++;
        value <<= 4;
        if (c >= '0' && c <= '9') {
          value |= static_cast<std::uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          value |= static_cast<std::uint32_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          value |= static_cast<std::uint32_t>(c - 'A' + 10);
        } else {
          fail("invalid \\u escape");
        }
      }
      return value;
    };
    std::uint32_t code = hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (!consume_literal("\\u")) fail("unpaired surrogate");
      const std::uint32_t low = hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    if (code < 0x80) {
      *out++ = static_cast<char>(code);
    } else if (code < 0x800) {
      *out++ = static_cast<char>(0xC0 | (code >> 6));
      *out++ = static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out++ = static_cast<char>(0xE0 | (code >> 12));
      *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out++ = static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out++ = static_cast<char>(0xF0 | (code >> 18));
      *out++ = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out++ = static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  void parse_number() {
    // Strict RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // — no leading zeros, no bare '.5' / trailing '1.', nothing from_chars
    // would otherwise tolerate. The envelope promises that malformed input
    // never silently parses as a different scenario.
    const char* const start = p_;
    const auto digit = [this] { return p_ != end_ && *p_ >= '0' && *p_ <= '9'; };
    const auto digits1 = [&] {  // one-or-more digits
      if (!digit()) fail("invalid number");
      while (digit()) ++p_;
    };
    const bool negative = p_ != end_ && *p_ == '-';
    if (negative) ++p_;
    if (!digit()) fail("invalid number");
    // The integer part's value, exact while it has at most 18 digits.
    std::uint64_t magnitude = 0;
    const char* const first_digit = p_;
    if (*p_ == '0') {
      ++p_;
      if (digit()) fail("leading zero in number");
    } else {
      while (digit()) magnitude = 10 * magnitude + static_cast<unsigned char>(*p_++ - '0');
    }
    const bool exact = p_ - first_digit <= 18;
    bool integral = true;
    if (p_ != end_ && *p_ == '.') {
      integral = false;
      ++p_;
      digits1();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      integral = false;
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      digits1();
    }
    if (integral && exact) {
      JsonValue& number = node(push(JsonValue::Kind::kNumber));
      number.integral_ = true;
      number.int_ = negative ? -static_cast<std::int64_t>(magnitude)
                             : static_cast<std::int64_t>(magnitude);
      return;
    }
    const std::string_view token(start, static_cast<std::size_t>(p_ - start));
    if (integral) {
      std::int64_t value = 0;
      const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && end == token.data() + token.size()) {
        JsonValue& number = node(push(JsonValue::Kind::kNumber));
        number.integral_ = true;
        number.int_ = value;
        return;
      }
      // Integer literal out of int64 range: fall through to double.
    }
    double value = 0.0;
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size() || !std::isfinite(value)) {
      fail("invalid number");
    }
    node(push(JsonValue::Kind::kNumber)).double_ = value;
  }

  std::string_view text_;
  JsonLimits limits_;
  const char* p_;           // the next byte to read
  const char* const end_;
  JsonDocument doc_;
  std::size_t used_ = 0;      // nodes written
  std::size_t capacity_ = 0;  // nodes allocated
  std::size_t bytes_used_ = 0;
};

}  // namespace detail

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) fail_kind("bool", kind_);
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::kNumber) fail_kind("number", kind_);
  if (!integral_) throw std::invalid_argument("json: expected integer, got fraction");
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) fail_kind("number", kind_);
  return integral_ ? static_cast<double>(int_) : double_;
}

std::string_view JsonValue::as_string() const {
  if (kind_ != Kind::kString) fail_kind("string", kind_);
  return {chars_, size_};
}

JsonValue::Items JsonValue::items() const {
  if (kind_ != Kind::kArray) fail_kind("array", kind_);
  return {this + 1, next(), size_};
}

JsonValue::Members JsonValue::members() const {
  if (kind_ != Kind::kObject) fail_kind("object", kind_);
  return {this + 1, next()};
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const Member m : members()) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* value = find(key)) return *value;
  throw std::invalid_argument("json: missing member '" + std::string(key) + "'");
}

JsonDocument parse_json(std::string_view text) {
  return detail::JsonParser(text, JsonLimits{}).parse_document();
}

JsonDocument parse_json(std::string_view text, const JsonLimits& limits) {
  return detail::JsonParser(text, limits).parse_document();
}

void reject_unknown_members(const JsonValue& object,
                            std::initializer_list<std::string_view> allowed,
                            const char* context, const char* what) {
  for (const JsonValue::Member m : object.members()) {
    bool known = false;
    for (const std::string_view key : allowed) known = known || m.key == key;
    if (!known) {
      throw std::invalid_argument(std::string(context) + ": unknown " + what + " member '" +
                                  std::string(m.key) + "'");
    }
  }
}

void append_json_quoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace sts
