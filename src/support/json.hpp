#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

namespace sts {

namespace detail {
class JsonParser;
}

/// One value of a parsed JsonDocument: the read side of the serving envelope
/// (service/request.hpp), graph and edit readers, and `/stats` scrapes.
/// Every accessor throws std::invalid_argument on a kind mismatch, so
/// envelope readers get typed "malformed request" errors instead of silent
/// coercions.
///
/// Values are nodes of their document's flat array, stored in document
/// order: a container is followed by its elements (an object by key, value,
/// key, value...), and records how many nodes its subtree spans, so the
/// next sibling is one skip away and iteration never allocates. A value is
/// only ever handled by reference into its document, which must outlive it;
/// copying one out of the array is not possible.
///
/// Numbers keep their exact integral value when the literal is an integer in
/// int64 range (no '.', no exponent): graph volumes are int64 and must
/// round-trip bit-exactly, which a double-only model cannot guarantee above
/// 2^53. Object member order is preserved; duplicate keys are rejected at
/// parse time.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// One object member, viewed in place.
  struct Member {
    std::string_view key;
    const JsonValue& value;
  };
  class Items;
  class Members;

  // Values live only inside their document's array, where navigation is
  // pointer arithmetic: a copy would read past its own subtree.
  JsonValue(const JsonValue&) = delete;
  JsonValue& operator=(const JsonValue&) = delete;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }

  /// Typed accessors; throw std::invalid_argument naming the expected kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< also rejects non-integral numbers
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::string_view as_string() const;  ///< bytes owned by the document
  [[nodiscard]] Items items() const;                 ///< array elements
  [[nodiscard]] Members members() const;             ///< object members

  /// Object member lookup; nullptr when absent. Throws if not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Like find, but a missing member throws std::invalid_argument naming it.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

 private:
  friend class detail::JsonParser;

  JsonValue() = default;  // only the parser creates nodes, in a document's array

  /// The node after this value's subtree: the next sibling, or the end of
  /// the enclosing container.
  [[nodiscard]] const JsonValue* next() const noexcept {
    return this + 1 + (kind_ >= Kind::kArray ? span_ : 0);
  }

  Kind kind_;
  bool integral_;       // kNumber: the literal was an int64, held in int_
  std::uint32_t size_;  // kString: byte length; kArray / kObject: element / member count
  union {
    bool bool_;
    std::int64_t int_;
    double double_;
    const char* chars_;  // kString: the document's copy of the decoded bytes
    std::size_t span_;   // kArray / kObject: nodes in the subtree below this one
  };
};

/// Range over an array's elements (for range-for).
class JsonValue::Items {
 public:
  class iterator {
   public:
    explicit iterator(const JsonValue* at) : at_(at) {}
    const JsonValue& operator*() const { return *at_; }
    iterator& operator++() {
      at_ = at_->next();
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const JsonValue* at_;
  };

  Items(const JsonValue* first, const JsonValue* last, std::size_t size)
      : first_(first), last_(last), size_(size) {}

  [[nodiscard]] iterator begin() const { return iterator(first_); }
  [[nodiscard]] iterator end() const { return iterator(last_); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Element i (< size()): O(1) when every element is a scalar, otherwise a
  /// walk over the i elements before it.
  [[nodiscard]] const JsonValue& operator[](std::size_t i) const {
    if (static_cast<std::size_t>(last_ - first_) == size_) return first_[i];
    const JsonValue* at = first_;
    for (; i > 0; --i) at = at->next();
    return *at;
  }

 private:
  const JsonValue* first_;
  const JsonValue* last_;
  std::size_t size_;
};

/// Range over an object's members, in document order (for range-for).
class JsonValue::Members {
 public:
  class iterator {
   public:
    explicit iterator(const JsonValue* key) : key_(key) {}
    Member operator*() const { return Member{{key_->chars_, key_->size_}, key_[1]}; }
    iterator& operator++() {
      key_ = key_[1].next();
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const JsonValue* key_;
  };

  Members(const JsonValue* first, const JsonValue* last) : first_(first), last_(last) {}

  [[nodiscard]] iterator begin() const { return iterator(first_); }
  [[nodiscard]] iterator end() const { return iterator(last_); }

 private:
  const JsonValue* first_;
  const JsonValue* last_;
};

/// A parsed JSON document: every value in one contiguous node array, and
/// every decoded string byte in one buffer the document owns (never a view
/// of the parsed text, which may be a temporary). Moving a document keeps
/// every value and string view into it valid.
///
/// A document reads like its root value: the root's lookups and common
/// accessors are repeated here, and a document converts to
/// `const JsonValue&` so it can be handed to a reader directly. That
/// reference lives only as long as the document.
class JsonDocument {
 public:
  [[nodiscard]] const JsonValue& root() const noexcept { return nodes_[0]; }
  operator const JsonValue&() const noexcept { return root(); }

  [[nodiscard]] std::int64_t as_int() const { return root().as_int(); }
  [[nodiscard]] std::string_view as_string() const { return root().as_string(); }
  [[nodiscard]] JsonValue::Items items() const { return root().items(); }
  [[nodiscard]] const JsonValue* find(std::string_view key) const { return root().find(key); }
  [[nodiscard]] const JsonValue& at(std::string_view key) const { return root().at(key); }

 private:
  friend class detail::JsonParser;
  JsonDocument() = default;

  std::unique_ptr<JsonValue[]> nodes_;
  std::unique_ptr<char[]> bytes_;
};

/// Resource bounds for parsing untrusted input (network bodies). Both
/// limits fail fast with std::invalid_argument — the same typed parse error
/// malformed input gets — instead of risking stack exhaustion (depth) or
/// unbounded allocation (size). The defaults match the classic trusted-path
/// behavior: depth 64, no size cap.
struct JsonLimits {
  /// Maximum container nesting depth; a scalar document has depth 0. The
  /// recursive-descent parser burns one stack frame per level, so this is
  /// the stack-exhaustion bound.
  int max_depth = 64;

  /// Maximum input size in bytes; 0 = unlimited. Checked before the first
  /// byte is parsed, so an oversized body is rejected in O(1).
  std::size_t max_bytes = 0;
};

/// Strict recursive-descent parse of one JSON document. Throws
/// std::invalid_argument (with the byte offset) on malformed input,
/// trailing garbage, duplicate object keys, or nesting deeper than 64
/// levels. Accepts the RFC 8259 grammar; no extensions (comments, NaN,
/// trailing commas).
[[nodiscard]] JsonDocument parse_json(std::string_view text);

/// parse_json with explicit resource bounds — the untrusted-input entry
/// point (StsServer request bodies, RemoteBackend response bodies).
[[nodiscard]] JsonDocument parse_json(std::string_view text, const JsonLimits& limits);

/// Appends `text` JSON-escaped (quotes, backslash, control characters)
/// between double quotes.
void append_json_quoted(std::string& out, std::string_view text);

/// Strict-envelope helper: throws std::invalid_argument
/// ("<context>: unknown <what> member '<name>'") for any member of `object`
/// outside `allowed` — a typo must not silently change a scenario.
void reject_unknown_members(const JsonValue& object,
                            std::initializer_list<std::string_view> allowed,
                            const char* context, const char* what);

}  // namespace sts
