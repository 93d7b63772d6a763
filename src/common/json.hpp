// The one JSON reader for every document the repo reads: run requests,
// progress and result documents, journal lines, daemon responses, run
// reports. (Writing goes through escape() and common/fields.hpp.)
//
// Strict RFC 8259 in one pass: Node::parse turns the whole text into a
// small DOM in which every value keeps its byte offset, and rejects what a
// lenient reader would have to guess at — duplicate keys, stray or trailing
// commas, bytes after the document, raw control bytes in strings, nesting
// deeper than kMaxDepth. A lookup addresses one object's own members, so a
// same-named key inside a nested block never answers for the outer one.
// Every error carries three coordinates:
//
//   <origin>: field 'recovery.pilots_resubmitted' at byte 1147: expected a number
//
// the origin (file path or "request body"), the dotted field path from the
// document root, and the absolute byte offset of the offending value.
// Strings are not checked for valid UTF-8; their bytes pass through as-is.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.hpp"

namespace aimes::common::json {

/// Deeper documents are rejected before the recursive reader can exhaust
/// the stack.
inline constexpr int kMaxDepth = 64;

/// JSON string body for `s` (no quotes): quote, backslash and every control
/// byte escaped.
[[nodiscard]] std::string escape(std::string_view s);
/// The one spelling of a double on the wire ("%.6g", what iostreams print).
[[nodiscard]] std::string number(double v);

/// One parsed value. Numbers keep their text so integers convert exactly.
struct Value {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  std::size_t offset = 0;  ///< byte offset of the value's first character
  std::string text;        ///< decoded string, or the number's lexeme
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;  ///< document order, unique keys
};

struct Document;

/// One value of a parsed document, or a member that is absent (a default
/// Node is absent from any document). Copies share the document.
class Node {
 public:
  Node() = default;
  /// Parses `text` as one whole document whose root is an object.
  [[nodiscard]] static Expected<Node> parse(std::string origin, std::string_view text);

  /// Member `key` of this object; absent when missing.
  [[nodiscard]] Node get(std::string_view key) const;
  [[nodiscard]] bool present() const { return value_ != nullptr; }
  [[nodiscard]] Expected<std::string> text() const;
  [[nodiscard]] Expected<bool> boolean() const;
  [[nodiscard]] Expected<double> number() const;
  /// An integral number that fits Int. Fractions ("64.9") and out-of-range
  /// values ("1e25") are errors, never truncated.
  template <class Int>
  [[nodiscard]] Expected<Int> integer() const {
    using L = std::numeric_limits<Int>;
    auto v = exact();
    if (!v) return Expected<Int>::error(v.error());
    if (*v == std::trunc(*v) && *v >= L::min() && *v <= L::max()) return static_cast<Int>(*v);
    return Expected<Int>::error(describe() + ": expected an integer in [" +
                                std::to_string(L::min()) + ", " + std::to_string(L::max()) + "]");
  }
  /// This node, if it is an object.
  [[nodiscard]] Expected<Node> object() const;
  /// The elements of an array.
  [[nodiscard]] Expected<std::vector<Node>> items() const;
  /// Rejects the first member whose key is not in `keys`.
  [[nodiscard]] Status only(const std::vector<std::string_view>& keys) const;
  /// "<origin>: field '<path>' at byte N", the prefix for errors about this
  /// value (no byte when it is absent).
  [[nodiscard]] std::string describe() const;

 private:
  Node(std::shared_ptr<const Document> doc, const Value* value, std::string path)
      : doc_(std::move(doc)), value_(value), path_(std::move(path)) {}
  [[nodiscard]] Expected<const Value*> typed(Value::Type type, const char* expected) const;
  /// A number read as long double: exact for every 64-bit integer.
  [[nodiscard]] Expected<long double> exact() const;
  [[nodiscard]] std::string origin() const;

  std::shared_ptr<const Document> doc_;
  const Value* value_ = nullptr;
  std::string path_;  ///< dotted path from the root, e.g. "runs[2].name"
};

}  // namespace aimes::common::json
