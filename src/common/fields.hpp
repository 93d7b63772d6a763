// Field tables: a struct that travels as JSON lists its fields once, and
// that one list both writes and reads it.
//
// The list is a function template calling `v(key, member)` per field, with
// "group.key" for members of one level of nested objects:
//
//   template <class P, class V> void progress_fields(P& p, V& v) {
//     v("trials_done", p.trials_done);
//     v("checksum", json::hex(p.checksum));
//   }
//
// Handed a const struct and a Writer it emits the document; handed a
// mutable one and a Reader it parses it. The member's C++ type picks the
// JSON kind (string, bool, int, int64, uint64, double, arrays of those);
// hex() and spelled() mark members whose wire form is a string. Both keep
// views of the keys, so keys are string literals (or outlive the walk).
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace aimes::common::json {

/// A member written as a string through its own print/parse pair.
template <class T, class U>
struct Spelled {
  U& value;
  std::string (*print)(const T&);
  Status (*parse)(const std::string&, T&);
};
template <class T, class U>
Spelled<T, U> spelled(U& value, std::string (*print)(const T&),
                      Status (*parse)(const std::string&, T&)) {
  return {value, print, parse};
}

/// Checksums travel as 16 hex digits in a string (JSON numbers lose
/// precision past 2^53); parse_hex16 takes 1-16 hex digits.
[[nodiscard]] std::string hex16(const std::uint64_t& v);
[[nodiscard]] Status parse_hex16(const std::string& text, std::uint64_t& out);
template <class U>
Spelled<std::uint64_t, U> hex(U& value) {
  return spelled(value, hex16, parse_hex16);
}

/// Emits one object, field by field. `pretty`: one member per line with a
/// two-space indent; otherwise one line with ", " separators.
class Writer {
 public:
  explicit Writer(bool pretty) : pretty_(pretty) {}

  void operator()(std::string_view key, std::string_view v) { raw(key, '"' + escape(v) + '"'); }
  void operator()(std::string_view key, const char* v) { (*this)(key, std::string_view(v)); }
  void operator()(std::string_view key, bool v) { raw(key, v ? "true" : "false"); }
  void operator()(std::string_view key, int v) { raw(key, std::to_string(v)); }
  void operator()(std::string_view key, std::int64_t v) { raw(key, std::to_string(v)); }
  void operator()(std::string_view key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void operator()(std::string_view key, double v) { raw(key, number(v)); }
  template <class T>
  void operator()(std::string_view key, const Spelled<T, const T>& v) {
    (*this)(key, v.print(v.value));
  }
  /// A member whose value is already JSON text.
  void raw(std::string_view key, std::string_view json);
  /// Closes the object and returns it (no trailing newline).
  [[nodiscard]] std::string finish();

 private:
  void open(bool& first, int depth, std::string_view key);
  void close(int depth);

  bool pretty_;
  std::string out_ = "{";
  std::string_view group_;  ///< nested object being written; empty at the root
  bool first_ = true;
  bool group_first_ = true;
};

/// Reads the members a field list names out of one object. An absent field
/// keeps its default unless `require_all`; finish() reports the first error,
/// or else the first member that no field named.
class Reader {
 public:
  explicit Reader(Node root, bool require_all = false)
      : root_(std::move(root)), require_all_(require_all) {}

  template <class T>
  void operator()(std::string_view key, T& dst) {
    read(key, [&dst](const Node& n) { return load(n, dst); });
  }
  /// A member whose value must also pass `check(const T&) -> Status`; a
  /// rejection names the field and its byte offset.
  template <class T, class C>
  void operator()(std::string_view key, T& dst, C&& check) {
    read(key, [&](const Node& n) {
      auto st = load(n, dst);
      if (st.ok() && !(st = check(std::as_const(dst))).ok()) {
        st = Status::error(n.describe() + ": " + st.error());
      }
      return st;
    });
  }
  template <class T>
  void operator()(std::string_view key, const Spelled<T, T>& dst) {
    std::string text;
    (*this)(key, text, [&dst](const std::string& s) { return dst.parse(s, dst.value); });
  }
  /// A nested object with its own parser, `parse(const Node&) -> Expected<T>`.
  template <class T, class F>
  void object(std::string_view key, T& dst, F&& parse) {
    read(key, [&](const Node& n) {
      auto node = n.object();
      return node ? assign(parse(*node), dst) : Status::error(node.error());
    });
  }

  [[nodiscard]] Status finish() const;

 private:
  template <class T, class U>
  static Status assign(Expected<T> v, U& dst) {
    if (!v) return Status::error(v.error());
    dst = std::move(*v);
    return {};
  }
  template <class T>
  static Status load(const Node& n, T& dst) {
    if constexpr (std::is_same_v<T, std::string>) {
      return assign(n.text(), dst);
    } else if constexpr (std::is_same_v<T, bool>) {
      return assign(n.boolean(), dst);
    } else if constexpr (std::is_floating_point_v<T>) {
      return assign(n.number(), dst);
    } else if constexpr (std::is_integral_v<T>) {
      return assign(n.integer<T>(), dst);
    } else {  // std::vector of any of the above
      auto items = n.items();
      if (!items) return Status::error(items.error());
      dst.assign(items->size(), {});
      for (std::size_t i = 0; i < dst.size(); ++i) {
        if (auto st = load((*items)[i], dst[i]); !st.ok()) return st;
      }
      return {};
    }
  }
  /// Records `key`, then reads it with `load_from` when it is present (or
  /// required) and no earlier field failed.
  template <class F>
  void read(std::string_view key, F&& load_from) {
    known_.push_back(key);
    if (!status_.ok()) return;
    Node node = locate(key);
    if (status_.ok() && (node.present() || require_all_)) status_ = load_from(node);
  }
  /// The node `key` names; a group that is not an object sets status_.
  Node locate(std::string_view key);

  Node root_;
  bool require_all_;
  Status status_;
  std::vector<std::string_view> known_;  ///< every key read, dotted for groups
};

}  // namespace aimes::common::json
