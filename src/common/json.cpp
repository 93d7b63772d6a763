#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace aimes::common::json {

namespace {

using Type = Value::Type;

/// "<origin>: field '<path>' at byte N: <what>"; no field part at the root.
std::string located(std::string_view origin, std::string_view path, std::size_t at,
                    std::string_view what) {
  std::string out = std::string(origin) + ": ";
  if (!path.empty()) out += "field '" + std::string(path) + "' ";
  return out + "at byte " + std::to_string(at) + ": " + std::string(what);
}

/// Recursive-descent RFC 8259 reader over one whole document.
class Parser {
 public:
  Parser(std::string_view origin, std::string_view text) : origin_(origin), text_(text) {}

  Expected<Value> run() {
    Value root;
    if (value(root, 0)) {
      skip_ws();
      if (i_ == text_.size()) return root;
      fail(i_, "unexpected bytes after the document");
    }
    return Expected<Value>::error(error_);
  }

 private:
  bool fail(std::size_t at, std::string_view what) {
    error_ = located(origin_, path_, at, what);
    return false;
  }
  [[nodiscard]] bool peek(char c) const { return i_ < text_.size() && text_[i_] == c; }
  [[nodiscard]] bool digit() const {
    return i_ < text_.size() && text_[i_] >= '0' && text_[i_] <= '9';
  }
  void digits() {
    while (digit()) ++i_;
  }
  void skip_ws() {
    while (peek(' ') || peek('\t') || peek('\n') || peek('\r')) ++i_;
  }

  bool value(Value& out, int depth) {
    skip_ws();
    out.offset = i_;
    if (i_ == text_.size()) return fail(i_, "unexpected end of document, expected a value");
    switch (text_[i_]) {
      case '{': return object(out, depth + 1);
      case '[': return array(out, depth + 1);
      case '"': out.type = Type::kString; return string(out.text);
      case 't': out.boolean = true; return literal("true", out, Type::kBool);
      case 'f': return literal("false", out, Type::kBool);
      case 'n': return literal("null", out, Type::kNull);
      default: return number(out);
    }
  }

  bool literal(std::string_view word, Value& out, Type type) {
    if (text_.substr(i_, word.size()) != word) return fail(i_, "expected a value");
    out.type = type;
    i_ += word.size();
    return true;
  }

  bool number(Value& out) {
    const std::size_t start = i_;
    if (peek('-')) ++i_;
    if (!digit()) return fail(start, "expected a value");
    if (!peek('0')) digits();
    else ++i_;
    if (peek('.')) {
      ++i_;
      if (!digit()) return fail(i_, "expected a digit after '.'");
      digits();
    }
    if (peek('e') || peek('E')) {
      ++i_;
      if (peek('+') || peek('-')) ++i_;
      if (!digit()) return fail(i_, "expected an exponent digit");
      digits();
    }
    out.type = Type::kNumber;
    out.text = text_.substr(start, i_ - start);
    return true;
  }

  /// The code unit of a "\uXXXX" escape at i_, or -1.
  long unit() {
    unsigned v = 0;
    const char* at = text_.data() + i_;
    if (text_.substr(i_, 2) != "\\u" || i_ + 6 > text_.size() ||
        std::from_chars(at + 2, at + 6, v, 16).ptr != at + 6) {
      return -1;
    }
    i_ += 6;
    return v;
  }

  bool string(std::string& out) {
    const std::size_t start = i_++;
    while (i_ < text_.size() && text_[i_] != '"') {
      const auto c = static_cast<unsigned char>(text_[i_]);
      if (c < 0x20) return fail(i_, "unescaped control character in string");
      if (c != '\\') {
        out += text_[i_++];
        continue;
      }
      const std::size_t at = i_;
      const char e = i_ + 1 < text_.size() ? text_[i_ + 1] : '\0';
      if (e == 'u') {
        long cp = unit();
        if (cp < 0) return fail(at, "expected four hex digits after \\u");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          const long low = unit();
          if (low < 0xDC00 || low > 0xDFFF) return fail(at, "unpaired surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return fail(at, "unpaired surrogate");
        }
        // UTF-8: a lead byte, then six bits per continuation byte.
        const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
        out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
        for (int k = tail - 1; k >= 0; --k) out += static_cast<char>(0x80 | ((cp >> 6 * k) & 0x3F));
        continue;
      }
      static constexpr std::string_view kFrom = "\"\\/bfnrt", kTo = "\"\\/\b\f\n\r\t";
      const auto which = kFrom.find(e);
      if (e == '\0' || which == std::string_view::npos) return fail(at, "invalid escape");
      out += kTo[which];
      i_ += 2;
    }
    if (i_ == text_.size()) return fail(start, "unterminated string");
    ++i_;
    return true;
  }

  /// Shared by objects and arrays: opening bracket, comma-separated
  /// elements read by `element`, closing bracket.
  template <class F>
  bool sequence(Value& out, Type type, int depth, char close, F&& element) {
    if (depth > kMaxDepth) return fail(i_, "nesting deeper than 64 levels");
    out.type = type;
    ++i_;
    skip_ws();
    if (peek(close)) return ++i_, true;
    for (;;) {
      skip_ws();
      if (peek(close)) return fail(i_, "trailing comma");
      const std::size_t outer = path_.size();
      if (!element()) return false;
      skip_ws();
      if (!peek(',') && !peek(close)) {
        return fail(i_, close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
      }
      path_.resize(outer);
      if (text_[i_++] == close) return true;
    }
  }

  bool object(Value& out, int depth) {
    const bool ok = sequence(out, Type::kObject, depth, '}', [&] {
      if (!peek('"')) return fail(i_, "expected a string key");
      auto& [key, member] = out.members.emplace_back();
      if (!string(key)) return false;
      path_ += (path_.empty() ? "" : ".") + key;
      skip_ws();
      if (!peek(':')) return fail(i_, "expected ':'");
      ++i_;
      return value(member, depth);
    });
    if (!ok || out.members.size() < 2) return ok;
    // Duplicate keys: one sort of member indices per object, not a set of
    // every key. The later of two equal keys is the one reported.
    std::vector<std::size_t> order(out.members.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto& m = out.members;
    std::sort(order.begin(), order.end(), [&m](std::size_t a, std::size_t b) {
      return m[a].first != m[b].first ? m[a].first < m[b].first : a < b;
    });
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (m[order[i]].first != m[order[i - 1]].first) continue;
      path_ += (path_.empty() ? "" : ".") + m[order[i]].first;
      return fail(m[order[i]].second.offset, "duplicate key");
    }
    return true;
  }

  bool array(Value& out, int depth) {
    return sequence(out, Type::kArray, depth, ']', [&] {
      path_ += "[" + std::to_string(out.items.size()) + "]";
      return value(out.items.emplace_back(), depth);
    });
  }

  std::string_view origin_;
  std::string_view text_;
  std::size_t i_ = 0;
  std::string path_;  ///< dotted path of the value being read, for errors
  std::string error_;
};

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    static constexpr std::string_view kFrom = "\"\\\n\t\r\b\f", kTo = "\"\\ntrbf";
    if (const auto which = kFrom.find(c); which != std::string_view::npos) {
      out += '\\';
      out += kTo[which];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct Document {
  std::string origin;
  Value root;
};

Expected<Node> Node::parse(std::string origin, std::string_view text) {
  auto root = Parser(origin, text).run();
  if (!root) return Expected<Node>::error(root.error());
  if (root->type != Type::kObject) {
    return Expected<Node>::error(located(origin, "", root->offset, "expected a JSON object"));
  }
  auto doc = std::make_shared<Document>(Document{std::move(origin), std::move(*root)});
  const Value* value = &doc->root;
  return Node(std::move(doc), value, "");
}

Node Node::get(std::string_view key) const {
  std::string path = path_.empty() ? std::string(key) : path_ + "." + std::string(key);
  if (value_ != nullptr) {
    for (const auto& [name, member] : value_->members) {
      if (name == key) return Node(doc_, &member, std::move(path));
    }
  }
  return Node(doc_, nullptr, std::move(path));
}

std::string Node::origin() const { return doc_ ? doc_->origin : ""; }

std::string Node::describe() const {
  std::string out = origin() + ": field '" + path_ + "'";
  return value_ == nullptr ? out : out + " at byte " + std::to_string(value_->offset);
}

Expected<const Value*> Node::typed(Type type, const char* expected) const {
  using E = Expected<const Value*>;
  if (value_ == nullptr) return E::error(origin() + ": missing field '" + path_ + "'");
  if (value_->type != type) return E::error(describe() + ": expected " + expected);
  return value_;
}

Expected<std::string> Node::text() const {
  auto v = typed(Type::kString, "a string");
  return v ? Expected<std::string>((*v)->text) : Expected<std::string>::error(v.error());
}

Expected<bool> Node::boolean() const {
  auto v = typed(Type::kBool, "true or false");
  return v ? Expected<bool>((*v)->boolean) : Expected<bool>::error(v.error());
}

Expected<double> Node::number() const {
  auto v = typed(Type::kNumber, "a number");
  if (!v) return Expected<double>::error(v.error());
  double d = 0.0;
  const std::string& lexeme = (*v)->text;
  if (std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), d).ec != std::errc()) {
    return Expected<double>::error(describe() + ": number out of range");
  }
  return d;
}

Expected<long double> Node::exact() const {
  static_assert(std::numeric_limits<long double>::digits >= 64, "int64 must convert exactly");
  auto v = typed(Type::kNumber, "a number");
  if (!v) return Expected<long double>::error(v.error());
  const char* const first = (*v)->text.data();
  const char* const last = first + (*v)->text.size();
  std::int64_t whole = 0;
  if (const auto [end, ec] = std::from_chars(first, last, whole); ec == std::errc() && end == last) {
    return static_cast<long double>(whole);
  }
  long double d = HUGE_VALL;  // stays infinite when out of range, failing any bound
  std::from_chars(first, last, d);
  return d;
}

Expected<Node> Node::object() const {
  auto v = typed(Type::kObject, "an object");
  return v ? Expected<Node>(*this) : Expected<Node>::error(v.error());
}

Expected<std::vector<Node>> Node::items() const {
  auto v = typed(Type::kArray, "an array");
  if (!v) return Expected<std::vector<Node>>::error(v.error());
  std::vector<Node> out;
  for (const Value& item : (*v)->items) {
    out.push_back(Node(doc_, &item, path_ + "[" + std::to_string(out.size()) + "]"));
  }
  return out;
}

Status Node::only(const std::vector<std::string_view>& keys) const {
  if (value_ == nullptr) return {};
  for (const auto& [name, member] : value_->members) {
    if (std::find(keys.begin(), keys.end(), name) == keys.end()) {
      return Status::error(get(name).describe() + ": unknown field");
    }
  }
  return {};
}

}  // namespace aimes::common::json
