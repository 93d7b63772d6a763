// Small string helpers shared by the config parser and emitters.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace aimes::common {

/// Removes leading/trailing whitespace.
[[nodiscard]] std::string trim(std::string_view s);

/// Splits on a delimiter character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Splits on runs of whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII lower-casing.
[[nodiscard]] std::string to_lower(std::string_view s);

/// The enumerator in [E{0}, last] whose to_string() spelling is `text`: the
/// inverse of a contiguous enum's to_string overload, so each spelling is
/// written once. Leaves `out` alone and returns false on unknown text.
template <class E>
[[nodiscard]] bool parse_enum(std::string_view text, E last, E& out) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (std::string_view(to_string(static_cast<E>(i))) == text) {
      out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace aimes::common
