#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace aimes::common::cli {

Expected<long long> parse_int(std::string_view text, long long min_value,
                              long long max_value) {
  using E = Expected<long long>;
  const std::string token(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE || value < min_value ||
      value > max_value) {
    return E::error("invalid value '" + token + "' (expected integer in [" +
                    std::to_string(min_value) + ", " + std::to_string(max_value) + "])");
  }
  return value;
}

Expected<double> parse_double(std::string_view text, double min_value, double max_value) {
  using E = Expected<double>;
  const std::string token(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE || std::isnan(value) ||
      value < min_value || value > max_value) {
    std::ostringstream range;
    range << "invalid value '" << token << "' (expected number in [" << min_value << ", "
          << max_value << "])";
    return E::error(range.str());
  }
  return value;
}

Parser::Parser(std::string program) : program_(std::move(program)) {}

Parser& Parser::add(Option option) {
  options_.push_back(std::move(option));
  return *this;
}

Parser::Option* Parser::find(std::string_view name) {
  for (Option& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

Parser& Parser::flag(std::string name, bool& target, std::string help) {
  Option o;
  o.name = std::move(name);
  o.help = std::move(help);
  o.set = [&target] { target = true; };
  return add(std::move(o));
}

Parser& Parser::string_option(std::string name, std::string& target, std::string help,
                              std::string metavar) {
  Option o;
  o.name = std::move(name);
  o.metavar = std::move(metavar);
  o.help = std::move(help);
  o.apply = [&target](const std::string& value) -> Status {
    target = value;
    return {};
  };
  return add(std::move(o));
}

Parser& Parser::int_option(std::string name, int& target, long long min_value,
                           long long max_value, std::string help, std::string metavar) {
  Option o;
  o.name = std::move(name);
  o.metavar = std::move(metavar);
  o.help = std::move(help);
  o.apply = [&target, min_value, max_value](const std::string& value) -> Status {
    auto parsed = parse_int(value, min_value, max_value);
    if (!parsed) return Status::error(parsed.error());
    target = static_cast<int>(*parsed);
    return {};
  };
  return add(std::move(o));
}

Parser& Parser::uint64_option(std::string name, std::uint64_t& target, std::string help,
                              std::string metavar) {
  Option o;
  o.name = std::move(name);
  o.metavar = std::move(metavar);
  o.help = std::move(help);
  // Parse through the signed checker so "-1" and garbage are rejected
  // instead of wrapping.
  o.apply = [&target](const std::string& value) -> Status {
    auto parsed = parse_int(value, 0, 9223372036854775807LL);
    if (!parsed) return Status::error(parsed.error());
    target = static_cast<std::uint64_t>(*parsed);
    return {};
  };
  return add(std::move(o));
}

Parser& Parser::double_option(std::string name, double& target, double min_value,
                              double max_value, std::string help, std::string metavar) {
  Option o;
  o.name = std::move(name);
  o.metavar = std::move(metavar);
  o.help = std::move(help);
  o.apply = [&target, min_value, max_value](const std::string& value) -> Status {
    auto parsed = parse_double(value, min_value, max_value);
    if (!parsed) return Status::error(parsed.error());
    target = *parsed;
    return {};
  };
  return add(std::move(o));
}

Parser& Parser::custom_option(std::string name, std::string metavar, std::string help,
                              std::function<Status(const std::string&)> parse) {
  Option o;
  o.name = std::move(name);
  o.metavar = std::move(metavar);
  o.help = std::move(help);
  o.apply = std::move(parse);
  return add(std::move(o));
}

Parser& Parser::conflicts(std::string a, std::string b) {
  conflicts_.emplace_back(std::move(a), std::move(b));
  return *this;
}

Parser& Parser::requires_option(std::string dependent, std::string prerequisite) {
  requires_.emplace_back(std::move(dependent), std::move(prerequisite));
  return *this;
}

Expected<Parser::Result> Parser::parse(int argc, char** argv) {
  using E = Expected<Result>;
  for (Option& o : options_) o.seen = false;
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '\0') program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") return Result{true};
    Option* o = find(a);
    if (o == nullptr) return E::error("unknown argument '" + a + "' (try --help)");
    o->seen = true;
    if (o->set) {
      o->set();
      continue;
    }
    if (i + 1 >= argc) return E::error("missing value for " + a);
    const std::string value = argv[++i];
    auto status = o->apply(value);
    if (!status.ok()) return E::error(status.error() + " for " + a);
  }
  for (const auto& [a, b] : conflicts_) {
    if (seen(a) && seen(b)) {
      return E::error("conflicting options: " + a + " cannot combine with " + b);
    }
  }
  for (const auto& [dependent, prerequisite] : requires_) {
    if (seen(dependent) && !seen(prerequisite)) {
      return E::error(dependent + " requires " + prerequisite);
    }
  }
  return Result{};
}

bool Parser::seen(std::string_view name) const {
  for (const Option& o : options_) {
    if (o.name == name) return o.seen;
  }
  return false;
}

std::string Parser::usage() const {
  std::size_t width = 0;
  for (const Option& o : options_) {
    std::size_t w = o.name.size();
    if (!o.metavar.empty()) w += 1 + o.metavar.size();
    width = std::max(width, w);
  }
  std::ostringstream out;
  out << "usage: " << program_ << " [options]\n";
  for (const Option& o : options_) {
    std::string head = o.name;
    if (!o.metavar.empty()) head += " " + o.metavar;
    out << "  " << head << std::string(width - head.size() + 2, ' ');
    // Multi-line help continues indented under the help column.
    const std::string indent(2 + width + 2, ' ');
    for (std::size_t pos = 0;;) {
      const std::size_t nl = o.help.find('\n', pos);
      out << (pos == 0 ? "" : indent) << o.help.substr(pos, nl - pos) << "\n";
      if (nl == std::string::npos) break;
      pos = nl + 1;
    }
  }
  return out.str();
}

}  // namespace aimes::common::cli
