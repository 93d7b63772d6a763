// Declarative command-line option parsing shared by every front end.
//
// Each binary (aimes-run, the bench harnesses) used to hand-roll its own
// argv loop with its own parsing bugs; this module centralizes the strict
// parts — whole-token integer/double parsing with range checks, "missing
// value for --flag", unknown-argument rejection, aligned usage text — so a
// front end only declares its options and reads its variables.
//
//   common::cli::Parser cli("mytool");
//   cli.int_option("--trials", trials, 1, 1000000, "trials per cell");
//   cli.flag("--quick", quick, "1/4 of the default trials");
//   auto parsed = cli.parse(argc, argv);       // Expected<Result>
//   if (!parsed) { die(parsed.error()); }
//   if (parsed->help) { print(cli.usage()); return 0; }
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.hpp"

namespace aimes::common::cli {

/// Strict whole-token base-10 integer parse with an inclusive range. Unlike
/// std::atoi, garbage ("x", "12x", overflow) is an error, not a silent 0.
[[nodiscard]] Expected<long long> parse_int(std::string_view text, long long min_value,
                                            long long max_value);

/// Strict whole-token double parse with an inclusive range.
[[nodiscard]] Expected<double> parse_double(std::string_view text, double min_value,
                                            double max_value);

/// One registered option's declarative parser.
class Parser {
 public:
  /// `program` names the binary in the usage header (argv[0] overrides it at
  /// parse time when non-empty there).
  explicit Parser(std::string program);

  /// Boolean flag: present sets `target` true.
  Parser& flag(std::string name, bool& target, std::string help);
  /// String option: `--name VALUE` stores the raw value.
  Parser& string_option(std::string name, std::string& target, std::string help,
                        std::string metavar = "VALUE");
  /// Integer option with an inclusive range check.
  Parser& int_option(std::string name, int& target, long long min_value,
                     long long max_value, std::string help, std::string metavar = "N");
  /// Unsigned 64-bit option (rejects negatives and garbage; range [0, 2^63)).
  Parser& uint64_option(std::string name, std::uint64_t& target, std::string help,
                        std::string metavar = "N");
  /// Double option with an inclusive range check.
  Parser& double_option(std::string name, double& target, double min_value,
                        double max_value, std::string help, std::string metavar = "X");
  /// Custom option: `parse` receives the raw value and may reject it.
  Parser& custom_option(std::string name, std::string metavar, std::string help,
                        std::function<Status(const std::string&)> parse);

  /// Declares `a` and `b` mutually exclusive: a parse where both appear
  /// fails with an error naming the pair. Front ends used to hand-roll
  /// these checks after parsing (each with its own phrasing and its own
  /// forgotten combinations); declaring the pair keeps the rejection next
  /// to the option definitions and the wording uniform.
  Parser& conflicts(std::string a, std::string b);
  /// Declares that `dependent` is meaningful only with `prerequisite`: a
  /// parse where the dependent appears alone fails.
  Parser& requires_option(std::string dependent, std::string prerequisite);

  struct Result {
    /// --help / -h was given; the caller prints usage() and exits 0.
    bool help = false;
  };

  /// Parses argv (argv[0] is the program name). Errors — unknown argument,
  /// missing or out-of-range value — come back as the Expected's error, with
  /// the offending flag named.
  [[nodiscard]] Expected<Result> parse(int argc, char** argv);

  /// Whether `name` appeared in the last parse (for "flag given vs default"
  /// decisions such as --quick's trial scaling).
  [[nodiscard]] bool seen(std::string_view name) const;

  /// Aligned usage text listing every registered option.
  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string metavar;  ///< Empty for flags.
    std::string help;
    std::function<Status(const std::string&)> apply;  ///< Null for flags.
    std::function<void()> set;                        ///< Null for valued options.
    bool seen = false;
  };

  [[nodiscard]] Option* find(std::string_view name);

  std::string program_;
  std::vector<Option> options_;
  std::vector<std::pair<std::string, std::string>> conflicts_;
  std::vector<std::pair<std::string, std::string>> requires_;
};

}  // namespace aimes::common::cli
