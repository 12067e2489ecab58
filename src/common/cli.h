// Minimal --flag=value command-line parsing for the bench and example
// binaries.  Flags are declared with defaults; unknown flags are an error so
// typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace mmwave::common {

class CliFlags {
 public:
  /// Parses argv.  Accepted syntaxes: --name=value, --name value,
  /// --bool-flag (implicit true).  Returns false (and fills error()) on
  /// malformed input; callers typically print usage and exit.
  bool parse(int argc, const char* const* argv);

  const std::string& error() const { return error_; }

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Strict variants: an absent flag yields the default, but a present flag
  /// whose value is not fully numeric ("--links=abc", "--links=10x") or out
  /// of [lo, hi] yields kInvalidInput with a one-line "--name: ..."
  /// diagnosis instead of the silent-zero of the strtoll-based getters.
  [[nodiscard]] Expected<std::int64_t> get_int_checked(
      const std::string& name, std::int64_t def,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] Expected<double> get_double_checked(
      const std::string& name, double def,
      double lo = -std::numeric_limits<double>::infinity(),
      double hi = std::numeric_limits<double>::infinity()) const;

  /// Comma-separated integer list, e.g. --links=10,15,20.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& def) const;

  /// The first given flag (name without "--", in name order) that is not in
  /// `known`, or nullopt when every flag is known.  Lets a command refuse a
  /// misspelled or retired flag instead of running on its default.
  std::optional<std::string> unknown_flag(
      const std::vector<std::string>& known) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace mmwave::common
