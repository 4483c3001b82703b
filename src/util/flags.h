// Minimal command-line flag parsing for the benchmark and example
// binaries. Flags are --name=value or --name value. Each binary passes
// the names it reads to AllowOnly, so a misspelled or retired flag is an
// error naming it instead of a silent run of the defaults. A value that
// does not parse as the type its reader asks for is an error naming the
// flag and the value.

#ifndef GJOIN_UTIL_FLAGS_H_
#define GJOIN_UTIL_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace gjoin::util {

/// \brief Parsed command-line flags with typed, defaulted accessors.
class Flags {
 public:
  /// Parses argv; returns Invalid on malformed arguments.
  [[nodiscard]]
  static Result<Flags> Parse(int argc, char** argv);

  /// Invalid naming the first parsed flag (in name order) that is not
  /// in `names`; OK when every parsed flag is.
  [[nodiscard]]
  Status AllowOnly(std::initializer_list<std::string_view> names) const;

  /// True iff --name was provided.
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// String value of --name, or `def` when absent.
  std::string GetString(const std::string& name, const std::string& def) const;

  /// Integer value of --name, or `def` when absent. Invalid unless the
  /// whole value is a base-10 integer in range.
  [[nodiscard]]
  Result<int64_t> GetInt(const std::string& name, int64_t def) const;

  /// Double value of --name, or `def` when absent. Invalid unless the
  /// whole value is a finite number.
  [[nodiscard]]
  Result<double> GetDouble(const std::string& name, double def) const;

  /// Boolean: `--name` alone or `--name=true/1` is true, `--name=false/0`
  /// false, any other value Invalid; `def` when absent.
  [[nodiscard]]
  Result<bool> GetBool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace gjoin::util

#endif  // GJOIN_UTIL_FLAGS_H_
