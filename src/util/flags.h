// Minimal command-line flag parsing for the benchmark and example
// binaries. Flags are --name=value or --name value. Names are not
// declared: a flag no reader asks for is ignored, so a misspelled flag
// runs the default (check the banner a binary prints). A value that
// does not parse as the type its reader asks for is an error naming the
// flag and the value.

#ifndef GJOIN_UTIL_FLAGS_H_
#define GJOIN_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/util/status.h"

namespace gjoin::util {

/// \brief Parsed command-line flags with typed, defaulted accessors.
class Flags {
 public:
  /// Parses argv; returns Invalid on malformed arguments.
  [[nodiscard]]
  static Result<Flags> Parse(int argc, char** argv);

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
