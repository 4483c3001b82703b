#include "src/util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace gjoin::util {

Result<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::Invalid("expected --flag, got: " + arg);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";  // Bare boolean flag.
    }
  }
  return flags;
}

Status Flags::AllowOnly(std::initializer_list<std::string_view> names) const {
  for (const auto& entry : values_) {
    const std::string& name = entry.first;
    bool known = false;
    for (const std::string_view allowed : names) known |= name == allowed;
    if (known) continue;
    std::string accepted;
    for (const std::string_view allowed : names) {
      accepted += accepted.empty() ? "--" : ", --";
      accepted += allowed;
    }
    return Status::Invalid("unknown flag --" + name + " (accepted: " +
                           (accepted.empty() ? "none" : accepted) + ")");
  }
  return Status::OK();
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

namespace {

Status BadValue(const std::string& name, const std::string& value,
                const char* expected) {
  return Status::Invalid("--" + name + "=" + value + ": expected " +
                         expected);
}

}  // namespace

Result<int64_t> Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE) {
    return BadValue(name, value, "an integer");
  }
  return static_cast<int64_t>(v);
}

Result<double> Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return BadValue(name, value, "a finite number");
  }
  return v;
}

Result<bool> Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& value = it->second;
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  return BadValue(name, value, "true, false, 1 or 0");
}

}  // namespace gjoin::util
