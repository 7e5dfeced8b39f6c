#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace cpd {

StatusOr<FlagMap> ParseFlags(int argc, char** argv,
                             const std::set<std::string>& known_flags) {
  FlagMap flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      return Status::InvalidArgument("expected a --flag, got '" + arg + "'");
    }
    const std::string flag = arg.substr(2);
    if (!known_flags.count(flag)) {
      return Status::InvalidArgument("unknown flag --" + flag);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for --" + flag);
    }
    flags[flag] = argv[i + 1];
  }
  return flags;
}

namespace {

Status BadFlagValue(const std::string& name, const std::string& value) {
  return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                 value + "'");
}

}  // namespace

StatusOr<int64_t> GetInt64Flag(const FlagMap& flags, const std::string& name,
                               int64_t fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || end != it->second.c_str() + it->second.size() ||
      errno == ERANGE) {
    return BadFlagValue(name, it->second);
  }
  return static_cast<int64_t>(value);
}

StatusOr<uint64_t> GetUint64Flag(const FlagMap& flags, const std::string& name,
                                 uint64_t fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  // strtoull accepts a leading '-' (wrapping); reject it explicitly.
  if (it->second.empty() || it->second[0] == '-') {
    return BadFlagValue(name, it->second);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
  if (end != it->second.c_str() + it->second.size() || errno == ERANGE) {
    return BadFlagValue(name, it->second);
  }
  return static_cast<uint64_t>(value);
}

StatusOr<int> GetIntFlag(const FlagMap& flags, const std::string& name,
                         int fallback) {
  const StatusOr<int64_t> value = GetInt64Flag(flags, name, fallback);
  if (!value.ok()) return value.status();
  if (*value < std::numeric_limits<int>::min() ||
      *value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("--" + name + " is out of range, got '" +
                                   flags.at(name) + "'");
  }
  return static_cast<int>(*value);
}

namespace {

template <typename T>
T FlagOrExit(StatusOr<T> value, const std::function<void()>& usage) {
  if (!value.ok()) {
    std::fprintf(stderr, "%s\n", value.status().message().c_str());
    if (usage) usage();
    std::exit(2);
  }
  return *value;
}

}  // namespace

int64_t GetInt64FlagOrExit(const FlagMap& flags, const std::string& name,
                           int64_t fallback,
                           const std::function<void()>& usage) {
  return FlagOrExit(GetInt64Flag(flags, name, fallback), usage);
}

uint64_t GetUint64FlagOrExit(const FlagMap& flags, const std::string& name,
                             uint64_t fallback,
                             const std::function<void()>& usage) {
  return FlagOrExit(GetUint64Flag(flags, name, fallback), usage);
}

int GetIntFlagOrExit(const FlagMap& flags, const std::string& name,
                     int fallback, const std::function<void()>& usage) {
  return FlagOrExit(GetIntFlag(flags, name, fallback), usage);
}

}  // namespace cpd
