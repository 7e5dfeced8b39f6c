#ifndef CPD_UTIL_FLAGS_H_
#define CPD_UTIL_FLAGS_H_

/// \file flags.h
/// Strict "--flag value" command-line parsing shared by the tools
/// (cpd_train, cpd_query, cpd_serve, cpd_ingest). Every argument must be a
/// known --flag followed by a value; unknown flags, bare positional
/// arguments, and a trailing flag with no value are typed errors so a
/// mistyped invocation can never be silently half-applied.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "util/status.h"

namespace cpd {

/// Parsed flag -> value map (later occurrences overwrite earlier ones).
using FlagMap = std::map<std::string, std::string>;

/// Parses argv[1..argc) against the known flag names (given without the
/// leading "--"). On failure returns InvalidArgument naming the offending
/// argument; the caller prints its usage text.
StatusOr<FlagMap> ParseFlags(int argc, char** argv,
                             const std::set<std::string>& known_flags);

/// Typed flag accessors shared by the tools so a non-numeric value is an
/// InvalidArgument naming the flag — never a silently-zero atoi. Absent
/// flags return `fallback`; the whole value must parse (no trailing junk).
StatusOr<int64_t> GetInt64Flag(const FlagMap& flags, const std::string& name,
                               int64_t fallback);
StatusOr<uint64_t> GetUint64Flag(const FlagMap& flags, const std::string& name,
                                 uint64_t fallback);
/// GetInt64Flag narrowed to int: a value outside int's range is an
/// InvalidArgument naming the flag, never a silent wrap.
StatusOr<int> GetIntFlag(const FlagMap& flags, const std::string& name,
                         int fallback);

/// Tool-main conveniences: the value, or print the error to stderr, run
/// `usage` (when given), and exit 2 — the one usage-error behavior shared
/// by cpd_train / cpd_query / cpd_serve.
int64_t GetInt64FlagOrExit(const FlagMap& flags, const std::string& name,
                           int64_t fallback,
                           const std::function<void()>& usage = nullptr);
uint64_t GetUint64FlagOrExit(const FlagMap& flags, const std::string& name,
                             uint64_t fallback,
                             const std::function<void()>& usage = nullptr);
int GetIntFlagOrExit(const FlagMap& flags, const std::string& name,
                     int fallback,
                     const std::function<void()>& usage = nullptr);

}  // namespace cpd

#endif  // CPD_UTIL_FLAGS_H_
