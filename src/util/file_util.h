#ifndef CPD_UTIL_FILE_UTIL_H_
#define CPD_UTIL_FILE_UTIL_H_

/// \file file_util.h
/// Whole-file and line-oriented I/O with Status-based error reporting.

#include <string>
#include <vector>

#include "util/status.h"

namespace cpd {

/// Reads the entire file into a string.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Replaces the file with the given contents atomically: the bytes go to a
/// sibling temp file that is fsync'd and then renamed over `path`. Readers
/// (and mappings) of the previous file keep seeing its old contents; on
/// failure `path` is untouched and no temp file is left behind.
Status WriteStringToFile(const std::string& path, const std::string& contents);

/// Reads all lines (without trailing newlines).
StatusOr<std::vector<std::string>> ReadLines(const std::string& path);

/// True if the path exists and is a regular file.
bool FileExists(const std::string& path);

/// Directory containing the running executable (via /proc/self/exe), without
/// a trailing slash; empty if it cannot be determined. Tests use it to find
/// sibling binaries (e.g. cpd_train next to the test binary).
std::string CurrentExecutableDir();

}  // namespace cpd

#endif  // CPD_UTIL_FILE_UTIL_H_
