#include "util/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace cpd {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed: " + path);
  return buffer.str();
}

Status WriteStringToFile(const std::string& path, const std::string& contents) {
  // Never rewrite `path` in place: a reader that mapped the old file would
  // see its pages change under it, or SIGBUS once it is truncated. Write a
  // sibling temp file, fsync it, and rename it over `path`; the old inode
  // lives on for as long as anyone holds it. The pid plus a process-wide
  // counter keeps concurrent writers of one path off each other's temp file.
  static std::atomic<uint64_t> counter{0};
  const std::string temp_path = path + ".tmp." + std::to_string(::getpid()) +
                                "." + std::to_string(counter.fetch_add(1));
  int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0666);
  if (fd < 0) {
    return Status::IOError("cannot open for writing: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  const auto fail = [&](const char* what) {
    const std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    ::unlink(temp_path.c_str());
    return Status::IOError(std::string(what) + ": " + path + " (" + reason +
                           ")");
  };
  const char* data = contents.data();
  size_t remaining = contents.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      return fail("write failed");
    }
    data += written;
    remaining -= static_cast<size_t>(written);
  }
  if (::fsync(fd) != 0) return fail("fsync failed");
  const int closed = ::close(fd);
  fd = -1;
  if (closed != 0) return fail("close failed");
  if (::rename(temp_path.c_str(), path.c_str()) != 0) {
    return fail("rename failed");
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  if (in.bad()) return Status::IOError("read failed: " + path);
  return lines;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

std::string CurrentExecutableDir() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return std::string();
  return exe.parent_path().string();
}

}  // namespace cpd
