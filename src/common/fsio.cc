#include "common/fsio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace rmrsim {

namespace {

std::string errno_text() { return std::strerror(errno); }

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// A staging name no other writer uses: the pid separates processes, the
// sequence number separates threads and calls within one process. It
// still ends in ".tmp" so stray-file sweeps recognise it.
std::string unique_tmp_name(const std::string& path) {
  static std::atomic<std::uint64_t> seq{0};
  return path + "." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = unique_tmp_name(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  ensure(fd >= 0, "cannot open '" + tmp + "' for writing: " + errno_text());

  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = errno_text();
      ::close(fd);
      ::unlink(tmp.c_str());
      fail("write to '" + tmp + "' failed: " + why);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("fsync of '" + tmp + "' failed: " + why);
  }
  if (::close(fd) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    fail("close of '" + tmp + "' failed: " + why);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    fail("rename '" + tmp + "' -> '" + path + "' failed: " + why);
  }
  // Make the rename itself durable: fsync the containing directory. Some
  // filesystems refuse O_RDONLY fsync on directories; a failure here cannot
  // tear the file (the rename was atomic), so it is not fatal.
  const int dfd = ::open(dirname_of(path).c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buf.str();
}

void ensure_dir(const std::string& path) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    prefix = path.substr(0, slash);
    pos = slash + 1;
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      fail("cannot create directory '" + prefix + "': " + errno_text());
    }
  }
}

}  // namespace rmrsim
