//===- FileIO.cpp - Whole-file reads ----------------------------*- C++ -*-===//

#include "support/FileIO.h"

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gator;

namespace {

/// Closes the descriptor on every return path.
class FdCloser {
public:
  explicit FdCloser(int Fd) : Fd(Fd) {}
  FdCloser(const FdCloser &) = delete;
  FdCloser &operator=(const FdCloser &) = delete;
  ~FdCloser() { ::close(Fd); }

private:
  int Fd;
};

/// Reads up to \p Size bytes into \p Data; returns the count read (short
/// only at end of file) or -1 on error.
ssize_t readFully(int Fd, char *Data, size_t Size) {
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::read(Fd, Data + Done, Size - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return -1;
    if (N == 0)
      break;
    Done += static_cast<size_t>(N);
  }
  return static_cast<ssize_t>(Done);
}

} // namespace

bool support::readFile(const std::filesystem::path &Path, std::string &Out) {
  Out.clear();
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  FdCloser Closer(Fd);
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return false;
  Out.resize(static_cast<size_t>(St.st_size));
  ssize_t N = readFully(Fd, Out.data(), Out.size());
  if (N < 0) {
    Out.clear();
    return false;
  }
  Out.resize(static_cast<size_t>(N));
  // A pipe or other stream has no size, and a file may have grown since
  // fstat: read on to the end in small steps.
  char Tail[4096];
  while ((N = readFully(Fd, Tail, sizeof(Tail))) > 0)
    Out.append(Tail, static_cast<size_t>(N));
  if (N < 0) {
    Out.clear();
    return false;
  }
  return true;
}
