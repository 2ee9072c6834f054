//===- FileIO.cpp - Whole-file and app-directory reads ----------*- C++ -*-===//

#include "support/FileIO.h"

#include <algorithm>
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

bool support::AppInputs::complete() const {
  return !ListError &&
         std::all_of(Files.begin(), Files.end(),
                     [](const AppFile &F) { return F.ReadOk; });
}

bool support::AppInputs::hasSources() const {
  return count(AppFileKind::Alite) != 0 || count(AppFileKind::DexLite) != 0;
}

size_t support::AppInputs::count(AppFileKind K) const {
  return static_cast<size_t>(
      std::count_if(Files.begin(), Files.end(),
                    [K](const AppFile &F) { return F.Kind == K; }));
}

uint64_t support::AppInputs::bytes() const {
  uint64_t N = 0;
  for (const AppFile &F : Files)
    N += F.Bytes.size();
  return N;
}

support::AppInputs support::loadAppDir(const std::filesystem::path &Dir) {
  namespace fs = std::filesystem;
  AppInputs In;
  In.Root = Dir;
  std::vector<fs::path> Groups[3]; // Alite, DexLite, Layout
  fs::path Manifest;
  for (fs::recursive_directory_iterator It(Dir, In.ListError), End;
       !In.ListError && It != End; It.increment(In.ListError)) {
    std::error_code StatError;
    if (!It->is_regular_file(StatError))
      continue;
    const fs::path &Path = It->path();
    if (Path.extension() == ".alite")
      Groups[0].push_back(Path);
    else if (Path.extension() == ".dexlite")
      Groups[1].push_back(Path);
    else if (Path.filename() == "AndroidManifest.xml")
      Manifest = Path;
    else if (Path.extension() == ".xml")
      Groups[2].push_back(Path);
  }
  if (In.ListError)
    return In;

  const AppFileKind Kinds[3] = {AppFileKind::Alite, AppFileKind::DexLite,
                                AppFileKind::Layout};
  In.Files.reserve(Groups[0].size() + Groups[1].size() + Groups[2].size() +
                   1);
  auto Read = [&In](fs::path Path, AppFileKind Kind) {
    AppFile &F = In.Files.emplace_back();
    F.Path = std::move(Path);
    F.Kind = Kind;
    F.ReadOk = readFile(F.Path, F.Bytes);
  };
  for (int G = 0; G < 3; ++G) {
    std::sort(Groups[G].begin(), Groups[G].end());
    for (fs::path &Path : Groups[G])
      Read(std::move(Path), Kinds[G]);
  }
  if (!Manifest.empty())
    Read(std::move(Manifest), AppFileKind::Manifest);
  return In;
}
