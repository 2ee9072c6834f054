//===- FileIO.h - Whole-file and app-directory reads ------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the analyzer reads an input file (docs/MEMORY.md, "Reading
/// inputs"): the string is sized once from the file's size and filled by
/// one read, so a file costs one allocation of its own size and no copy.
///
/// loadAppDir() is the one way it reads an app directory: one census of
/// the analysis inputs, one read per file. The CLI parses the loaded
/// bytes, and the content key (analysis::hashAppDir) hashes the same
/// bytes, so no input is read twice in one run.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_FILEIO_H
#define GATOR_SUPPORT_FILEIO_H

#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace gator {
namespace support {

/// Replaces \p Out with the contents of the file at \p Path. Returns false,
/// with \p Out empty, when the file cannot be opened or read.
bool readFile(const std::filesystem::path &Path, std::string &Out);

/// What an app-directory file is to the analyzer.
enum class AppFileKind : uint8_t { Alite, DexLite, Layout, Manifest };

/// One analysis input of an app, read once.
struct AppFile {
  std::filesystem::path Path; ///< the app directory joined with the file
  AppFileKind Kind = AppFileKind::Alite;
  bool ReadOk = false;
  std::string Bytes; ///< the file's contents; empty when !ReadOk
};

/// Every analysis input of one app directory, in the order the CLI parses
/// them: `*.alite`, then `*.dexlite`, then layout `*.xml`, each group
/// sorted by `std::filesystem::path` (element-wise, so `a/x` sorts before
/// `a-b/x`), then `AndroidManifest.xml`. Diagnostics follow this order.
struct AppInputs {
  std::filesystem::path Root; ///< the directory as given
  /// Set when the directory could not be walked; Files is then empty.
  std::error_code ListError;
  std::vector<AppFile> Files;

  /// True when the walk succeeded and every file was read. A load that is
  /// not complete must never key a cache lookup or store: its bytes are
  /// not the app's inputs.
  bool complete() const;
  /// True when some `.alite` or `.dexlite` source was found.
  bool hasSources() const;
  /// The number of files of kind \p K.
  size_t count(AppFileKind K) const;
  /// Total bytes read.
  uint64_t bytes() const;
};

/// Walks \p Dir once (recursively, following symlinks to regular files)
/// and reads every analysis input once with readFile: each `*.alite`,
/// `*.dexlite` and layout `*.xml`, and one `AndroidManifest.xml` (the
/// last the walk finds, if there are several). Files of other kinds are
/// not read. A file that cannot be read is kept with ReadOk false.
AppInputs loadAppDir(const std::filesystem::path &Dir);

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_FILEIO_H
