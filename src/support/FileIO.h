//===- FileIO.h - Whole-file reads ------------------------------*- C++ -*-===//
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
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_FILEIO_H
#define GATOR_SUPPORT_FILEIO_H

#include <filesystem>
#include <string>

namespace gator {
namespace support {

/// Replaces \p Out with the contents of the file at \p Path. Returns false,
/// with \p Out empty, when the file cannot be opened or read.
bool readFile(const std::filesystem::path &Path, std::string &Out);

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_FILEIO_H
