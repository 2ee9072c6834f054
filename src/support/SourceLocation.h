//===- SourceLocation.h - Positions in input text --------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight source positions used by the ALite parser, the XML parser,
/// and the diagnostics engine.
///
/// File names are interned in one process-wide, append-only table
/// (docs/MEMORY.md, "Frontend"), so a location is 16 trivially copyable
/// bytes and copying one never allocates. A frontend interns its file name
/// once, in its constructor, and stamps the resulting FileRef on every
/// token or node it produces.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_SOURCELOCATION_H
#define GATOR_SUPPORT_SOURCELOCATION_H

#include <ostream>
#include <string>
#include <string_view>

namespace gator {

/// A (file, line, column) position. Lines and columns are 1-based; a value
/// of 0 means "unknown".
class SourceLocation {
public:
  /// An interned file name: a pointer into the file table, which lives
  /// (and never moves its entries) until the process exits. Equal names
  /// intern to the same pointer; the empty name interns to null.
  using FileRef = const std::string *;

  /// Interns \p Name in the file table. Thread-safe; takes a lock, so hot
  /// loops intern once and reuse the FileRef.
  static FileRef internFile(std::string_view Name);

  SourceLocation() = default;
  SourceLocation(FileRef File, unsigned Line, unsigned Column)
      : File(File), Line(Line), Column(Column) {}
  /// Convenience form that interns \p File; prefer the FileRef form in
  /// loops.
  SourceLocation(std::string_view File, unsigned Line, unsigned Column)
      : SourceLocation(internFile(File), Line, Column) {}

  /// The file name; for an interned name, the table's own string.
  const std::string &file() const;
  unsigned line() const { return Line; }
  unsigned column() const { return Column; }

  bool isValid() const { return Line != 0; }

  /// Renders as "file:line:col" (or "<unknown>" when invalid).
  std::string str() const;

  bool operator==(const SourceLocation &Other) const {
    return File == Other.File && Line == Other.Line && Column == Other.Column;
  }

private:
  FileRef File = nullptr;
  unsigned Line = 0;
  unsigned Column = 0;
};

std::ostream &operator<<(std::ostream &OS, const SourceLocation &Loc);

} // namespace gator

#endif // GATOR_SUPPORT_SOURCELOCATION_H
