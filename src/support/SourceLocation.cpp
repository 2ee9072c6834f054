//===- SourceLocation.cpp -------------------------------------*- C++ -*-===//

#include "support/SourceLocation.h"

#include <mutex>
#include <unordered_set>

using namespace gator;

namespace {

struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>()(S);
  }
};

/// The process-wide file table. Entries are nodes of an unordered_set, so
/// the addresses handed out as FileRefs survive every later insertion.
/// The table is leaked on purpose: locations held by other statics may be
/// read during static destruction.
struct FileTable {
  std::mutex Lock;
  std::unordered_set<std::string, NameHash, std::equal_to<>> Names;
};

FileTable &fileTable() {
  static FileTable *Table = new FileTable();
  return *Table;
}

} // namespace

SourceLocation::FileRef SourceLocation::internFile(std::string_view Name) {
  if (Name.empty())
    return nullptr;
  FileTable &T = fileTable();
  std::lock_guard<std::mutex> Guard(T.Lock);
  auto It = T.Names.find(Name);
  if (It == T.Names.end())
    It = T.Names.emplace(Name).first;
  return &*It;
}

const std::string &SourceLocation::file() const {
  static const std::string Empty;
  return File ? *File : Empty;
}

std::string SourceLocation::str() const {
  if (!isValid())
    return "<unknown>";
  std::string Out = File ? *File : "<input>";
  Out += ':';
  Out += std::to_string(Line);
  Out += ':';
  Out += std::to_string(Column);
  return Out;
}

std::ostream &gator::operator<<(std::ostream &OS, const SourceLocation &Loc) {
  return OS << Loc.str();
}
