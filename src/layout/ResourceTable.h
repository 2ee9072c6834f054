//===- ResourceTable.h - R.layout / R.id integer ids ------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models the auto-generated Android `R` class (Section 2 of the paper):
/// every layout has a unique integer id (a constant field of `R.layout`)
/// and every view id string has a unique integer (a field of `R.id`).
/// The id spaces follow the aapt convention: layout ids live in
/// 0x7f03xxxx and view ids in 0x7f08xxxx.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_LAYOUT_RESOURCETABLE_H
#define GATOR_LAYOUT_RESOURCETABLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gator {
namespace layout {

/// An R.layout or R.id integer constant.
using ResourceId = int32_t;
inline constexpr ResourceId InvalidResourceId = 0;

/// Bidirectional name<->integer tables for layout ids and view ids.
class ResourceTable {
public:
  static constexpr ResourceId LayoutIdBase = 0x7f030000;
  static constexpr ResourceId ViewIdBase = 0x7f080000;

  /// Interns a layout name, returning its stable integer id.
  ResourceId internLayoutId(std::string_view Name);
  /// Interns a view id name, returning its stable integer id.
  ResourceId internViewId(std::string_view Name);

  /// Looks up an already-interned layout name; InvalidResourceId if absent.
  ResourceId lookupLayoutId(std::string_view Name) const;
  /// Looks up an already-interned view id name; InvalidResourceId if absent.
  ResourceId lookupViewId(std::string_view Name) const;

  /// Maps a layout integer back to its name, if it is one.
  std::optional<std::string> layoutName(ResourceId Id) const;
  /// Maps a view-id integer back to its name, if it is one.
  std::optional<std::string> viewIdName(ResourceId Id) const;

  bool isLayoutId(ResourceId Id) const {
    return Id >= LayoutIdBase &&
           Id < LayoutIdBase + static_cast<ResourceId>(LayoutNames.size());
  }
  bool isViewId(ResourceId Id) const {
    return Id >= ViewIdBase &&
           Id < ViewIdBase + static_cast<ResourceId>(ViewIdNames.size());
  }

  const std::vector<std::string> &layoutNames() const { return LayoutNames; }
  const std::vector<std::string> &viewIdNames() const { return ViewIdNames; }

  unsigned layoutCount() const {
    return static_cast<unsigned>(LayoutNames.size());
  }
  unsigned viewIdCount() const {
    return static_cast<unsigned>(ViewIdNames.size());
  }

private:
  /// Hashes std::string keys and string_view probes alike, so lookups
  /// with an IR name's spelling build no key string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  using NameMap =
      std::unordered_map<std::string, ResourceId, NameHash, std::equal_to<>>;

  std::vector<std::string> LayoutNames;
  std::vector<std::string> ViewIdNames;
  NameMap LayoutByName;
  NameMap ViewIdByName;
};

} // namespace layout
} // namespace gator

#endif // GATOR_LAYOUT_RESOURCETABLE_H
