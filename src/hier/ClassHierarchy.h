//===- ClassHierarchy.h - CHA over ALite classes ----------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Class-hierarchy analysis. Section 4.3: "Polymorphic calls are resolved
/// using class hierarchy information" — a virtual call x.m() with static
/// receiver type S may dispatch to the implementation of m inherited by any
/// subtype of S.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_HIER_CLASSHIERARCHY_H
#define GATOR_HIER_CLASSHIERARCHY_H

#include "ir/Ir.h"

#include <deque>
#include <span>
#include <string_view>
#include <vector>

namespace gator {

class DiagnosticEngine;

namespace hier {

/// Precomputed subtype sets and CHA call resolution.
class ClassHierarchy {
public:
  /// Builds the hierarchy index. \p P must be resolved; an unresolved
  /// program is a recoverable invariant failure (reported through \p Diags
  /// when non-null) that yields an empty hierarchy — every query then
  /// returns the conservative empty answer instead of invoking UB.
  explicit ClassHierarchy(const ir::Program &P,
                          DiagnosticEngine *Diags = nullptr);

  const ir::Program &program() const { return P; }

  /// All (transitive) subtypes of \p C, including \p C itself, in program
  /// order. Interfaces yield their implementors plus sub-interfaces.
  std::span<const ir::ClassDecl *const>
  subtypesOf(const ir::ClassDecl *C) const;

  /// CHA resolution of a virtual call through a receiver of declared type
  /// \p StaticType: the set of concrete (non-abstract) method bodies any
  /// subtype would dispatch to for name/arity. Deduplicated, in
  /// deterministic program order. Memoized per (type, name, arity) — the
  /// hierarchy is immutable once constructed, so entries never go stale.
  /// The memo is keyed by packSymbolKey(name symbol, arity), so a call
  /// with an ir::Name of the program is integer work end to end; a string
  /// name is looked up in the program's interner first.
  const std::vector<const ir::MethodDecl *> &
  resolveVirtualCall(const ir::ClassDecl *StaticType, ir::Name Name,
                     unsigned Arity) const;
  const std::vector<const ir::MethodDecl *> &
  resolveVirtualCall(const ir::ClassDecl *StaticType, std::string_view Name,
                     unsigned Arity) const;

  /// The single concrete dispatch target for an exact receiver type (used
  /// when the allocation class is known), or null.
  static const ir::MethodDecl *dispatch(const ir::ClassDecl *ExactType,
                                        ir::Name Name, unsigned Arity);
  static const ir::MethodDecl *dispatch(const ir::ClassDecl *ExactType,
                                        std::string_view Name, unsigned Arity);

private:
  const ir::Program &P;
  /// Subtype lists indexed by ClassDecl::globalId(), all in one array:
  /// the list of class Id is SubtypeList[SubtypeBegin[Id],
  /// SubtypeBegin[Id + 1]). The ids of one program's classes are dense
  /// enough that a flat table beats hashing on both construction and
  /// lookup.
  std::vector<const ir::ClassDecl *> SubtypeList;
  std::vector<uint32_t> SubtypeBegin;
  std::vector<const ir::MethodDecl *> EmptyTargets;

  const std::vector<const ir::MethodDecl *> &
  resolveVirtualCall(const ir::ClassDecl *StaticType, Symbol Name,
                     unsigned Arity) const;

  /// resolveVirtualCall memo, indexed by receiver ClassDecl::globalId(),
  /// then keyed by packSymbolKey(name symbol, arity); values index
  /// CallTargets, whose entries never move once added.
  mutable std::vector<support::FlatIdMap<uint32_t>> CallCache;
  mutable std::deque<std::vector<const ir::MethodDecl *>> CallTargets;
  /// Per-resolution dedupe stamps, indexed by MethodDecl::globalId().
  mutable std::vector<uint32_t> TargetStamp;
  mutable uint32_t TargetGen = 0;
};

} // namespace hier
} // namespace gator

#endif // GATOR_HIER_CLASSHIERARCHY_H
