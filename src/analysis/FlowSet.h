//===- FlowSet.h - Hybrid flowsTo set with a delta span ---------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-node flowsTo set used by the solvers. Two properties drive the
/// design (docs/DELTA_SOLVER.md):
///
///  1. *Hybrid representation.* Most flowsTo sets in real apps stay tiny
///     (a handful of views), so elements live in an insertion-ordered
///     vector and membership is a linear scan. Once a set outgrows
///     `SmallLimit`, a hash index is built beside the vector and takes
///     over membership queries; the vector remains the canonical element
///     storage, so iteration is always cache-friendly and deterministic
///     (insertion order) in both regimes.
///
///  2. *Committed/delta split.* The sets are monotone (the solvers only
///     add), so "the values that arrived since this node was last
///     propagated" is exactly the vector suffix `[deltaBegin(), size())`.
///     Difference propagation reads that suffix and calls `commit()`;
///     nothing is ever copied or removed.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_FLOWSET_H
#define GATOR_ANALYSIS_FLOWSET_H

#include "graph/ConstraintGraph.h"
#include "support/Arena.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

namespace gator {
namespace analysis {

class FlowSet {
public:
  using value_type = graph::NodeId;
  using const_iterator = const graph::NodeId *;

  /// Largest size served by the linear-scan small representation.
  static constexpr size_t SmallLimit = 16;

  /// Move-only: element storage lives in the owning Solution's set arena
  /// (docs/MEMORY.md), so a copy would alias the backing block. The
  /// mutator takes the arena explicitly; every read is self-contained.
  FlowSet() = default;
  FlowSet(FlowSet &&) = default;
  FlowSet &operator=(FlowSet &&) = default;
  FlowSet(const FlowSet &) = delete;
  FlowSet &operator=(const FlowSet &) = delete;

  /// Deep copy into \p A (element storage; a promoted index is cloned on
  /// the heap as usual). For tests and snapshot consumers.
  FlowSet clone(support::Arena &A) const {
    FlowSet S;
    S.Elements.reserve(A, Elements.size());
    for (graph::NodeId V : Elements)
      S.Elements.push_back(A, V);
    S.DeltaStart = DeltaStart;
    if (Index)
      S.Index = std::make_unique<std::unordered_set<graph::NodeId>>(*Index);
    return S;
  }

  /// Adds \p V, allocating element storage from \p A; returns true when
  /// the set grew.
  bool insert(support::Arena &A, graph::NodeId V) {
    if (Index) {
      if (!Index->insert(V).second)
        return false;
      Elements.push_back(A, V);
      return true;
    }
    if (std::find(Elements.begin(), Elements.end(), V) != Elements.end())
      return false;
    Elements.push_back(A, V);
    if (Elements.size() > SmallLimit) {
      Index = std::make_unique<std::unordered_set<graph::NodeId>>(
          Elements.begin(), Elements.end());
    }
    return true;
  }

  bool contains(graph::NodeId V) const {
    if (Index)
      return Index->count(V) != 0;
    return std::find(Elements.begin(), Elements.end(), V) != Elements.end();
  }

  /// std::unordered_set-compatible membership query (0 or 1).
  size_t count(graph::NodeId V) const { return contains(V) ? 1 : 0; }

  size_t size() const { return Elements.size(); }
  bool empty() const { return Elements.empty(); }

  /// Iteration covers all elements in insertion order.
  const_iterator begin() const { return Elements.begin(); }
  const_iterator end() const { return Elements.end(); }
  const support::ArenaVector<graph::NodeId> &values() const {
    return Elements;
  }

  //===--------------------------------------------------------------------===//
  // Delta protocol (difference propagation)
  //===--------------------------------------------------------------------===//

  /// First index of the uncommitted suffix: elements in
  /// [deltaBegin(), size()) arrived since the last commit().
  size_t deltaBegin() const { return DeltaStart; }

  /// True when uncommitted elements exist.
  bool hasDelta() const { return DeltaStart < Elements.size(); }

  /// Marks elements below \p UpTo as committed (already pushed to all
  /// current flow successors).
  void commit(size_t UpTo) { DeltaStart = static_cast<uint32_t>(UpTo); }

  /// True once the set left the small linear-scan representation.
  bool promoted() const { return Index != nullptr; }

  //===--------------------------------------------------------------------===//
  // Retraction (edit-scale incremental re-solve, docs/INCREMENTAL.md)
  //===--------------------------------------------------------------------===//

  /// Removes every element for which \p IsDead returns true, compacting the
  /// survivors in their original insertion order. Returns the number of
  /// elements removed.
  ///
  /// This is the one non-monotone entry point, used only between solver
  /// runs by the delete-and-rederive closure. A surviving committed value
  /// stays committed: it was pushed to every flow successor, and a
  /// successor that lost it pulls it back in the re-derive
  /// (docs/INCREMENTAL.md).
  template <typename Pred> size_t eraseValues(Pred IsDead) {
    size_t W = 0;
    size_t Committed = DeltaStart;
    for (size_t R = 0; R < Elements.size(); ++R) {
      if (!IsDead(Elements[R])) {
        Elements[W++] = Elements[R];
        continue;
      }
      if (R < DeltaStart)
        --Committed;
      if (Index)
        Index->erase(Elements[R]);
    }
    size_t Removed = Elements.size() - W;
    if (Removed) {
      Elements.truncate(W);
      // Back to the small representation; a later insert re-promotes.
      if (Index && Elements.size() <= SmallLimit)
        Index.reset();
    }
    DeltaStart = static_cast<uint32_t>(Committed);
    return Removed;
  }

private:
  /// All elements in insertion order (monotone: never shrinks); storage
  /// bump-allocated from the owning Solution's arena.
  support::ArenaVector<graph::NodeId> Elements;
  /// Membership index, allocated lazily once the set outgrows SmallLimit.
  /// Behind a pointer so unpromoted sets (the common case) stay at 32
  /// bytes.
  std::unique_ptr<std::unordered_set<graph::NodeId>> Index;
  /// Start of the uncommitted suffix of Elements.
  uint32_t DeltaStart = 0;
};

/// The flowsTo sets of one solution, sized to the facts (docs/MEMORY.md,
/// "Per-node bytes"). Only a node that has received a value owns a
/// FlowSet, kept in one dense table in creation order. A node finds its
/// set through a 4-byte slot holding 1 + the set's index, or 0; slots
/// live in pages of 1,024 nodes, and a page is allocated only when one of
/// its nodes receives a value. Creating a set may move every FlowSet
/// object (never its elements, which live in the arena), so a FlowSet
/// reference must not be held across a getOrCreate() of another node.
class FlowSetTable {
public:
  /// No set: the index of a node that never received a value.
  static constexpr uint32_t NoSet = ~0u;

  /// Index of node \p N's set, or NoSet.
  uint32_t indexOf(graph::NodeId N) const {
    size_t Page = N >> PageBits;
    if (Page >= Pages.size() || !Pages[Page])
      return NoSet;
    return Pages[Page][N & PageMask] - 1; // slot 0 wraps to NoSet
  }

  /// Node \p N's set, or null when \p N never received a value.
  const FlowSet *find(graph::NodeId N) const {
    uint32_t I = indexOf(N);
    return I == NoSet ? nullptr : &Sets[I];
  }
  FlowSet *find(graph::NodeId N) {
    uint32_t I = indexOf(N);
    return I == NoSet ? nullptr : &Sets[I];
  }

  /// Index of node \p N's set, creating the (empty) set on first use.
  uint32_t indexFor(graph::NodeId N) {
    size_t Page = N >> PageBits;
    if (Page >= Pages.size())
      Pages.resize(Page + 1);
    if (!Pages[Page])
      Pages[Page] = std::make_unique<uint32_t[]>(size_t(1) << PageBits);
    uint32_t &Slot = Pages[Page][N & PageMask];
    if (Slot == 0) {
      Sets.emplace_back();
      Slot = static_cast<uint32_t>(Sets.size());
    }
    return Slot - 1;
  }
  FlowSet &getOrCreate(graph::NodeId N) { return Sets[indexFor(N)]; }

  /// The set at \p Index (an indexOf/indexFor result).
  FlowSet &atIndex(uint32_t Index) { return Sets[Index]; }

  /// Populated sets, in creation order.
  size_t size() const { return Sets.size(); }
  const FlowSet *begin() const { return Sets.data(); }
  const FlowSet *end() const { return Sets.data() + Sets.size(); }

private:
  static constexpr unsigned PageBits = 10;
  static constexpr graph::NodeId PageMask = (1u << PageBits) - 1;

  /// Slot pages by node id >> PageBits; null until a node of the page
  /// receives a value.
  std::vector<std::unique_ptr<uint32_t[]>> Pages;
  std::vector<FlowSet> Sets;
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_FLOWSET_H
