//===- Budget.h - Resource budgets for fail-soft analysis -------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for the analysis pipeline (docs/ROBUSTNESS.md). A
/// BudgetPolicy bundles every limit a caller may impose — work items,
/// wall-clock deadline, graph size caps — and a BudgetTracker enforces one
/// policy over one run with a hot path cheap enough for the solver's inner
/// loop (a decrement and branch; the clock and the caps are consulted only
/// at slice refills and checkpoints). A tracker belongs to the one thread
/// running its analysis; nothing in it is shared across threads.
///
/// Exhaustion is sticky and carries a reason; the solver translates it
/// into a TruncatedBudget fidelity marker on the Solution rather than
/// aborting, so a tripped budget still yields a usable partial result.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_BUDGET_H
#define GATOR_SUPPORT_BUDGET_H

#include <chrono>
#include <cstddef>
#include <optional>

namespace gator {
namespace support {

/// Why a budget tripped (None while within every limit).
enum class BudgetReason : unsigned char {
  None,
  WorkItems,  ///< the work-item budget ran out
  Deadline,   ///< the wall-clock deadline passed
  GraphNodes, ///< the constraint graph outgrew the node cap
  GraphEdges, ///< the constraint graph outgrew the edge cap
};

/// Human-readable label ("work-items", "deadline", ...).
const char *budgetReasonName(BudgetReason Reason);

/// The deadline \p MaxWallSeconds from now, or nullopt when the knob is
/// off (<= 0 or NaN) or the deadline lies past the steady clock's range
/// (such a run has no deadline). Drivers compute this once before fanning
/// a batch out and store it in every task's BudgetPolicy::SharedDeadline;
/// a tracker without a shared deadline converts MaxWallSeconds with it.
std::optional<std::chrono::steady_clock::time_point>
makeSharedDeadline(double MaxWallSeconds);

/// The limits one analysis run must respect. Zero (or unset) means
/// unlimited for every knob.
struct BudgetPolicy {
  /// Maximum solver work items (worklist pops / sweep visits). The
  /// historical MaxWorkItems safety valve, generalized. 0 = unlimited.
  unsigned long MaxWorkItems = 50'000'000;

  /// Wall-clock deadline in seconds from tracker construction; checked
  /// at slice refills and checkpoints, never per work item. <= 0 = none
  /// (see makeSharedDeadline).
  double MaxWallSeconds = 0.0;

  /// Absolute wall-clock deadline shared by every tracker in a batch
  /// (docs/PARALLEL.md). Computed once before the fan-out so all tasks
  /// race the same clock regardless of start order or job count; takes
  /// precedence over MaxWallSeconds. Per-task limits (work items, graph
  /// caps) are NOT shared — each task gets a fresh allowance
  /// (docs/ROBUSTNESS.md, "Batch deadline semantics").
  std::optional<std::chrono::steady_clock::time_point> SharedDeadline;

  /// Constraint-graph size caps, checked at checkpoints (op firings,
  /// structure rounds, phase boundaries). 0 = unlimited.
  size_t MaxGraphNodes = 0;
  size_t MaxGraphEdges = 0;
};

/// Enforces one BudgetPolicy over one run. Work items are charged through
/// an inline slice countdown; every SliceInterval items (or sooner when
/// the work budget is nearly spent) the slow path commits the slice and
/// consults the clock. Exhaustion is sticky: the first reason stays.
class BudgetTracker {
public:
  explicit BudgetTracker(const BudgetPolicy &Policy);

  /// Charges one work item. Returns false once the budget is exhausted;
  /// the failing item (and everything after it) must not run.
  bool charge() {
    if (FastRemaining != 0) {
      --FastRemaining;
      return true;
    }
    return refillSlice();
  }

  /// Deadline / graph-cap check for phase boundaries and op firings. Does
  /// not charge work. Returns false once exhausted.
  bool checkpoint(size_t GraphNodes, size_t GraphEdges);

  bool exhausted() const { return Reason != BudgetReason::None; }
  BudgetReason reason() const { return Reason; }

  /// Work items successfully charged so far.
  unsigned long workCharged() const {
    return Committed + (SliceSize - FastRemaining);
  }

private:
  /// Items handed out per slice; bounds how stale the clock check gets.
  static constexpr unsigned long SliceInterval = 1024;

  bool refillSlice();
  bool overDeadline();

  BudgetPolicy Policy;
  BudgetReason Reason = BudgetReason::None;
  unsigned long FastRemaining = 0; ///< charges left in the current slice
  unsigned long SliceSize = 0;     ///< size the current slice started at
  unsigned long Committed = 0;     ///< work from fully-drained slices
  std::optional<std::chrono::steady_clock::time_point> Deadline;
};

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_BUDGET_H
