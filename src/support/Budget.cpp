//===- Budget.cpp - Resource budgets for fail-soft analysis -----*- C++ -*-===//

#include "support/Budget.h"

#include <algorithm>

using namespace gator;
using namespace gator::support;

const char *gator::support::budgetReasonName(BudgetReason Reason) {
  switch (Reason) {
  case BudgetReason::None:
    return "none";
  case BudgetReason::WorkItems:
    return "work-items";
  case BudgetReason::Deadline:
    return "deadline";
  case BudgetReason::GraphNodes:
    return "graph-nodes";
  case BudgetReason::GraphEdges:
    return "graph-edges";
  }
  return "unknown";
}

std::optional<std::chrono::steady_clock::time_point>
gator::support::makeSharedDeadline(double MaxWallSeconds) {
  using Clock = std::chrono::steady_clock;
  if (!(MaxWallSeconds > 0.0))
    return std::nullopt;
  const Clock::time_point Now = Clock::now();
  // Compare in the clock's ticks as doubles before converting: a cast of
  // an out-of-range double is undefined. Half the remaining range leaves
  // room for rounding; a deadline that far out is centuries away.
  const std::chrono::duration<double, Clock::period> Wait =
      std::chrono::duration<double>(MaxWallSeconds);
  const double Room =
      static_cast<double>((Clock::time_point::max() - Now).count());
  if (!(Wait.count() < Room / 2))
    return std::nullopt;
  return Now + std::chrono::duration_cast<Clock::duration>(Wait);
}

BudgetTracker::BudgetTracker(const BudgetPolicy &Policy)
    : Policy(Policy),
      // A batch-wide deadline is absolute, computed by the driver before
      // the fan-out and identical for every task in the batch.
      Deadline(Policy.SharedDeadline
                   ? Policy.SharedDeadline
                   : makeSharedDeadline(Policy.MaxWallSeconds)) {}

bool BudgetTracker::overDeadline() {
  if (Deadline && std::chrono::steady_clock::now() >= *Deadline) {
    Reason = BudgetReason::Deadline;
    return true;
  }
  return false;
}

bool BudgetTracker::refillSlice() {
  if (exhausted())
    return false;
  Committed += SliceSize;
  SliceSize = 0;
  if (overDeadline())
    return false;
  unsigned long Slice = SliceInterval;
  if (Policy.MaxWorkItems != 0) {
    if (Committed >= Policy.MaxWorkItems) {
      Reason = BudgetReason::WorkItems;
      return false;
    }
    Slice = std::min(Slice, Policy.MaxWorkItems - Committed);
  }
  // The charge that triggered the refill consumes the slice's first item.
  SliceSize = Slice;
  FastRemaining = Slice - 1;
  return true;
}

bool BudgetTracker::checkpoint(size_t GraphNodes, size_t GraphEdges) {
  if (exhausted())
    return false;
  if (Policy.MaxGraphNodes != 0 && GraphNodes > Policy.MaxGraphNodes) {
    Reason = BudgetReason::GraphNodes;
    return false;
  }
  if (Policy.MaxGraphEdges != 0 && GraphEdges > Policy.MaxGraphEdges) {
    Reason = BudgetReason::GraphEdges;
    return false;
  }
  return !overDeadline();
}
