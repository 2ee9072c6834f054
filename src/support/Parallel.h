//===- Parallel.h - Parallel batch execution layer --------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel execution layer for multi-app drivers (docs/PARALLEL.md).
/// The paper's evaluation analyzes each app of the corpus independently —
/// an embarrassingly parallel workload — so both batch code paths
/// (`driver::runBatch` behind `gator_cli --batch`, and `export_corpus`)
/// fan out through one worker loop, parallelFor/parallelMap.
///
/// Contract: one index = one whole-app job, thread-confined (its own
/// AppBundle, DiagnosticEngine, and BudgetTracker; nothing mutable is
/// shared across jobs). Results are indexed records the caller merges in
/// input order, so output is byte-identical for every job count. The same
/// loop runs at every job count; with one worker it is an in-order loop
/// on the calling thread that starts no thread.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_PARALLEL_H
#define GATOR_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>
#include <vector>

namespace gator {
namespace support {

/// Upper bound a driver should accept for a jobs knob; anything above is a
/// configuration mistake (a typo'd `-j 80000`), not a real machine, and is
/// rejected with a diagnostic rather than silently clamped.
inline constexpr unsigned MaxReasonableJobs = 512;

/// Resolves a user-facing jobs knob: 0 means "use the hardware", anything
/// else is taken literally. Never returns 0.
unsigned resolveJobs(unsigned Requested);

/// Runs Body(0) .. Body(N-1) on min(resolveJobs(Jobs), N) workers: the
/// calling thread plus one started thread per extra worker, each taking
/// the next unclaimed index. Every index runs even when another throws;
/// each index's exception is kept in its own slot and, after the workers
/// join, the lowest-index one is rethrown, so failure attribution does not
/// depend on scheduling or on the job count.
void parallelFor(unsigned Jobs, size_t N,
                 const std::function<void(size_t)> &Body);

/// parallelFor producing a value per index, in index order. Result must be
/// default-constructible and movable.
template <typename Result, typename Fn>
std::vector<Result> parallelMap(unsigned Jobs, size_t N, Fn &&Body) {
  std::vector<Result> Out(N);
  parallelFor(Jobs, N, [&](size_t I) { Out[I] = Body(I); });
  return Out;
}

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_PARALLEL_H
