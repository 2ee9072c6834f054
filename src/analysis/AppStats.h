//===- AppStats.h - Table 1 style application statistics --------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects the per-application measurements reported in Table 1 of the
/// paper: application classes and methods, layout/view id counts, inflated
/// and explicitly-allocated view nodes, listener allocation nodes, and the
/// number of constraint-graph operation nodes per category.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_APPSTATS_H
#define GATOR_ANALYSIS_APPSTATS_H

#include "analysis/GuiAnalysis.h"
#include "android/Ops.h"

#include <ostream>
#include <string>
#include <vector>

namespace gator {
namespace support {
class MetricsRegistry;
struct WideEvent;
} // namespace support

namespace analysis {

/// One row of Table 1.
struct AppStats {
  std::string Name;
  unsigned Classes = 0;
  unsigned Methods = 0;
  unsigned LayoutIds = 0;   ///< column "ids" (L)
  unsigned ViewIds = 0;     ///< column "ids" (V)
  unsigned InflViews = 0;   ///< column "views" (I)
  unsigned AllocViews = 0;  ///< column "views" (A)
  unsigned Listeners = 0;   ///< listener allocation nodes
  unsigned OpInflate = 0;
  unsigned OpFindView = 0;  ///< FindView1 + FindView2 + FindView3
  unsigned OpAddView = 0;   ///< AddView1 + AddView2
  unsigned OpSetListener = 0;
  unsigned OpSetId = 0;

  /// Solver telemetry (difference propagation; docs/DELTA_SOLVER.md),
  /// copied from the run's SolverStats.
  unsigned long Propagations = 0;
  unsigned long OpFirings = 0;
  unsigned long ValuesPushed = 0;
  unsigned long DedupHits = 0;
  unsigned long PeakSetSize = 0;
  unsigned long PromotedSets = 0;
  unsigned long DescCacheHits = 0;
  unsigned long DescCacheMisses = 0;
  unsigned long HierarchyRevisions = 0;

  /// Fail-soft telemetry (docs/ROBUSTNESS.md): the solution's fidelity
  /// marker, number of op sites left unresolved, and budget work charged.
  Fidelity SolutionFidelity = Fidelity::Complete;
  unsigned long UnresolvedOps = 0;
  unsigned long WorkCharged = 0;

  /// Unknown-source telemetry (docs/ROBUSTNESS.md): tagged UnknownView /
  /// UnknownId node counts, plus a per-reason breakdown (indexed by
  /// graph::UnknownReason; slot 0/None stays zero).
  unsigned long UnknownViews = 0;
  unsigned long UnknownIds = 0;
  unsigned long UnknownByReason[graph::NumUnknownReasons] = {};

  // Observability telemetry (docs/OBSERVABILITY.md).

  /// Final constraint-graph shape.
  unsigned long GraphNodes = 0;
  unsigned long FlowEdges = 0;
  unsigned long ParentChildEdges = 0;

  /// Peak worklist depths. Peaks are point measurements, NOT volumes:
  /// aggregateAppStats merges them with max (like PeakSetSize), never by
  /// addition — summing would report a depth no run ever reached.
  unsigned long PeakVarWorklist = 0;
  unsigned long PeakOpWorklist = 0;

  /// Rule evaluations, op sites, and resolved op sites per operation
  /// kind (indexed by android::OpKind). A site counts as resolved when
  /// its result variable received at least one value (ops with an Out
  /// role) or its receiver did (structural ops).
  unsigned long FiringsByKind[android::NumOpKinds] = {};
  unsigned long SitesByKind[android::NumOpKinds] = {};
  unsigned long ResolvedSitesByKind[android::NumOpKinds] = {};

  /// Phase wall-clock, copied from the run (suppressed from exports under
  /// --no-times).
  double BuildSeconds = 0.0;
  double SolveSeconds = 0.0;

  // Memory telemetry (docs/MEMORY.md).

  /// Bytes bump-allocated from this app's arenas: IR declarations
  /// (Program::declArena), constraint-graph adjacency
  /// (ConstraintGraph::edgeArena), and solver flow sets
  /// (Solution::setArena). Aggregated with max — the largest single-app
  /// arena footprint — because per-app slabs are dropped between apps,
  /// so a sum would describe traffic, not footprint.
  unsigned long long ArenaBytes = 0;

  /// Process peak RSS (support::currentPeakRssBytes) sampled when the
  /// app's stats were collected. A high-water mark: max-merged, never
  /// summed.
  unsigned long long PeakRssBytes = 0;
};

/// Collects statistics from a completed analysis run.
AppStats collectAppStats(const std::string &Name, const ir::Program &P,
                         const AnalysisResult &Result);

/// Sums every counter over a batch (Name becomes \p Name, PeakSetSize is
/// the maximum, SolutionFidelity the worst across apps). Order-invariant,
/// so the aggregate of a parallel run equals the serial one — the
/// determinism test and the batch drivers compare/report this.
AppStats aggregateAppStats(const std::string &Name,
                           const std::vector<AppStats> &PerApp);

/// Prints the Table 1 header / one row in the paper's layout.
void printAppStatsHeader(std::ostream &OS);
void printAppStatsRow(std::ostream &OS, const AppStats &Stats);

/// Prints the solver-telemetry header / one row (delta-propagation
/// counters; consumed by bench_table2).
void printSolverStatsHeader(std::ostream &OS);
void printSolverStatsRow(std::ostream &OS, const AppStats &Stats);

/// Records \p Stats into the metrics registry (docs/OBSERVABILITY.md):
/// gator_* counters, peak gauges, per-op-kind labeled series, and phase
/// timing gauges. When \p Sol is non-null, also observes every flowsTo
/// set size into the gator_flowset_size histogram. Idempotent naming:
/// recording several apps into one registry accumulates, and batch
/// drivers may instead record into per-task registries and mergeFrom()
/// them — both yield the same document.
void recordAppMetrics(support::MetricsRegistry &Metrics, const AppStats &Stats,
                      const Solution *Sol = nullptr);

/// Copies \p Stats into a run-ledger wide event (docs/OBSERVABILITY.md,
/// "Run ledger & reports"): counters verbatim, the fidelity as its
/// fidelityName() slug, and the unknown-source breakdown as (reason slug,
/// count) pairs for nonzero reasons. Identity and outcome fields the
/// stats row does not know (content key, exit code, cache state) are the
/// caller's to fill. The support-layer WideEvent stays free of analysis
/// types; this is the one conversion point.
void fillWideEvent(support::WideEvent &Event, const AppStats &Stats);

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_APPSTATS_H
