//===- AppStats.h - The per-app record --------------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one per-app record. AppStats holds the measurements reported in
/// Table 1 of the paper (application classes and methods, layout/view id
/// counts, inflated and explicitly-allocated view nodes, listener
/// allocation nodes, operation nodes per category) plus the solver,
/// fail-soft, graph-shape and memory telemetry of the run.
///
/// Every field is declared once, in GATOR_APP_STATS_FIELDS, with its
/// ledger key, its merge rule across apps, whether it is volatile, and
/// whether the run ledger writes it. That list drives aggregateAppStats,
/// the GSC1 cache codec (SolutionCache.h), the ledger writer and reader
/// and the numeric fields of `report` (WideEvent.h). A new field is one
/// list entry, one line in collectAppStats, and a line in
/// recordAppMetrics if the metrics export shows it.
///
/// CachedAnalysis is one app's whole result: the record plus the exit
/// code, the output text, the Table 2 precision row and the raw flowset
/// histogram. A cold run produces it, the solution cache stores it, and
/// recordAppMetrics folds it into the metrics registry.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_APPSTATS_H
#define GATOR_ANALYSIS_APPSTATS_H

#include "analysis/GuiAnalysis.h"
#include "android/Ops.h"

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gator {
namespace support {
class MetricsRegistry;
} // namespace support

namespace analysis {

/// How a field folds across apps (aggregateAppStats). Peaks and
/// footprints are point measurements and merge with Max: summing would
/// report a depth or a footprint no run ever reached. Fidelity degrades
/// along its enum, so Max keeps the worst app's.
enum class FieldMerge : uint8_t { Sum, Max };

/// Whether a field is reproducible (Stable) or a wall-clock or
/// machine-dependent sample (Volatile). Volatile fields are left out of
/// `--no-times` ledgers and never take part in `report --diff`.
enum class FieldTiming : uint8_t { Stable, Volatile };

/// Where a field appears in the run ledger: not at all (NotWritten),
/// written under its key (Written), or written and also summarized by
/// `report` and compared by `report --diff` (Reported).
enum class FieldLedger : uint8_t { NotWritten, Written, Reported };

/// Per-kind count arrays, indexed by graph::UnknownReason (slot 0, None,
/// stays zero) and by android::OpKind.
using ReasonCounts = unsigned long[graph::NumUnknownReasons];
using OpKindCounts = unsigned long[android::NumOpKinds];

/// Every field of AppStats, in ledger order:
///   X(type, member, ledger key, FieldMerge, FieldTiming, FieldLedger)
/// The ledger writes an array of ReasonCounts as its total under
/// "unknown_total", then the nonzero slots under the array's key, keyed by
/// reason slug. The fidelity is written as the record's outcome
/// ("fidelity"), next to its identity, not by the list.
#define GATOR_APP_STATS_FIELDS(X)                                             \
  /* Table 1 (the "ids" and "views" columns are L/V and I/A). */             \
  X(unsigned, Classes, "classes", Sum, Stable, Reported)                      \
  X(unsigned, Methods, "methods", Sum, Stable, Reported)                      \
  X(unsigned, LayoutIds, "layout_ids", Sum, Stable, Reported)                 \
  X(unsigned, ViewIds, "view_ids", Sum, Stable, Reported)                     \
  X(unsigned, InflViews, "infl_views", Sum, Stable, Reported)                 \
  X(unsigned, AllocViews, "alloc_views", Sum, Stable, Reported)               \
  X(unsigned, Listeners, "listeners", Sum, Stable, Reported)                  \
  X(unsigned, OpInflate, "op_inflate", Sum, Stable, NotWritten)               \
  /* FindView1 + FindView2 + FindView3, AddView1 + AddView2. */               \
  X(unsigned, OpFindView, "op_find_view", Sum, Stable, NotWritten)            \
  X(unsigned, OpAddView, "op_add_view", Sum, Stable, NotWritten)              \
  X(unsigned, OpSetListener, "op_set_listener", Sum, Stable, NotWritten)      \
  X(unsigned, OpSetId, "op_set_id", Sum, Stable, NotWritten)                  \
  /* Final constraint-graph shape. */                                         \
  X(unsigned long, GraphNodes, "graph_nodes", Sum, Stable, Reported)          \
  X(unsigned long, FlowEdges, "flow_edges", Sum, Stable, Reported)            \
  X(unsigned long, ParentChildEdges, "parent_child_edges", Sum, Stable,       \
    Reported)                                                                 \
  /* Solver telemetry (difference propagation; docs/DELTA_SOLVER.md),      \
     copied from the run's SolverStats. */                                    \
  X(unsigned long, Propagations, "propagations", Sum, Stable, Reported)       \
  X(unsigned long, OpFirings, "op_firings", Sum, Stable, Reported)            \
  X(unsigned long, ValuesPushed, "values_pushed", Sum, Stable, Reported)      \
  X(unsigned long, DedupHits, "dedup_hits", Sum, Stable, Reported)            \
  X(unsigned long, PeakSetSize, "peak_set_size", Max, Stable, Reported)       \
  X(unsigned long, PromotedSets, "promoted_sets", Sum, Stable, NotWritten)    \
  X(unsigned long, DescCacheHits, "desc_cache_hits", Sum, Stable, NotWritten) \
  X(unsigned long, DescCacheMisses, "desc_cache_misses", Sum, Stable,         \
    NotWritten)                                                               \
  X(unsigned long, HierarchyRevisions, "hierarchy_revisions", Sum, Stable,    \
    NotWritten)                                                               \
  /* Fail-soft telemetry (docs/ROBUSTNESS.md): the solution's fidelity     \
     marker, op sites left unresolved, and budget work charged. */            \
  X(Fidelity, SolutionFidelity, "fidelity", Max, Stable, NotWritten)          \
  X(unsigned long, UnresolvedOps, "unresolved_ops", Sum, Stable, Reported)    \
  X(unsigned long, WorkCharged, "work_charged", Sum, Stable, Reported)        \
  /* Unknown-source telemetry (docs/ROBUSTNESS.md): tagged UnknownView /   \
     UnknownId nodes, and all of them per reason. */                         \
  X(unsigned long, UnknownViews, "unknown_views", Sum, Stable, Written)       \
  X(unsigned long, UnknownIds, "unknown_ids", Sum, Stable, Written)           \
  X(ReasonCounts, UnknownByReason, "unknown_by_reason", Sum, Stable,          \
    Reported)                                                                 \
  /* Peak worklist depths (observability; docs/OBSERVABILITY.md). */          \
  X(unsigned long, PeakVarWorklist, "peak_var_worklist", Max, Stable,         \
    NotWritten)                                                               \
  X(unsigned long, PeakOpWorklist, "peak_op_worklist", Max, Stable,           \
    NotWritten)                                                               \
  /* Rule evaluations, op sites, and resolved op sites per op kind. A site \
     is resolved when its result variable received a value (ops with an    \
     Out role) or its receiver did (structural ops). */                       \
  X(OpKindCounts, FiringsByKind, "firings_by_kind", Sum, Stable, NotWritten)  \
  X(OpKindCounts, SitesByKind, "sites_by_kind", Sum, Stable, NotWritten)      \
  X(OpKindCounts, ResolvedSitesByKind, "resolved_sites_by_kind", Sum, Stable, \
    NotWritten)                                                               \
  /* Bytes bump-allocated from the app's arenas: IR declarations, graph    \
     adjacency and flow sets (docs/MEMORY.md). A footprint, since per-app  \
     slabs are dropped between apps. */                                       \
  X(unsigned long long, ArenaBytes, "arena_bytes", Max, Stable, Reported)     \
  /* Phase wall-clock, copied from the run. */                                \
  X(double, BuildSeconds, "build_seconds", Sum, Volatile, Reported)           \
  X(double, SolveSeconds, "solve_seconds", Sum, Volatile, Reported)           \
  /* Process peak RSS (support::currentPeakRssBytes) when the stats were   \
     collected: a high-water mark. */                                         \
  X(unsigned long long, PeakRssBytes, "peak_rss_bytes", Max, Volatile,        \
    Reported)

/// What the list says about one field.
struct AppStatsField {
  const char *Key; ///< the ledger key, unique among the fields
  FieldMerge Merge;
  FieldTiming Timing;
  FieldLedger Ledger;
};

/// One row of Table 1 plus the run's telemetry: the per-app record.
struct AppStats {
  std::string Name; ///< the app; the ledger writes it as "app"
#define GATOR_DECLARE_FIELD(Type, Member, Key, Merge, Timing, Ledger)         \
  Type Member = {};
  GATOR_APP_STATS_FIELDS(GATOR_DECLARE_FIELD)
#undef GATOR_DECLARE_FIELD

  bool operator==(const AppStats &) const = default;
};

/// Calls \p Fn(Field, Records.Member...) for every field of the list, in
/// list order: the same member of each record, with what the list says
/// about it. Records may be const or not, so \p Fn can read or write.
template <typename Fn, typename... Records>
void forEachAppStatsField(Fn &&F, Records &...R) {
#define GATOR_VISIT_FIELD(Type, Member, Key, Merge, Timing, Ledger)           \
  F(AppStatsField{Key, FieldMerge::Merge, FieldTiming::Timing,                \
                  FieldLedger::Ledger},                                       \
    R.Member...);
  GATOR_APP_STATS_FIELDS(GATOR_VISIT_FIELD)
#undef GATOR_VISIT_FIELD
}

/// Collects statistics from a completed analysis run.
AppStats collectAppStats(const std::string &Name, const ir::Program &P,
                         const AnalysisResult &Result);

/// Folds every field over a batch by its merge rule (Name becomes
/// \p Name). Order-invariant, so the aggregate of a parallel run equals
/// the serial one — the determinism test and the batch drivers
/// compare/report this.
AppStats aggregateAppStats(const std::string &Name,
                           const std::vector<AppStats> &PerApp);

/// Prints the Table 1 header / one row in the paper's layout.
void printAppStatsHeader(std::ostream &OS);
void printAppStatsRow(std::ostream &OS, const AppStats &Stats);

/// Prints the solver-telemetry header / one row (delta-propagation
/// counters; consumed by bench_table2).
void printSolverStatsHeader(std::ostream &OS);
void printSolverStatsRow(std::ostream &OS, const AppStats &Stats);

/// One app's whole result: what a cold run produces, what the solution
/// cache stores and a hit replays (docs/INCREMENTAL.md).
struct CachedAnalysis {
  int ExitCode = 0;
  /// Captured stdout/stderr text of the run (produced under the same
  /// options the key hashes, so replaying it verbatim is sound).
  std::string OutText;
  std::string ErrText;
  /// The per-app record.
  AppStats Stats;
  /// The Table-2 precision row (Solution::computeMetrics under the keyed
  /// options), so corpus drivers can replay their summary tables without
  /// a Solution.
  Solution::PrecisionMetrics Precision;
  /// Raw gator_flowset_size contribution of this app: bucket counts
  /// (including the overflow slot), sum, and observation count, captured
  /// with captureFlowsetHistogram. Filled exactly when the analysis
  /// completed; early-exit error paths leave it empty.
  std::vector<uint64_t> FlowHistCounts;
  uint64_t FlowHistSum = 0;
  uint64_t FlowHistCount = 0;

  /// True when the analysis completed and the record is filled.
  bool analyzed() const { return !FlowHistCounts.empty(); }
};

/// Captures the app's raw gator_flowset_size contribution (the bounds
/// recordAppMetrics registers) for a CachedAnalysis.
void captureFlowsetHistogram(const Solution &Sol,
                             std::vector<uint64_t> &Counts, uint64_t &Sum,
                             uint64_t &Count);

/// Folds one app's result into the metrics registry
/// (docs/OBSERVABILITY.md): gator_* counters, peak gauges, per-op-kind
/// labeled series and phase timing gauges from the record, and the
/// gator_flowset_size histogram from its raw buckets. Recording several
/// apps into one registry accumulates, so a cold result and the same
/// result read back from the cache yield the same document.
void recordAppMetrics(support::MetricsRegistry &Metrics,
                      const CachedAnalysis &Result);

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_APPSTATS_H
