//===- AppStats.cpp - Table 1 style application statistics ------*- C++ -*-===//

#include "analysis/AppStats.h"

#include "support/Metrics.h"

#include <algorithm>
#include <iomanip>
#include <type_traits>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;

AppStats gator::analysis::collectAppStats(const std::string &Name,
                                          const ir::Program &P,
                                          const AnalysisResult &Result) {
  AppStats Stats;
  Stats.Name = Name;
  Stats.Classes = P.appClassCount();
  Stats.Methods = P.appMethodCount();

  const ConstraintGraph &G = *Result.Graph;
  const AndroidModel &AM = Result.Sol->androidModel();
  for (NodeId Id = 0; Id < G.size(); ++Id) {
    const Node &N = G.node(Id);
    switch (N.Kind) {
    case NodeKind::LayoutId:
      ++Stats.LayoutIds;
      break;
    case NodeKind::ViewId:
      ++Stats.ViewIds;
      break;
    case NodeKind::ViewInfl:
      ++Stats.InflViews;
      break;
    case NodeKind::ViewAlloc:
      ++Stats.AllocViews;
      if (AM.isListenerClass(N.Klass))
        ++Stats.Listeners; // views can be listeners (general case)
      break;
    case NodeKind::Alloc:
      if (AM.isListenerClass(N.Klass))
        ++Stats.Listeners;
      break;
    case NodeKind::Activity:
      if (AM.isListenerClass(N.Klass))
        ++Stats.Listeners;
      break;
    case NodeKind::UnknownView:
      ++Stats.UnknownViews;
      ++Stats.UnknownByReason[static_cast<size_t>(N.Unknown)];
      break;
    case NodeKind::UnknownId:
      ++Stats.UnknownIds;
      ++Stats.UnknownByReason[static_cast<size_t>(N.Unknown)];
      break;
    case NodeKind::Op:
      switch (N.Op) {
      case OpKind::Inflate1:
      case OpKind::Inflate2:
        ++Stats.OpInflate;
        break;
      case OpKind::FindView1:
      case OpKind::FindView2:
      case OpKind::FindView3:
        ++Stats.OpFindView;
        break;
      case OpKind::AddView1:
      case OpKind::AddView2:
        ++Stats.OpAddView;
        break;
      case OpKind::SetListener:
        ++Stats.OpSetListener;
        break;
      case OpKind::SetId:
        ++Stats.OpSetId;
        break;
      default:
        break;
      }
      break;
    default:
      break;
    }
  }

  Stats.Propagations = Result.Stats.Propagations;
  Stats.OpFirings = Result.Stats.OpFirings;
  Stats.ValuesPushed = Result.Stats.ValuesPushed;
  Stats.DedupHits = Result.Stats.DedupHits;
  Stats.PeakSetSize = Result.Stats.PeakSetSize;
  Stats.PromotedSets = Result.Stats.PromotedSets;
  Stats.DescCacheHits = Result.Stats.DescCacheHits;
  Stats.DescCacheMisses = Result.Stats.DescCacheMisses;
  Stats.HierarchyRevisions = Result.Stats.HierarchyRevisions;
  Stats.SolutionFidelity = Result.Sol->fidelity();
  Stats.UnresolvedOps = Result.Sol->unresolvedOps().size();
  Stats.WorkCharged = Result.Stats.WorkCharged;

  Stats.GraphNodes = G.size();
  Stats.FlowEdges = G.flowEdgeCount();
  Stats.ParentChildEdges = G.parentChildEdgeCount();
  Stats.PeakVarWorklist = Result.Stats.PeakVarWorklist;
  Stats.PeakOpWorklist = Result.Stats.PeakOpWorklist;
  for (size_t K = 0; K < NumOpKinds; ++K)
    Stats.FiringsByKind[K] = Result.Stats.FiringsByKind[K];

  // Per-kind resolution outcomes: a site resolved when its result (or,
  // for structural ops, its receiver) received at least one value.
  const Solution &Sol = *Result.Sol;
  for (const OpSite &Op : Sol.opSites()) {
    size_t K = static_cast<size_t>(Op.Spec.Kind);
    ++Stats.SitesByKind[K];
    NodeId Probe = Op.Out != InvalidNode ? Op.Out : Op.Recv;
    if (!Sol.valuesAt(Probe).empty())
      ++Stats.ResolvedSitesByKind[K];
  }

  Stats.BuildSeconds = Result.BuildSeconds;
  Stats.SolveSeconds = Result.SolveSeconds;

  Stats.ArenaBytes = P.declArena().bytesAllocated() +
                     G.edgeArena().bytesAllocated() +
                     Sol.setArena().bytesAllocated();
  Stats.PeakRssBytes = support::currentPeakRssBytes();
  return Stats;
}

namespace {

/// Folds \p V into \p Acc by \p Merge; arrays fold slot by slot.
template <typename T>
void mergeField(FieldMerge Merge, T &Acc, const T &V) {
  if constexpr (std::is_array_v<T>) {
    for (size_t I = 0; I < std::extent_v<T>; ++I)
      mergeField(Merge, Acc[I], V[I]);
  } else if constexpr (std::is_enum_v<T>) {
    Acc = std::max(Acc, V);
  } else if (Merge == FieldMerge::Max) {
    Acc = std::max(Acc, V);
  } else {
    Acc += V;
  }
}

/// Canonical gator_flowset_size bounds.
const std::vector<uint64_t> &flowsetBounds() {
  static const std::vector<uint64_t> Bounds{1,  2,   4,   8,   16,  32,
                                            64, 128, 256, 512, 1024};
  return Bounds;
}

} // namespace

AppStats
gator::analysis::aggregateAppStats(const std::string &Name,
                                   const std::vector<AppStats> &PerApp) {
  AppStats Total;
  Total.Name = Name;
  for (const AppStats &S : PerApp)
    forEachAppStatsField(
        [](const AppStatsField &F, auto &Acc, const auto &V) {
          mergeField(F.Merge, Acc, V);
        },
        Total, S);
  return Total;
}

void gator::analysis::captureFlowsetHistogram(const Solution &Sol,
                                              std::vector<uint64_t> &Counts,
                                              uint64_t &Sum, uint64_t &Count) {
  support::Histogram H(flowsetBounds());
  for (const FlowSet &Set : Sol.flowsToSets())
    if (!Set.empty())
      H.observe(Set.size());
  Counts = H.bucketCounts();
  Sum = H.sum();
  Count = H.count();
}

void gator::analysis::recordAppMetrics(support::MetricsRegistry &Metrics,
                                       const CachedAnalysis &Result) {
  using support::MetricUnit;
  const AppStats &Stats = Result.Stats;

  Metrics.counter("gator_apps_total", "Applications analyzed").inc();
  Metrics
      .counter("gator_graph_nodes_total", "Constraint-graph nodes built")
      .add(Stats.GraphNodes);
  Metrics.counter("gator_flow_edges_total", "Flow edges in the graph")
      .add(Stats.FlowEdges);
  Metrics
      .counter("gator_parent_child_edges_total",
               "Parent-child hierarchy edges")
      .add(Stats.ParentChildEdges);
  Metrics
      .counter("gator_solver_propagations_total", "Worklist value pops")
      .add(Stats.Propagations);
  Metrics.counter("gator_solver_op_firings_total", "Operation-rule firings")
      .add(Stats.OpFirings);
  Metrics
      .counter("gator_solver_values_pushed_total",
               "flowsTo insertion attempts")
      .add(Stats.ValuesPushed);
  Metrics
      .counter("gator_solver_dedup_hits_total",
               "Insertion attempts finding the value present")
      .add(Stats.DedupHits);
  Metrics
      .counter("gator_solver_hierarchy_revisions_total",
               "Structure-edge invalidations")
      .add(Stats.HierarchyRevisions);
  Metrics
      .counter("gator_solver_unresolved_ops_total",
               "Op sites left unresolved by budget exhaustion")
      .add(Stats.UnresolvedOps);
  Metrics
      .counter("gator_budget_work_charged_total",
               "Work items charged against the budget")
      .add(Stats.WorkCharged);

  // Unknown-source modeling (docs/ROBUSTNESS.md). The total is always
  // emitted — a zero confirms clean input rather than a missing series —
  // and the per-kind breakdown is labeled by degradation reason.
  Metrics
      .counter("gator_unknown_sources_total",
               "Tagged unknown-source nodes (reflection, dynamic ids, "
               "missing resources)")
      .add(Stats.UnknownViews + Stats.UnknownIds);
  for (size_t R = 1; R < graph::NumUnknownReasons; ++R)
    if (Stats.UnknownByReason[R])
      Metrics
          .counter("gator_unknown_sources_by_reason_total",
                   "Tagged unknown-source nodes per degradation reason",
                   MetricUnit::None, "reason",
                   graph::unknownReasonSlug(
                       static_cast<graph::UnknownReason>(R)))
          .add(Stats.UnknownByReason[R]);

  Metrics
      .gauge("gator_solver_peak_set_size",
             "Largest flowsTo set observed (max across apps)")
      .setMax(static_cast<double>(Stats.PeakSetSize));
  Metrics
      .gauge("gator_solver_peak_var_worklist",
             "Deepest value worklist observed (max across apps)")
      .setMax(static_cast<double>(Stats.PeakVarWorklist));
  Metrics
      .gauge("gator_solver_peak_op_worklist",
             "Deepest op worklist observed (max across apps)")
      .setMax(static_cast<double>(Stats.PeakOpWorklist));

  Metrics
      .gauge("gator_arena_bytes_per_app",
             "Largest single-app arena footprint (IR + graph + flow sets)",
             MetricUnit::Bytes)
      .setMax(static_cast<double>(Stats.ArenaBytes));
  if (Stats.PeakRssBytes)
    Metrics
        .gauge("gator_peak_rss_bytes",
               "Process peak resident set size (high-water mark)",
               MetricUnit::BytesVolatile)
        .setMax(static_cast<double>(Stats.PeakRssBytes));

  Metrics
      .gauge("gator_phase_build_seconds", "Graph construction wall-clock",
             MetricUnit::Seconds)
      .add(Stats.BuildSeconds);
  Metrics
      .gauge("gator_phase_solve_seconds", "Fixpoint wall-clock",
             MetricUnit::Seconds)
      .add(Stats.SolveSeconds);

  for (size_t K = 0; K < android::NumOpKinds; ++K) {
    const char *Kind = android::opKindName(static_cast<android::OpKind>(K));
    if (Stats.FiringsByKind[K])
      Metrics
          .counter("gator_op_firings_total", "Rule firings per op kind",
                   MetricUnit::None, "kind", Kind)
          .add(Stats.FiringsByKind[K]);
    if (Stats.SitesByKind[K]) {
      Metrics
          .counter("gator_op_sites_total", "Op sites per op kind",
                   MetricUnit::None, "kind", Kind)
          .add(Stats.SitesByKind[K]);
      Metrics
          .counter("gator_op_sites_resolved_total",
                   "Op sites whose result or receiver received values",
                   MetricUnit::None, "kind", Kind)
          .add(Stats.ResolvedSitesByKind[K]);
    }
  }

  Metrics
      .histogram("gator_flowset_size", "Sizes of nonempty flowsTo sets",
                 flowsetBounds())
      .addRaw(Result.FlowHistCounts, Result.FlowHistSum, Result.FlowHistCount);
}

void gator::analysis::printAppStatsHeader(std::ostream &OS) {
  OS << std::left << std::setw(16) << "app" << std::right << std::setw(8)
     << "classes" << std::setw(9) << "methods" << std::setw(10) << "ids(L/V)"
     << std::setw(12) << "views(I/A)" << std::setw(10) << "listeners"
     << std::setw(9) << "Inflate" << std::setw(10) << "FindView"
     << std::setw(9) << "AddView" << std::setw(13) << "SetListener" << '\n';
}

void gator::analysis::printAppStatsRow(std::ostream &OS,
                                       const AppStats &S) {
  std::string Ids = std::to_string(S.LayoutIds) + "/" +
                    std::to_string(S.ViewIds);
  std::string Views = std::to_string(S.InflViews) + "/" +
                      std::to_string(S.AllocViews);
  OS << std::left << std::setw(16) << S.Name << std::right << std::setw(8)
     << S.Classes << std::setw(9) << S.Methods << std::setw(10) << Ids
     << std::setw(12) << Views << std::setw(10) << S.Listeners << std::setw(9)
     << S.OpInflate << std::setw(10) << S.OpFindView << std::setw(9)
     << S.OpAddView << std::setw(13) << S.OpSetListener << '\n';
}

void gator::analysis::printSolverStatsHeader(std::ostream &OS) {
  OS << std::left << std::setw(16) << "app" << std::right << std::setw(10)
     << "propagate" << std::setw(9) << "opFire" << std::setw(10) << "pushed"
     << std::setw(9) << "dedup" << std::setw(9) << "peakSet" << std::setw(10)
     << "promoted" << std::setw(10) << "descHit" << std::setw(10)
     << "descMiss" << std::setw(9) << "hierRev" << std::setw(18)
     << "fidelity" << std::setw(11) << "unresolved" << '\n';
}

void gator::analysis::printSolverStatsRow(std::ostream &OS,
                                          const AppStats &S) {
  OS << std::left << std::setw(16) << S.Name << std::right << std::setw(10)
     << S.Propagations << std::setw(9) << S.OpFirings << std::setw(10)
     << S.ValuesPushed << std::setw(9) << S.DedupHits << std::setw(9)
     << S.PeakSetSize << std::setw(10) << S.PromotedSets << std::setw(10)
     << S.DescCacheHits << std::setw(10) << S.DescCacheMisses << std::setw(9)
     << S.HierarchyRevisions << std::setw(18)
     << fidelityName(S.SolutionFidelity) << std::setw(11) << S.UnresolvedOps
     << '\n';
}
