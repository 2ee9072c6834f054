//===- Solution.h - Analysis results and queries ----------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computed flowsTo relation, the operation-site table, and the query
/// API over them (including the four precision metrics of Table 2).
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_SOLUTION_H
#define GATOR_ANALYSIS_SOLUTION_H

#include "analysis/FlowSet.h"
#include "analysis/Options.h"
#include "android/AndroidModel.h"
#include "graph/ConstraintGraph.h"
#include "support/Budget.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gator {
namespace analysis {

/// How trustworthy a Solution is (docs/ROBUSTNESS.md). Ordered by
/// precedence: a budget trip outranks input degradation outranks clean.
enum class Fidelity : uint8_t {
  Complete,        ///< full fixed point over well-formed input
  DegradedInput,   ///< recoverable invariants fired / degenerate input
                   ///< skipped; the solution is consistent but may be
                   ///< missing facts the skipped constraints implied
  TruncatedBudget, ///< a resource budget stopped the solver early; the
                   ///< solution is a consistent under-approximation
};

/// Human-readable label ("complete", "degraded-input", ...).
const char *fidelityName(Fidelity F);

/// One occurrence of an Android operation with the variable nodes playing
/// each role. Roles not applicable to the op kind are InvalidNode.
struct OpSite {
  graph::NodeId OpNode = graph::InvalidNode;
  android::OpSpec Spec;
  /// The enclosing application method.
  const ir::MethodDecl *Method = nullptr;
  /// Receiver variable node (view / activity / inflater / intent).
  graph::NodeId Recv = graph::InvalidNode;
  /// Integer layout-id / view-id argument variable node.
  graph::NodeId IdArg = graph::InvalidNode;
  /// Value argument node: child view (AddView), listener (SetListener),
  /// intent (StartActivity), class constant (SetIntentClass).
  graph::NodeId ValArg = graph::InvalidNode;
  /// inflate(id, parent): the parent ViewGroup argument.
  graph::NodeId AttachParent = graph::InvalidNode;
  /// Result variable node (FindView*, Inflate1).
  graph::NodeId Out = graph::InvalidNode;
  /// The op's statement disappeared in an edit-scale re-analysis
  /// (docs/INCREMENTAL.md). Dead sites keep their slot — op indices are
  /// stable memo keys (InflatedAt, FactoryWired) — but the solvers and
  /// every query skip them.
  bool Dead = false;
};

/// The fixed-point solution: flowsTo sets plus graph-resident relationship
/// edges, with Table 2 metrics.
class Solution {
public:
  Solution(const graph::ConstraintGraph &G, const android::AndroidModel &AM)
      : G(G), AM(AM) {}

  //===--------------------------------------------------------------------===//
  // Raw state (populated by the solver)
  //===--------------------------------------------------------------------===//

  /// The populated flowsTo sets; a node that never received a value has
  /// none (valuesAt() reads it as empty).
  FlowSetTable &flowsToSets() { return FlowsTo; }
  const FlowSetTable &flowsToSets() const { return FlowsTo; }

  /// The arena backing every FlowSet's element storage (docs/MEMORY.md):
  /// solvers pass it to FlowSet::insert, and the whole solution's set
  /// volume is released as slabs with the Solution.
  support::Arena &setArena() { return SetArena; }
  /// Set-storage footprint, for AppStats::ArenaBytes accounting.
  const support::Arena &setArena() const { return SetArena; }
  std::vector<OpSite> &opSites() { return Ops; }
  const std::vector<OpSite> &opSites() const { return Ops; }

  //===--------------------------------------------------------------------===//
  // Fidelity (docs/ROBUSTNESS.md)
  //===--------------------------------------------------------------------===//

  Fidelity fidelity() const { return Fid; }
  bool isComplete() const { return Fid == Fidelity::Complete; }

  /// Why the budget tripped (None unless fidelity is TruncatedBudget).
  support::BudgetReason truncationReason() const { return TruncReason; }

  /// Marks the solution truncated by a budget (highest precedence).
  void markTruncated(support::BudgetReason Reason) {
    Fid = Fidelity::TruncatedBudget;
    TruncReason = Reason;
  }

  /// Marks the solution degraded by malformed/degenerate input; does not
  /// downgrade an existing TruncatedBudget marker.
  void markDegraded() {
    if (Fid == Fidelity::Complete)
      Fid = Fidelity::DegradedInput;
  }

  /// Drops a DegradedInput marker; TruncatedBudget stays. An edit-scale
  /// session calls this before it re-marks fidelity from the live state
  /// (docs/INCREMENTAL.md), since an edit can resolve a degraded site.
  void clearDegraded() {
    if (Fid == Fidelity::DegradedInput)
      Fid = Fidelity::Complete;
  }

  /// Records an operation site whose rule was skipped or left unfinished
  /// (degraded inflation, budget cut). Deduplicated, kept sorted.
  void noteUnresolvedOp(uint32_t OpIndex);

  /// Sorted indices into ops() of unresolved operation sites.
  const std::vector<uint32_t> &unresolvedOps() const { return Unresolved; }

  /// Drops the unresolved-op entries \p Drop selects. An edit-scale
  /// re-derive (docs/INCREMENTAL.md) drops the entries of the ops it
  /// re-fires, each of which notes its site again if it is still
  /// unresolved, and of dead ops. Fidelity is not touched here: the
  /// session recomputes it from the live state after the re-derive.
  template <typename Pred> void clearUnresolvedOps(Pred Drop) {
    Unresolved.erase(
        std::remove_if(Unresolved.begin(), Unresolved.end(), Drop),
        Unresolved.end());
  }

  //===--------------------------------------------------------------------===//
  // flowsTo queries
  //===--------------------------------------------------------------------===//

  /// Values reaching node \p N (empty for unseeded nodes).
  const FlowSet &valuesAt(graph::NodeId N) const;

  /// Views (ViewAlloc/ViewInfl nodes) among the values reaching \p N.
  std::vector<graph::NodeId> viewsAt(graph::NodeId N) const;

  /// Values at \p N whose class implements a listener interface, plus any
  /// value reaching the listener position regardless (the declared type of
  /// the set-listener argument is authoritative per Section 3.2).
  std::vector<graph::NodeId> listenerValuesAt(graph::NodeId N) const;

  const std::vector<OpSite> &ops() const { return Ops; }

  /// Op sites of one kind.
  std::vector<const OpSite *> opsOfKind(android::OpKind Kind) const;

  //===--------------------------------------------------------------------===//
  // Operation-resolution queries (recomputed over the final state)
  //===--------------------------------------------------------------------===//

  /// Views flowing into the receiver role of \p Op.
  std::vector<graph::NodeId> receiversOf(const OpSite &Op) const;

  /// Views flowing into the child/parameter role of an AddView op (for
  /// AddView1 this is the view argument).
  std::vector<graph::NodeId> parametersOf(const OpSite &Op) const;

  /// Views an operation with an output (FindView1/2/3, Inflate1) resolves
  /// to, re-evaluating its rule over the final state under the options the
  /// solution was computed with: the ablations change resolution, and
  /// UnknownFanoutBudget caps what an unknown id may yield
  /// (docs/ROBUSTNESS.md).
  std::vector<graph::NodeId> resultsOf(const OpSite &Op,
                                       const AnalysisOptions &Options) const;

  /// Listener values flowing into a SetListener op.
  std::vector<graph::NodeId> listenersAtOp(const OpSite &Op) const;

  //===--------------------------------------------------------------------===//
  // Table 2 precision metrics
  //===--------------------------------------------------------------------===//

  struct PrecisionMetrics {
    /// Mean |receiver views| over op nodes with a view receiver (FindView1,
    /// FindView3, AddView2, SetId, SetListener) that are reached by >= 1
    /// view.
    double AvgReceivers = 0.0;
    /// Mean |parameter views| over AddView1/AddView2 nodes; absent when
    /// the app has no such node (the paper prints "-").
    std::optional<double> AvgParameters;
    /// Mean |result views| over FindView1/2/3 nodes.
    std::optional<double> AvgResults;
    /// Mean |associated listeners| over (SetListener op, receiver view)
    /// pairs.
    std::optional<double> AvgListeners;
  };

  /// The metrics under the options the solution was computed with.
  PrecisionMetrics computeMetrics(const AnalysisOptions &Options) const;

  const graph::ConstraintGraph &constraintGraph() const { return G; }
  const android::AndroidModel &androidModel() const { return AM; }

  /// Prints every operation site with its resolved receiver / parameter /
  /// result / listener sets, one op per line ("FindView2_10 @ A.onCreate/0
  /// recv{act:A} -> {Button~infl#4[ok]}"), results under \p Options.
  void dump(std::ostream &OS, const AnalysisOptions &Options) const;

private:
  const graph::ConstraintGraph &G;
  const android::AndroidModel &AM;
  /// Owns all FlowSet element storage; declared before FlowsTo so slabs
  /// outlive the tables pointing at them.
  support::Arena SetArena;
  FlowSetTable FlowsTo;
  std::vector<OpSite> Ops;
  FlowSet Empty;
  Fidelity Fid = Fidelity::Complete;
  support::BudgetReason TruncReason = support::BudgetReason::None;
  std::vector<uint32_t> Unresolved;
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_SOLUTION_H
