//===- Solver.h - Fixed-point constraint solver -----------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed-point computation of Section 4.3. The paper describes three
/// phases (op-free reachability, inflation processing, view propagation);
/// this solver fuses them into one monotone worklist computation with
/// identical semantics: value propagation along flow edges, and operation
/// rules (Section 4.2) that fire whenever their inputs grow or the
/// hierarchy/id structure changes, possibly adding new relationship edges,
/// new inflated-view nodes, and new flow facts.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_SOLVER_H
#define GATOR_ANALYSIS_SOLVER_H

#include "analysis/Options.h"
#include "analysis/Provenance.h"
#include "analysis/Solution.h"
#include "android/AndroidModel.h"
#include "android/Ops.h"
#include "graph/ConstraintGraph.h"
#include "hier/ClassHierarchy.h"
#include "layout/Layout.h"
#include "support/Budget.h"
#include "support/FlatMap.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gator {
namespace analysis {

/// Statistics of one solver run.
struct SolverStats {
  unsigned long Propagations = 0; ///< worklist pops for value propagation
  unsigned long OpFirings = 0;    ///< operation-rule evaluations
  unsigned long InflationCount = 0; ///< (site, layout) inflations performed

  // Difference-propagation counters (docs/DELTA_SOLVER.md).
  unsigned long ValuesPushed = 0; ///< (target, value) insertion attempts
  unsigned long DedupHits = 0;    ///< attempts finding the value present
  unsigned long DeltaCommits = 0; ///< nonempty delta spans committed
  unsigned long StructureRounds = 0; ///< quiescent structure re-fire rounds
  unsigned long PeakSetSize = 0;  ///< largest flowsTo set observed
  unsigned long PromotedSets = 0; ///< sets that outgrew the small repr
  unsigned long DescCacheHits = 0;   ///< descendantsOf cache hits
  unsigned long DescCacheMisses = 0; ///< descendantsOf recomputes
  unsigned long HierarchyRevisions = 0; ///< structure-edge invalidations

  // Observability counters (docs/OBSERVABILITY.md).
  unsigned long PeakVarWorklist = 0; ///< deepest value worklist observed
  unsigned long PeakOpWorklist = 0;  ///< deepest op worklist observed
  /// Rule evaluations per operation kind, indexed by OpKind.
  unsigned long FiringsByKind[android::NumOpKinds] = {};

  /// Work items successfully charged against the budget.
  unsigned long WorkCharged = 0;

  /// True when any budget limit stopped the solver early (kept under the
  /// historical name; BudgetTripped carries the specific reason).
  bool HitWorkLimit = false;
  support::BudgetReason BudgetTripped = support::BudgetReason::None;
};

/// Runs the fixed point over an already-built constraint graph.
class Solver {
public:
  Solver(graph::ConstraintGraph &G, Solution &Sol,
         const layout::LayoutRegistry &Layouts,
         const android::AndroidModel &AM, const AnalysisOptions &Options,
         DiagnosticEngine &Diags)
      : G(G), Sol(Sol), Layouts(Layouts), AM(AM), Options(Options),
        Diags(Diags) {}

  SolverStats solve();

  /// Re-derives after a delete-and-rederive retraction
  /// (docs/INCREMENTAL.md). \p Touched lists the nodes whose flowsTo sets
  /// the closure shrank; their surviving values were already marked
  /// all-delta by FlowSet::eraseValues. Re-registers op uses (skipping
  /// dead sites), re-seeds value nodes (skipping retired ones), pulls
  /// every flow predecessor's full set into the touched nodes — committed
  /// values never re-propagate on their own — and runs the normal fixpoint
  /// to quiescence, reaching the same least fixed point as a from-scratch
  /// solve over the edited graph.
  SolverStats resolveIncremental(const std::vector<graph::NodeId> &Touched);

  /// Memo hygiene for the retraction closure (docs/INCREMENTAL.md): the
  /// (op index, node) keyed memos must drop entries whose op died, whose
  /// layout was edited, or whose wired value lost its reaching fact, or a
  /// later re-solve would skip re-inflating / re-wiring. Over-forgetting
  /// is safe — the rules re-fire idempotently.
  void forgetOpMemos(uint32_t OpIndex);
  void forgetLayoutMemos(graph::NodeId LayoutIdNode);
  void forgetWiredValue(graph::NodeId Value);
  /// Drops exactly one inflation memo entry — for a minted subtree the
  /// closure retired while its op and layout both survive. (Dropping the
  /// op's or layout's whole memo row would re-mint duplicates of subtrees
  /// that did survive.)
  void forgetInflation(uint32_t OpIndex, graph::NodeId Low) {
    InflatedAt.erase((static_cast<uint64_t>(OpIndex) << 32) | Low);
  }

  /// Attaches a derivation recorder (docs/OBSERVABILITY.md). Null (the
  /// default) disables recording; non-null makes every committed flowsTo
  /// fact and relationship edge carry its producing rule and premises.
  /// The recorder must outlive the solver.
  void setProvenance(ProvenanceRecorder *P) { Prov = P; }

private:
  using NodeId = graph::NodeId;
  using FactId = ProvenanceRecorder::FactId;

  void seedValueNodes();
  void registerOpUses();

  /// The shared worklist loop: drains values/ops with budget checkpoints,
  /// runs batched structure rounds, and collects final telemetry. solve()
  /// and resolveIncremental() differ only in how they seed it.
  SolverStats runFixpoint();

  /// Inserts \p Value into node \p N's set; enqueues propagation and
  /// dependent ops when the set grew.
  void addValue(NodeId N, NodeId Value);

  /// Declared-type filtering (AnalysisOptions::DeclaredTypeFilter): false
  /// when \p Value is a class-bearing value cast-incompatible with node
  /// \p N's declared type.
  bool typeCompatible(NodeId N, NodeId Value) const;

  void propagate(NodeId N);
  void fireOp(size_t OpIndex);

  void fireInflate(OpSite &Op);
  void fireAddView1(OpSite &Op);
  void fireAddView2(OpSite &Op);
  void fireSetId(OpSite &Op);
  void fireSetListener(OpSite &Op);
  void fireFindView(OpSite &Op);
  void fireFragmentAdd(size_t OpIndex);
  void fireSetAdapter(size_t OpIndex);

  /// Inflates the layout with id node \p LayoutIdNode at site \p OpIndex
  /// (memoized); returns the root view node or InvalidNode.
  NodeId inflateAt(size_t OpIndex, NodeId LayoutIdNode);

  /// Wires the implicit handler callback `y.n(x)` for a new (view,
  /// listener) association (Section 3.2, "Effects of callbacks"), and
  /// for an existing one while RewireCallbacks is set.
  void wireListenerCallback(NodeId View, NodeId ListenerValue,
                            const android::ListenerSpec &Spec);

  /// Models `android:onClick="name"` attributes: every view carrying the
  /// attribute inside some window's hierarchy gets the window value as a
  /// click listener, with the named activity method as handler. Runs when
  /// the hierarchy structure has grown.
  void sweepXmlOnClickHandlers();

  void noteStructureChange();
  void enqueueOp(size_t OpIndex);

  graph::ConstraintGraph &G;
  Solution &Sol;
  const layout::LayoutRegistry &Layouts;
  const android::AndroidModel &AM;
  const AnalysisOptions &Options;
  DiagnosticEngine &Diags;

  std::deque<NodeId> VarWorklist;
  /// Worklist marks, indexed like the solution's populated flowsTo sets
  /// (FlowSetTable::indexOf): only a node holding a value is ever queued.
  std::vector<bool> InVarWorklist;
  /// InVarWorklist's entry for set \p SetIndex, grown on demand.
  std::vector<bool>::reference queuedMark(uint32_t SetIndex) {
    if (SetIndex >= InVarWorklist.size())
      InVarWorklist.resize(Sol.flowsToSets().size(), false);
    return InVarWorklist[SetIndex];
  }

  /// Scratch buffer for propagate(): the values being pushed must be
  /// copied out (addValue may grow the set vector), but the buffer itself
  /// is reused across visits to avoid one allocation per worklist pop.
  std::vector<NodeId> PropScratch;

  /// android.view.View / android.view.ViewGroup, resolved once per solve
  /// (inflateAt needs them per minted subtree).
  const ir::ClassDecl *ViewBaseClass = nullptr;
  const ir::ClassDecl *GroupBaseClass = nullptr;

  std::deque<size_t> OpWorklist;
  std::vector<bool> InOpWorklist;

  /// Registers \p OpIndex as a consumer of node \p N's set (deduplicated:
  /// aliased roles enqueue an op once per value arrival).
  void addOpUse(NodeId N, size_t OpIndex);

  /// Op indices depending on a node's set, kept for op-role nodes only
  /// (docs/MEMORY.md, "Per-node bytes"): OpUseHead maps a role node to its
  /// first link, and each link chains to the next op in registration
  /// order.
  struct OpUseLink {
    uint32_t Op;
    uint32_t Next;
  };
  static constexpr uint32_t NoLink = ~0u;
  support::FlatIdMap<uint32_t> OpUseHead;
  std::vector<OpUseLink> OpUseLinks;

  /// Ops to re-fire on hierarchy/id/root structure growth.
  std::vector<size_t> StructureSensitiveOps;

  /// (op index, layout-id node) -> inflated root.
  std::unordered_map<uint64_t, NodeId> InflatedAt;

  /// (FragmentAdd op index, fragment value) pairs whose onCreateView
  /// callback is already wired.
  std::unordered_set<uint64_t> FragmentWired;

  SolverStats Stats;
  /// Set by structure growth; triggers the XML onClick sweep when the
  /// worklists drain.
  bool StructureDirty = false;
  /// Set only during resolveIncremental()'s fixpoint: the listener rules
  /// re-wire the callback of every (view, listener) pair they see, not
  /// just of new edges. A retraction can kill a callback fact whose
  /// recorded derivation cited another listener edge while the pair's own
  /// edge survives, so "edge already present" no longer implies "callback
  /// wired" (docs/INCREMENTAL.md).
  bool RewireCallbacks = false;

  /// Derivation recorder; null when provenance is off. Recording sites
  /// stage the producing rule and premises in PRule/PPrem before calling
  /// addValue (only when Prov is non-null, so the staging itself is
  /// behind the same null check as the recording).
  ProvenanceRecorder *Prov = nullptr;
  DerivRule PRule = DerivRule::External;
  FactId PPrem[3] = {ProvenanceRecorder::NoFact, ProvenanceRecorder::NoFact,
                     ProvenanceRecorder::NoFact};

  /// Stages the provenance context for subsequent addValue calls. No-op
  /// (after one predicted branch) when provenance is off.
  void provCtx(DerivRule Rule, FactId P0 = ProvenanceRecorder::NoFact,
               FactId P1 = ProvenanceRecorder::NoFact,
               FactId P2 = ProvenanceRecorder::NoFact) {
    if (!Prov)
      return;
    PRule = Rule;
    PPrem[0] = P0;
    PPrem[1] = P1;
    PPrem[2] = P2;
  }
  /// Records a relationship edge's derivation when provenance is on.
  void provEdge(FactKind Kind, NodeId From, NodeId To, DerivRule Rule,
                FactId P0 = ProvenanceRecorder::NoFact,
                FactId P1 = ProvenanceRecorder::NoFact) {
    if (Prov)
      Prov->recordEdge(Kind, From, To, Rule, P0, P1);
  }
  /// Records a solver-added flow edge From -> To as a FlowLink fact: IDB
  /// graph structure (listener-callback, xml-handler, fragment/adapter
  /// wiring) the retraction closure must physically remove when its
  /// premise dies (docs/INCREMENTAL.md).
  void provLink(NodeId From, NodeId To, DerivRule Rule,
                FactId P0 = ProvenanceRecorder::NoFact) {
    if (Prov)
      Prov->recordEdge(FactKind::FlowLink, From, To, Rule, P0);
  }
  /// flowFact lookup that is safe when provenance is off.
  FactId provFlow(NodeId Target, NodeId Value) const {
    return Prov ? Prov->flowFact(Target, Value) : ProvenanceRecorder::NoFact;
  }
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_SOLVER_H
