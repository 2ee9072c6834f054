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
#include <utility>
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
  unsigned long StructureRefires = 0; ///< ops the structure rounds enqueued
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

/// What a delete-and-rederive retraction left for the re-derive pass to
/// redo (docs/INCREMENTAL.md, step 4). Everything here is edit-scale.
struct RederiveFrontier {
  /// (node, value) flowsTo facts the closure deleted at surviving nodes,
  /// sorted. A flow predecessor that still holds the value gives it back.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> Lost;
  /// Nodes whose ops (as a role or as the output) re-fire: every node in
  /// Lost, and every node holding the source value of a relationship or
  /// solver-added edge the closure deleted between surviving nodes, since
  /// any op reading such a node may derive the edge again.
  std::vector<graph::NodeId> OpInputs;
  /// Flow edges the edit added; the source's whole set crosses each.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> NewEdges;
  /// Op nodes of the inflation sites whose minted views the closure
  /// retired.
  std::vector<graph::NodeId> ShrunkSites;
  /// Ops that re-fire whatever their inputs: new or resurrected sites, and
  /// sites whose inflation memos a layout edit dropped.
  std::vector<uint32_t> Ops;
  /// (view, listener) edges that survived while callback facts they imply
  /// died: the closure killed a fact whose recorded derivation cited
  /// another edge.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> Rewire;
  /// The ids of the containers of FragmentAdd child edges the closure
  /// deleted between surviving nodes, sorted. The op reads its containers
  /// through the id edges, not through a role, so the structure round
  /// fires the ops whose id argument holds one of these ids.
  std::vector<graph::NodeId> ChangedIds;
  /// A hierarchy, id, root or layout-root edge died, so the
  /// android:onClick sweep runs once. The structure round fires only the
  /// ops that ChangedIds and the re-derive's own structure growth reach.
  bool StructureRetracted = false;
  /// A factory method's return statements changed, so every FragmentAdd
  /// and SetAdapter op re-fires.
  bool FactoriesChanged = false;
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
  /// (docs/INCREMENTAL.md) from the closure's frontier \p F alone:
  /// registers the ops the rebuild appended and seeds the value nodes it
  /// created, gives each lost value back from a flow predecessor that
  /// still holds it (committed values never re-propagate on their own;
  /// the provenance recorder names the holders, so no reverse adjacency
  /// is kept), pushes each new edge's source set across it, re-wires the
  /// frontier callbacks, re-fires the frontier ops (and every FragmentAdd
  /// and SetAdapter op when a factory's returns changed), dropping their
  /// unresolved-op markers first so each still unresolved site notes
  /// itself again, and runs the normal fixpoint to quiescence. A structure
  /// round runs only when a structure edge died or grew, and it fires only
  /// the structure-sensitive ops that the frontier's changed ids and the
  /// structure placed since the last round can reach (see
  /// enqueueStructureOps). The result is the least fixed point a
  /// from-scratch solve over the edited graph reaches. Needs the recorder
  /// (setProvenance) that the closure walked.
  SolverStats resolveIncremental(const RederiveFrontier &F);

  /// The framework callbacks whose returned views FragmentAdd and
  /// SetAdapter attach (one parameter each). The solver reads their return
  /// statements directly, with no graph edge.
  static constexpr const char *FragmentFactory = "onCreateView";
  static constexpr const char *AdapterFactory = "getView";

  /// The inflation memos of one layout: the sites, sorted, and the root
  /// each minted there (InvalidNode for a failed inflation).
  struct LayoutMemos {
    std::vector<uint32_t> Sites;
    std::vector<graph::NodeId> Roots;
  };
  /// Drops the inflation memos of the layout with id node \p LayoutIdNode
  /// and returns them. The other memo hits validate themselves against the
  /// graph (a retired root, a removed factory link), but a failed
  /// inflation is memoized as InvalidNode, and only an edit of its layout
  /// can make it succeed. Finds them through a per-layout index, built on
  /// the first call, so an edit does not scan every memo.
  LayoutMemos forgetLayoutMemos(graph::NodeId LayoutIdNode);

  /// Attaches a derivation recorder (docs/OBSERVABILITY.md). Null (the
  /// default) disables recording; non-null makes every committed flowsTo
  /// fact and relationship edge carry its producing rule and premises.
  /// The recorder must outlive the solver.
  void setProvenance(ProvenanceRecorder *P) { Prov = P; }

private:
  using NodeId = graph::NodeId;
  using FactId = ProvenanceRecorder::FactId;

  /// Seeds every value node from \p From up (all of them by default).
  void seedValueNodes(graph::NodeId From = 0);
  void registerOpUses();
  /// registerOpUses' step for one live op: its role uses and, for a
  /// structure-sensitive kind, its structure-round entry.
  void registerOp(size_t OpIndex);

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

  /// Inflates the layout id or unknown id \p IdNode at site \p OpIndex
  /// (memoized per pair); returns the root view node or InvalidNode. A
  /// memoized root that a retraction retired counts as a miss.
  NodeId inflateAt(size_t OpIndex, NodeId IdNode);
  /// The two minting steps behind inflateAt: a fresh ViewInfl subtree for
  /// a layout id, one tagged unknown root for an unknown id.
  NodeId mintLayout(size_t OpIndex, NodeId LayoutIdNode);
  NodeId mintUnknownRoot(size_t OpIndex, NodeId UnknownIdNode);

  /// The framework-callback step shared by FragmentAdd and SetAdapter:
  /// for each allocation reaching the op's value argument, dispatches
  /// \p FactoryName/1, registers the op on the factory's return
  /// variables, and wires the value into the factory's `this` (memoized
  /// per (op, value)). Returns the return-variable nodes, in value order.
  std::vector<NodeId> wireFactories(size_t OpIndex, const char *FactoryName,
                                    DerivRule Rule);

  /// Wires the implicit handler callback `y.n(x)` for a new (view,
  /// listener) association (Section 3.2, "Effects of callbacks").
  void wireListenerCallback(NodeId View, NodeId ListenerValue,
                            const android::ListenerSpec &Spec);

  /// Wires the callback of the surviving (view, listener) edge again, as
  /// the rule that added the edge did: the android:onClick handler, or
  /// the listener spec of the SetListener sites with the roles its
  /// recorded derivation cites (docs/INCREMENTAL.md).
  void rewireCallback(NodeId View, NodeId ListenerValue);

  /// The handler-wiring step shared by listener callbacks and
  /// `android:onClick`: \p Receiver flows into \p Handler's `this` over a
  /// solver-added link (a FlowLink fact citing \p ListenerFact), and
  /// \p View into its parameter \p ViewParam (-1 for none).
  void wireHandler(NodeId View, NodeId Receiver,
                   const ir::MethodDecl *Handler, int ViewParam,
                   DerivRule Rule, FactId ListenerFact);

  /// Models `android:onClick="name"` attributes: every view carrying the
  /// attribute inside some window's hierarchy gets the window value as a
  /// click listener, with the named activity method as handler. Runs when
  /// the hierarchy structure has grown.
  void sweepXmlOnClickHandlers();
  /// The android:onClick handler of view \p View in window \p Holder;
  /// \p NewEdge reports a handler that is not found.
  void wireXmlHandler(NodeId View, NodeId Holder, bool NewEdge);

  /// Structure growth: \p View is the child of a new parent-child edge or
  /// the root of a new root edge or minted subtree, or (\p View, \p Id) a
  /// new has-id edge. Each marks the structure dirty; while re-deriving it
  /// also records what it placed for the next structure round.
  void notePlaced(NodeId View);
  void noteNewId(NodeId View, NodeId Id);
  /// A structure round's op step. A scratch solve fires every
  /// structure-sensitive op. A re-derive fires only the ops the recorded
  /// growth can reach. The changed ids are the new has-id ids and the ids
  /// on the views of the placed subtrees; the reached nodes are the placed
  /// views, the views with a new id, their ancestors, and the windows
  /// holding one of these as a root. FragmentAdd fires when an id at its id
  /// argument changed, FindView1/2 when also a receiver value is reached,
  /// and FindView3 when a receiver value is reached. It fires them all
  /// when the graph holds unknown sources or TrackViewIds/TrackHierarchy is
  /// off.
  void enqueueStructureOps();
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

  /// Set by resolveIncremental(): structure growth records what it placed
  /// until the next structure round reads and clears it. A scratch solve
  /// records nothing.
  bool TrackPlaced = false;
  /// Children of new parent-child edges, roots of new root edges and of
  /// minted subtrees.
  std::vector<NodeId> Placed;
  /// (view, id) of each new has-id edge; the frontier's changed ids come
  /// with InvalidNode for the view.
  std::vector<std::pair<NodeId, NodeId>> NewIds;

  /// The re-derive pass's own indexes, built by resolveIncremental() only
  /// (a scratch solve never pays for them): op indices by output node,
  /// chained like OpUseLinks, and op index by op node. Ops below
  /// IndexedOps are indexed; ops below RegisteredOps have their uses
  /// registered. Value nodes below SeededNodes have been seeded.
  support::FlatIdMap<uint32_t> OutUseHead;
  std::vector<OpUseLink> OutUseLinks;
  support::FlatIdMap<uint32_t> OpOfSite;
  size_t IndexedOps = 0;
  size_t RegisteredOps = 0;
  NodeId SeededNodes = 0;
  /// Enqueues the ops that read or write node \p N's set.
  void enqueueOpsAt(NodeId N);

  /// (op index, layout-id or unknown-id node) -> inflated root, or
  /// InvalidNode for a failed inflation. A hit whose root is retired is
  /// stale: the retraction closure retired the subtree while the site and
  /// the id survived, so the site mints again.
  std::unordered_map<uint64_t, NodeId> InflatedAt;
  /// Layout id (or unknown id) node -> the ops holding an InflatedAt memo
  /// for it. Built by the first forgetLayoutMemos() call and kept by
  /// inflateAt() from then on; a scratch solve never builds it.
  std::unordered_map<NodeId, std::vector<uint32_t>> MemosById;
  bool MemosIndexed = false;

  /// (FragmentAdd/SetAdapter op index, value) pairs whose factory `this`
  /// is wired. A hit counts only while the value's link to the factory's
  /// `this` is still in the graph: the retraction closure removes that
  /// link when the wiring's premise dies.
  std::unordered_set<uint64_t> FactoryWired;

  SolverStats Stats;
  /// Set by structure growth; triggers the XML onClick sweep when the
  /// worklists drain.
  bool StructureDirty = false;

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
