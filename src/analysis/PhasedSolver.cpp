//===- PhasedSolver.cpp - The paper's literal 3-phase pipeline --*- C++ -*-===//

#include "analysis/PhasedSolver.h"

#include "hier/ClassHierarchy.h"
#include "support/Budget.h"
#include "support/Check.h"
#include "support/Trace.h"

#include <unordered_map>
#include <unordered_set>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;
using namespace gator::ir;

namespace {

/// Per-phase statistics, reported as trace span arguments.
struct PhasedStats {
  unsigned long ReachabilitySteps = 0;
  unsigned long Inflations = 0;
  unsigned long PropagationRounds = 0;
};

/// Round-based (sweep-to-fixpoint) solver engine — deliberately a
/// different evaluation strategy from Solver.h's fine-grained worklist,
/// so the differential tests exercise two independent engines.
class PhasedEngine {
public:
  PhasedEngine(ConstraintGraph &G, Solution &Sol,
               const layout::LayoutRegistry &Layouts, const AndroidModel &AM,
               const AnalysisOptions &Options, DiagnosticEngine &Diags)
      : G(G), Sol(Sol), Layouts(Layouts), AM(AM), Options(Options),
        Diags(Diags), Tracker(Options.Budget) {}

  PhasedStats run() {
    seed();
    {
      support::TraceSpan S(Options.Trace, "phased.reachability");
      phaseReachability();
      S.arg("steps", Stats.ReachabilitySteps);
    }
    if (!Tracker.exhausted()) {
      support::TraceSpan S(Options.Trace, "phased.inflation");
      phaseInflation();
      S.arg("inflations", Stats.Inflations);
    }
    if (!Tracker.exhausted()) {
      support::TraceSpan S(Options.Trace, "phased.propagation");
      phasePropagation();
      S.arg("rounds", Stats.PropagationRounds);
    }
    if (Tracker.exhausted()) {
      // Round-based evaluation has no per-op settled/pending distinction,
      // so every op site is conservatively recorded as unresolved.
      for (size_t I = 0, E = Sol.opSites().size(); I < E; ++I)
        Sol.noteUnresolvedOp(static_cast<uint32_t>(I));
      Sol.markTruncated(Tracker.reason());
      Diags.warning(std::string("solver budget exhausted (") +
                    support::budgetReasonName(Tracker.reason()) +
                    "); solution is a partial under-approximation");
    }
    return Stats;
  }

private:
  bool typeCompatible(NodeId N, NodeId Value) const {
    if (!Options.DeclaredTypeFilter)
      return true;
    const Node &Target = G.node(N);
    const ir::Program &P = AM.program();
    const ClassDecl *DeclType = nullptr;
    if (Target.Kind == NodeKind::Var) {
      ir::Name T = Target.Method->var(Target.Var).TypeName;
      if (T.empty() || isPrimitiveTypeName(T))
        return true;
      DeclType = P.findClass(T);
    } else if (Target.Kind == NodeKind::Field) {
      ir::Name T = Target.Field->typeName();
      if (T.empty() || isPrimitiveTypeName(T))
        return true;
      DeclType = P.findClass(T);
    } else {
      return true;
    }
    if (!DeclType || DeclType->name() == ObjectClassName)
      return true;
    const Node &Val = G.node(Value);
    switch (Val.Kind) {
    case NodeKind::Alloc:
    case NodeKind::ViewAlloc:
    case NodeKind::ViewInfl:
    case NodeKind::Activity:
      break;
    default:
      return true;
    }
    if (!Val.Klass)
      return true;
    return P.isSubtypeOf(Val.Klass, DeclType) ||
           P.isSubtypeOf(DeclType, Val.Klass);
  }

  bool insert(NodeId N, NodeId Value) {
    if (N == InvalidNode || !typeCompatible(N, Value))
      return false;
    return Sol.flowsToSets().getOrCreate(N).insert(Sol.setArena(), Value);
  }

  void seed() {
    for (NodeId Id = 0; Id < G.size(); ++Id)
      if (isValueNodeKind(G.node(Id).Kind))
        insert(Id, Id);
  }

  /// One full sweep over all flow edges; returns whether anything grew.
  /// \p ViewsToo controls whether view values move (phase R excludes
  /// them, matching the paper's "relationships that do not depend on
  /// operation nodes").
  bool sweepFlowEdges(bool ViewsToo) {
    bool Changed = false;
    for (NodeId N = 0; N < G.size(); ++N) {
      if (G.node(N).Kind == NodeKind::Op)
        continue;
      const FlowSet *S = Sol.flowsToSets().find(N);
      if (!S || S->empty())
        continue;
      if (!Tracker.charge())
        return Changed;
      std::vector<NodeId> Values(S->begin(), S->end());
      for (NodeId Succ : G.flowSuccessors(N)) {
        if (G.node(Succ).Kind == NodeKind::Op)
          continue;
        for (NodeId V : Values) {
          if (!ViewsToo && isViewNodeKind(G.node(V).Kind))
            continue;
          Changed |= insert(Succ, V);
        }
      }
    }
    return Changed;
  }

  void phaseReachability() {
    while (!Tracker.exhausted() && sweepFlowEdges(/*ViewsToo=*/false))
      ++Stats.ReachabilitySteps;
  }

  //===--------------------------------------------------------------------===//
  // Phase I: inflation
  //===--------------------------------------------------------------------===//

  NodeId inflate(const OpSite &Op, size_t OpIndex, NodeId LayoutIdNode) {
    uint64_t Key = (static_cast<uint64_t>(Op.OpNode) << 32) | LayoutIdNode;
    auto It = Minted.find(Key);
    if (It != Minted.end())
      return It->second;

    const layout::LayoutDef *Def =
        Layouts.findById(G.node(LayoutIdNode).Res);
    if (!Def) {
      Diags.warning(G.loc(Op.OpNode),
                    "inflation of unknown layout id; site skipped");
      Minted.emplace(Key, InvalidNode);
      return InvalidNode;
    }

    // Mirrors Solver::inflateAt's degenerate-layout handling so both
    // engines stay differentially equivalent on degraded input.
    const layout::LayoutNode *RootDef = Def->root();
    bool EmptyMerge = RootDef && RootDef->viewClassName().empty() &&
                      RootDef->children().empty();
    if (!GATOR_CHECK(RootDef != nullptr, &Diags,
                     "layout definition with no root node; site skipped") ||
        EmptyMerge) {
      if (EmptyMerge)
        Diags.warning(G.loc(Op.OpNode),
                      "layout '" + Def->name() +
                          "' is an empty <merge/> with no inflatable root; "
                          "site skipped");
      Sol.markDegraded();
      Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
      Minted.emplace(Key, InvalidNode);
      return InvalidNode;
    }
    ++Stats.Inflations;

    const ClassDecl *ViewBase = AM.program().findClass(names::View);
    const ClassDecl *GroupBase = AM.program().findClass(names::ViewGroup);

    // Recursive tree construction (vs. the fused solver's explicit stack).
    auto Build = [&](auto &&Self, const layout::LayoutNode &LNode)
        -> NodeId {
      const ClassDecl *Klass =
          LNode.viewClassName().empty()
              ? GroupBase
              : AM.resolveLayoutClassName(LNode.viewClassName());
      if (!Klass) {
        Diags.warning(LNode.loc(),
                      "unknown view class '" + LNode.viewClassName() +
                          "' in layout '" + Def->name() +
                          "'; modeled as android.view.View");
        Klass = ViewBase;
      }
      NodeId ViewNode = G.makeViewInflNode(Klass, &LNode, Op.OpNode);
      insert(ViewNode, ViewNode);
      if (LNode.hasViewId()) {
        layout::ResourceId VId =
            Layouts.resources().lookupViewId(LNode.viewIdName());
        if (VId != layout::InvalidResourceId)
          G.addHasIdEdge(ViewNode, G.getViewIdNode(VId));
      }
      for (const auto &Child : LNode.children())
        G.addParentChildEdge(ViewNode, Self(Self, *Child));
      return ViewNode;
    };

    NodeId Root = Build(Build, *RootDef);
    G.addRootsLayoutEdge(Root, LayoutIdNode);
    Minted.emplace(Key, Root);
    return Root;
  }

  bool fireInflate(const OpSite &Op, size_t OpIndex) {
    bool Changed = false;
    for (NodeId IdVal : Sol.valuesAt(Op.IdArg)) {
      if (G.node(IdVal).Kind != NodeKind::LayoutId)
        continue;
      size_t Before = Minted.size();
      NodeId Root = inflate(Op, OpIndex, IdVal);
      Changed |= Minted.size() != Before;
      if (Root == InvalidNode)
        continue;
      if (Op.Spec.Kind == OpKind::Inflate1) {
        Changed |= insert(Op.Out, Root);
        if (Op.AttachParent != InvalidNode)
          for (NodeId P : Sol.viewsAt(Op.AttachParent))
            Changed |= G.addParentChildEdge(P, Root);
      } else {
        for (NodeId W : Sol.valuesAt(Op.Recv)) {
          NodeKind K = G.node(W).Kind;
          if (K == NodeKind::Activity || K == NodeKind::Alloc)
            Changed |= G.addRootEdge(W, Root);
        }
      }
    }

    // Unknown-source ids: mirror Solver::fireInflate's tagged unknown root
    // per (site, id) so both engines agree on degraded apps
    // (docs/ROBUSTNESS.md).
    std::vector<NodeId> UnknownIds;
    for (NodeId IdVal : Sol.valuesAt(Op.IdArg))
      if (G.node(IdVal).Kind == NodeKind::UnknownId)
        UnknownIds.push_back(IdVal);
    for (NodeId U : UnknownIds) {
      uint64_t Key = (static_cast<uint64_t>(Op.OpNode) << 32) | U;
      auto It = Minted.find(Key);
      NodeId Root;
      if (It != Minted.end()) {
        Root = It->second;
      } else {
        Root = G.makeUnknownViewNode(G.node(U).Unknown, Op.Method,
                                     G.loc(Op.OpNode), Op.OpNode);
        Minted.emplace(Key, Root);
        insert(Root, Root);
        G.addRootsLayoutEdge(Root, U);
        Sol.markDegraded();
        Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
        Changed = true;
      }
      if (Op.Spec.Kind == OpKind::Inflate1) {
        Changed |= insert(Op.Out, Root);
        if (Op.AttachParent != InvalidNode)
          for (NodeId P : Sol.viewsAt(Op.AttachParent))
            Changed |= G.addParentChildEdge(P, Root);
      } else {
        for (NodeId W : Sol.valuesAt(Op.Recv)) {
          NodeKind K = G.node(W).Kind;
          if (K == NodeKind::Activity || K == NodeKind::Alloc)
            Changed |= G.addRootEdge(W, Root);
        }
      }
    }
    return Changed;
  }

  void phaseInflation() {
    const auto &Ops = Sol.opSites();
    for (size_t I = 0, E = Ops.size(); I < E; ++I) {
      const OpSite &Op = Ops[I];
      if (Op.Spec.Kind != OpKind::Inflate1 && Op.Spec.Kind != OpKind::Inflate2)
        continue;
      if (!Tracker.charge())
        break;
      fireInflate(Op, I);
    }
  }

  //===--------------------------------------------------------------------===//
  // Phase P: view propagation + operation rules to a global fixed point
  //===--------------------------------------------------------------------===//

  /// Independent FindView evaluation (the fused solver shares
  /// Solution::resultsOf; this one re-derives the rule).
  bool fireFindView(const OpSite &Op) {
    if (Op.Out == InvalidNode)
      return false;

    std::vector<NodeId> Under;
    if (Op.Spec.Kind == OpKind::FindView2) {
      for (NodeId W : Sol.valuesAt(Op.Recv))
        for (NodeId Root : G.roots(W))
          Under.push_back(Root);
    } else {
      Under = Sol.viewsAt(Op.Recv);
    }

    std::vector<NodeId> Candidates;
    if (!Options.TrackHierarchy) {
      for (NodeId V = 0; V < G.size(); ++V)
        if (isViewNodeKind(G.node(V).Kind))
          Candidates.push_back(V);
    } else if (Op.Spec.Kind == OpKind::FindView3 && Op.Spec.ChildOnly &&
               Options.FindView3ChildOnly) {
      for (NodeId Root : Under)
        for (NodeId C : G.children(Root))
          Candidates.push_back(C);
    } else {
      for (NodeId Root : Under)
        for (NodeId D : G.descendantsOf(Root))
          Candidates.push_back(D);
    }

    bool Changed = false;
    bool Filter = Options.TrackViewIds &&
                  (Op.Spec.Kind == OpKind::FindView1 ||
                   Op.Spec.Kind == OpKind::FindView2);
    // Unknown-source handling mirrors Solution::resultsOf so the two
    // engines agree on degraded apps (docs/ROBUSTNESS.md); gated on the
    // graph actually holding unknown nodes so clean inputs pay nothing.
    bool HaveUnknown = G.hasUnknownSources();
    if (Filter) {
      std::unordered_set<NodeId> Wanted;
      NodeId UnknownIdAtArg = InvalidNode;
      for (NodeId IdVal : Sol.valuesAt(Op.IdArg)) {
        if (G.node(IdVal).Kind == NodeKind::ViewId)
          Wanted.insert(IdVal);
        else if (HaveUnknown && G.node(IdVal).Kind == NodeKind::UnknownId &&
                 UnknownIdAtArg == InvalidNode)
          UnknownIdAtArg = IdVal;
      }
      for (NodeId Cand : Candidates)
        for (NodeId IdNode : G.viewIds(Cand))
          if (Wanted.count(IdNode))
            Changed |= insert(Op.Out, Cand);
      if (UnknownIdAtArg != InvalidNode) {
        // A non-constant id makes every candidate a sound match, capped
        // by the deterministic fanout budget (first N of the sorted
        // candidate universe, like Solution::resultsOf::appendCapped).
        Sol.markDegraded();
        Sol.noteUnresolvedOp(
            static_cast<uint32_t>(&Op - Sol.opSites().data()));
        std::vector<NodeId> Universe = Candidates;
        std::sort(Universe.begin(), Universe.end());
        Universe.erase(std::unique(Universe.begin(), Universe.end()),
                       Universe.end());
        size_t N = Options.UnknownFanoutBudget
                       ? std::min<size_t>(Universe.size(),
                                          Options.UnknownFanoutBudget)
                       : Universe.size();
        for (size_t I = 0; I < N; ++I)
          Changed |= insert(Op.Out, Universe[I]);
      } else if (HaveUnknown) {
        // A view carrying an unknown id may match any constant lookup,
        // and an unknown view matches any lookup it reaches.
        for (NodeId Cand : Candidates) {
          bool Match = G.node(Cand).Kind == NodeKind::UnknownView;
          if (!Match)
            for (NodeId IdNode : G.viewIds(Cand))
              if (G.node(IdNode).Kind == NodeKind::UnknownId) {
                Match = true;
                break;
              }
          if (Match)
            Changed |= insert(Op.Out, Cand);
        }
      }
    } else {
      for (NodeId Cand : Candidates)
        Changed |= insert(Op.Out, Cand);
    }
    return Changed;
  }

  /// The callback y.n(x) of a new (view, listener) association.
  void wireHandler(NodeId View, NodeId ListenerValue,
                   const ListenerSpec &Spec) {
    const ClassDecl *LClass = G.node(ListenerValue).Klass;
    if (!LClass || LClass->isPlatform())
      return;
    for (const HandlerSig &Sig : Spec.Handlers) {
      const MethodDecl *Handler =
          hier::ClassHierarchy::dispatch(LClass, Sig.MethodName, Sig.Arity);
      if (!Handler || Handler->owner()->isPlatform())
        continue;
      NodeId ThisNode = G.getVarNode(Handler, Handler->thisVar());
      G.addFlowEdge(ListenerValue, ThisNode);
      insert(ThisNode, ListenerValue);
      if (Sig.ViewParamIndex >= 0 &&
          static_cast<unsigned>(Sig.ViewParamIndex) < Handler->paramCount())
        insert(G.getVarNode(Handler,
                            Handler->paramVar(
                                static_cast<unsigned>(Sig.ViewParamIndex))),
               View);
    }
  }

  bool fireOp(size_t OpIndex) {
    const OpSite &Op = Sol.opSites()[OpIndex];
    switch (Op.Spec.Kind) {
    case OpKind::Inflate1:
    case OpKind::Inflate2:
      return fireInflate(Op, OpIndex);
    case OpKind::AddView1: {
      bool Changed = false;
      for (NodeId W : Sol.valuesAt(Op.Recv)) {
        NodeKind K = G.node(W).Kind;
        if (K != NodeKind::Activity && K != NodeKind::Alloc)
          continue;
        for (NodeId V : Sol.viewsAt(Op.ValArg))
          Changed |= G.addRootEdge(W, V);
      }
      return Changed;
    }
    case OpKind::AddView2: {
      bool Changed = false;
      for (NodeId P : Sol.viewsAt(Op.Recv))
        for (NodeId C : Sol.viewsAt(Op.ValArg))
          Changed |= G.addParentChildEdge(P, C);
      return Changed;
    }
    case OpKind::SetId: {
      bool Changed = false;
      for (NodeId V : Sol.viewsAt(Op.Recv))
        for (NodeId IdVal : Sol.valuesAt(Op.IdArg)) {
          NodeKind K = G.node(IdVal).Kind;
          if (K == NodeKind::ViewId || K == NodeKind::UnknownId)
            Changed |= G.addHasIdEdge(V, IdVal);
        }
      return Changed;
    }
    case OpKind::SetListener: {
      if (!GATOR_CHECK(Op.Spec.Listener != nullptr, &Diags,
                       "set-listener op without listener spec; site skipped")) {
        Sol.markDegraded();
        Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
        return false;
      }
      bool Changed = false;
      for (NodeId V : Sol.viewsAt(Op.Recv))
        for (NodeId L : Sol.listenerValuesAt(Op.ValArg))
          if (G.addListenerEdge(V, L)) {
            Changed = true;
            wireHandler(V, L, *Op.Spec.Listener);
          }
      return Changed;
    }
    case OpKind::FindView1:
    case OpKind::FindView2:
    case OpKind::FindView3:
      return fireFindView(Op);
    case OpKind::FragmentAdd:
      return fireFragmentAdd(Op);
    case OpKind::SetAdapter:
      return fireSetAdapter(Op);
    case OpKind::StartActivity:
    case OpKind::SetIntentClass:
      return false;
    }
    return false;
  }

  bool fireFragmentAdd(const OpSite &Op) {
    bool Changed = false;
    std::vector<NodeId> FragmentRoots;
    for (NodeId F : Sol.valuesAt(Op.ValArg)) {
      if (G.node(F).Kind != NodeKind::Alloc)
        continue;
      const ClassDecl *FClass = G.node(F).Klass;
      const MethodDecl *Factory =
          FClass ? hier::ClassHierarchy::dispatch(FClass, "onCreateView", 1)
                 : nullptr;
      if (!Factory || Factory->owner()->isPlatform())
        continue;
      NodeId ThisNode = G.getVarNode(Factory, Factory->thisVar());
      Changed |= G.addFlowEdge(F, ThisNode);
      Changed |= insert(ThisNode, F);
      for (const Stmt &Ret : Factory->body())
        if (Ret.Kind == StmtKind::Return && Ret.Lhs != InvalidVar)
          for (NodeId V : Sol.viewsAt(G.getVarNode(Factory, Ret.Lhs)))
            FragmentRoots.push_back(V);
    }
    if (FragmentRoots.empty())
      return Changed;
    std::unordered_set<NodeId> Wanted;
    for (NodeId IdVal : Sol.valuesAt(Op.IdArg))
      if (G.node(IdVal).Kind == NodeKind::ViewId)
        Wanted.insert(IdVal);
    for (NodeId Container = 0; Container < G.size(); ++Container) {
      if (!isViewNodeKind(G.node(Container).Kind))
        continue;
      bool Matches = false;
      for (NodeId IdNode : G.viewIds(Container))
        if (Wanted.count(IdNode))
          Matches = true;
      if (!Matches)
        continue;
      for (NodeId Root : FragmentRoots)
        Changed |= G.addParentChildEdge(Container, Root);
    }
    return Changed;
  }

  bool fireSetAdapter(const OpSite &Op) {
    bool Changed = false;
    for (NodeId A : Sol.valuesAt(Op.ValArg)) {
      if (G.node(A).Kind != NodeKind::Alloc)
        continue;
      const ClassDecl *AClass = G.node(A).Klass;
      const MethodDecl *Factory =
          AClass ? hier::ClassHierarchy::dispatch(AClass, "getView", 1)
                 : nullptr;
      if (!Factory || Factory->owner()->isPlatform())
        continue;
      NodeId ThisNode = G.getVarNode(Factory, Factory->thisVar());
      Changed |= G.addFlowEdge(A, ThisNode);
      Changed |= insert(ThisNode, A);
      for (const Stmt &Ret : Factory->body()) {
        if (Ret.Kind != StmtKind::Return || Ret.Lhs == InvalidVar)
          continue;
        for (NodeId Item : Sol.viewsAt(G.getVarNode(Factory, Ret.Lhs)))
          for (NodeId ListView : Sol.viewsAt(Op.Recv))
            Changed |= G.addParentChildEdge(ListView, Item);
      }
    }
    return Changed;
  }

  bool sweepXmlOnClick() {
    bool Changed = false;
    for (NodeId Holder : G.rootHolders()) {
      const ClassDecl *HolderClass = G.node(Holder).Klass;
      for (NodeId Root : G.roots(Holder))
        for (NodeId V : G.descendantsOf(Root)) {
          const Node &ViewNode = G.node(V);
          if (ViewNode.Kind != NodeKind::ViewInfl || !ViewNode.LNode ||
              !ViewNode.LNode->hasOnClickHandler())
            continue;
          if (!G.addListenerEdge(V, Holder))
            continue;
          Changed = true;
          if (!HolderClass || HolderClass->isPlatform())
            continue;
          const MethodDecl *Handler = hier::ClassHierarchy::dispatch(
              HolderClass, ViewNode.LNode->onClickHandlerName(), 1);
          if (!Handler || Handler->owner()->isPlatform()) {
            Diags.warning(ViewNode.LNode->loc(),
                          "android:onClick handler '" +
                              ViewNode.LNode->onClickHandlerName() +
                              "' not found on class '" +
                              (HolderClass ? HolderClass->name().str()
                                           : std::string("?")) +
                              "'");
            continue;
          }
          NodeId ThisNode = G.getVarNode(Handler, Handler->thisVar());
          G.addFlowEdge(Holder, ThisNode);
          Changed |= insert(ThisNode, Holder);
          Changed |= insert(G.getVarNode(Handler, Handler->paramVar(0)), V);
        }
    }
    return Changed;
  }

  void phasePropagation() {
    bool Changed = true;
    while (Changed) {
      if (!Tracker.checkpoint(G.size(), G.flowEdgeCount() +
                                            G.parentChildEdgeCount()))
        break;
      ++Stats.PropagationRounds;
      Changed = false;
      while (sweepFlowEdges(/*ViewsToo=*/true))
        Changed = true;
      for (size_t I = 0, E = Sol.opSites().size(); I < E; ++I) {
        if (!Tracker.charge())
          break;
        Changed |= fireOp(I);
      }
      Changed |= sweepXmlOnClick();
      if (Tracker.exhausted())
        break;
    }
  }

  ConstraintGraph &G;
  Solution &Sol;
  const layout::LayoutRegistry &Layouts;
  const AndroidModel &AM;
  const AnalysisOptions &Options;
  DiagnosticEngine &Diags;
  support::BudgetTracker Tracker;
  std::unordered_map<uint64_t, NodeId> Minted;
  PhasedStats Stats;
};

} // namespace

std::unique_ptr<AnalysisResult> gator::analysis::runPhasedAnalysis(
    const ir::Program &P, layout::LayoutRegistry &Layouts,
    const AndroidModel &AM, const AnalysisOptions &Options,
    DiagnosticEngine &Diags) {
  return GuiAnalysis::runWith(P, Layouts, AM, Options, Diags,
                              [&](AnalysisResult &R) {
                                // This engine records no derivations.
                                R.Provenance.reset();
                                PhasedEngine(*R.Graph, *R.Sol, Layouts, AM,
                                             R.Options, Diags)
                                    .run();
                              });
}
