//===- Solver.cpp - Fixed-point constraint solver ---------------*- C++ -*-===//

#include "analysis/Solver.h"

#include "support/Check.h"
#include "support/Trace.h"

#include <algorithm>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;
using namespace gator::ir;

bool Solver::typeCompatible(NodeId N, NodeId Value) const {
  if (!Options.DeclaredTypeFilter)
    return true;
  const Node &Target = G.node(N);
  const ir::Program &P = AM.program();

  const ClassDecl *DeclType = nullptr;
  if (Target.Kind == NodeKind::Var) {
    ir::Name TypeName = Target.Method->var(Target.Var).TypeName;
    if (TypeName.empty() || ir::isPrimitiveTypeName(TypeName))
      return true;
    DeclType = P.findClass(TypeName);
  } else if (Target.Kind == NodeKind::Field) {
    ir::Name TypeName = Target.Field->typeName();
    if (TypeName.empty() || ir::isPrimitiveTypeName(TypeName))
      return true;
    DeclType = P.findClass(TypeName);
  } else {
    return true;
  }
  if (!DeclType || DeclType->name() == ir::ObjectClassName)
    return true;

  const Node &Val = G.node(Value);
  const ClassDecl *ValClass = Val.Klass;
  switch (Val.Kind) {
  case NodeKind::Alloc:
  case NodeKind::ViewAlloc:
  case NodeKind::ViewInfl:
  case NodeKind::Activity:
    break; // class-bearing values are filtered
  default:
    return true; // ids / class constants are untyped integers
  }
  if (!ValClass)
    return true;
  // Cast compatibility: a value of class C can be observed through a
  // location of declared type T when C <: T (upcast/exact) or T <: C
  // (checked downcast could succeed).
  return P.isSubtypeOf(ValClass, DeclType) ||
         P.isSubtypeOf(DeclType, ValClass);
}

void Solver::addValue(NodeId N, NodeId Value) {
  if (N == InvalidNode)
    return;
  ++Stats.ValuesPushed;
  if (!typeCompatible(N, Value))
    return;
  FlowSetTable &Sets = Sol.flowsToSets();
  uint32_t SetIndex = Sets.indexFor(N);
  if (!Sets.atIndex(SetIndex).insert(Sol.setArena(), Value)) {
    ++Stats.DedupHits;
    return;
  }
  if (Prov)
    Prov->recordFlow(N, Value, PRule, PPrem[0], PPrem[1], PPrem[2]);
  auto Queued = queuedMark(SetIndex);
  if (!Queued) {
    Queued = true;
    VarWorklist.push_back(N);
    if (VarWorklist.size() > Stats.PeakVarWorklist)
      Stats.PeakVarWorklist = VarWorklist.size();
  }
  if (const uint32_t *Head = OpUseHead.get(N))
    for (uint32_t L = *Head; L != NoLink; L = OpUseLinks[L].Next)
      enqueueOp(OpUseLinks[L].Op);
}

void Solver::addOpUse(NodeId N, size_t OpIndex) {
  uint32_t Idx = static_cast<uint32_t>(OpIndex);
  uint32_t New = static_cast<uint32_t>(OpUseLinks.size());
  uint32_t L = OpUseHead.getOrInsert(N, New);
  if (L != New) {
    // Walk N's chain: a duplicate registration is dropped, a new op is
    // linked after the last one.
    for (;; L = OpUseLinks[L].Next) {
      if (OpUseLinks[L].Op == Idx)
        return;
      if (OpUseLinks[L].Next == NoLink)
        break;
    }
    OpUseLinks[L].Next = New;
  }
  OpUseLinks.push_back({Idx, NoLink});
}

void Solver::enqueueOp(size_t OpIndex) {
  if (InOpWorklist[OpIndex])
    return;
  InOpWorklist[OpIndex] = true;
  OpWorklist.push_back(OpIndex);
  if (OpWorklist.size() > Stats.PeakOpWorklist)
    Stats.PeakOpWorklist = OpWorklist.size();
}

void Solver::noteStructureChange() {
  // Structure-sensitive ops re-fire once per quiescent round (runFixpoint),
  // not once per added edge; monotonicity makes the batched schedule reach
  // the same least fixed point.
  StructureDirty = true;
}

void Solver::sweepXmlOnClickHandlers() {
  if (!Options.ModelXmlOnClickHandlers)
    return;
  for (NodeId Holder : G.rootHolders()) {
    const ClassDecl *HolderClass = G.node(Holder).Klass;
    for (NodeId Root : G.roots(Holder)) {
      for (NodeId V : G.descendantsOf(Root)) {
        const Node &ViewNode = G.node(V);
        if (ViewNode.Kind != NodeKind::ViewInfl || !ViewNode.LNode ||
            !ViewNode.LNode->hasOnClickHandler())
          continue;
        bool New = G.addListenerEdge(V, Holder);
        if (!New && !RewireCallbacks)
          continue; // this (view, window) pair is already wired
        if (New)
          provEdge(FactKind::Listener, V, Holder, DerivRule::XmlOnClick,
                   provFlow(V, V));
        if (!HolderClass || HolderClass->isPlatform())
          continue;
        const MethodDecl *Handler = hier::ClassHierarchy::dispatch(
            HolderClass, ViewNode.LNode->onClickHandlerName(), 1);
        if (!Handler || Handler->owner()->isPlatform()) {
          if (New)
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
        if (Prov) {
          FactId LFact = Prov->edgeFact(FactKind::Listener, V, Holder);
          provLink(Holder, ThisNode, DerivRule::XmlOnClick, LFact);
          provCtx(DerivRule::XmlOnClick, LFact);
        }
        addValue(ThisNode, Holder);
        NodeId ParamNode = G.getVarNode(Handler, Handler->paramVar(0));
        addValue(ParamNode, V);
      }
    }
  }
}

void Solver::seedValueNodes() {
  provCtx(DerivRule::Seed);
  for (NodeId Id = 0; Id < G.size(); ++Id) {
    const Node &N = G.node(Id);
    // Retired nodes are orphans of an edit-scale retraction
    // (docs/INCREMENTAL.md); re-seeding one would resurrect a value whose
    // minting site no longer exists.
    if (!isValueNodeKind(N.Kind) || N.Retired)
      continue;
    if (Prov)
      provCtx(N.Kind == NodeKind::UnknownView || N.Kind == NodeKind::UnknownId
                  ? DerivRule::UnknownSource
                  : DerivRule::Seed);
    addValue(Id, Id);
  }
}

void Solver::registerOpUses() {
  auto &Ops = Sol.opSites();
  // A Solver may be driven through several solve() calls; the op table
  // only ever grows (GraphBuilder appends, the solver never reorders), so
  // index-derived registrations are rebuilt here while the op-index-keyed
  // memos (InflatedAt, FragmentWired) stay valid and MUST survive —
  // clearing them would re-mint ViewInfl trees / re-wire fragment
  // callbacks on every re-solve.
  OpUseHead.clear();
  OpUseHead.reserve(2 * Ops.size());
  OpUseLinks.clear();
  StructureSensitiveOps.clear();
  OpWorklist.clear();
  InOpWorklist.assign(Ops.size(), false);
  for (size_t I = 0; I < Ops.size(); ++I) {
    const OpSite &Op = Ops[I];
    if (Op.Dead)
      continue; // tombstoned by an edit-scale re-analysis; slot kept so
                // op indices stay stable memo keys (docs/INCREMENTAL.md)
    for (NodeId Role : {Op.Recv, Op.IdArg, Op.ValArg, Op.AttachParent})
      if (Role != InvalidNode)
        addOpUse(Role, I);
    switch (Op.Spec.Kind) {
    case OpKind::FindView1:
    case OpKind::FindView2:
    case OpKind::FindView3:
    case OpKind::FragmentAdd: // containers may appear via later inflation
      StructureSensitiveOps.push_back(I);
      break;
    default:
      break;
    }
    enqueueOp(I);
  }
}

void Solver::propagate(NodeId N) {
  ++Stats.Propagations;
  // Difference propagation: only the suffix that arrived since this
  // node's last visit. Committed values were already pushed to every flow
  // successor (edges added mid-solve always source from singleton value
  // nodes whose one value the adding rule seeds by hand — see
  // docs/DELTA_SOLVER.md, "mid-solve edges"). The suffix is copied into
  // the reusable scratch: addValue may resize Sets and insert into the
  // very set being walked.
  FlowSet &Set = *Sol.flowsToSets().find(N); // queued, so it holds values
  if (!Set.hasDelta())
    return; // spurious wakeup: delta drained by an earlier visit
  PropScratch.assign(Set.begin() + Set.deltaBegin(), Set.end());
  Set.commit(Set.size());
  ++Stats.DeltaCommits;
  for (NodeId Succ : G.flowSuccessors(N)) {
    if (G.node(Succ).Kind == NodeKind::Op)
      continue; // operation rules read role variables directly
    for (NodeId V : PropScratch) {
      if (Prov)
        provCtx(DerivRule::FlowEdge, Prov->flowFact(N, V));
      addValue(Succ, V);
    }
  }
}

//===----------------------------------------------------------------------===//
// Inflation (rules INFLATE1/INFLATE2, Section 3.2.1)
//===----------------------------------------------------------------------===//

NodeId Solver::inflateAt(size_t OpIndex, NodeId LayoutIdNode) {
  uint64_t Key = (static_cast<uint64_t>(OpIndex) << 32) | LayoutIdNode;
  auto It = InflatedAt.find(Key);
  if (It != InflatedAt.end())
    return It->second;

  const Node &IdNode = G.node(LayoutIdNode);
  const layout::LayoutDef *Def = Layouts.findById(IdNode.Res);
  OpSite &Op = Sol.opSites()[OpIndex];
  if (!Def) {
    Diags.warning(G.loc(Op.OpNode),
                  "inflation of unknown layout id; site skipped");
    InflatedAt.emplace(Key, InvalidNode);
    return InvalidNode;
  }

  // Degenerate layouts must not crash the pipeline: a missing root (the
  // registry normally rejects these) or an empty <merge/> root has
  // nothing to inflate — diagnose, mark the solution degraded, and skip
  // the site (docs/ROBUSTNESS.md).
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
    InflatedAt.emplace(Key, InvalidNode);
    return InvalidNode;
  }

  ++Stats.InflationCount;

  // Every fact minted by this inflation derives from the layout id
  // reaching the site's id argument.
  FactId IdFact = provFlow(Op.IdArg, LayoutIdNode);

  // Mint a fresh subtree of ViewInfl nodes for this (site, layout) pair.
  // Section 4.1: "If the same layout is inflated in several places in the
  // application, a 'fresh' set of graph nodes is introduced at each
  // inflation site."
  const ClassDecl *ViewBase = ViewBaseClass;
  const ClassDecl *GroupBase = GroupBaseClass;

  struct Frame {
    const layout::LayoutNode *LNode;
    NodeId ParentView;
  };
  NodeId Root = InvalidNode;
  std::vector<Frame> Work{{Def->root(), InvalidNode}};
  while (!Work.empty()) {
    Frame F = Work.back();
    Work.pop_back();

    const ClassDecl *Klass =
        F.LNode->viewClassName().empty()
            ? GroupBase // <merge> root inflated directly
            : AM.resolveLayoutClassName(F.LNode->viewClassName());
    if (!Klass) {
      Diags.warning(F.LNode->loc(), "unknown view class '" +
                                        F.LNode->viewClassName() +
                                        "' in layout '" + Def->name() +
                                        "'; modeled as android.view.View");
      Klass = ViewBase;
    }

    NodeId ViewNode = G.makeViewInflNode(Klass, F.LNode, Op.OpNode);
    Sol.flowsToSets().getOrCreate(ViewNode).insert(Sol.setArena(), ViewNode);
    if (Prov)
      Prov->recordFlow(ViewNode, ViewNode, DerivRule::Inflate, IdFact);

    if (F.ParentView == InvalidNode) {
      Root = ViewNode;
    } else {
      G.addParentChildEdge(F.ParentView, ViewNode);
      provEdge(FactKind::ParentChild, F.ParentView, ViewNode,
               DerivRule::Inflate, IdFact);
    }

    if (F.LNode->hasViewId()) {
      layout::ResourceId VId = F.LNode->resolvedViewIdRes();
      if (VId == layout::InvalidResourceId) {
        VId = Layouts.resources().lookupViewId(F.LNode->viewIdName());
        if (VId != layout::InvalidResourceId)
          F.LNode->setResolvedViewIdRes(VId);
      }
      if (VId != layout::InvalidResourceId) {
        size_t NodesBefore = G.size();
        NodeId IdNode = G.getViewIdNode(VId);
        if (IdNode >= NodesBefore) {
          // An id name first interned by an edit-scale layout re-analysis
          // has no pre-built node, so seedValueNodes() never saw it; seed
          // the fresh node here or its value set stays empty.
          provCtx(DerivRule::Seed);
          addValue(IdNode, IdNode);
        }
        G.addHasIdEdge(ViewNode, IdNode);
        provEdge(FactKind::HasId, ViewNode, IdNode, DerivRule::Inflate,
                 IdFact);
      }
    }

    for (const auto &Child : F.LNode->children())
      Work.push_back({Child.get(), ViewNode});
  }

  if (!GATOR_CHECK(Root != InvalidNode, &Diags,
                   "layout walk minted no root view; site skipped")) {
    Sol.markDegraded();
    Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
    InflatedAt.emplace(Key, InvalidNode);
    return InvalidNode;
  }
  // Record the inflation origin: view => layoutId, per Section 4.1.
  G.addRootsLayoutEdge(Root, LayoutIdNode);
  provEdge(FactKind::RootsLayout, Root, LayoutIdNode, DerivRule::Inflate,
           IdFact);

  InflatedAt.emplace(Key, Root);
  noteStructureChange();
  return Root;
}

void Solver::fireInflate(OpSite &Op) {
  // Collect the layout ids reaching the id argument.
  std::vector<NodeId> LayoutIds;
  for (NodeId V : Sol.valuesAt(Op.IdArg))
    if (G.node(V).Kind == NodeKind::LayoutId)
      LayoutIds.push_back(V);

  size_t OpIndex = &Op - Sol.opSites().data();
  for (NodeId L : LayoutIds) {
    NodeId Root = inflateAt(OpIndex, L);
    if (Root == InvalidNode)
      continue;

    if (Op.Spec.Kind == OpKind::Inflate1) {
      // Rule INFLATE1: the root is the call's result.
      provCtx(DerivRule::Inflate, provFlow(Op.IdArg, L), provFlow(Root, Root));
      addValue(Op.Out, Root);
      // inflate(id, parent): the root also becomes a child of the parent.
      if (Op.AttachParent != InvalidNode)
        for (NodeId P : Sol.viewsAt(Op.AttachParent))
          if (G.addParentChildEdge(P, Root)) {
            provEdge(FactKind::ParentChild, P, Root, DerivRule::InflateAttach,
                     provFlow(Op.AttachParent, P), provFlow(Root, Root));
            noteStructureChange();
          }
    } else {
      // Rule INFLATE2: the root is associated with the activity/dialog.
      for (NodeId W : Sol.valuesAt(Op.Recv)) {
        NodeKind K = G.node(W).Kind;
        if (K != NodeKind::Activity && K != NodeKind::Alloc)
          continue;
        if (G.addRootEdge(W, Root)) {
          provEdge(FactKind::Root, W, Root, DerivRule::Inflate,
                   provFlow(Op.Recv, W), provFlow(Op.IdArg, L));
          noteStructureChange();
        }
      }
    }
  }

  // Unknown-source ids (docs/ROBUSTNESS.md): a dynamic or missing layout
  // id reaching an inflation site mints one tagged unknown root per
  // (site, id) — enough to keep downstream rules flowing while the
  // degradation stays visible through the node's reason tag.
  std::vector<NodeId> UnknownIds;
  for (NodeId V : Sol.valuesAt(Op.IdArg))
    if (G.node(V).Kind == NodeKind::UnknownId)
      UnknownIds.push_back(V);
  for (NodeId U : UnknownIds) {
    uint64_t Key = (static_cast<uint64_t>(OpIndex) << 32) | U;
    auto It = InflatedAt.find(Key);
    NodeId Root;
    if (It != InflatedAt.end()) {
      Root = It->second;
    } else {
      Root = G.makeUnknownViewNode(G.node(U).Unknown, Op.Method,
                                   G.loc(Op.OpNode), Op.OpNode);
      InflatedAt.emplace(Key, Root);
      Sol.flowsToSets().getOrCreate(Root).insert(Sol.setArena(), Root);
      if (Prov)
        Prov->recordFlow(Root, Root, DerivRule::UnknownSource,
                         provFlow(Op.IdArg, U));
      G.addRootsLayoutEdge(Root, U);
      provEdge(FactKind::RootsLayout, Root, U, DerivRule::UnknownSource,
               provFlow(Op.IdArg, U));
      Sol.markDegraded();
      Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
      noteStructureChange();
    }
    if (Root == InvalidNode)
      continue;
    if (Op.Spec.Kind == OpKind::Inflate1) {
      provCtx(DerivRule::UnknownSource, provFlow(Op.IdArg, U),
              provFlow(Root, Root));
      addValue(Op.Out, Root);
      if (Op.AttachParent != InvalidNode)
        for (NodeId P : Sol.viewsAt(Op.AttachParent))
          if (P != Root && G.addParentChildEdge(P, Root)) {
            provEdge(FactKind::ParentChild, P, Root,
                     DerivRule::UnknownSource, provFlow(Op.AttachParent, P),
                     provFlow(Root, Root));
            noteStructureChange();
          }
    } else {
      for (NodeId W : Sol.valuesAt(Op.Recv)) {
        NodeKind K = G.node(W).Kind;
        if (K != NodeKind::Activity && K != NodeKind::Alloc)
          continue;
        if (G.addRootEdge(W, Root)) {
          provEdge(FactKind::Root, W, Root, DerivRule::UnknownSource,
                   provFlow(Op.Recv, W), provFlow(Op.IdArg, U));
          noteStructureChange();
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// View-structure rules
//===----------------------------------------------------------------------===//

void Solver::fireAddView1(OpSite &Op) {
  // Rule ADDVIEW1: activity.setContentView(view).
  for (NodeId W : Sol.valuesAt(Op.Recv)) {
    NodeKind K = G.node(W).Kind;
    if (K != NodeKind::Activity && K != NodeKind::Alloc)
      continue;
    for (NodeId V : Sol.viewsAt(Op.ValArg))
      if (G.addRootEdge(W, V)) {
        provEdge(FactKind::Root, W, V, DerivRule::AddView1,
                 provFlow(Op.Recv, W), provFlow(Op.ValArg, V));
        noteStructureChange();
      }
  }
}

void Solver::fireAddView2(OpSite &Op) {
  // Rule ADDVIEW2: parent.addView(child).
  for (NodeId P : Sol.viewsAt(Op.Recv))
    for (NodeId C : Sol.viewsAt(Op.ValArg))
      if (P != C && G.addParentChildEdge(P, C)) {
        provEdge(FactKind::ParentChild, P, C, DerivRule::AddView2,
                 provFlow(Op.Recv, P), provFlow(Op.ValArg, C));
        noteStructureChange();
      }
}

void Solver::fireSetId(OpSite &Op) {
  // Rule SETID: view.setId(id).
  for (NodeId V : Sol.viewsAt(Op.Recv))
    for (NodeId IdVal : Sol.valuesAt(Op.IdArg)) {
      NodeKind K = G.node(IdVal).Kind;
      // An unknown id (dynamic/missing resource) still records the hasId
      // association; FindView* treats views carrying an unknown id as
      // matching any lookup (docs/ROBUSTNESS.md).
      if (K == NodeKind::ViewId || K == NodeKind::UnknownId)
        if (G.addHasIdEdge(V, IdVal)) {
          provEdge(FactKind::HasId, V, IdVal,
                   K == NodeKind::UnknownId ? DerivRule::UnknownSource
                                            : DerivRule::SetId,
                   provFlow(Op.Recv, V), provFlow(Op.IdArg, IdVal));
          noteStructureChange();
        }
    }
}

void Solver::wireListenerCallback(NodeId View, NodeId ListenerValue,
                                  const ListenerSpec &Spec) {
  // The callback y.n(x): listener object becomes `this` of the handler and
  // the view flows into the handler's view parameter.
  const ClassDecl *LClass = G.node(ListenerValue).Klass;
  if (!LClass || LClass->isPlatform())
    return;
  FactId LFact = Prov
                     ? Prov->edgeFact(FactKind::Listener, View, ListenerValue)
                     : ProvenanceRecorder::NoFact;
  if (Prov)
    provCtx(DerivRule::ListenerCallback, LFact);
  for (const HandlerSig &Sig : Spec.Handlers) {
    const MethodDecl *Handler =
        hier::ClassHierarchy::dispatch(LClass, Sig.MethodName, Sig.Arity);
    if (!Handler || Handler->owner()->isPlatform())
      continue;
    NodeId ThisNode = G.getVarNode(Handler, Handler->thisVar());
    G.addFlowEdge(ListenerValue, ThisNode);
    provLink(ListenerValue, ThisNode, DerivRule::ListenerCallback, LFact);
    addValue(ThisNode, ListenerValue);
    if (Sig.ViewParamIndex >= 0 &&
        static_cast<unsigned>(Sig.ViewParamIndex) < Handler->paramCount()) {
      NodeId ParamNode = G.getVarNode(
          Handler, Handler->paramVar(static_cast<unsigned>(Sig.ViewParamIndex)));
      addValue(ParamNode, View);
    }
  }
}

void Solver::fireSetListener(OpSite &Op) {
  // Rule SETLISTENER: view.setOnXListener(listener).
  if (!GATOR_CHECK(Op.Spec.Listener != nullptr, &Diags,
                   "SetListener op without listener spec; site skipped")) {
    Sol.markDegraded();
    Sol.noteUnresolvedOp(
        static_cast<uint32_t>(&Op - Sol.opSites().data()));
    return;
  }
  for (NodeId V : Sol.viewsAt(Op.Recv))
    for (NodeId L : Sol.listenerValuesAt(Op.ValArg)) {
      bool New = G.addListenerEdge(V, L);
      if (New)
        provEdge(FactKind::Listener, V, L, DerivRule::SetListener,
                 provFlow(Op.Recv, V), provFlow(Op.ValArg, L));
      if ((New || RewireCallbacks) && Options.ModelListenerCallbacks)
        wireListenerCallback(V, L, *Op.Spec.Listener);
    }
}

void Solver::fireFragmentAdd(size_t OpIndex) {
  // Extension rule: transaction.add(containerId, fragment). The framework
  // calls fragment.onCreateView(inflater); the returned view becomes a
  // child of every view carrying the container id.
  OpSite &Op = Sol.opSites()[OpIndex];

  // 1. Wire the onCreateView callback per reaching fragment allocation,
  // and register this op on the callback's return variables so it
  // re-fires when the returned views become known. Copy the value set:
  // addValue below may insert into the very set being walked (a factory
  // calling tx.add on its own `this`).
  std::vector<NodeId> FragmentValues(Sol.valuesAt(Op.ValArg).begin(),
                                     Sol.valuesAt(Op.ValArg).end());
  for (NodeId F : FragmentValues) {
    if (G.node(F).Kind != NodeKind::Alloc)
      continue;
    const ClassDecl *FClass = G.node(F).Klass;
    const MethodDecl *Factory =
        FClass ? hier::ClassHierarchy::dispatch(FClass, "onCreateView", 1)
               : nullptr;
    if (!Factory || Factory->owner()->isPlatform())
      continue;
    // Register on the factory's returns outside the FragmentWired guard:
    // registerOpUses rebuilds the op uses from role edges only, so a re-solve
    // must re-establish this registration even when the callback wiring
    // is already memoized (addOpUse dedups).
    for (const Stmt &Ret : Factory->body())
      if (Ret.Kind == StmtKind::Return && Ret.Lhs != InvalidVar)
        addOpUse(G.getVarNode(Factory, Ret.Lhs), OpIndex);
    uint64_t Key = (static_cast<uint64_t>(OpIndex) << 32) | F;
    if (!FragmentWired.insert(Key).second)
      continue;
    NodeId ThisNode = G.getVarNode(Factory, Factory->thisVar());
    G.addFlowEdge(F, ThisNode);
    provLink(F, ThisNode, DerivRule::FragmentAdd, provFlow(Op.ValArg, F));
    provCtx(DerivRule::FragmentAdd, provFlow(Op.ValArg, F));
    addValue(ThisNode, F);
  }

  // 2. Attach every known fragment root under every container view whose
  // id reaches the container-id argument.
  std::vector<NodeId> WantedIds;
  for (NodeId IdVal : Sol.valuesAt(Op.IdArg))
    if (G.node(IdVal).Kind == NodeKind::ViewId)
      WantedIds.push_back(IdVal);
  if (WantedIds.empty())
    return;

  std::vector<NodeId> FragmentRoots;
  for (NodeId F : FragmentValues) {
    if (G.node(F).Kind != NodeKind::Alloc)
      continue;
    const ClassDecl *FClass = G.node(F).Klass;
    const MethodDecl *Factory =
        FClass ? hier::ClassHierarchy::dispatch(FClass, "onCreateView", 1)
               : nullptr;
    if (!Factory || Factory->owner()->isPlatform())
      continue;
    for (const Stmt &Ret : Factory->body())
      if (Ret.Kind == StmtKind::Return && Ret.Lhs != InvalidVar)
        for (NodeId V : Sol.viewsAt(G.getVarNode(Factory, Ret.Lhs)))
          FragmentRoots.push_back(V);
  }
  if (FragmentRoots.empty())
    return;

  // Containers come straight from the reverse viewId -> views index.
  for (NodeId IdNode : WantedIds) {
    // Copy: addParentChildEdge cannot extend viewsWithId, but an id may be
    // assigned mid-loop by a re-entrant rule in future revisions; the copy
    // is tiny and keeps iteration sound.
    std::vector<NodeId> Containers(G.viewsWithId(IdNode).begin(),
                                   G.viewsWithId(IdNode).end());
    for (NodeId Container : Containers)
      for (NodeId Root : FragmentRoots)
        if (Container != Root && G.addParentChildEdge(Container, Root)) {
          provEdge(FactKind::ParentChild, Container, Root,
                   DerivRule::FragmentAdd, provFlow(Root, Root),
                   Prov ? Prov->edgeFact(FactKind::HasId, Container, IdNode)
                        : ProvenanceRecorder::NoFact);
          noteStructureChange();
        }
  }
}

void Solver::fireSetAdapter(size_t OpIndex) {
  // Extension rule: listView.setAdapter(adapter). The framework calls
  // adapter.getView(inflater) per row; every returned view becomes a
  // child of the AdapterView.
  OpSite &Op = Sol.opSites()[OpIndex];

  // Copy the adapter values: addValue below may insert into the set being
  // walked when the factory registers on its own `this`.
  std::vector<NodeId> AdapterValues(Sol.valuesAt(Op.ValArg).begin(),
                                    Sol.valuesAt(Op.ValArg).end());
  for (NodeId A : AdapterValues) {
    if (G.node(A).Kind != NodeKind::Alloc)
      continue;
    const ClassDecl *AClass = G.node(A).Klass;
    const MethodDecl *Factory =
        AClass ? hier::ClassHierarchy::dispatch(AClass, "getView", 1)
               : nullptr;
    if (!Factory || Factory->owner()->isPlatform())
      continue;
    // As in fireFragmentAdd: return-variable registration must survive a
    // registerOpUses rebuild, so it stays outside the memo guard.
    for (const Stmt &Ret : Factory->body())
      if (Ret.Kind == StmtKind::Return && Ret.Lhs != InvalidVar)
        addOpUse(G.getVarNode(Factory, Ret.Lhs), OpIndex);
    uint64_t Key = (static_cast<uint64_t>(OpIndex) << 32) | A;
    if (!FragmentWired.insert(Key).second)
      continue; // reuse the factory-wiring dedup table
    NodeId ThisNode = G.getVarNode(Factory, Factory->thisVar());
    G.addFlowEdge(A, ThisNode);
    provLink(A, ThisNode, DerivRule::SetAdapter, provFlow(Op.ValArg, A));
    provCtx(DerivRule::SetAdapter, provFlow(Op.ValArg, A));
    addValue(ThisNode, A);
  }

  for (NodeId A : AdapterValues) {
    if (G.node(A).Kind != NodeKind::Alloc)
      continue;
    const ClassDecl *AClass = G.node(A).Klass;
    const MethodDecl *Factory =
        AClass ? hier::ClassHierarchy::dispatch(AClass, "getView", 1)
               : nullptr;
    if (!Factory || Factory->owner()->isPlatform())
      continue;
    for (const Stmt &Ret : Factory->body()) {
      if (Ret.Kind != StmtKind::Return || Ret.Lhs == InvalidVar)
        continue;
      for (NodeId Item : Sol.viewsAt(G.getVarNode(Factory, Ret.Lhs)))
        for (NodeId ListView : Sol.viewsAt(Op.Recv))
          if (ListView != Item && G.addParentChildEdge(ListView, Item)) {
            provEdge(FactKind::ParentChild, ListView, Item,
                     DerivRule::SetAdapter, provFlow(Op.Recv, ListView),
                     provFlow(Item, Item));
            noteStructureChange();
          }
    }
  }
}

void Solver::fireFindView(OpSite &Op) {
  // Rules FINDVIEW1/2/3: resolve over the current hierarchy and id state.
  if (Op.Out == InvalidNode)
    return;
  NodeId UnknownIdAtArg = InvalidNode;
  if (Op.IdArg != InvalidNode)
    for (NodeId IdVal : Sol.valuesAt(Op.IdArg))
      if (G.node(IdVal).Kind == NodeKind::UnknownId) {
        UnknownIdAtArg = IdVal;
        break;
      }
  if (UnknownIdAtArg != InvalidNode) {
    // An unknown id widens this lookup to the receiver's full view set
    // (capped by UnknownFanoutBudget); the result is approximate.
    Sol.markDegraded();
    Sol.noteUnresolvedOp(static_cast<uint32_t>(&Op - Sol.opSites().data()));
  }
  for (NodeId R : Sol.resultsOf(Op, Options)) {
    if (Prov) {
      // Premises: the view's existence, and — for id-driven lookups — the
      // hasId fact that matched one of the ids reaching the id argument.
      FactId MatchedId = ProvenanceRecorder::NoFact;
      if (Op.IdArg != InvalidNode)
        for (NodeId IdVal : Sol.valuesAt(Op.IdArg)) {
          if (G.node(IdVal).Kind != NodeKind::ViewId)
            continue;
          MatchedId = Prov->edgeFact(FactKind::HasId, R, IdVal);
          if (MatchedId != ProvenanceRecorder::NoFact)
            break;
        }
      // A result with no concrete matching id that arrived because an
      // unknown id widened the lookup derives from the unknown source;
      // citing the unknown-id flow as a premise routes --explain's
      // derivation tree to the node that carries the degradation reason.
      if (MatchedId == ProvenanceRecorder::NoFact &&
          UnknownIdAtArg != InvalidNode)
        provCtx(DerivRule::UnknownSource, provFlow(R, R),
                provFlow(Op.IdArg, UnknownIdAtArg));
      else
        provCtx(DerivRule::FindView, provFlow(R, R), MatchedId);
    }
    addValue(Op.Out, R);
  }
}

void Solver::fireOp(size_t OpIndex) {
  OpSite &Op = Sol.opSites()[OpIndex];
  if (Op.Dead)
    return; // tombstoned by an edit-scale re-analysis (docs/INCREMENTAL.md)
  ++Stats.OpFirings;
  ++Stats.FiringsByKind[static_cast<size_t>(Op.Spec.Kind)];
  switch (Op.Spec.Kind) {
  case OpKind::Inflate1:
  case OpKind::Inflate2:
    fireInflate(Op);
    break;
  case OpKind::AddView1:
    fireAddView1(Op);
    break;
  case OpKind::AddView2:
    fireAddView2(Op);
    break;
  case OpKind::SetId:
    fireSetId(Op);
    break;
  case OpKind::SetListener:
    fireSetListener(Op);
    break;
  case OpKind::FindView1:
  case OpKind::FindView2:
  case OpKind::FindView3:
    fireFindView(Op);
    break;
  case OpKind::FragmentAdd:
    fireFragmentAdd(OpIndex);
    break;
  case OpKind::SetAdapter:
    fireSetAdapter(OpIndex);
    break;
  case OpKind::StartActivity:
  case OpKind::SetIntentClass:
    // Client ops: consumed post-fixpoint by the guimodel library; they do
    // not influence view propagation.
    break;
  }
}

SolverStats Solver::solve() {
  Stats = SolverStats();
  ViewBaseClass = AM.program().findClass(names::View);
  GroupBaseClass = AM.program().findClass(names::ViewGroup);
  registerOpUses();
  seedValueNodes();
  return runFixpoint();
}

SolverStats Solver::resolveIncremental(
    const std::vector<graph::NodeId> &Touched) {
  Stats = SolverStats();
  ViewBaseClass = AM.program().findClass(names::View);
  GroupBaseClass = AM.program().findClass(names::ViewGroup);
  registerOpUses();
  seedValueNodes();

  // The retraction closure may have deleted facts at a touched node that
  // an untouched (fully committed) flow predecessor still implies, and
  // committed values never re-propagate on their own — pull every
  // predecessor's full set across edges into the touched nodes. One
  // reverse-adjacency scan; edit-scale, not per-solve.
  if (!Touched.empty()) {
    std::vector<bool> IsTouched(G.size(), false);
    for (NodeId T : Touched)
      if (T < G.size())
        IsTouched[T] = true;
    FlowSetTable &Sets = Sol.flowsToSets();
    for (NodeId P = 0; P < G.size(); ++P) {
      bool AnyTouchedSucc = false;
      for (NodeId S : G.flowSuccessors(P))
        if (IsTouched[S] && G.node(S).Kind != NodeKind::Op) {
          AnyTouchedSucc = true;
          break;
        }
      const FlowSet *PSet = Sets.find(P);
      if (!AnyTouchedSucc || !PSet || PSet->empty())
        continue;
      // Copy out: addValue may create sets and move this one.
      std::vector<NodeId> Values(PSet->begin(), PSet->end());
      for (NodeId S : G.flowSuccessors(P)) {
        if (S >= IsTouched.size() || !IsTouched[S] ||
            G.node(S).Kind == NodeKind::Op)
          continue;
        for (NodeId V : Values) {
          if (Prov)
            provCtx(DerivRule::FlowEdge, Prov->flowFact(P, V));
          addValue(S, V);
        }
      }
    }
    // Surviving values in touched sets are all-delta (FlowSet::eraseValues
    // reset the commit mark); enqueue them so they re-push downstream.
    for (NodeId T : Touched) {
      const FlowSet *TSet = Sets.find(T);
      if (!TSet || !TSet->hasDelta())
        continue;
      auto Queued = queuedMark(Sets.indexOf(T));
      if (!Queued) {
        Queued = true;
        VarWorklist.push_back(T);
      }
    }
  }

  // Re-fire every live op once: rules read full role sets, so this
  // re-derives over-deleted op facts and re-mints forgotten inflations
  // even when no role set has a delta. Idempotent (dedup absorbs the
  // rest) and edit-scale cheap.
  for (size_t I = 0; I < Sol.opSites().size(); ++I)
    if (!Sol.opSites()[I].Dead)
      enqueueOp(I);

  // Force one structure round: retraction may have removed hierarchy/id
  // edges the structure-sensitive ops and the XML sweep must re-derive.
  StructureDirty = true;
  RewireCallbacks = true;
  SolverStats Result = runFixpoint();
  RewireCallbacks = false;
  return Result;
}

void Solver::forgetOpMemos(uint32_t OpIndex) {
  for (auto It = InflatedAt.begin(); It != InflatedAt.end();)
    It = (It->first >> 32) == OpIndex ? InflatedAt.erase(It) : std::next(It);
  for (auto It = FragmentWired.begin(); It != FragmentWired.end();)
    It = (*It >> 32) == OpIndex ? FragmentWired.erase(It) : std::next(It);
}

void Solver::forgetLayoutMemos(graph::NodeId LayoutIdNode) {
  for (auto It = InflatedAt.begin(); It != InflatedAt.end();)
    It = static_cast<NodeId>(It->first & 0xffffffffu) == LayoutIdNode
             ? InflatedAt.erase(It)
             : std::next(It);
}

void Solver::forgetWiredValue(graph::NodeId Value) {
  for (auto It = FragmentWired.begin(); It != FragmentWired.end();)
    It = static_cast<NodeId>(*It & 0xffffffffu) == Value
             ? FragmentWired.erase(It)
             : std::next(It);
}

SolverStats Solver::runFixpoint() {
  support::TraceSpan FixpointSpan(Options.Trace, "solver.fixpoint");
  uint64_t StartRev = G.hierarchyRevision();
  unsigned long StartDescHits = G.descendantsCacheHits();
  unsigned long StartDescMisses = G.descendantsCacheMisses();

  support::BudgetTracker Tracker(Options.Budget);
  for (;;) {
    if (VarWorklist.empty() && OpWorklist.empty()) {
      // Quiescent: apply structure-driven models once per structure
      // growth; they may seed new propagation. The structure-sensitive op
      // re-fires are batched here too (noteStructureChange only marks),
      // firing each op once per round instead of once per added edge.
      if (!StructureDirty)
        break;
      if (!Tracker.checkpoint(G.size(), G.flowEdgeCount() +
                                            G.parentChildEdgeCount()))
        break;
      StructureDirty = false;
      ++Stats.StructureRounds;
      if (Options.Trace)
        Options.Trace->instant("solver.structure-round");
      for (size_t OpIndex : StructureSensitiveOps)
        enqueueOp(OpIndex);
      sweepXmlOnClickHandlers();
      continue;
    }
    if (!Tracker.charge())
      break;
    if (!VarWorklist.empty()) {
      NodeId N = VarWorklist.front();
      VarWorklist.pop_front();
      InVarWorklist[Sol.flowsToSets().indexOf(N)] = false;
      propagate(N);
      continue;
    }
    // Op firings grow the graph (inflation mints whole subtrees), so the
    // node/edge caps are probed here rather than per propagation.
    if (!Tracker.checkpoint(G.size(),
                            G.flowEdgeCount() + G.parentChildEdgeCount()))
      break;
    size_t OpIndex = OpWorklist.front();
    OpWorklist.pop_front();
    InOpWorklist[OpIndex] = false;
    fireOp(OpIndex);
  }

  Stats.WorkCharged = Tracker.workCharged();
  if (Tracker.exhausted()) {
    // Fail-soft: keep everything computed so far, mark the solution as a
    // truncated under-approximation, and record which op sites were
    // still pending so clients can see what is unresolved.
    Stats.HitWorkLimit = true;
    Stats.BudgetTripped = Tracker.reason();
    for (size_t OpIndex : OpWorklist)
      Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
    Sol.markTruncated(Tracker.reason());
    Diags.warning(std::string("solver budget exhausted (") +
                  support::budgetReasonName(Tracker.reason()) +
                  "); solution is a partial under-approximation");
  }

  // Set-shape and cache telemetry for AppStats / the benches.
  for (const FlowSet &Set : Sol.flowsToSets()) {
    if (Set.size() > Stats.PeakSetSize)
      Stats.PeakSetSize = Set.size();
    if (Set.promoted())
      ++Stats.PromotedSets;
  }
  Stats.HierarchyRevisions = G.hierarchyRevision() - StartRev;
  Stats.DescCacheHits = G.descendantsCacheHits() - StartDescHits;
  Stats.DescCacheMisses = G.descendantsCacheMisses() - StartDescMisses;
  FixpointSpan.arg("propagations", Stats.Propagations);
  FixpointSpan.arg("op_firings", Stats.OpFirings);
  FixpointSpan.arg("inflations", Stats.InflationCount);
  FixpointSpan.arg("structure_rounds", Stats.StructureRounds);
  return Stats;
}
