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

// Structure-sensitive ops re-fire once per quiescent round (runFixpoint),
// not once per added edge; monotonicity makes the batched schedule reach
// the same least fixed point.
void Solver::notePlaced(NodeId View) {
  StructureDirty = true;
  if (TrackPlaced)
    Placed.push_back(View);
}

void Solver::noteNewId(NodeId View, NodeId Id) {
  StructureDirty = true;
  if (TrackPlaced)
    NewIds.emplace_back(View, Id);
}

void Solver::sweepXmlOnClickHandlers() {
  for (NodeId Holder : G.rootHolders()) {
    for (NodeId Root : G.roots(Holder)) {
      for (NodeId V : G.descendantsOf(Root)) {
        const Node &ViewNode = G.node(V);
        if (ViewNode.Kind != NodeKind::ViewInfl || !ViewNode.LNode ||
            !ViewNode.LNode->hasOnClickHandler())
          continue;
        if (!G.addListenerEdge(V, Holder))
          continue; // this (view, window) pair is already wired
        provEdge(FactKind::Listener, V, Holder, DerivRule::XmlOnClick,
                 provFlow(V, V));
        wireXmlHandler(V, Holder, /*NewEdge=*/true);
      }
    }
  }
}

void Solver::wireXmlHandler(NodeId V, NodeId Holder, bool NewEdge) {
  const ClassDecl *HolderClass = G.node(Holder).Klass;
  const layout::LayoutNode *LNode = G.node(V).LNode;
  if (!HolderClass || HolderClass->isPlatform() || !LNode)
    return;
  const MethodDecl *Handler = hier::ClassHierarchy::dispatch(
      HolderClass, LNode->onClickHandlerName(), 1);
  if (!Handler || Handler->owner()->isPlatform()) {
    if (NewEdge)
      Diags.warning(LNode->loc(), "android:onClick handler '" +
                                      LNode->onClickHandlerName() +
                                      "' not found on class '" +
                                      HolderClass->name().str() + "'");
    return;
  }
  wireHandler(V, Holder, Handler, 0, DerivRule::XmlOnClick,
              Prov ? Prov->edgeFact(FactKind::Listener, V, Holder)
                   : ProvenanceRecorder::NoFact);
}

void Solver::seedValueNodes(NodeId From) {
  provCtx(DerivRule::Seed);
  for (NodeId Id = From; Id < G.size(); ++Id) {
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
  // memos (InflatedAt, FactoryWired) stay valid and MUST survive —
  // clearing them would re-mint ViewInfl trees / re-wire fragment
  // callbacks on every re-solve.
  OpUseHead.clear();
  OpUseHead.reserve(2 * Ops.size());
  OpUseLinks.clear();
  StructureSensitiveOps.clear();
  OpWorklist.clear();
  InOpWorklist.assign(Ops.size(), false);
  for (size_t I = 0; I < Ops.size(); ++I) {
    if (Ops[I].Dead)
      continue; // tombstoned by an edit-scale re-analysis; slot kept so
                // op indices stay stable memo keys (docs/INCREMENTAL.md)
    registerOp(I);
    enqueueOp(I);
  }
  RegisteredOps = Ops.size();
}

void Solver::registerOp(size_t I) {
  const OpSite &Op = Sol.opSites()[I];
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

NodeId Solver::inflateAt(size_t OpIndex, NodeId IdNode) {
  uint64_t Key = (static_cast<uint64_t>(OpIndex) << 32) | IdNode;
  auto [It, Fresh] = InflatedAt.try_emplace(Key, InvalidNode);
  NodeId &Root = It->second;
  if (Fresh && MemosIndexed)
    MemosById[IdNode].push_back(static_cast<uint32_t>(OpIndex));
  if (!Fresh && (Root == InvalidNode || !G.node(Root).Retired)) {
    // A re-derive clears the unresolved markers: a hit notes its site
    // again wherever the minting did (a degenerate layout, an unknown id).
    if (Root == InvalidNode ? Layouts.findById(G.node(IdNode).Res) != nullptr
                            : G.node(Root).Kind == NodeKind::UnknownView)
      Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
    return Root;
  }
  Root = G.node(IdNode).Kind == NodeKind::UnknownId
             ? mintUnknownRoot(OpIndex, IdNode)
             : mintLayout(OpIndex, IdNode);
  return Root;
}

NodeId Solver::mintLayout(size_t OpIndex, NodeId LayoutIdNode) {
  const Node &IdNode = G.node(LayoutIdNode);
  const layout::LayoutDef *Def = Layouts.findById(IdNode.Res);
  OpSite &Op = Sol.opSites()[OpIndex];
  if (!Def) {
    Diags.warning(G.loc(Op.OpNode),
                  "inflation of unknown layout id; site skipped");
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
    return InvalidNode;
  }
  // Record the inflation origin: view => layoutId, per Section 4.1.
  G.addRootsLayoutEdge(Root, LayoutIdNode);
  provEdge(FactKind::RootsLayout, Root, LayoutIdNode, DerivRule::Inflate,
           IdFact);
  notePlaced(Root);
  return Root;
}

NodeId Solver::mintUnknownRoot(size_t OpIndex, NodeId UnknownIdNode) {
  // Unknown-source ids (docs/ROBUSTNESS.md): a dynamic or missing layout
  // id reaching an inflation site mints one tagged unknown root per
  // (site, id) — enough to keep downstream rules flowing while the
  // degradation stays visible through the node's reason tag.
  OpSite &Op = Sol.opSites()[OpIndex];
  FactId IdFact = provFlow(Op.IdArg, UnknownIdNode);
  NodeId Root = G.makeUnknownViewNode(G.node(UnknownIdNode).Unknown,
                                      Op.Method, G.loc(Op.OpNode), Op.OpNode);
  Sol.flowsToSets().getOrCreate(Root).insert(Sol.setArena(), Root);
  if (Prov)
    Prov->recordFlow(Root, Root, DerivRule::UnknownSource, IdFact);
  G.addRootsLayoutEdge(Root, UnknownIdNode);
  provEdge(FactKind::RootsLayout, Root, UnknownIdNode, DerivRule::UnknownSource,
           IdFact);
  Sol.markDegraded();
  Sol.noteUnresolvedOp(static_cast<uint32_t>(OpIndex));
  notePlaced(Root);
  return Root;
}

void Solver::fireInflate(OpSite &Op) {
  // The ids reaching the id argument: layout ids first, then unknown ids.
  std::vector<NodeId> Ids;
  for (NodeKind Kind : {NodeKind::LayoutId, NodeKind::UnknownId})
    for (NodeId V : Sol.valuesAt(Op.IdArg))
      if (G.node(V).Kind == Kind)
        Ids.push_back(V);

  size_t OpIndex = &Op - Sol.opSites().data();
  for (NodeId Id : Ids) {
    NodeId Root = inflateAt(OpIndex, Id);
    if (Root == InvalidNode)
      continue;
    bool Unknown = G.node(Id).Kind == NodeKind::UnknownId;
    DerivRule Rule = Unknown ? DerivRule::UnknownSource : DerivRule::Inflate;
    if (Op.Spec.Kind == OpKind::Inflate1) {
      // Rule INFLATE1: the root is the call's result.
      provCtx(Rule, provFlow(Op.IdArg, Id), provFlow(Root, Root));
      addValue(Op.Out, Root);
      // inflate(id, parent): the root also becomes a child of the parent.
      if (Op.AttachParent != InvalidNode)
        for (NodeId P : Sol.viewsAt(Op.AttachParent))
          if (G.addParentChildEdge(P, Root)) {
            provEdge(FactKind::ParentChild, P, Root,
                     Unknown ? Rule : DerivRule::InflateAttach,
                     provFlow(Op.AttachParent, P), provFlow(Root, Root));
            notePlaced(Root);
          }
    } else {
      // Rule INFLATE2: the root is associated with the activity/dialog.
      for (NodeId W : Sol.valuesAt(Op.Recv)) {
        NodeKind K = G.node(W).Kind;
        if (K != NodeKind::Activity && K != NodeKind::Alloc)
          continue;
        if (G.addRootEdge(W, Root)) {
          provEdge(FactKind::Root, W, Root, Rule, provFlow(Op.Recv, W),
                   provFlow(Op.IdArg, Id));
          notePlaced(Root);
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
        notePlaced(V);
      }
  }
}

void Solver::fireAddView2(OpSite &Op) {
  // Rule ADDVIEW2: parent.addView(child).
  for (NodeId P : Sol.viewsAt(Op.Recv))
    for (NodeId C : Sol.viewsAt(Op.ValArg))
      if (G.addParentChildEdge(P, C)) {
        provEdge(FactKind::ParentChild, P, C, DerivRule::AddView2,
                 provFlow(Op.Recv, P), provFlow(Op.ValArg, C));
        notePlaced(C);
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
          noteNewId(V, IdVal);
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
  for (const HandlerSig &Sig : Spec.Handlers) {
    const MethodDecl *Handler =
        hier::ClassHierarchy::dispatch(LClass, Sig.MethodName, Sig.Arity);
    if (Handler && !Handler->owner()->isPlatform())
      wireHandler(View, ListenerValue, Handler, Sig.ViewParamIndex,
                  DerivRule::ListenerCallback, LFact);
  }
}

void Solver::rewireCallback(NodeId View, NodeId ListenerValue) {
  FactId Edge = Prov->edgeFact(FactKind::Listener, View, ListenerValue);
  if (Edge == ProvenanceRecorder::NoFact)
    return; // the edge died too: the rule that re-adds it wires it
  const ProvenanceRecorder::Derivation &D = Prov->derivation(Edge);
  if (D.Rule == DerivRule::XmlOnClick) {
    wireXmlHandler(View, ListenerValue, /*NewEdge=*/false);
    return;
  }
  if (D.Premises[0] == ProvenanceRecorder::NoFact ||
      D.Premises[1] == ProvenanceRecorder::NoFact)
    return;
  const NodeId Recv = Prov->fact(D.Premises[0]).A;
  const NodeId Val = Prov->fact(D.Premises[1]).A;
  const uint32_t *Head = OpUseHead.get(Recv);
  for (uint32_t L = Head ? *Head : NoLink; L != NoLink;
       L = OpUseLinks[L].Next) {
    const OpSite &Op = Sol.opSites()[OpUseLinks[L].Op];
    if (!Op.Dead && Op.Spec.Kind == OpKind::SetListener && Op.Recv == Recv &&
        Op.ValArg == Val && Op.Spec.Listener)
      wireListenerCallback(View, ListenerValue, *Op.Spec.Listener);
  }
}

void Solver::wireHandler(NodeId View, NodeId Receiver,
                         const MethodDecl *Handler, int ViewParam,
                         DerivRule Rule, FactId ListenerFact) {
  NodeId ThisNode = G.getVarNode(Handler, Handler->thisVar());
  G.addFlowEdge(Receiver, ThisNode);
  provLink(Receiver, ThisNode, Rule, ListenerFact);
  provCtx(Rule, ListenerFact);
  addValue(ThisNode, Receiver);
  if (ViewParam >= 0 && static_cast<unsigned>(ViewParam) < Handler->paramCount())
    addValue(G.getVarNode(Handler,
                          Handler->paramVar(static_cast<unsigned>(ViewParam))),
             View);
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
      if (!G.addListenerEdge(V, L))
        continue; // this (view, listener) pair is already wired
      provEdge(FactKind::Listener, V, L, DerivRule::SetListener,
               provFlow(Op.Recv, V), provFlow(Op.ValArg, L));
      wireListenerCallback(V, L, *Op.Spec.Listener);
    }
}

std::vector<NodeId> Solver::wireFactories(size_t OpIndex,
                                          const char *FactoryName,
                                          DerivRule Rule) {
  OpSite &Op = Sol.opSites()[OpIndex];
  // Copy the value set: addValue below may insert into the very set being
  // walked (a factory calling tx.add or setAdapter on its own `this`).
  std::vector<NodeId> Values(Sol.valuesAt(Op.ValArg).begin(),
                             Sol.valuesAt(Op.ValArg).end());
  std::vector<NodeId> Returns;
  for (NodeId V : Values) {
    if (G.node(V).Kind != NodeKind::Alloc)
      continue;
    const ClassDecl *VClass = G.node(V).Klass;
    const MethodDecl *Factory =
        VClass ? hier::ClassHierarchy::dispatch(VClass, FactoryName, 1)
               : nullptr;
    if (!Factory || Factory->owner()->isPlatform())
      continue;
    // Register on the factory's returns outside the memo: registerOpUses
    // rebuilds the op uses from role nodes only, so a re-solve must
    // re-establish this registration (addOpUse dedups).
    for (const Stmt &Ret : Factory->body())
      if (Ret.Kind == StmtKind::Return && Ret.Lhs != InvalidVar) {
        Returns.push_back(G.getVarNode(Factory, Ret.Lhs));
        addOpUse(Returns.back(), OpIndex);
      }
    NodeId ThisNode = G.getVarNode(Factory, Factory->thisVar());
    bool Relinked = G.addFlowEdge(V, ThisNode);
    uint64_t Key = (static_cast<uint64_t>(OpIndex) << 32) | V;
    if (!FactoryWired.insert(Key).second && !Relinked)
      continue;
    provLink(V, ThisNode, Rule, provFlow(Op.ValArg, V));
    provCtx(Rule, provFlow(Op.ValArg, V));
    addValue(ThisNode, V);
  }
  return Returns;
}

void Solver::fireFragmentAdd(size_t OpIndex) {
  // Extension rule: transaction.add(containerId, fragment). The framework
  // calls fragment.onCreateView(inflater); the returned view becomes a
  // child of every view carrying the container id.
  OpSite &Op = Sol.opSites()[OpIndex];
  std::vector<NodeId> Returns =
      wireFactories(OpIndex, FragmentFactory, DerivRule::FragmentAdd);

  // Attach every known fragment root under every container view whose id
  // reaches the container-id argument.
  std::vector<NodeId> WantedIds;
  for (NodeId IdVal : Sol.valuesAt(Op.IdArg))
    if (G.node(IdVal).Kind == NodeKind::ViewId)
      WantedIds.push_back(IdVal);
  if (WantedIds.empty())
    return;

  std::vector<NodeId> FragmentRoots;
  for (NodeId Ret : Returns)
    for (NodeId V : Sol.viewsAt(Ret))
      FragmentRoots.push_back(V);
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
        if (G.addParentChildEdge(Container, Root)) {
          provEdge(FactKind::ParentChild, Container, Root,
                   DerivRule::FragmentAdd, provFlow(Root, Root),
                   Prov ? Prov->edgeFact(FactKind::HasId, Container, IdNode)
                        : ProvenanceRecorder::NoFact);
          notePlaced(Root);
        }
  }
}

void Solver::fireSetAdapter(size_t OpIndex) {
  // Extension rule: listView.setAdapter(adapter). The framework calls
  // adapter.getView(inflater) per row; every returned view becomes a
  // child of the AdapterView.
  OpSite &Op = Sol.opSites()[OpIndex];
  for (NodeId Ret : wireFactories(OpIndex, AdapterFactory, DerivRule::SetAdapter))
    for (NodeId Item : Sol.viewsAt(Ret))
      for (NodeId ListView : Sol.viewsAt(Op.Recv))
        if (G.addParentChildEdge(ListView, Item)) {
          provEdge(FactKind::ParentChild, ListView, Item,
                   DerivRule::SetAdapter, provFlow(Op.Recv, ListView),
                   provFlow(Item, Item));
          notePlaced(Item);
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
  SolverStats Result = runFixpoint();
  SeededNodes = static_cast<NodeId>(G.size());
  return Result;
}

SolverStats Solver::resolveIncremental(const RederiveFrontier &F) {
  Stats = SolverStats();
  ViewBaseClass = AM.program().findClass(names::View);
  GroupBaseClass = AM.program().findClass(names::ViewGroup);
  auto &Ops = Sol.opSites();
  TrackPlaced = true;
  Placed.clear();
  NewIds.clear();
  for (NodeId Id : F.ChangedIds)
    NewIds.emplace_back(InvalidNode, Id);

  // The rebuild appended ops: register their uses and fire them. A
  // resurrected op keeps its slot, roles and registrations.
  InOpWorklist.resize(Ops.size(), false);
  for (; RegisteredOps < Ops.size(); ++RegisteredOps)
    if (!Ops[RegisteredOps].Dead) {
      registerOp(RegisteredOps);
      enqueueOp(RegisteredOps);
    }
  for (; IndexedOps < Ops.size(); ++IndexedOps) {
    const OpSite &Op = Ops[IndexedOps];
    const uint32_t Idx = static_cast<uint32_t>(IndexedOps);
    OpOfSite.set(Op.OpNode, Idx);
    if (Op.Out == InvalidNode)
      continue;
    const uint32_t New = static_cast<uint32_t>(OutUseLinks.size());
    uint32_t &Head = OutUseHead.getOrInsert(Op.Out, NoLink);
    OutUseLinks.push_back({Idx, Head});
    Head = New;
  }
  // Only the rebuild's value nodes are unseeded: the solver seeds what it
  // mints at the mint, and no retraction kills a surviving node's seed.
  seedValueNodes(SeededNodes);

  // The frontier ops, whatever their role sets hold now: a re-fire reads
  // full sets, so it restores the facts the closure over-deleted, and it
  // re-mints a retired inflation (the memo hit is stale).
  for (NodeId N : F.OpInputs)
    enqueueOpsAt(N);
  for (NodeId Site : F.ShrunkSites)
    if (const uint32_t *Op = OpOfSite.get(Site))
      enqueueOp(*Op);
  for (uint32_t Op : F.Ops)
    enqueueOp(Op);
  if (F.FactoriesChanged)
    for (size_t I = 0; I < Ops.size(); ++I)
      if (Ops[I].Spec.Kind == OpKind::FragmentAdd ||
          Ops[I].Spec.Kind == OpKind::SetAdapter)
        enqueueOp(I);
  // Each re-fired op notes its site again while it is still unresolved;
  // the markers of ops that do not re-fire stand, since nothing they read
  // shrank.
  Sol.clearUnresolvedOps(
      [&](uint32_t I) { return Ops[I].Dead || InOpWorklist[I]; });

  // Give each lost value back from a flow predecessor that still holds
  // it. The recorder lists the nodes that hold the value (its flowsTo
  // facts), so no reverse adjacency is kept. A value no predecessor holds
  // stays lost unless a rule re-derives it.
  for (const auto &[T, V] : F.Lost) {
    NodeId From = InvalidNode;
    Prov->forEachFactAt(V, [&](FactId I) {
      const ProvenanceRecorder::Fact &Held = Prov->fact(I);
      if (From == InvalidNode && Held.Kind == FactKind::Flow &&
          Held.B == V && G.hasFlowEdge(Held.A, T))
        From = Held.A;
    });
    if (From == InvalidNode)
      continue;
    provCtx(DerivRule::FlowEdge, Prov->flowFact(From, V));
    addValue(T, V);
  }
  // A new edge carries its source's whole set, committed values included.
  for (const auto &[From, To] : F.NewEdges) {
    const FlowSet *FSet = Sol.flowsToSets().find(From);
    if (!FSet || G.node(To).Kind == NodeKind::Op)
      continue;
    // Copy out: addValue may create sets and move this one.
    PropScratch.assign(FSet->begin(), FSet->end());
    for (NodeId V : PropScratch) {
      provCtx(DerivRule::FlowEdge, Prov->flowFact(From, V));
      addValue(To, V);
    }
  }
  for (const auto &[View, Listener] : F.Rewire)
    rewireCallback(View, Listener);

  // Structure the closure deleted may be re-derivable from what is left:
  // the structure round fires the ops the changed ids reach and runs the
  // android:onClick sweep once.
  StructureDirty =
      StructureDirty || F.StructureRetracted || !F.ChangedIds.empty();
  SolverStats Result = runFixpoint();
  SeededNodes = static_cast<NodeId>(G.size());
  return Result;
}

void Solver::enqueueOpsAt(NodeId N) {
  for (const auto &[Head, Links] :
       {std::pair{OpUseHead.get(N), &OpUseLinks},
        std::pair{OutUseHead.get(N), &OutUseLinks}})
    for (uint32_t L = Head ? *Head : NoLink; L != NoLink;
         L = (*Links)[L].Next)
      enqueueOp((*Links)[L].Op);
}

void Solver::enqueueStructureOps() {
  auto fire = [&](size_t OpIndex) {
    Stats.StructureRefires += !InOpWorklist[OpIndex];
    enqueueOp(OpIndex);
  };
  if (!TrackPlaced || !Options.TrackViewIds || !Options.TrackHierarchy ||
      G.hasUnknownSources()) {
    for (size_t OpIndex : StructureSensitiveOps)
      fire(OpIndex);
    Placed.clear();
    NewIds.clear();
    return;
  }
  auto uniq = [](std::vector<NodeId> &V) {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  };
  // The ids a lookup may now match: the new has-id ids, and the ids of
  // the views in each placed subtree.
  std::vector<NodeId> Ids, Reached;
  for (const auto &[View, Id] : NewIds) {
    Ids.push_back(Id);
    if (View != InvalidNode)
      Reached.push_back(View);
  }
  NewIds.clear();
  for (NodeId View : Placed) {
    Reached.push_back(View);
    for (NodeId V : G.descendantsOf(View))
      for (NodeId Id : G.viewIds(V))
        Ids.push_back(Id);
  }
  Placed.clear();
  uniq(Ids);
  // The searches that may now find more start at a view above a placed
  // view or a view with a new id, or at a window holding such a view as a
  // root. The recorder's per-node index lists the parent-child and root
  // facts that end at a view, so no reverse adjacency is kept.
  uniq(Reached);
  std::vector<NodeId> Work(Reached);
  while (!Work.empty()) {
    const NodeId V = Work.back();
    Work.pop_back();
    Prov->forEachFactAt(V, [&](FactId I) {
      const ProvenanceRecorder::Fact &Ft = Prov->fact(I);
      if (Ft.B != V ||
          (Ft.Kind != FactKind::ParentChild && Ft.Kind != FactKind::Root) ||
          std::find(Reached.begin(), Reached.end(), Ft.A) != Reached.end())
        return;
      Reached.push_back(Ft.A);
      if (Ft.Kind == FactKind::ParentChild)
        Work.push_back(Ft.A);
    });
  }
  uniq(Reached);

  auto holdsAny = [&](NodeId Role, const std::vector<NodeId> &Held) {
    if (Role == InvalidNode || Held.empty())
      return false;
    for (NodeId V : Sol.valuesAt(Role))
      if (std::binary_search(Held.begin(), Held.end(), V))
        return true;
    return false;
  };
  const auto &Ops = Sol.opSites();
  for (size_t OpIndex : StructureSensitiveOps) {
    const OpSite &Op = Ops[OpIndex];
    if (Op.Dead)
      continue;
    bool Reaches = false;
    switch (Op.Spec.Kind) {
    case OpKind::FindView1:
    case OpKind::FindView2:
      Reaches = holdsAny(Op.IdArg, Ids) && holdsAny(Op.Recv, Reached);
      break;
    case OpKind::FindView3:
      Reaches = holdsAny(Op.Recv, Reached);
      break;
    default: // FragmentAdd: its containers are the views with its ids
      Reaches = holdsAny(Op.IdArg, Ids);
      break;
    }
    if (Reaches)
      fire(OpIndex);
  }
}

Solver::LayoutMemos Solver::forgetLayoutMemos(graph::NodeId LayoutIdNode) {
  if (!MemosIndexed) {
    for (const auto &Memo : InflatedAt)
      MemosById[static_cast<NodeId>(Memo.first & 0xffffffffu)].push_back(
          static_cast<uint32_t>(Memo.first >> 32));
    MemosIndexed = true;
  }
  LayoutMemos Memos;
  auto Indexed = MemosById.find(LayoutIdNode);
  if (Indexed == MemosById.end())
    return Memos;
  Memos.Sites = std::move(Indexed->second);
  MemosById.erase(Indexed);
  std::sort(Memos.Sites.begin(), Memos.Sites.end());
  for (uint32_t Site : Memos.Sites) {
    auto It =
        InflatedAt.find((static_cast<uint64_t>(Site) << 32) | LayoutIdNode);
    Memos.Roots.push_back(It->second);
    InflatedAt.erase(It);
  }
  return Memos;
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
      // re-fires are batched here too (notePlaced/noteNewId only mark),
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
      enqueueStructureOps();
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
  FixpointSpan.arg("structure_refires", Stats.StructureRefires);
  return Stats;
}
