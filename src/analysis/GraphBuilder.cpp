//===- GraphBuilder.cpp - Constraint graph construction ---------*- C++ -*-===//

#include "analysis/GraphBuilder.h"

#include "support/Trace.h"

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::ir;
using namespace gator::android;

void GraphBuilder::buildResourceNodes(ConstraintGraph &G) {
  const layout::ResourceTable &Res = Layouts.resources();
  for (const std::string &Name : Res.layoutNames())
    G.getLayoutIdNode(Res.lookupLayoutId(Name));
  for (const std::string &Name : Res.viewIdNames())
    G.getViewIdNode(Res.lookupViewId(Name));
}

void GraphBuilder::buildActivityNodes(ConstraintGraph &G) {
  // Section 4.1: "an activity node is created for each activity class, to
  // represent instances created implicitly by the Android platform", with
  // edges "to all this_m variable nodes, where m is a callback method that
  // could be invoked by the framework with this activity as the receiver".
  // No method body contributes these edges, so they bypass the journal.
  for (const ClassDecl *A : AM.appActivityClasses()) {
    NodeId ActNode = G.getActivityNode(A);
    AndroidModel::forEachLifecycleCallback(A, [&](const MethodDecl *M) {
      G.addFlowEdge(ActNode, G.getVarNode(M, M->thisVar()));
    });
  }
}

void GraphBuilder::buildCallEdges(ConstraintGraph &G, const MethodDecl &M,
                                  const Stmt &S,
                                  const std::vector<const MethodDecl *>
                                      &Targets) {
  for (const MethodDecl *T : Targets) {
    if (T->owner()->isPlatform())
      continue;
    // Receiver into `this`.
    if (!T->isStatic())
      addFlow(G, G.getVarNode(&M, S.Base), G.getVarNode(T, T->thisVar()));
    // Arguments into parameters.
    unsigned N = std::min<unsigned>(T->paramCount(),
                                    static_cast<unsigned>(S.args().size()));
    for (unsigned I = 0; I < N; ++I)
      addFlow(G, G.getVarNode(&M, S.args()[I]),
                    G.getVarNode(T, T->paramVar(I)));
    // Returned values into the call result.
    if (S.Lhs != InvalidVar) {
      NodeId LhsNode = G.getVarNode(&M, S.Lhs);
      for (const Stmt &Ret : T->body())
        if (Ret.Kind == StmtKind::Return && Ret.Lhs != InvalidVar)
          addFlow(G, G.getVarNode(T, Ret.Lhs), LhsNode);
    }
  }
}

void GraphBuilder::buildOpSite(ConstraintGraph &G, std::vector<OpSite> &Ops,
                               const MethodDecl &M, const Stmt &S,
                               const OpSpec &Spec) {
  // Roles are resolved before the op node is minted so an edit-scale
  // rebuild can match this site against a dead predecessor by (kind,
  // roles) and resurrect its slot — keeping op indices and OpNode ids
  // stable memo keys (docs/INCREMENTAL.md). Role-edge emission order below
  // matches the historical per-kind order (Recv, IdArg, AttachParent /
  // ValArg, Out) byte for byte.
  OpSite Site;
  Site.Spec = Spec;
  Site.Method = &M;
  Site.Recv = G.getVarNode(&M, S.Base);

  auto argNode = [&](unsigned I) { return G.getVarNode(&M, S.args()[I]); };

  switch (Spec.Kind) {
  case OpKind::Inflate1:
    Site.IdArg = argNode(0);
    if (Spec.AttachParentArgIndex >= 0)
      Site.AttachParent = argNode(Spec.AttachParentArgIndex);
    break;
  case OpKind::Inflate2:
  case OpKind::SetId:
  case OpKind::FindView1:
  case OpKind::FindView2:
    Site.IdArg = argNode(0);
    break;
  case OpKind::AddView1:
  case OpKind::AddView2:
  case OpKind::SetListener:
  case OpKind::SetAdapter:
  case OpKind::StartActivity:
    Site.ValArg = argNode(0);
    break;
  case OpKind::SetIntentClass:
    Site.ValArg = argNode(1); // the Class argument
    break;
  case OpKind::FragmentAdd:
    Site.IdArg = argNode(0);
    Site.ValArg = argNode(1); // the Fragment argument
    break;
  case OpKind::FindView3:
    break; // receiver only (getChildAt's index is not a view id)
  }

  if (S.Lhs != InvalidVar)
    Site.Out = G.getVarNode(&M, S.Lhs);

  uint32_t Reused = OpReuse ? OpReuse(Site) : ~0u;
  if (Reused != ~0u) {
    Site.OpNode = Ops[Reused].OpNode;
    Ops[Reused] = Site; // Dead defaults false: the slot is live again
  } else {
    Site.OpNode = G.makeOpNode(Spec.Kind, S.Loc, Spec.Listener, Spec.ChildOnly);
    Ops.push_back(Site);
  }

  addFlow(G, Site.Recv, Site.OpNode);
  if (Site.IdArg != InvalidNode)
    addFlow(G, Site.IdArg, Site.OpNode);
  if (Site.ValArg != InvalidNode)
    addFlow(G, Site.ValArg, Site.OpNode);
  if (Site.AttachParent != InvalidNode)
    addFlow(G, Site.AttachParent, Site.OpNode);
  if (Site.Out != InvalidNode)
    addFlow(G, Site.OpNode, Site.Out);
}

void GraphBuilder::buildInvoke(ConstraintGraph &G, std::vector<OpSite> &Ops,
                               const MethodDecl &M, const Stmt &S) {
  // Unknown-source modeling (docs/ROBUSTNESS.md): calls the analysis cannot
  // resolve to a value become tagged unknown nodes instead of dropped facts.
  // `c.newInstance()` is reflective construction — the result may be any
  // view; `res.getIdentifier(...)` computes a resource id at runtime — the
  // result may be any id. Only fires when normal resolution failed.
  auto mintUnknownResult = [&]() -> bool {
    if (!ModelUnknown || S.Lhs == InvalidVar)
      return false;
    if (S.methodName() == "newInstance" && S.args().empty()) {
      addFlow(G, 
          G.makeUnknownViewNode(UnknownReason::ReflectiveNew, &M, S.Loc),
          G.getVarNode(&M, S.Lhs));
      return true;
    }
    if (S.methodName() == "getIdentifier") {
      addFlow(G, G.makeUnknownIdNode(UnknownReason::DynamicId, &M, S.Loc),
                    G.getVarNode(&M, S.Lhs));
      return true;
    }
    return false;
  };

  const ClassDecl *Recv = declaredClass(M.var(S.Base));
  if (!Recv) {
    // Unknown receiver type: no call edges (verifier already warned), but a
    // reflective/dynamic result is still modeled.
    mintUnknownResult();
    return;
  }

  unsigned Arity = static_cast<unsigned>(S.args().size());
  const MethodDecl *Resolved = Recv->findMethod(S.methodName(), Arity);

  // A call whose static resolution lands on a *platform stub* is an
  // Android operation (Section 3.2 semantics); a concrete application
  // method is an ordinary call. Concrete overrides of platform methods in
  // subtypes receive call edges in either case via CHA.
  bool PlatformTarget =
      Resolved && Resolved->isAbstract() && Resolved->owner()->isPlatform();
  if (PlatformTarget || !Resolved) {
    if (std::optional<OpSpec> Spec = AM.classifyInvoke(M, S)) {
      buildOpSite(G, Ops, M, S, *Spec);
    } else if (PlatformTarget && AM.listClass() &&
               P.isSubtypeOf(Recv, AM.listClass())) {
      // Collection modeling: `list.add(v)` / `v := list.get(i)` /
      // `v := list.remove(i)` flow through the artificial field
      // java.util.List.elements (field-based, merged over all lists) so
      // views stored in collections remain trackable.
      const ir::FieldDecl *Elements = AM.listElementsField();
      if (Elements) {
        if (S.methodName() == "add" && S.args().size() == 1)
          addFlow(G, G.getVarNode(&M, S.args()[0]),
                        G.getFieldNode(Elements));
        else if ((S.methodName() == "get" || S.methodName() == "remove") &&
                 S.Lhs != InvalidVar)
          addFlow(G, G.getFieldNode(Elements), G.getVarNode(&M, S.Lhs));
      }
    } else {
      mintUnknownResult();
    }
  }
  buildCallEdges(G, M, S,
                 CH.resolveVirtualCall(Recv, S.methodName(), Arity));
}

void GraphBuilder::buildMethod(ConstraintGraph &G, std::vector<OpSite> &Ops,
                               const MethodDecl &M) {
  const layout::ResourceTable &Res = Layouts.resources();
  for (size_t I = 0; I < M.body().size(); ++I) {
    const Stmt &S = M.body()[I];
    switch (S.Kind) {
    case StmtKind::AssignVar:
      addFlow(G, G.getVarNode(&M, S.Base), G.getVarNode(&M, S.Lhs));
      break;
    case StmtKind::AssignNew: {
      const ClassDecl *C = P.findClass(S.className());
      if (!C) {
        // Unresolved class (missing library, obfuscated name): model the
        // allocation as an unknown view rather than silently dropping it
        // (docs/ROBUSTNESS.md).
        if (ModelUnknown && S.Lhs != InvalidVar) {
          Diags.warning(S.Loc, "new of unresolved class '" + S.className() +
                                   "'; modeling result as unknown");
          addFlow(G, 
              G.makeUnknownViewNode(UnknownReason::UnknownClass, &M, S.Loc),
              G.getVarNode(&M, S.Lhs));
        }
        break;
      }
      bool IsView = AM.isViewClass(C);
      NodeId Alloc = G.getAllocNode(&M, static_cast<int32_t>(I), C, IsView,
                                    S.Loc);
      addFlow(G, Alloc, G.getVarNode(&M, S.Lhs));
      // Dialogs are created by the application but their lifecycle
      // callbacks (onCreate etc.) are invoked by the framework, exactly
      // like activities (Section 3.2's "similar operations on non-
      // activity objects"). Seed the allocation into each callback's
      // `this`.
      if (AM.isWindowClass(C) && !AM.isActivityClass(C))
        AndroidModel::forEachLifecycleCallback(C, [&](const MethodDecl *M) {
          addFlow(G, Alloc, G.getVarNode(M, M->thisVar()));
        });
      break;
    }
    case StmtKind::AssignNull:
      break;
    case StmtKind::LoadField: {
      const ClassDecl *C = declaredClass(M.var(S.Base));
      const FieldDecl *F = C ? C->findField(S.fieldName()) : nullptr;
      if (F)
        addFlow(G, G.getFieldNode(F), G.getVarNode(&M, S.Lhs));
      break;
    }
    case StmtKind::StoreField: {
      const ClassDecl *C = declaredClass(M.var(S.Base));
      const FieldDecl *F = C ? C->findField(S.fieldName()) : nullptr;
      if (F)
        addFlow(G, G.getVarNode(&M, S.Rhs), G.getFieldNode(F));
      break;
    }
    case StmtKind::LoadStaticField: {
      const ClassDecl *C = P.findClass(S.className());
      const FieldDecl *F = C ? C->findField(S.fieldName()) : nullptr;
      if (F)
        addFlow(G, G.getFieldNode(F), G.getVarNode(&M, S.Lhs));
      break;
    }
    case StmtKind::StoreStaticField: {
      const ClassDecl *C = P.findClass(S.className());
      const FieldDecl *F = C ? C->findField(S.fieldName()) : nullptr;
      if (F)
        addFlow(G, G.getVarNode(&M, S.Rhs), G.getFieldNode(F));
      break;
    }
    case StmtKind::AssignLayoutId: {
      layout::ResourceId Id = Res.lookupLayoutId(S.resourceName());
      if (Id == layout::InvalidResourceId) {
        Diags.warning(S.Loc, "reference to unknown layout '@layout/" +
                                 S.resourceName() + "'");
        // Missing layout resource: the id still reaches inflate sites as a
        // tagged unknown so downstream ops degrade instead of vanishing.
        if (ModelUnknown && S.Lhs != InvalidVar)
          addFlow(G, 
              G.makeUnknownIdNode(UnknownReason::MissingLayout, &M, S.Loc),
              G.getVarNode(&M, S.Lhs));
        break;
      }
      addFlow(G, G.getLayoutIdNode(Id), G.getVarNode(&M, S.Lhs));
      break;
    }
    case StmtKind::AssignViewId: {
      // View ids may be referenced in code even when no layout declares
      // them (e.g. used only with setId); intern on demand.
      layout::ResourceId Id =
          Layouts.resources().internViewId(S.resourceName());
      addFlow(G, G.getViewIdNode(Id), G.getVarNode(&M, S.Lhs));
      break;
    }
    case StmtKind::AssignClassConst: {
      const ClassDecl *C = P.findClass(S.className());
      if (C)
        addFlow(G, G.getClassConstNode(C), G.getVarNode(&M, S.Lhs));
      break;
    }
    case StmtKind::Invoke:
      buildInvoke(G, Ops, M, S);
      break;
    case StmtKind::Return:
      break; // return edges are added per call site
    }
  }
}

bool GraphBuilder::build(ConstraintGraph &G, std::vector<OpSite> &Ops) {
  unsigned ErrorsBefore = Diags.errorCount();
  // Pre-size the graph: roughly one node per application-method variable
  // (the dominant kind) plus slack for ops, allocs, ids, and inflations;
  // roughly one flow edge per statement.
  size_t VarHint = 0, StmtHint = 0;
  for (const auto &C : P.classes()) {
    if (C->isPlatform())
      continue;
    for (const auto &M : C->methods()) {
      VarHint += M->vars().size();
      StmtHint += M->body().size();
    }
  }
  // Beyond one node per variable, statements mint op/alloc/id nodes and
  // the solver mints ViewInfl trees per (inflate site, layout), so leave
  // generous slack: re-reserving mid-solve moves every Node (and its
  // SourceLocation string), which showed up heavily in profiles.
  G.reserve(VarHint + VarHint / 2 + StmtHint / 2 + 256, StmtHint + 64,
            P.methodIdLimit());
  {
    support::TraceSpan S(Trace, "graph-build.resources");
    buildResourceNodes(G);
  }
  {
    support::TraceSpan S(Trace, "graph-build.activities");
    buildActivityNodes(G);
  }
  {
    support::TraceSpan S(Trace, "graph-build.methods");
    unsigned long Methods = 0;
    for (const auto &C : P.classes()) {
      if (C->isPlatform())
        continue;
      for (const auto &M : C->methods())
        if (!M->isAbstract()) {
          buildMethod(G, Ops, *M);
          if (MethodBuilt)
            MethodBuilt(*M);
          ++Methods;
        }
    }
    S.arg("methods", Methods);
  }
  return Diags.errorCount() == ErrorsBefore;
}
