//===- Lint.cpp - Static GUI error checking ---------------------*- C++ -*-===//

#include "guimodel/Lint.h"

#include <unordered_set>

using namespace gator;
using namespace gator::guimodel;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;
using namespace gator::ir;

const char *gator::guimodel::lintKindName(LintKind Kind) {
  switch (Kind) {
  case LintKind::UnresolvedFind:
    return "unresolved-find";
  case LintKind::BadCast:
    return "bad-cast";
  case LintKind::DeadListener:
    return "dead-listener";
  case LintKind::OrphanView:
    return "orphan-view";
  case LintKind::UnusedLayout:
    return "unused-layout";
  case LintKind::UnusedViewId:
    return "unused-view-id";
  }
  return "unknown";
}

std::vector<LintFinding>
gator::guimodel::runLint(const AnalysisResult &Result,
                         const layout::LayoutRegistry &Layouts) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;
  const ir::Program &P = Sol.androidModel().program();
  std::vector<LintFinding> Findings;

  auto report = [&](LintKind Kind, SourceLocation Loc, std::string Message) {
    Findings.push_back(LintFinding{Kind, std::move(Loc), std::move(Message)});
  };

  //===------------------------------------------------------------------===//
  // Find-view checks: unresolved lookups and guaranteed-bad casts.
  //===------------------------------------------------------------------===//

  for (const OpSite &Op : Sol.ops()) {
    bool IsFind = Op.Spec.Kind == OpKind::FindView1 ||
                  Op.Spec.Kind == OpKind::FindView2 ||
                  Op.Spec.Kind == OpKind::FindView3;
    if (!IsFind || Op.Out == InvalidNode)
      continue;
    if (Sol.valuesAt(Op.Recv).empty())
      continue; // the call itself is unreached; nothing to diagnose

    std::vector<NodeId> Results = Sol.resultsOf(Op, Result.Options);
    SourceLocation Loc = G.loc(Op.OpNode);

    if (Results.empty()) {
      report(LintKind::UnresolvedFind, Loc,
             std::string(opKindName(Op.Spec.Kind)) + " in " +
                 Op.Method->qualifiedName() +
                 " never resolves to any view (wrong id, or the view is "
                 "never attached)");
      continue;
    }

    // Destination type compatibility.
    const Node &OutNode = G.node(Op.Out);
    if (OutNode.Kind != NodeKind::Var)
      continue;
    ir::Name DeclName =
        OutNode.Method->var(OutNode.Var).TypeName;
    if (DeclName.empty() || isPrimitiveTypeName(DeclName))
      continue;
    const ClassDecl *DeclType = P.findClass(DeclName);
    if (!DeclType || DeclType->name() == ObjectClassName)
      continue;
    bool AnyCompatible = false;
    for (NodeId V : Results) {
      const ClassDecl *VC = G.node(V).Klass;
      if (!VC || P.isSubtypeOf(VC, DeclType) || P.isSubtypeOf(DeclType, VC))
        AnyCompatible = true;
    }
    if (!AnyCompatible)
      report(LintKind::BadCast, Loc,
             "every view this " + std::string(opKindName(Op.Spec.Kind)) +
                 " resolves to is incompatible with declared type '" +
                 DeclName + "' in " + Op.Method->qualifiedName());
  }

  //===------------------------------------------------------------------===//
  // Dead listeners: allocated, never associated with any view.
  //===------------------------------------------------------------------===//

  std::unordered_set<NodeId> AssociatedListeners;
  std::unordered_set<NodeId> AttachedViews;
  for (NodeId V = 0; V < G.size(); ++V) {
    if (isViewNodeKind(G.node(V).Kind)) {
      for (NodeId L : G.listeners(V))
        AssociatedListeners.insert(L);
      for (NodeId C : G.children(V))
        AttachedViews.insert(C);
    } else {
      for (NodeId R : G.roots(V))
        AttachedViews.insert(R);
    }
  }

  const AndroidModel &AM = Sol.androidModel();
  for (NodeId A : G.nodesOfKind(NodeKind::Alloc)) {
    const ClassDecl *C = G.node(A).Klass;
    if (!C || !AM.isListenerClass(C))
      continue;
    if (!AssociatedListeners.count(A))
      report(LintKind::DeadListener, G.loc(A),
             "listener '" + C->name() +
                 "' allocated but never registered on any view");
  }

  //===------------------------------------------------------------------===//
  // Orphan views: allocated, never attached, never a window root.
  //===------------------------------------------------------------------===//

  for (NodeId V : G.nodesOfKind(NodeKind::ViewAlloc)) {
    if (AttachedViews.count(V))
      continue;
    report(LintKind::OrphanView, G.loc(V),
           "view '" + G.node(V).Klass->name() +
               "' allocated but never attached to any hierarchy");
  }

  //===------------------------------------------------------------------===//
  // Unused layouts and view ids.
  //===------------------------------------------------------------------===//

  std::unordered_set<NodeId> InflatedLayoutIds;
  std::unordered_set<NodeId> UsedViewIds;
  for (const OpSite &Op : Sol.ops()) {
    if (Op.Spec.Kind == OpKind::Inflate1 ||
        Op.Spec.Kind == OpKind::Inflate2) {
      for (NodeId V : Sol.valuesAt(Op.IdArg))
        if (G.node(V).Kind == NodeKind::LayoutId)
          InflatedLayoutIds.insert(V);
    }
    if (Op.IdArg != InvalidNode)
      for (NodeId V : Sol.valuesAt(Op.IdArg))
        if (G.node(V).Kind == NodeKind::ViewId)
          UsedViewIds.insert(V);
  }

  const layout::ResourceTable &Res = Layouts.resources();
  for (const auto &Def : Layouts.layouts()) {
    NodeId IdNode = InvalidNode;
    for (NodeId N : G.nodesOfKind(NodeKind::LayoutId))
      if (G.node(N).Res == Def->id())
        IdNode = N;
    if (Layouts.includedLayouts().count(Def->name()))
      continue; // consumed through <include>
    if (IdNode == InvalidNode || !InflatedLayoutIds.count(IdNode))
      report(LintKind::UnusedLayout, SourceLocation(),
             "layout '" + Def->name() + "' is never inflated");
  }

  for (NodeId N : G.nodesOfKind(NodeKind::ViewId)) {
    if (UsedViewIds.count(N))
      continue;
    // Also used when code merely references it (flow successors exist).
    if (!G.flowSuccessors(N).empty())
      continue;
    auto Name = Res.viewIdName(G.node(N).Res);
    report(LintKind::UnusedViewId, SourceLocation(),
           "view id '" + (Name ? *Name : std::string("?")) +
               "' is declared but never used by any operation");
  }

  return Findings;
}

void gator::guimodel::printLintFindings(
    std::ostream &OS, const std::vector<LintFinding> &Findings) {
  for (const LintFinding &F : Findings) {
    if (F.Loc.isValid())
      OS << F.Loc << ": ";
    OS << lintKindName(F.Kind) << ": " << F.Message << '\n';
  }
  if (Findings.empty())
    OS << "no findings\n";
}
