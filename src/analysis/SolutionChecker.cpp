//===- SolutionChecker.cpp - A-posteriori fixed-point validation *- C++ -*-===//

#include "analysis/SolutionChecker.h"

#include "hier/ClassHierarchy.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;

namespace {

/// Retired nodes (docs/INCREMENTAL.md) are debris of an incremental
/// session's retraction; no rule holds them to anything.
class Checker {
public:
  Checker(const ConstraintGraph &G, const Solution &Sol,
          const AnalysisOptions &Options)
      : Options(Options), G(G), Sol(Sol), P(Sol.androidModel().program()) {}

  std::vector<std::string> run() {
    checkFlowClosure();
    for (const OpSite &Op : Sol.ops())
      if (!Op.Dead)
        checkOp(Op);
    checkXmlOnClick();
    return std::move(Violations);
  }

private:
  void violation(const std::string &Message) {
    if (Violations.size() < 50) // cap the report; one failure is enough
      Violations.push_back(Message);
  }

  /// Re-implements the solver's declared-type filter for checking.
  bool typeCompatible(NodeId N, NodeId Value) const {
    if (!Options.DeclaredTypeFilter)
      return true;
    const Node &Target = G.node(N);
    const ir::ClassDecl *DeclType = nullptr;
    if (Target.Kind == NodeKind::Var) {
      ir::Name T = Target.Method->var(Target.Var).TypeName;
      if (T.empty() || ir::isPrimitiveTypeName(T))
        return true;
      DeclType = P.findClass(T);
    } else if (Target.Kind == NodeKind::Field) {
      ir::Name T = Target.Field->typeName();
      if (T.empty() || ir::isPrimitiveTypeName(T))
        return true;
      DeclType = P.findClass(T);
    } else {
      return true;
    }
    if (!DeclType || DeclType->name() == ir::ObjectClassName)
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

  void checkFlowClosure() {
    for (NodeId N = 0; N < G.size(); ++N) {
      if (G.node(N).Kind == NodeKind::Op || G.node(N).Retired)
        continue;
      const auto &SrcSet = Sol.valuesAt(N);
      if (SrcSet.empty())
        continue;
      for (NodeId Succ : G.flowSuccessors(N)) {
        if (G.node(Succ).Kind == NodeKind::Op)
          continue; // ops consume role variables, not edge targets
        const auto &DstSet = Sol.valuesAt(Succ);
        for (NodeId V : SrcSet) {
          if (G.node(V).Retired || !typeCompatible(Succ, V))
            continue;
          if (!DstSet.count(V))
            violation("flow closure: " + G.label(V) + " in " + G.label(N) +
                      " missing from successor " + G.label(Succ));
        }
      }
    }
  }

  /// Rule 8: the implicit callback y.n(x) of the (view, listener) pair
  /// \p View, \p Listener: the listener reaches the handler's `this` and
  /// the view reaches its view parameter (\p ViewParam, -1 for none).
  void checkCallback(const char *Rule, NodeId View, NodeId Listener,
                     const ir::MethodDecl *Handler, int ViewParam) {
    auto expect = [&](ir::VarId Var, NodeId Value) {
      NodeId N = G.findVarNode(Handler, Var);
      if (N != InvalidNode &&
          (Sol.valuesAt(N).count(Value) || !typeCompatible(N, Value)))
        return;
      violation(std::string(Rule) + " callback: " + G.label(Value) +
                " missing from " +
                (N != InvalidNode ? G.label(N)
                                  : Handler->owner()->name().str() + "." +
                                        Handler->name().str()));
    };
    expect(Handler->thisVar(), Listener);
    if (ViewParam >= 0 &&
        static_cast<unsigned>(ViewParam) < Handler->paramCount())
      expect(Handler->paramVar(static_cast<unsigned>(ViewParam)), View);
  }

  /// Rule 8 for `android:onClick`: every view carrying the attribute in a
  /// window's hierarchy has the window as listener, and the named handler
  /// of the window's class receives both.
  void checkXmlOnClick() {
    for (NodeId Holder : G.rootHolders()) {
      if (G.node(Holder).Retired)
        continue;
      const ir::ClassDecl *HolderClass = G.node(Holder).Klass;
      for (NodeId Root : G.roots(Holder))
        for (NodeId V : G.descendantsOf(Root)) {
          const Node &VN = G.node(V);
          if (VN.Kind != NodeKind::ViewInfl || VN.Retired || !VN.LNode ||
              !VN.LNode->hasOnClickHandler())
            continue;
          const auto &Ls = G.listeners(V);
          if (std::find(Ls.begin(), Ls.end(), Holder) == Ls.end())
            violation("XmlOnClick closure: missing association " +
                      G.label(V) + " => " + G.label(Holder));
          if (!HolderClass || HolderClass->isPlatform())
            continue;
          const ir::MethodDecl *Handler = hier::ClassHierarchy::dispatch(
              HolderClass, VN.LNode->onClickHandlerName(), 1);
          if (Handler && !Handler->owner()->isPlatform())
            checkCallback("XmlOnClick", V, Holder, Handler, 0);
        }
    }
  }

  void checkOp(const OpSite &Op) {
    switch (Op.Spec.Kind) {
    case OpKind::AddView2: {
      for (NodeId Parent : Sol.viewsAt(Op.Recv))
        for (NodeId Child : Sol.viewsAt(Op.ValArg)) {
          if (Parent == Child)
            continue;
          const auto &Children = G.children(Parent);
          if (std::find(Children.begin(), Children.end(), Child) ==
              Children.end())
            violation("AddView2 closure: missing parent-child " +
                      G.label(Parent) + " => " + G.label(Child));
        }
      break;
    }
    case OpKind::SetId: {
      for (NodeId View : Sol.viewsAt(Op.Recv))
        for (NodeId IdVal : Sol.valuesAt(Op.IdArg)) {
          if (G.node(IdVal).Kind != NodeKind::ViewId)
            continue;
          const auto &Ids = G.viewIds(View);
          if (std::find(Ids.begin(), Ids.end(), IdVal) == Ids.end())
            violation("SetId closure: missing has-id " + G.label(View) +
                      " => " + G.label(IdVal));
        }
      break;
    }
    case OpKind::SetListener: {
      for (NodeId View : Sol.viewsAt(Op.Recv))
        for (NodeId L : Sol.listenerValuesAt(Op.ValArg)) {
          const auto &Ls = G.listeners(View);
          if (std::find(Ls.begin(), Ls.end(), L) == Ls.end())
            violation("SetListener closure: missing association " +
                      G.label(View) + " => " + G.label(L));
          const ir::ClassDecl *LClass = G.node(L).Klass;
          if (!Op.Spec.Listener || !LClass || LClass->isPlatform())
            continue;
          for (const HandlerSig &Sig : Op.Spec.Listener->Handlers) {
            const ir::MethodDecl *Handler = hier::ClassHierarchy::dispatch(
                LClass, Sig.MethodName, Sig.Arity);
            if (Handler && !Handler->owner()->isPlatform())
              checkCallback("SetListener", View, L, Handler,
                            Sig.ViewParamIndex);
          }
        }
      break;
    }
    case OpKind::FindView1:
    case OpKind::FindView2:
    case OpKind::FindView3: {
      if (Op.Out == InvalidNode)
        break;
      const auto &OutSet = Sol.valuesAt(Op.Out);
      for (NodeId V : Sol.resultsOf(Op, Options))
        if (!OutSet.count(V) && typeCompatible(Op.Out, V))
          violation("FindView closure: result " + G.label(V) +
                    " missing from output of " + G.label(Op.OpNode));
      break;
    }
    case OpKind::Inflate1:
    case OpKind::Inflate2: {
      // Every reaching layout id with a minted tree must have a root with
      // the roots-layout edge; Inflate2 roots must hang off every window
      // receiver.
      for (NodeId IdVal : Sol.valuesAt(Op.IdArg)) {
        if (G.node(IdVal).Kind != NodeKind::LayoutId)
          continue;
        std::vector<NodeId> Roots;
        for (NodeId V : G.nodesOfKind(NodeKind::ViewInfl)) {
          if (G.node(V).InflateSite != Op.OpNode || G.node(V).Retired)
            continue;
          const auto &Layouts = G.rootsOfLayouts(V);
          if (std::find(Layouts.begin(), Layouts.end(), IdVal) !=
              Layouts.end())
            Roots.push_back(V);
        }
        if (Roots.empty()) {
          violation("Inflate closure: no minted root for " +
                    G.label(IdVal) + " at " + G.label(Op.OpNode));
          continue;
        }
        if (Op.Spec.Kind == OpKind::Inflate2) {
          for (NodeId W : Sol.valuesAt(Op.Recv)) {
            NodeKind K = G.node(W).Kind;
            if (K != NodeKind::Activity && K != NodeKind::Alloc)
              continue;
            for (NodeId Root : Roots) {
              const auto &WRoots = G.roots(W);
              if (std::find(WRoots.begin(), WRoots.end(), Root) ==
                  WRoots.end())
                violation("Inflate2 closure: missing root edge " +
                          G.label(W) + " => " + G.label(Root));
            }
          }
        } else if (Op.Out != InvalidNode) {
          const auto &OutSet = Sol.valuesAt(Op.Out);
          for (NodeId Root : Roots)
            if (!OutSet.count(Root) && typeCompatible(Op.Out, Root))
              violation("Inflate1 closure: root " + G.label(Root) +
                        " missing from output");
        }
      }
      break;
    }
    case OpKind::AddView1: {
      for (NodeId W : Sol.valuesAt(Op.Recv)) {
        NodeKind K = G.node(W).Kind;
        if (K != NodeKind::Activity && K != NodeKind::Alloc)
          continue;
        for (NodeId V : Sol.viewsAt(Op.ValArg)) {
          const auto &WRoots = G.roots(W);
          if (std::find(WRoots.begin(), WRoots.end(), V) == WRoots.end())
            violation("AddView1 closure: missing root edge " + G.label(W) +
                      " => " + G.label(V));
        }
      }
      break;
    }
    case OpKind::FragmentAdd:
    case OpKind::SetAdapter:
    case OpKind::StartActivity:
    case OpKind::SetIntentClass:
      break; // extension/client ops: no core closure obligations
    }
  }

  const AnalysisOptions &Options;
  const ConstraintGraph &G;
  const Solution &Sol;
  const ir::Program &P;
  std::vector<std::string> Violations;
};

std::vector<std::string> consistencyOf(const ConstraintGraph &G,
                                       const Solution &Sol) {
  std::vector<std::string> V;
  auto violation = [&](const std::string &Message) {
    if (V.size() < 50)
      V.push_back(Message);
  };

  for (NodeId N = 0; N < G.size(); ++N) {
    for (NodeId Val : Sol.valuesAt(N)) {
      if (Val >= G.size()) {
        violation("consistency: out-of-range value node in set of " +
                  G.label(N));
        continue;
      }
      if (!isValueNodeKind(G.node(Val).Kind))
        violation("consistency: non-value node " + G.label(Val) +
                  " in set of " + G.label(N));
    }
    for (NodeId C : G.children(N))
      if (C >= G.size() || !isViewNodeKind(G.node(C).Kind))
        violation("consistency: non-view child under " + G.label(N));
    // Unknown-source modeling (docs/ROBUSTNESS.md) lets a tagged UnknownId
    // stand in for a concrete view/layout id in both relations.
    for (NodeId Id : G.viewIds(N))
      if (Id >= G.size() || (G.node(Id).Kind != NodeKind::ViewId &&
                             G.node(Id).Kind != NodeKind::UnknownId))
        violation("consistency: has-id target of " + G.label(N) +
                  " is not a ViewId");
    for (NodeId R : G.roots(N))
      if (R >= G.size() || !isViewNodeKind(G.node(R).Kind))
        violation("consistency: non-view root under " + G.label(N));
    for (NodeId L : G.listeners(N))
      if (L >= G.size())
        violation("consistency: out-of-range listener under " + G.label(N));
    for (NodeId LId : G.rootsOfLayouts(N))
      if (LId >= G.size() || (G.node(LId).Kind != NodeKind::LayoutId &&
                              G.node(LId).Kind != NodeKind::UnknownId))
        violation("consistency: roots-layout target of " + G.label(N) +
                  " is not a LayoutId");
  }

  // Minted views are self-seeded at mint time regardless of where a budget
  // later stopped the run. Unknown roots minted by the solver follow the
  // same discipline.
  for (NodeId View : G.nodesOfKind(NodeKind::ViewInfl))
    if (!G.node(View).Retired && !Sol.valuesAt(View).count(View))
      violation("consistency: minted view " + G.label(View) +
                " not in its own set");
  // Every unknown node must carry a reason tag — an untagged unknown would
  // print as approximate with no explanation in `gator_cli --explain`.
  for (NodeKind K : {NodeKind::UnknownView, NodeKind::UnknownId})
    for (NodeId U : G.nodesOfKind(K))
      if (G.node(U).Unknown == UnknownReason::None)
        violation("consistency: unknown node " + G.label(U) +
                  " without a degradation reason");

  for (uint32_t OpIndex : Sol.unresolvedOps())
    if (OpIndex >= Sol.ops().size())
      violation("consistency: unresolved op index " +
                std::to_string(OpIndex) + " out of range");
  if (Sol.isComplete() && !Sol.unresolvedOps().empty())
    violation("consistency: complete solution records unresolved ops");
  if (Sol.fidelity() == Fidelity::TruncatedBudget &&
      Sol.truncationReason() == support::BudgetReason::None)
    violation("consistency: truncated solution without a budget reason");
  if (Sol.fidelity() != Fidelity::TruncatedBudget &&
      Sol.truncationReason() != support::BudgetReason::None)
    violation("consistency: budget reason on a non-truncated solution");
  return V;
}

} // namespace

std::vector<std::string>
gator::analysis::checkSolutionConsistency(const AnalysisResult &Result) {
  return consistencyOf(*Result.Graph, *Result.Sol);
}

std::vector<std::string>
gator::analysis::checkSolutionClosure(const AnalysisResult &Result) {
  std::vector<std::string> V = checkSolutionConsistency(Result);
  // Partial solutions are deliberate under-approximations: the closure
  // properties quantify over the *final* state and do not hold mid-run, so
  // only Complete solutions are held to them.
  if (Result.Sol->isComplete()) {
    std::vector<std::string> Closure =
        Checker(*Result.Graph, *Result.Sol, Result.Options).run();
    V.insert(V.end(), Closure.begin(), Closure.end());
  }
  return V;
}
