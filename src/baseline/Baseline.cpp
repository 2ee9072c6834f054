//===- Baseline.cpp - Plain reference analysis ------------------*- C++ -*-===//

#include "baseline/Baseline.h"

#include <cassert>
#include <deque>

using namespace gator;
using namespace gator::baseline;
using namespace gator::ir;
using namespace gator::android;

namespace {

/// A tiny standalone field-based Andersen solver. Nodes are (method, var)
/// pairs and fields; values are allocation (or summary) sites.
class BaselineSolver {
public:
  BaselineSolver(const Program &P, const AndroidModel &AM,
                 const BaselineOptions &Options)
      : P(P), AM(AM), Options(Options), CH(P) {}

  BaselineResult run();

private:
  using NodeIdx = uint32_t;
  using ValueIdx = uint32_t;

  struct Value {
    const ClassDecl *Klass;
    bool IsSummary;
  };

  NodeIdx varNode(const MethodDecl *M, VarId V) {
    uint64_t Key = (reinterpret_cast<uint64_t>(M) << 16) ^
                   static_cast<uint64_t>(V + 1);
    auto It = VarIdx.find(Key);
    if (It != VarIdx.end())
      return It->second;
    NodeIdx Id = newNode();
    VarIdx.emplace(Key, Id);
    return Id;
  }

  NodeIdx fieldNode(const FieldDecl *F) {
    auto It = FieldIdx.find(F);
    if (It != FieldIdx.end())
      return It->second;
    NodeIdx Id = newNode();
    FieldIdx.emplace(F, Id);
    return Id;
  }

  NodeIdx newNode() {
    Succ.emplace_back();
    Sets.emplace_back();
    InWork.push_back(false);
    return static_cast<NodeIdx>(Succ.size() - 1);
  }

  ValueIdx newValue(const ClassDecl *Klass, bool IsSummary) {
    Values.push_back(Value{Klass, IsSummary});
    return static_cast<ValueIdx>(Values.size() - 1);
  }

  void addEdge(NodeIdx From, NodeIdx To) {
    if (Edges.insert((static_cast<uint64_t>(From) << 32) | To).second)
      Succ[From].push_back(To);
  }

  void addValue(NodeIdx N, ValueIdx V) {
    if (!Sets[N].insert(V).second)
      return;
    if (!InWork[N]) {
      InWork[N] = true;
      Work.push_back(N);
    }
  }

  const ClassDecl *declaredClass(const MethodDecl &M, VarId V) const {
    ir::Name T = M.var(V).TypeName;
    if (T.empty() || isPrimitiveTypeName(T))
      return nullptr;
    return P.findClass(T);
  }

  void buildMethod(const MethodDecl &M);
  void buildInvoke(const MethodDecl &M, const Stmt &S);

  void propagateAll() {
    while (!Work.empty()) {
      NodeIdx N = Work.front();
      Work.pop_front();
      InWork[N] = false;
      std::vector<ValueIdx> Vals(Sets[N].begin(), Sets[N].end());
      for (NodeIdx To : Succ[N])
        for (ValueIdx V : Vals)
          addValue(To, V);
    }
  }

  const Program &P;
  const AndroidModel &AM;
  const BaselineOptions &Options;
  hier::ClassHierarchy CH;

  std::unordered_map<uint64_t, NodeIdx> VarIdx;
  std::unordered_map<const FieldDecl *, NodeIdx> FieldIdx;
  std::vector<std::vector<NodeIdx>> Succ;
  std::unordered_set<uint64_t> Edges;
  std::vector<std::unordered_set<ValueIdx>> Sets;
  std::vector<Value> Values;
  std::deque<NodeIdx> Work;
  std::vector<bool> InWork;

  // Measurement bookkeeping.
  struct FindViewSite {
    NodeIdx Out;
    bool HasOut;
  };
  std::vector<FindViewSite> FindViews;
  struct ListenerSite {
    NodeIdx Recv, Arg;
  };
  std::vector<ListenerSite> ListenerSites;
};

void BaselineSolver::buildInvoke(const MethodDecl &M, const Stmt &S) {
  const ClassDecl *Recv = declaredClass(M, S.Base);
  if (!Recv)
    return;
  unsigned Arity = static_cast<unsigned>(S.args().size());
  const MethodDecl *Resolved = Recv->findMethod(S.methodName(), Arity);
  bool PlatformTarget =
      Resolved && Resolved->isAbstract() && Resolved->owner()->isPlatform();

  // App-method call edges via CHA — the part existing analyses do handle.
  for (const MethodDecl *T : CH.resolveVirtualCall(Recv, S.methodName(),
                                                   Arity)) {
    if (T->owner()->isPlatform())
      continue;
    if (!T->isStatic())
      addEdge(varNode(&M, S.Base), varNode(T, T->thisVar()));
    unsigned N = std::min<unsigned>(T->paramCount(), Arity);
    for (unsigned I = 0; I < N; ++I)
      addEdge(varNode(&M, S.args()[I]), varNode(T, T->paramVar(I)));
    if (S.Lhs != InvalidVar)
      for (const Stmt &Ret : T->body())
        if (Ret.Kind == StmtKind::Return && Ret.Lhs != InvalidVar)
          addEdge(varNode(T, Ret.Lhs), varNode(&M, S.Lhs));
  }

  if (!PlatformTarget && Resolved)
    return;

  // Platform call: record measurement sites, apply the chosen treatment.
  std::optional<OpSpec> Spec = AM.classifyInvoke(M, S);
  if (Spec) {
    switch (Spec->Kind) {
    case OpKind::FindView1:
    case OpKind::FindView2:
    case OpKind::FindView3:
      FindViews.push_back(
          {S.Lhs != InvalidVar ? varNode(&M, S.Lhs) : 0, S.Lhs != InvalidVar});
      break;
    case OpKind::SetListener:
      ListenerSites.push_back(
          {varNode(&M, S.Base), varNode(&M, S.args()[0])});
      break;
    default:
      break;
    }
  }

  // Reflective construction: `c.newInstance()` may return any object, so
  // the baseline models it as a summary value of the result variable's
  // declared type (java.lang.Object when untyped) — the coarse analogue
  // of the main pipeline's tagged UnknownView (docs/ROBUSTNESS.md).
  if (S.methodName() == "newInstance" && S.Lhs != InvalidVar) {
    const ClassDecl *K = declaredClass(M, S.Lhs);
    if (!K)
      K = P.findClass(ObjectClassName);
    if (K)
      addValue(varNode(&M, S.Lhs), newValue(K, /*IsSummary=*/true));
  }

  if (Options.Treatment == PlatformCallTreatment::SummaryObjects &&
      S.Lhs != InvalidVar && Resolved &&
      !isPrimitiveTypeName(Resolved->returnTypeName()) &&
      Resolved->returnTypeName() != VoidTypeName) {
    const ClassDecl *RetClass = P.findClass(Resolved->returnTypeName());
    if (RetClass)
      addValue(varNode(&M, S.Lhs), newValue(RetClass, /*IsSummary=*/true));
  }
}

void BaselineSolver::buildMethod(const MethodDecl &M) {
  for (const Stmt &S : M.body()) {
    switch (S.Kind) {
    case StmtKind::AssignVar:
      addEdge(varNode(&M, S.Base), varNode(&M, S.Lhs));
      break;
    case StmtKind::AssignNew: {
      const ClassDecl *C = P.findClass(S.className());
      if (C)
        addValue(varNode(&M, S.Lhs), newValue(C, /*IsSummary=*/false));
      break;
    }
    case StmtKind::LoadField:
    case StmtKind::StoreField: {
      const ClassDecl *C = declaredClass(M, S.Base);
      const FieldDecl *F = C ? C->findField(S.fieldName()) : nullptr;
      if (!F)
        break;
      if (S.Kind == StmtKind::LoadField)
        addEdge(fieldNode(F), varNode(&M, S.Lhs));
      else
        addEdge(varNode(&M, S.Rhs), fieldNode(F));
      break;
    }
    case StmtKind::LoadStaticField:
    case StmtKind::StoreStaticField: {
      const ClassDecl *C = P.findClass(S.className());
      const FieldDecl *F = C ? C->findField(S.fieldName()) : nullptr;
      if (!F)
        break;
      if (S.Kind == StmtKind::LoadStaticField)
        addEdge(fieldNode(F), varNode(&M, S.Lhs));
      else
        addEdge(varNode(&M, S.Rhs), fieldNode(F));
      break;
    }
    case StmtKind::Invoke:
      buildInvoke(M, S);
      break;
    default:
      break; // ids, class constants, null, return: nothing to model
    }
  }
}

BaselineResult BaselineSolver::run() {
  for (const auto &C : P.classes()) {
    if (C->isPlatform())
      continue;
    for (const auto &M : C->methods())
      if (!M->isAbstract())
        buildMethod(*M);
  }

  if (Options.SeedAllMethods) {
    // Give every instance method a summary receiver of its own class, a
    // crude stand-in for unknown framework entry points.
    for (const auto &C : P.classes()) {
      if (C->isPlatform() || C->isInterface())
        continue;
      for (const auto &M : C->methods())
        if (!M->isAbstract() && !M->isStatic())
          addValue(varNode(M, M->thisVar()),
                   newValue(C, /*IsSummary=*/true));
    }
  }

  propagateAll();

  BaselineResult R;
  for (const FindViewSite &Site : FindViews) {
    ++R.FindViewSites;
    if (Site.HasOut && !Sets[Site.Out].empty())
      ++R.FindViewSitesWithValues;
  }
  // By construction the baseline knows nothing about layout-declared
  // views, so resolution against them is identically zero.
  R.FindViewSitesResolvedToLayoutViews = 0;

  for (const ListenerSite &Site : ListenerSites) {
    ++R.SetListenerSites;
    if (!Sets[Site.Recv].empty() && !Sets[Site.Arg].empty())
      ++R.SetListenerSitesWithOperands;
  }

  // Handler reachability: listener-interface implementations whose `this`
  // received a value.
  for (const auto &C : P.classes()) {
    if (C->isPlatform())
      continue;
    for (const auto *Spec : AM.listenerSpecsOf(C)) {
      for (const HandlerSig &Sig : Spec->Handlers) {
        const MethodDecl *H =
            hier::ClassHierarchy::dispatch(C, Sig.MethodName, Sig.Arity);
        if (!H || H->owner() != C)
          continue;
        ++R.HandlersTotal;
        if (!Sets[varNode(H, H->thisVar())].empty())
          ++R.HandlersReached;
      }
    }
  }

  for (const auto &Set : Sets)
    R.TotalFacts += Set.size();
  return R;
}

} // namespace

BaselineResult gator::baseline::runBaseline(const Program &P,
                                            const AndroidModel &AM,
                                            const BaselineOptions &Options,
                                            DiagnosticEngine &Diags) {
  (void)Diags;
  return BaselineSolver(P, AM, Options).run();
}
