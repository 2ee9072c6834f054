//===- GuiModel.cpp - Client analyses over the GUI solution -----*- C++ -*-===//

#include "guimodel/GuiModel.h"

#include "hier/ClassHierarchy.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

using namespace gator;
using namespace gator::guimodel;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;
using namespace gator::ir;

namespace {

/// view node -> activity classes whose hierarchy contains it.
std::unordered_map<NodeId, std::vector<const ClassDecl *>>
viewOwners(const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  std::unordered_map<NodeId, std::vector<const ClassDecl *>> Owners;
  for (NodeId Act : G.nodesOfKind(NodeKind::Activity)) {
    const ClassDecl *AClass = G.node(Act).Klass;
    for (NodeId Root : G.roots(Act))
      for (NodeId V : G.descendantsOf(Root)) {
        auto &List = Owners[V];
        if (std::find(List.begin(), List.end(), AClass) == List.end())
          List.push_back(AClass);
      }
  }
  return Owners;
}

} // namespace

std::vector<HandlerTuple>
gator::guimodel::extractHandlerTuples(const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;

  auto Owners = viewOwners(Result);
  std::vector<HandlerTuple> Tuples;
  std::set<std::tuple<const ClassDecl *, NodeId, int, NodeId,
                      const MethodDecl *>>
      Seen;

  auto emit = [&](const ClassDecl *Act, NodeId View, EventKind Event,
                  NodeId Listener, const MethodDecl *Handler) {
    if (Seen.insert({Act, View, static_cast<int>(Event), Listener, Handler})
            .second)
      Tuples.push_back(HandlerTuple{Act, View, Event, Listener, Handler});
  };

  // Layout-declared handlers (`android:onClick`): the solver records the
  // owning window value as the view's listener; the handler is the named
  // method on the window's class.
  for (NodeId V : G.nodesOfKind(NodeKind::ViewInfl)) {
    const graph::Node &Info = G.node(V);
    if (!Info.LNode || !Info.LNode->hasOnClickHandler())
      continue;
    for (NodeId L : G.listeners(V)) {
      const graph::Node &LInfo = G.node(L);
      if (LInfo.Kind != NodeKind::Activity && LInfo.Kind != NodeKind::Alloc)
        continue;
      const MethodDecl *Handler =
          LInfo.Klass ? hier::ClassHierarchy::dispatch(
                            LInfo.Klass, Info.LNode->onClickHandlerName(), 1)
                      : nullptr;
      const ClassDecl *Act =
          LInfo.Kind == NodeKind::Activity ? LInfo.Klass : nullptr;
      if (Handler && !Handler->owner()->isPlatform())
        emit(Act, V, EventKind::Click, L, Handler);
    }
  }

  for (const OpSite &Op : Sol.ops()) {
    if (Op.Spec.Kind != OpKind::SetListener)
      continue;
    const ListenerSpec &Spec = *Op.Spec.Listener;
    for (NodeId V : Sol.receiversOf(Op)) {
      const std::vector<const ClassDecl *> *Acts = nullptr;
      auto It = Owners.find(V);
      if (It != Owners.end())
        Acts = &It->second;

      for (NodeId L : Sol.listenersAtOp(Op)) {
        const ClassDecl *LClass = G.node(L).Klass;
        bool AnyHandler = false;
        for (const HandlerSig &Sig : Spec.Handlers) {
          const MethodDecl *H =
              LClass ? hier::ClassHierarchy::dispatch(LClass, Sig.MethodName,
                                                      Sig.Arity)
                     : nullptr;
          if (!H || H->owner()->isPlatform())
            continue;
          AnyHandler = true;
          if (Acts)
            for (const ClassDecl *A : *Acts)
              emit(A, V, Spec.Event, L, H);
          else
            emit(nullptr, V, Spec.Event, L, H);
        }
        if (!AnyHandler) {
          if (Acts)
            for (const ClassDecl *A : *Acts)
              emit(A, V, Spec.Event, L, nullptr);
          else
            emit(nullptr, V, Spec.Event, L, nullptr);
        }
      }
    }
  }
  return Tuples;
}

void gator::guimodel::printHandlerTuples(std::ostream &OS,
                                         const AnalysisResult &Result,
                                         const std::vector<HandlerTuple>
                                             &Tuples) {
  const ConstraintGraph &G = *Result.Graph;
  for (const HandlerTuple &T : Tuples) {
    OS << (T.Activity ? T.Activity->name().view()
                      : std::string_view("<unattached>"))
       << " | " << G.label(T.View) << " | " << eventKindName(T.Event)
       << " | "
       << (T.Handler ? T.Handler->qualifiedName() : std::string("<none>"))
       << '\n';
  }
}

//===----------------------------------------------------------------------===//
// View hierarchy printing
//===----------------------------------------------------------------------===//

namespace {

void printTree(std::ostream &OS, const ConstraintGraph &G, NodeId V,
               unsigned Depth, std::vector<NodeId> &Path) {
  for (unsigned I = 0; I < Depth; ++I)
    OS << "  ";
  OS << G.label(V);
  if (std::find(Path.begin(), Path.end(), V) != Path.end()) {
    OS << " (cycle)\n";
    return;
  }
  OS << '\n';
  Path.push_back(V);
  for (NodeId C : G.children(V))
    printTree(OS, G, C, Depth + 1, Path);
  Path.pop_back();
}

} // namespace

void gator::guimodel::printViewHierarchies(std::ostream &OS,
                                           const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  for (NodeId Act : G.nodesOfKind(NodeKind::Activity)) {
    OS << "activity " << G.node(Act).Klass->name() << ":\n";
    if (G.roots(Act).empty()) {
      OS << "  (no hierarchy)\n";
      continue;
    }
    for (NodeId Root : G.roots(Act)) {
      std::vector<NodeId> Path;
      printTree(OS, G, Root, 1, Path);
    }
  }
}

//===----------------------------------------------------------------------===//
// Activity transition graph
//===----------------------------------------------------------------------===//

namespace {

/// App-level call graph (CHA): callees of each method, indexed by
/// MethodDecl::globalId().
using CallGraphTable = std::vector<std::vector<const MethodDecl *>>;

CallGraphTable buildCallGraph(const Program &P) {
  hier::ClassHierarchy CH(P);
  CallGraphTable CallGraph(P.methodIdLimit());
  for (const auto &C : P.classes()) {
    if (C->isPlatform())
      continue;
    for (const auto &M : C->methods()) {
      if (M->isAbstract())
        continue;
      auto &Callees = CallGraph[M->globalId()];
      for (const Stmt &S : M->body()) {
        if (S.Kind != StmtKind::Invoke)
          continue;
        const Variable &BaseVar = M->var(S.Base);
        const ClassDecl *Recv =
            BaseVar.TypeName.empty() ? nullptr : P.findClass(BaseVar.TypeName);
        if (!Recv)
          continue;
        for (const MethodDecl *T : CH.resolveVirtualCall(
                 Recv, S.MethodName, static_cast<unsigned>(S.Args.size())))
          if (!T->owner()->isPlatform())
            Callees.push_back(T);
      }
    }
  }
  return CallGraph;
}

/// Methods reachable from \p Start (itself included), in breadth-first
/// discovery order, so everything derived from the walk is ordered by
/// the program, not by where its declarations happen to sit in memory.
std::vector<const MethodDecl *> reachableFrom(const MethodDecl *Start,
                                              const CallGraphTable &CallGraph) {
  std::vector<bool> Seen(CallGraph.size());
  std::vector<const MethodDecl *> Order{Start};
  Seen[Start->globalId()] = true;
  for (size_t Next = 0; Next < Order.size(); ++Next)
    for (const MethodDecl *Callee : CallGraph[Order[Next]->globalId()])
      if (!Seen[Callee->globalId()]) {
        Seen[Callee->globalId()] = true;
        Order.push_back(Callee);
      }
  return Order;
}

} // namespace

namespace {

/// Method -> activity classes it can start directly, via intent class
/// constants (SetIntentClass) flowing into startActivity calls.
std::unordered_map<const MethodDecl *, std::vector<const ClassDecl *>>
collectStarts(const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;
  const AndroidModel &AM = Sol.androidModel();

  std::unordered_map<NodeId, std::vector<const ClassDecl *>> IntentTargets;
  for (const OpSite &Op : Sol.ops()) {
    if (Op.Spec.Kind != OpKind::SetIntentClass)
      continue;
    for (NodeId Intent : Sol.valuesAt(Op.Recv)) {
      if (G.node(Intent).Kind != NodeKind::Alloc)
        continue;
      for (NodeId Cls : Sol.valuesAt(Op.ValArg)) {
        if (G.node(Cls).Kind != NodeKind::ClassConst)
          continue;
        const ClassDecl *Target = G.node(Cls).Klass;
        if (AM.isActivityClass(Target))
          IntentTargets[Intent].push_back(Target);
      }
    }
  }

  std::unordered_map<const MethodDecl *, std::vector<const ClassDecl *>>
      Starts;
  for (const OpSite &Op : Sol.ops()) {
    if (Op.Spec.Kind != OpKind::StartActivity)
      continue;
    auto &List = Starts[Op.Method];
    for (NodeId Intent : Sol.valuesAt(Op.ValArg)) {
      auto It = IntentTargets.find(Intent);
      if (It == IntentTargets.end())
        continue;
      for (const ClassDecl *T : It->second)
        List.push_back(T);
    }
  }
  return Starts;
}

/// All transitioning event steps: tuple (a, v, e, h) where h reaches a
/// startActivity targeting b yields step (a, v, e, b).
std::vector<EventStep> collectEventSteps(const AnalysisResult &Result) {
  const Program &P = Result.Sol->androidModel().program();
  auto Starts = collectStarts(Result);
  auto CallGraph = buildCallGraph(P);

  std::vector<EventStep> Steps;
  std::set<std::tuple<const ClassDecl *, NodeId, int, const ClassDecl *>>
      Seen;
  for (const HandlerTuple &T : extractHandlerTuples(Result)) {
    if (!T.Handler || !T.Activity)
      continue;
    for (const MethodDecl *M : reachableFrom(T.Handler, CallGraph)) {
      auto It = Starts.find(M);
      if (It == Starts.end())
        continue;
      for (const ClassDecl *To : It->second)
        if (Seen.insert({T.Activity, T.View, static_cast<int>(T.Event), To})
                .second)
          Steps.push_back(EventStep{T.Activity, T.View, T.Event, To});
    }
  }
  return Steps;
}

} // namespace

std::vector<Transition>
gator::guimodel::buildActivityTransitionGraph(const AnalysisResult &Result) {
  const Solution &Sol = *Result.Sol;
  const Program &P = Sol.androidModel().program();
  const AndroidModel &AM = Sol.androidModel();

  auto Starts = collectStarts(Result);
  auto CallGraph = buildCallGraph(P);

  std::set<std::tuple<const ClassDecl *, int, const ClassDecl *>> Seen;
  std::vector<Transition> Transitions;
  auto emit = [&](const ClassDecl *From, std::optional<EventKind> Event,
                  const ClassDecl *To) {
    int EventTag = Event ? static_cast<int>(*Event) : -1;
    if (Seen.insert({From, EventTag, To}).second)
      Transitions.push_back(Transition{From, Event, To});
  };

  auto emitReachable = [&](const ClassDecl *From,
                           std::optional<EventKind> Event,
                           const MethodDecl *Entry) {
    for (const MethodDecl *M : reachableFrom(Entry, CallGraph)) {
      auto It = Starts.find(M);
      if (It == Starts.end())
        continue;
      for (const ClassDecl *To : It->second)
        emit(From, Event, To);
    }
  };

  // 3a. Event handlers: use the handler-tuple extraction.
  for (const HandlerTuple &T : extractHandlerTuples(Result))
    if (T.Handler && T.Activity)
      emitReachable(T.Activity, T.Event, T.Handler);

  // 3b. Lifecycle callbacks of each activity.
  for (const ClassDecl *A : AM.appActivityClasses())
    AndroidModel::forEachLifecycleCallback(A, [&](const MethodDecl *M) {
      emitReachable(A, std::nullopt, M);
    });

  return Transitions;
}

void gator::guimodel::printTransitionsDot(std::ostream &OS,
                                          const std::vector<Transition>
                                              &Transitions) {
  OS << "digraph atg {\n";
  // Nodes in declaration order.
  auto ByDecl = [](const ClassDecl *A, const ClassDecl *B) {
    return A->globalId() < B->globalId();
  };
  std::set<const ClassDecl *, decltype(ByDecl)> Nodes(ByDecl);
  for (const Transition &T : Transitions) {
    Nodes.insert(T.From);
    Nodes.insert(T.To);
  }
  for (const ClassDecl *N : Nodes)
    OS << "  \"" << N->name() << "\";\n";
  for (const Transition &T : Transitions) {
    OS << "  \"" << T.From->name() << "\" -> \"" << T.To->name() << "\"";
    if (T.Event)
      OS << " [label=\"" << eventKindName(*T.Event) << "\"]";
    else
      OS << " [label=\"lifecycle\", style=dashed]";
    OS << ";\n";
  }
  OS << "}\n";
}

//===----------------------------------------------------------------------===//
// Event-sequence enumeration
//===----------------------------------------------------------------------===//

std::vector<EventSequence> gator::guimodel::enumerateEventSequences(
    const AnalysisResult &Result, const ClassDecl *Start, unsigned MaxLength,
    unsigned MaxSequences) {
  std::vector<EventStep> Steps = collectEventSteps(Result);

  // Index steps by source activity.
  std::unordered_map<const ClassDecl *, std::vector<const EventStep *>>
      BySource;
  for (const EventStep &Step : Steps)
    BySource[Step.From].push_back(&Step);

  std::vector<EventSequence> Sequences;
  EventSequence Current;

  // DFS over the step graph; every non-empty prefix is a sequence.
  // Revisiting activities is allowed (GUIs cycle); the caps bound output.
  std::function<void(const ClassDecl *)> Extend =
      [&](const ClassDecl *At) {
        if (Sequences.size() >= MaxSequences ||
            Current.size() >= MaxLength)
          return;
        auto It = BySource.find(At);
        if (It == BySource.end())
          return;
        for (const EventStep *Step : It->second) {
          if (Sequences.size() >= MaxSequences)
            return;
          Current.push_back(*Step);
          Sequences.push_back(Current);
          Extend(Step->To);
          Current.pop_back();
        }
      };
  Extend(Start);
  return Sequences;
}

void gator::guimodel::printEventSequences(
    std::ostream &OS, const AnalysisResult &Result,
    const std::vector<EventSequence> &Sequences) {
  const ConstraintGraph &G = *Result.Graph;
  for (const EventSequence &Seq : Sequences) {
    bool First = true;
    for (const EventStep &Step : Seq) {
      if (First)
        OS << Step.From->name();
      OS << " --" << eventKindName(Step.Event) << '['
         << G.label(Step.View) << "]--> " << Step.To->name();
      First = false;
    }
    OS << '\n';
  }
}

//===----------------------------------------------------------------------===//
// View-reach report
//===----------------------------------------------------------------------===//

std::vector<ViewReach>
gator::guimodel::computeViewReach(const AnalysisResult &Result,
                                  const std::string &WidgetClassName) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;
  const Program &P = Sol.androidModel().program();
  const ClassDecl *Widget = P.findClass(WidgetClassName);
  if (!Widget)
    return {};

  // The interesting views: instances of the widget class.
  std::vector<NodeId> Interesting;
  for (NodeId V = 0; V < G.size(); ++V) {
    const graph::Node &N = G.node(V);
    if (isViewNodeKind(N.Kind) && N.Klass && P.isSubtypeOf(N.Klass, Widget))
      Interesting.push_back(V);
  }

  // Methods observing each: owners of variable nodes whose set holds it.
  std::unordered_map<NodeId, std::set<const MethodDecl *>> Reach;
  for (NodeId N = 0; N < G.size(); ++N) {
    if (G.node(N).Kind != NodeKind::Var)
      continue;
    const MethodDecl *M = G.node(N).Method;
    if (M->owner()->isPlatform())
      continue;
    const auto &Set = Sol.valuesAt(N);
    for (NodeId V : Interesting)
      if (Set.count(V))
        Reach[V].insert(M);
  }

  std::vector<ViewReach> Report;
  for (NodeId V : Interesting) {
    ViewReach Entry;
    Entry.View = V;
    auto It = Reach.find(V);
    if (It != Reach.end())
      Entry.Methods.assign(It->second.begin(), It->second.end());
    std::sort(Entry.Methods.begin(), Entry.Methods.end(),
              [](const MethodDecl *A, const MethodDecl *B) {
                return A->qualifiedName() < B->qualifiedName();
              });
    Report.push_back(std::move(Entry));
  }
  return Report;
}

void gator::guimodel::printViewReach(std::ostream &OS,
                                     const AnalysisResult &Result,
                                     const std::vector<ViewReach> &Reaches) {
  const ConstraintGraph &G = *Result.Graph;
  for (const ViewReach &R : Reaches) {
    OS << G.label(R.View) << " observed by:";
    if (R.Methods.empty())
      OS << " (no application method)";
    for (const MethodDecl *M : R.Methods)
      OS << ' ' << M->qualifiedName();
    OS << '\n';
  }
}
