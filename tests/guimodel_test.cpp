//===- guimodel_test.cpp - Section 6 client analyses tests ------*- C++ -*-===//

#include "corpus/ConnectBot.h"
#include "corpus/Corpus.h"
#include "guimodel/GuiModel.h"
#include "guimodel/JsonExport.h"

#include "hier/ClassHierarchy.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace gator;
using namespace gator::guimodel;
using namespace gator::test;

namespace {

//===----------------------------------------------------------------------===//
// Reference clients: the eager call graph the lazy one replaced
//===----------------------------------------------------------------------===//

/// The transition clients as they were before the call graph became lazy:
/// every invoke of the program resolved up front, one breadth-first walk
/// per handler, std::set deduplication. The differential tests below
/// require the library's clients to give exactly these results.
namespace reference {

using namespace gator::analysis;
using namespace gator::android;
using namespace gator::graph;
using namespace gator::ir;

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
                 Recv, S.methodName(), static_cast<unsigned>(S.args().size())))
          if (!T->owner()->isPlatform())
            Callees.push_back(T);
      }
    }
  }
  return CallGraph;
}

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

std::vector<HandlerTuple> extractHandlerTuples(const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;

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

std::vector<Transition>
buildActivityTransitionGraph(const AnalysisResult &Result) {
  const Solution &Sol = *Result.Sol;
  const AndroidModel &AM = Sol.androidModel();
  auto Starts = collectStarts(Result);
  auto CallGraph = buildCallGraph(AM.program());

  std::set<std::tuple<const ClassDecl *, int, const ClassDecl *>> Seen;
  std::vector<Transition> Transitions;
  auto emitReachable = [&](const ClassDecl *From,
                           std::optional<EventKind> Event,
                           const MethodDecl *Entry) {
    for (const MethodDecl *M : reachableFrom(Entry, CallGraph)) {
      auto It = Starts.find(M);
      if (It == Starts.end())
        continue;
      for (const ClassDecl *To : It->second)
        if (Seen.insert({From, Event ? static_cast<int>(*Event) : -1, To})
                .second)
          Transitions.push_back(Transition{From, Event, To});
    }
  };
  for (const HandlerTuple &T : extractHandlerTuples(Result))
    if (T.Handler && T.Activity)
      emitReachable(T.Activity, T.Event, T.Handler);
  for (const ClassDecl *A : AM.appActivityClasses())
    AndroidModel::forEachLifecycleCallback(A, [&](const MethodDecl *M) {
      emitReachable(A, std::nullopt, M);
    });
  return Transitions;
}

std::vector<EventSequence>
enumerateEventSequences(const AnalysisResult &Result, const ClassDecl *Start,
                        unsigned MaxLength, unsigned MaxSequences) {
  std::vector<EventStep> Steps = collectEventSteps(Result);
  std::unordered_map<const ClassDecl *, std::vector<const EventStep *>>
      BySource;
  for (const EventStep &Step : Steps)
    BySource[Step.From].push_back(&Step);

  std::vector<EventSequence> Sequences;
  EventSequence Current;
  std::function<void(const ClassDecl *)> Extend = [&](const ClassDecl *At) {
    if (Sequences.size() >= MaxSequences || Current.size() >= MaxLength)
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

} // namespace reference

bool same(const HandlerTuple &A, const HandlerTuple &B) {
  return A.Activity == B.Activity && A.View == B.View && A.Event == B.Event &&
         A.Listener == B.Listener && A.Handler == B.Handler;
}
bool same(const EventStep &A, const EventStep &B) {
  return A.From == B.From && A.View == B.View && A.Event == B.Event &&
         A.To == B.To;
}
bool same(const Transition &A, const Transition &B) {
  return A.From == B.From && A.Event == B.Event && A.To == B.To;
}
bool same(const EventSequence &A, const EventSequence &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!same(A[I], B[I]))
      return false;
  return true;
}

/// Names the first element where \p Got and \p Want differ, or "" when
/// they are equal element for element.
template <typename T>
std::string firstDifference(const std::vector<T> &Got,
                            const std::vector<T> &Want) {
  for (size_t I = 0; I < Got.size() && I < Want.size(); ++I)
    if (!same(Got[I], Want[I]))
      return "element " + std::to_string(I) + " differs";
  if (Got.size() != Want.size())
    return std::to_string(Got.size()) + " elements, expected " +
           std::to_string(Want.size());
  return "";
}

/// Requires the library's clients to match the reference element for
/// element on one analyzed app, from every application activity.
void expectSameAsReference(corpus::AppBundle &App, const std::string &Name) {
  SCOPED_TRACE(Name);
  auto R = runAnalysis(App);
  ASSERT_TRUE(R);
  EXPECT_EQ(firstDifference(extractHandlerTuples(*R),
                            reference::extractHandlerTuples(*R)),
            "");
  EXPECT_EQ(firstDifference(buildActivityTransitionGraph(*R),
                            reference::buildActivityTransitionGraph(*R)),
            "");
  for (const ir::ClassDecl *Start :
       R->Sol->androidModel().appActivityClasses()) {
    SCOPED_TRACE(Start->name().str());
    EXPECT_EQ(firstDifference(
                  enumerateEventSequences(*R, Start, 5),
                  reference::enumerateEventSequences(*R, Start, 5, 256)),
              "");
    EXPECT_EQ(firstDifference(
                  enumerateEventSequences(*R, Start, 50, 500),
                  reference::enumerateEventSequences(*R, Start, 50, 500)),
              "");
  }
}

/// A seeded app whose handlers and onCreate callbacks reach
/// startActivity only through helper calls: a web of `go` methods over a
/// class hierarchy with an interface, an abstract base, inherited and
/// overridden bodies, and call cycles, so the walks follow CHA fan-out
/// several calls deep. The generated corpus starts activities from the
/// handlers themselves, which leaves the call graph unexercised.
std::string callWebSource(unsigned Seed) {
  std::mt19937 Rng(Seed);
  auto pick = [&](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  // Appends rather than `"lit" + std::to_string(N)`, which GCC 12 flags
  // with a false -Wrestrict at -O3.
  auto named = [](const char *Prefix, unsigned N) {
    std::string S = Prefix;
    S += std::to_string(N);
    return S;
  };
  const unsigned Acts = 2 + pick(3), Helpers = 4 + pick(8);
  std::vector<int> Parent(Helpers); // -1: extends HBase
  for (unsigned H = 0; H < Helpers; ++H)
    Parent[H] = H > 0 && pick(2) ? static_cast<int>(pick(H)) : -1;
  const std::string Act = "android.app.Activity";

  // N calls of `go`, each through a receiver whose static type is the
  // interface, the abstract base or an ancestor of the allocated class.
  auto calls = [&](std::string &Out, const std::string &Self, unsigned N) {
    for (unsigned K = 0; K < N; ++K) {
      const unsigned Cls = pick(Helpers);
      int T = static_cast<int>(Cls);
      while (Parent[T] >= 0 && pick(2))
        T = Parent[T];
      const unsigned Kind = pick(3);
      const std::string Type = Kind == 0   ? std::string("Step")
                               : Kind == 1 ? std::string("HBase")
                                           : named("H", T);
      const std::string V = named("h", K);
      Out += "    var " + V + ": " + Type + ";\n";
      Out += "    " + V + " := new " + named("H", Cls) + ";\n";
      Out += "    " + V + ".go(" + Self + ");\n";
    }
  };

  std::string Src = "interface Step {\n  method go(s: " + Act + ");\n}\n";
  Src += "class HBase implements Step {\n  method go(s: " + Act + ");\n}\n";
  for (unsigned H = 0; H < Helpers; ++H) {
    Src += "class " + named("H", H) + " extends " +
           (Parent[H] < 0 ? std::string("HBase") : named("H", Parent[H])) +
           " {\n";
    if (Parent[H] < 0 || pick(4)) {
      Src += "  method go(s: " + Act + ") {\n";
      if (pick(3) == 0) {
        Src += "    var it: android.content.Intent;\n"
               "    var cc: java.lang.Class;\n"
               "    it := new android.content.Intent;\n";
        Src += "    cc := classof " + named("A", pick(Acts)) + ";\n";
        Src += "    it.setClass(s, cc);\n"
               "    s.startActivity(it);\n";
      }
      calls(Src, "s", pick(3));
      Src += "  }\n";
    }
    Src += "}\n";
  }
  for (unsigned A = 0; A < Acts; ++A) {
    const std::string Name = named("A", A), Listener = named("L", A);
    Src += "class " + Name + " extends " + Act + " {\n";
    Src += "  method onCreate() {\n"
           "    var v: android.widget.Button;\n";
    Src += "    var l: " + Listener + ";\n";
    Src += "    v := new android.widget.Button;\n"
           "    this.setContentView(v);\n";
    Src += "    l := new " + Listener + ";\n";
    Src += "    l.init(this);\n"
           "    v.setOnClickListener(l);\n";
    if (pick(2))
      calls(Src, "this", 1);
    Src += "  }\n}\n";
    Src += "class " + Listener +
           " implements android.view.View.OnClickListener {\n";
    Src += "  field owner: " + Name + ";\n";
    Src += "  method init(q: " + Name + ") { this.owner := q; }\n";
    Src += "  method onClick(v: android.view.View) {\n";
    Src += "    var s: " + Name + ";\n";
    Src += "    s := this.owner;\n";
    calls(Src, "s", 1 + pick(2));
    Src += "  }\n}\n";
  }
  return Src;
}

TEST(GuiModelDifferentialTest, CallWebsMatchEagerCallGraph) {
  unsigned Steps = 0;
  for (unsigned Seed = 1; Seed <= 40; ++Seed) {
    auto App = makeBundle(callWebSource(Seed));
    std::string Name = "call web ";
    Name += std::to_string(Seed);
    expectSameAsReference(*App, Name);
    auto R = runAnalysis(*App);
    for (const ir::ClassDecl *A : R->Sol->androidModel().appActivityClasses())
      Steps += enumerateEventSequences(*R, A, 1).size();
  }
  // Every transition is found through at least one helper call.
  EXPECT_GT(Steps, 40u);
}

TEST(GuiModelDifferentialTest, PaperCorpusMatchesEagerCallGraph) {
  for (const corpus::AppSpec &Spec : corpus::paperCorpus()) {
    corpus::GeneratedApp App = corpus::generateApp(Spec);
    expectSameAsReference(*App.Bundle, Spec.Name);
  }
}

TEST(GuiModelDifferentialTest, HostileFleetBlockMatchesEagerCallGraph) {
  corpus::FleetSpec Fleet;
  Fleet.Apps = 120;
  Fleet.Seed = 21;
  Fleet.DeepTreePercent = 30;
  Fleet.WideListenerPercent = 30;
  Fleet.SharedHelperPercent = 30;
  Fleet.ReflectivePercent = 10;
  Fleet.DynamicIdPercent = 10;
  Fleet.MissingLayoutPercent = 10;
  unsigned Hostile = 0, WithTransitions = 0;
  for (const corpus::AppSpec &Spec : corpus::makeFleet(Fleet)) {
    Hostile += Spec.ReflectiveViewsPerActivity ||
               Spec.DynamicFindsPerActivity ||
               Spec.MissingLayoutRefsPerActivity;
    WithTransitions += Spec.EmitTransitions && Spec.Activities > 1;
    corpus::GeneratedApp App = corpus::generateApp(Spec);
    expectSameAsReference(*App.Bundle, Spec.Name);
  }
  // The block must exercise what it claims to.
  EXPECT_GT(Hostile, 10u);
  EXPECT_GT(WithTransitions, 10u);
}

TEST(GuiModelTest, ConnectBotHandlerTuple) {
  auto App = corpus::buildConnectBotExample();
  ASSERT_TRUE(App && !App->Diags.hasErrors());
  auto R = runAnalysis(*App);
  auto Tuples = extractHandlerTuples(*R);
  ASSERT_EQ(Tuples.size(), 1u);
  const HandlerTuple &T = Tuples.front();
  ASSERT_NE(T.Activity, nullptr);
  EXPECT_EQ(T.Activity->name(), "ConsoleActivity");
  EXPECT_EQ(T.Event, android::EventKind::Click);
  ASSERT_NE(T.Handler, nullptr);
  EXPECT_EQ(T.Handler->qualifiedName(), "EscapeButtonListener.onClick/1");
  EXPECT_EQ(R->Graph->node(T.View).Klass->name(),
            "android.widget.ImageView");
}

TEST(GuiModelTest, UnattachedViewsReported) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var v: android.widget.Button;
    var l: L;
    v := new android.widget.Button;
    l := new L;
    v.setOnClickListener(l);
  }
}
class L implements android.view.View.OnClickListener {
  method onClick(v: android.view.View) { }
}
)");
  auto R = runAnalysis(*App);
  auto Tuples = extractHandlerTuples(*R);
  ASSERT_EQ(Tuples.size(), 1u);
  // The button was never attached to any activity hierarchy.
  EXPECT_EQ(Tuples.front().Activity, nullptr);
}

TEST(GuiModelTest, HierarchyPrintShowsTree) {
  auto App = corpus::buildConnectBotExample();
  auto R = runAnalysis(*App);
  std::ostringstream OS;
  printViewHierarchies(OS, *R);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("activity ConsoleActivity:"), std::string::npos);
  EXPECT_NE(Out.find("button_esc"), std::string::npos);
  EXPECT_NE(Out.find("console_flip"), std::string::npos);
  // Indentation reflects depth: the ESC button sits two levels down.
  EXPECT_NE(Out.find("      ImageView"), std::string::npos);
}

TEST(GuiModelTest, TransitionGraphFollowsHandlersAndCalls) {
  // A1's click handler starts A2 through a helper method; A2's onCreate
  // starts A3 directly (lifecycle edge).
  auto App = makeBundle(R"(
class A1 extends android.app.Activity {
  method onCreate() {
    var v: android.widget.Button;
    var l: L1;
    v := new android.widget.Button;
    this.setContentView(v);
    l := new L1;
    l.init(this);
    v.setOnClickListener(l);
  }
}
class L1 implements android.view.View.OnClickListener {
  field owner: A1;
  method init(q: A1) { this.owner := q; }
  method onClick(v: android.view.View) {
    this.go();
  }
  method go() {
    var s: A1;
    var it: android.content.Intent;
    var cc: java.lang.Class;
    s := this.owner;
    it := new android.content.Intent;
    cc := classof A2;
    it.setClass(s, cc);
    s.startActivity(it);
  }
}
class A2 extends android.app.Activity {
  method onCreate() {
    var it: android.content.Intent;
    var cc: java.lang.Class;
    it := new android.content.Intent;
    cc := classof A3;
    it.setClass(this, cc);
    this.startActivity(it);
  }
}
class A3 extends android.app.Activity {
  method onCreate() { }
}
)");
  auto R = runAnalysis(*App);
  auto Transitions = buildActivityTransitionGraph(*R);

  bool FoundClickEdge = false, FoundLifecycleEdge = false;
  for (const Transition &T : Transitions) {
    if (T.From->name() == "A1" && T.To->name() == "A2" && T.Event &&
        *T.Event == android::EventKind::Click)
      FoundClickEdge = true;
    if (T.From->name() == "A2" && T.To->name() == "A3" && !T.Event)
      FoundLifecycleEdge = true;
  }
  EXPECT_TRUE(FoundClickEdge)
      << "A1 --click--> A2 through the handler call chain";
  EXPECT_TRUE(FoundLifecycleEdge) << "A2 --lifecycle--> A3";

  std::ostringstream OS;
  printTransitionsDot(OS, Transitions);
  EXPECT_NE(OS.str().find("digraph atg"), std::string::npos);
  EXPECT_NE(OS.str().find("label=\"click\""), std::string::npos);
}

TEST(GuiModelTest, XmlOnClickHandlersAppearInTuples) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/main;
    this.setContentView(lid);
  }
  method onHelp(v: android.view.View) { }
}
)",
                        {{"main",
                          "<LinearLayout><Button android:id=\"@+id/help\" "
                          "android:onClick=\"onHelp\"/></LinearLayout>"}});
  auto R = runAnalysis(*App);
  auto Tuples = extractHandlerTuples(*R);
  ASSERT_EQ(Tuples.size(), 1u);
  EXPECT_EQ(Tuples.front().Activity->name(), "A");
  EXPECT_EQ(Tuples.front().Event, android::EventKind::Click);
  ASSERT_NE(Tuples.front().Handler, nullptr);
  EXPECT_EQ(Tuples.front().Handler->qualifiedName(), "A.onHelp/1");
}

TEST(GuiModelTest, CorpusTransitionsFormChain) {
  // The generator emits transitions A[i] -> A[i+1] in each first click
  // handler; the ATG client must recover the full cycle.
  corpus::AppSpec Spec;
  Spec.Name = "Chain";
  Spec.Seed = 5;
  Spec.Activities = 4;
  Spec.FillerClasses = 0;
  Spec.ListenersPerActivity = 1;
  Spec.DirectFindsPerActivity = 1;
  Spec.ProgViewsPerActivity = 0;
  Spec.EmitTransitions = true;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  auto R = runAnalysis(*App.Bundle);
  auto Transitions = buildActivityTransitionGraph(*R);
  unsigned ChainEdges = 0;
  for (const Transition &T : Transitions)
    if (T.Event && *T.Event == android::EventKind::Click)
      ++ChainEdges;
  EXPECT_EQ(ChainEdges, 4u); // 0->1, 1->2, 2->3, 3->0
}

TEST(GuiModelTest, EventSequencesFollowTransitions) {
  // Chain of 3 activities; sequences from A0 of length <= 3 are exactly
  // the prefixes of the click chain 0->1->2->0 (cyclic).
  corpus::AppSpec Spec;
  Spec.Name = "Seq";
  Spec.Seed = 8;
  Spec.Activities = 3;
  Spec.FillerClasses = 0;
  Spec.ListenersPerActivity = 1;
  Spec.DirectFindsPerActivity = 1;
  Spec.ProgViewsPerActivity = 0;
  Spec.EmitTransitions = true;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  auto R = runAnalysis(*App.Bundle);

  const ir::ClassDecl *A0 = App.Bundle->Program.findClass("SeqActivity0");
  auto Sequences = enumerateEventSequences(*R, A0, 3);
  // Lengths 1, 2, 3 — one chain, one sequence per length.
  ASSERT_EQ(Sequences.size(), 3u);
  EXPECT_EQ(Sequences[0].size(), 1u);
  EXPECT_EQ(Sequences[2].size(), 3u);
  EXPECT_EQ(Sequences[2][0].From->name(), "SeqActivity0");
  EXPECT_EQ(Sequences[2][0].To->name(), "SeqActivity1");
  EXPECT_EQ(Sequences[2][2].To->name(), "SeqActivity0"); // wraps around
  for (const EventSequence &Seq : Sequences)
    for (size_t I = 1; I < Seq.size(); ++I)
      EXPECT_EQ(Seq[I - 1].To, Seq[I].From) << "steps must chain";

  std::ostringstream OS;
  printEventSequences(OS, *R, Sequences);
  EXPECT_NE(OS.str().find("--click["), std::string::npos);
}

TEST(GuiModelTest, StepsFollowCallOrderNotDeclarationAddresses) {
  // One click handler calls Helper0..7.go(), each starting Target<i>. The
  // steps (and the transitions) come out in the order the calls are
  // reached, whatever the addresses of the method declarations.
  constexpr unsigned Helpers = 8;
  std::string Src = R"(
class Src extends android.app.Activity {
  method onCreate() {
    var v: android.widget.Button;
    var l: L;
    v := new android.widget.Button;
    this.setContentView(v);
    l := new L;
    l.init(this);
    v.setOnClickListener(l);
  }
}
class L implements android.view.View.OnClickListener {
  field owner: Src;
  method init(q: Src) { this.owner := q; }
  method onClick(v: android.view.View) {
    var s: Src;
)";
  for (unsigned I = 0; I < Helpers; ++I) {
    const std::string N = std::to_string(I);
    Src += "    var h" + N + ": Helper" + N + ";\n";
  }
  Src += "    s := this.owner;\n";
  for (unsigned I = 0; I < Helpers; ++I) {
    const std::string N = std::to_string(I);
    Src += "    h" + N + " := new Helper" + N + ";\n    h" + N + ".go(s);\n";
  }
  Src += "  }\n}\n";
  for (unsigned I = 0; I < Helpers; ++I) {
    const std::string N = std::to_string(I);
    Src += "class Helper" + N + " {\n  method go(s: Src) {\n"
           "    var it: android.content.Intent;\n"
           "    var cc: java.lang.Class;\n"
           "    it := new android.content.Intent;\n"
           "    cc := classof Target" + N + ";\n"
           "    it.setClass(s, cc);\n"
           "    s.startActivity(it);\n  }\n}\n"
           "class Target" + N + " extends android.app.Activity {\n"
           "  method onCreate() { }\n}\n";
  }
  auto App = makeBundle(Src);
  auto R = runAnalysis(*App);
  const ir::ClassDecl *Start = App->Program.findClass("Src");
  auto Sequences = enumerateEventSequences(*R, Start, 1);
  ASSERT_EQ(Sequences.size(), Helpers);
  for (unsigned I = 0; I < Helpers; ++I) {
    const std::string N = std::to_string(I);
    EXPECT_EQ(Sequences[I][0].To->name(), "Target" + N);
  }

  auto Transitions = buildActivityTransitionGraph(*R);
  std::vector<std::string> Targets;
  for (const Transition &T : Transitions)
    if (T.From == Start)
      Targets.push_back(T.To->name().str());
  ASSERT_EQ(Targets.size(), Helpers);
  for (unsigned I = 0; I < Helpers; ++I) {
    const std::string N = std::to_string(I);
    EXPECT_EQ(Targets[I], "Target" + N);
  }
}

TEST(GuiModelTest, EventSequencesRespectCaps) {
  corpus::AppSpec Spec;
  Spec.Name = "Cap";
  Spec.Seed = 8;
  Spec.Activities = 2;
  Spec.FillerClasses = 0;
  Spec.ListenersPerActivity = 2;
  Spec.DirectFindsPerActivity = 2;
  Spec.EmitTransitions = true;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  auto R = runAnalysis(*App.Bundle);
  const ir::ClassDecl *A0 = App.Bundle->Program.findClass("CapActivity0");
  auto Sequences =
      enumerateEventSequences(*R, A0, /*MaxLength=*/50, /*MaxSequences=*/10);
  EXPECT_LE(Sequences.size(), 10u);
}

TEST(GuiModelTest, ViewReachReportsObservingMethods) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  field input: android.view.View;
  method onCreate() {
    var lid: int;
    var eid: int;
    var e: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    eid := @id/password;
    e := this.findViewById(eid);
    this.input := e;
    this.submit(e);
  }
  method submit(v: android.view.View) {
    var x: android.view.View;
    x := v;
  }
  method unrelated() {
    var y: java.lang.Object;
    y := null;
  }
}
)",
                        {{"main",
                          "<LinearLayout><EditText android:id=\"@+id/password\"/>"
                          "</LinearLayout>"}});
  auto R = runAnalysis(*App);
  auto Report = computeViewReach(*R);
  ASSERT_EQ(Report.size(), 1u);
  std::vector<std::string> Names;
  for (const ir::MethodDecl *M : Report.front().Methods)
    Names.push_back(M->qualifiedName());
  EXPECT_EQ(Names,
            (std::vector<std::string>{"A.onCreate/0", "A.submit/1"}));

  std::ostringstream OS;
  printViewReach(OS, *R, Report);
  EXPECT_NE(OS.str().find("A.submit/1"), std::string::npos);
}

TEST(GuiModelTest, ViewReachUnknownWidgetClassIsEmpty) {
  auto App = corpus::buildConnectBotExample();
  auto R = runAnalysis(*App);
  EXPECT_TRUE(computeViewReach(*R, "no.such.Widget").empty());
}

TEST(GuiModelTest, JsonExportContainsAllSections) {
  auto App = corpus::buildConnectBotExample();
  auto R = runAnalysis(*App);
  std::ostringstream OS;
  writeAnalysisJson(OS, *R);
  std::string Json = OS.str();
  for (const char *Key :
       {"\"stats\"", "\"metrics\"", "\"views\"", "\"activities\"",
        "\"ops\"", "\"tuples\"", "\"transitions\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
  EXPECT_NE(Json.find("EscapeButtonListener.onClick/1"), std::string::npos);
  EXPECT_NE(Json.find("\"kind\":\"FindView2\""), std::string::npos);
}

TEST(GuiModelTest, TuplesCoverAllRegistrations) {
  corpus::AppSpec Spec;
  Spec.Name = "Cover";
  Spec.Seed = 11;
  Spec.Activities = 3;
  Spec.FillerClasses = 0;
  Spec.ListenersPerActivity = 2;
  Spec.DirectFindsPerActivity = 2;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  auto R = runAnalysis(*App.Bundle);
  auto Tuples = extractHandlerTuples(*R);
  // Each listener expectation surfaces as at least one tuple.
  for (const corpus::ListenerExpectation &E : App.Listeners) {
    bool Found = false;
    for (const HandlerTuple &T : Tuples)
      if (T.Activity && T.Activity->name() == E.ActivityClass &&
          T.Handler &&
          T.Handler->owner()->name() == E.ListenerClass)
        Found = true;
    EXPECT_TRUE(Found) << E.ActivityClass << " / " << E.ListenerClass;
  }
}

} // namespace
