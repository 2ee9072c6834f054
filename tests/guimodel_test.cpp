//===- guimodel_test.cpp - Section 6 client analyses tests ------*- C++ -*-===//

#include "corpus/ConnectBot.h"
#include "corpus/Corpus.h"
#include "guimodel/GuiModel.h"
#include "guimodel/JsonExport.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gator;
using namespace gator::guimodel;
using namespace gator::test;

namespace {

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
