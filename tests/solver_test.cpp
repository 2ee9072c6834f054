//===- solver_test.cpp - Per-rule analysis tests ----------------*- C++ -*-===//
//
// Targeted tests for each semantic rule of Section 3.2 and each inference
// rule of Section 4.2, on minimal ALite programs; plus re-solve hygiene and
// the FlowSet representation (small/promoted regimes, delta spans, deep
// copies).
//
//===----------------------------------------------------------------------===//

#include "DifferentialHelpers.h"
#include "TestHelpers.h"

#include "analysis/FlowSet.h"
#include "analysis/PhasedSolver.h"
#include "analysis/SolutionChecker.h"
#include "analysis/Solver.h"
#include "corpus/ConnectBot.h"

#include <gtest/gtest.h>

#include <set>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::test;

namespace {

const char *SimpleLayout = R"(
<LinearLayout android:id="@+id/root">
  <Button android:id="@+id/ok" />
  <TextView android:id="@+id/title" />
</LinearLayout>
)";

TEST(SolverTest, LifecycleSeedsActivityIntoThis) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() { }
  method notACallback() { }
}
)");
  auto R = runAnalysis(*App);
  NodeId ThisOnCreate = varNode(*App, *R, "A", "onCreate", 0, "this");
  EXPECT_EQ(R->Sol->valuesAt(ThisOnCreate).size(), 1u);
  NodeId ThisOther = varNode(*App, *R, "A", "notACallback", 0, "this");
  EXPECT_TRUE(R->Sol->valuesAt(ThisOther).empty());
}

TEST(SolverTest, Inflate2AssociatesRootWithActivity) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/main;
    this.setContentView(lid);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId Act = R->Graph->getActivityNode(App->Program.findClass("A"));
  ASSERT_EQ(R->Graph->roots(Act).size(), 1u);
  NodeId Root = R->Graph->roots(Act).front();
  EXPECT_EQ(R->Graph->node(Root).Klass->name(),
            "android.widget.LinearLayout");
  // The whole tree was minted: root + 2 children.
  EXPECT_EQ(R->Graph->descendantsOf(Root).size(), 3u);
  EXPECT_EQ(R->Stats.InflationCount, 1u);
}

TEST(SolverTest, Inflate1ReturnsRootAndMintsFreshNodesPerSite) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var infl: android.view.LayoutInflater;
    var lid: int;
    var v1: android.view.View;
    var v2: android.view.View;
    infl := this.getLayoutInflater();
    lid := @layout/main;
    v1 := infl.inflate(lid);
    v2 := infl.inflate(lid);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId V1 = varNode(*App, *R, "A", "onCreate", 0, "v1");
  NodeId V2 = varNode(*App, *R, "A", "onCreate", 0, "v2");
  auto Views1 = R->Sol->viewsAt(V1);
  auto Views2 = R->Sol->viewsAt(V2);
  ASSERT_EQ(Views1.size(), 1u);
  ASSERT_EQ(Views2.size(), 1u);
  // Section 4.1: a fresh set of nodes per inflation site.
  EXPECT_NE(Views1.front(), Views2.front());
  EXPECT_EQ(R->Stats.InflationCount, 2u);
  // 2 sites x 3 layout nodes.
  EXPECT_EQ(R->Graph->nodesOfKind(NodeKind::ViewInfl).size(), 6u);
}

TEST(SolverTest, InflateWithParentAttaches) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var infl: android.view.LayoutInflater;
    var mainId: int;
    var itemId: int;
    var cont: android.widget.LinearLayout;
    var contId: int;
    var item: android.view.View;
    mainId := @layout/main;
    this.setContentView(mainId);
    contId := @id/root;
    cont := this.findViewById(contId);
    infl := this.getLayoutInflater();
    itemId := @layout/item;
    item := infl.inflate(itemId, cont);
  }
}
)",
                        {{"main", SimpleLayout},
                         {"item", "<TextView android:id=\"@+id/detail\"/>"}});
  auto R = runAnalysis(*App);
  // The inflated item root became a child of the main layout root.
  NodeId Act = R->Graph->getActivityNode(App->Program.findClass("A"));
  NodeId Root = R->Graph->roots(Act).front();
  EXPECT_EQ(R->Graph->descendantsOf(Root).size(), 4u); // 3 + attached item
}

TEST(SolverTest, ViewIsNeverItsOwnParent) {
  // Once v holds the inflated root, inflate(lid, v) would attach the root
  // under itself; neither engine may record that self edge.
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var infl: android.view.LayoutInflater;
    var lid: int;
    var v: android.view.View;
    infl := this.getLayoutInflater();
    lid := @layout/item;
    v := infl.inflate(lid, v);
  }
}
)",
                        {{"item", "<LinearLayout><TextView/></LinearLayout>"}});
  auto Fused = runAnalysis(*App);
  auto Phased = runPhasedAnalysis(App->Program, *App->Layouts, App->Android,
                                  AnalysisOptions(), App->Diags);
  for (AnalysisResult *R : {Fused.get(), Phased.get()}) {
    ASSERT_NE(R, nullptr);
    NodeId V = varNode(*App, *R, "A", "onCreate", 0, "v");
    ASSERT_EQ(R->Sol->viewsAt(V).size(), 1u);
    NodeId Root = R->Sol->viewsAt(V).front();
    for (NodeId C : R->Graph->children(Root))
      EXPECT_NE(C, Root);
    EXPECT_EQ(R->Graph->parentChildEdgeCount(), 1u); // LinearLayout => TextView
    EXPECT_TRUE(checkSolutionClosure(*R).empty());
  }
  EXPECT_EQ(App->Diags.checkFailureCount(), 0u);
}

TEST(SolverTest, AddView1SetsProgrammaticRoot) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var v: android.widget.LinearLayout;
    v := new android.widget.LinearLayout;
    this.setContentView(v);
  }
}
)");
  auto R = runAnalysis(*App);
  NodeId Act = R->Graph->getActivityNode(App->Program.findClass("A"));
  ASSERT_EQ(R->Graph->roots(Act).size(), 1u);
  EXPECT_EQ(R->Graph->node(R->Graph->roots(Act).front()).Kind,
            NodeKind::ViewAlloc);
}

TEST(SolverTest, AddView2AndSetIdEnableFindView) {
  // Programmatic view with setId, attached with addView, then found by id
  // through the activity hierarchy (the Figure 1 addNewTerminalView
  // pattern, distilled).
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var cont: android.widget.LinearLayout;
    var contId: int;
    var b: android.widget.Button;
    var bid: int;
    var found: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    contId := @id/root;
    cont := this.findViewById(contId);
    b := new android.widget.Button;
    bid := @id/dynamic_button;
    b.setId(bid);
    cont.addView(b);
    found := this.findViewById(bid);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId Found = varNode(*App, *R, "A", "onCreate", 0, "found");
  auto Views = R->Sol->viewsAt(Found);
  ASSERT_EQ(Views.size(), 1u);
  EXPECT_EQ(R->Graph->node(Views.front()).Kind, NodeKind::ViewAlloc);
  EXPECT_EQ(R->Graph->node(Views.front()).Klass->name(),
            "android.widget.Button");
}

TEST(SolverTest, SetListenerAssociatesAndWiresCallback) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var okId: int;
    var ok: android.view.View;
    var l1: L;
    var l2: L;
    lid := @layout/main;
    this.setContentView(lid);
    okId := @id/ok;
    ok := this.findViewById(okId);
    l1 := new L;
    l2 := new L;
    ok.setOnClickListener(l1);
    ok.setOnClickListener(l2);
  }
}
class L implements android.view.View.OnClickListener {
  method onClick(v: android.view.View) { }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId Ok = varNode(*App, *R, "A", "onCreate", 0, "ok");
  auto Views = R->Sol->viewsAt(Ok);
  ASSERT_EQ(Views.size(), 1u);
  EXPECT_EQ(R->Graph->listeners(Views.front()).size(), 2u);

  // Callback wiring: both listener objects reach onClick's `this`, and
  // the button reaches the view parameter.
  NodeId ThisH = varNode(*App, *R, "L", "onClick", 1, "this");
  EXPECT_EQ(R->Sol->valuesAt(ThisH).size(), 2u);
  NodeId Param = varNode(*App, *R, "L", "onClick", 1, "v");
  EXPECT_EQ(viewClassesAt(*R, Param),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(SolverTest, DialogFindView) {
  auto App = makeBundle(R"(
class MyDialog extends android.app.Dialog {
  method setup() {
    var lid: int;
    var tid: int;
    var t: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    tid := @id/title;
    t := this.findViewById(tid);
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var d: MyDialog;
    d := new MyDialog;
    d.setup();
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId T = varNode(*App, *R, "MyDialog", "setup", 0, "t");
  EXPECT_EQ(viewClassesAt(*R, T),
            std::vector<std::string>{"android.widget.TextView"});
}

TEST(SolverTest, FindView3DescendantVsChildOnly) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var fid: int;
    var fl: android.widget.ViewFlipper;
    var cur: android.view.View;
    var foc: android.view.View;
    lid := @layout/flip;
    this.setContentView(lid);
    fid := @id/flipper;
    fl := this.findViewById(fid);
    cur := fl.getCurrentView();
    foc := fl.findFocus();
  }
}
)",
                        {{"flip", R"(
<LinearLayout>
  <ViewFlipper android:id="@+id/flipper">
    <FrameLayout android:id="@+id/page1">
      <TextView android:id="@+id/deep" />
    </FrameLayout>
    <FrameLayout android:id="@+id/page2" />
  </ViewFlipper>
</LinearLayout>
)"}});
  auto R = runAnalysis(*App);
  // getCurrentView: direct children only (the two FrameLayout pages).
  NodeId Cur = varNode(*App, *R, "A", "onCreate", 0, "cur");
  EXPECT_EQ(R->Sol->viewsAt(Cur).size(), 2u);
  // findFocus: any descendant (pages + deep text + the flipper itself).
  NodeId Foc = varNode(*App, *R, "A", "onCreate", 0, "foc");
  EXPECT_EQ(R->Sol->viewsAt(Foc).size(), 4u);

  // With the refinement disabled, getCurrentView behaves like findFocus.
  AnalysisOptions NoRefine;
  NoRefine.FindView3ChildOnly = false;
  auto R2 = runAnalysis(*App, NoRefine);
  NodeId Cur2 = varNode(*App, *R2, "A", "onCreate", 0, "cur");
  EXPECT_EQ(R2->Sol->viewsAt(Cur2).size(), 4u);
}

TEST(SolverTest, ViewsFlowThroughInstanceFields) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  field cached: android.view.View;
  method onCreate() {
    var lid: int;
    var okId: int;
    var v: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    okId := @id/ok;
    v := this.findViewById(okId);
    this.cached := v;
  }
  method onResume() {
    var w: android.view.View;
    w := this.cached;
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId W = varNode(*App, *R, "A", "onResume", 0, "w");
  EXPECT_EQ(viewClassesAt(*R, W),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(SolverTest, ViewsFlowThroughStaticFields) {
  auto App = makeBundle(R"(
class Holder { field static instance: android.view.View; }
class A extends android.app.Activity {
  method onCreate() {
    var v: android.widget.Button;
    v := new android.widget.Button;
    static Holder.instance := v;
  }
  method onResume() {
    var w: android.view.View;
    w := static Holder.instance;
  }
}
)");
  auto R = runAnalysis(*App);
  NodeId W = varNode(*App, *R, "A", "onResume", 0, "w");
  EXPECT_EQ(viewClassesAt(*R, W),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(SolverTest, InterproceduralParamsAndReturns) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var v: android.widget.Button;
    var w: android.view.View;
    v := new android.widget.Button;
    w := this.pass(v);
  }
  method pass(p: android.view.View): android.view.View {
    var r: android.view.View;
    r := p;
    return r;
  }
}
)");
  auto R = runAnalysis(*App);
  NodeId W = varNode(*App, *R, "A", "onCreate", 0, "w");
  EXPECT_EQ(viewClassesAt(*R, W),
            std::vector<std::string>{"android.widget.Button"});
  NodeId P = varNode(*App, *R, "A", "pass", 1, "p");
  EXPECT_EQ(viewClassesAt(*R, P),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(SolverTest, ViewAsListenerGeneralCase) {
  // Section 4.1: "In general, any object could be a listener, including
  // activities and views ... our implementation handles the general
  // case."
  auto App = makeBundle(R"(
class ClickableView extends android.view.View
    implements android.view.View.OnClickListener {
  method onClick(v: android.view.View) { }
}
class A extends android.app.Activity {
  method onCreate() {
    var cv: ClickableView;
    cv := new ClickableView;
    cv.setOnClickListener(cv);
  }
}
)");
  auto R = runAnalysis(*App);
  NodeId CV = varNode(*App, *R, "A", "onCreate", 0, "cv");
  auto Views = R->Sol->viewsAt(CV);
  ASSERT_EQ(Views.size(), 1u);
  ASSERT_EQ(R->Graph->listeners(Views.front()).size(), 1u);
  EXPECT_EQ(R->Graph->listeners(Views.front()).front(), Views.front());
  // The callback receives the view both as `this` and as the parameter.
  NodeId Param = varNode(*App, *R, "ClickableView", "onClick", 1, "v");
  EXPECT_EQ(viewClassesAt(*R, Param),
            std::vector<std::string>{"ClickableView"});
}

TEST(SolverTest, ActivityAsListener) {
  auto App = makeBundle(R"(
class A extends android.app.Activity
    implements android.view.View.OnClickListener {
  method onCreate() {
    var v: android.widget.Button;
    var me: A;
    v := new android.widget.Button;
    me := this;
    v.setOnClickListener(me);
  }
  method onClick(v: android.view.View) { }
}
)");
  auto R = runAnalysis(*App);
  NodeId V = varNode(*App, *R, "A", "onCreate", 0, "v");
  auto Views = R->Sol->viewsAt(V);
  ASSERT_EQ(Views.size(), 1u);
  ASSERT_EQ(R->Graph->listeners(Views.front()).size(), 1u);
  EXPECT_EQ(R->Graph->node(R->Graph->listeners(Views.front()).front()).Kind,
            NodeKind::Activity);
  NodeId Param = varNode(*App, *R, "A", "onClick", 1, "v");
  EXPECT_EQ(viewClassesAt(*R, Param),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(SolverTest, FlowInsensitivityOrderDoesNotMatter) {
  // The find-view happens *before* the setId/addView statements; the
  // flow-insensitive solution still resolves it (monotone fixed point).
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var contId: int;
    var cont: android.widget.LinearLayout;
    var did: int;
    var found: android.view.View;
    var b: android.widget.Button;
    lid := @layout/main;
    this.setContentView(lid);
    did := @id/late_id;
    found := this.findViewById(did);
    contId := @id/root;
    cont := this.findViewById(contId);
    b := new android.widget.Button;
    b.setId(did);
    cont.addView(b);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId Found = varNode(*App, *R, "A", "onCreate", 0, "found");
  EXPECT_EQ(viewClassesAt(*R, Found),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(SolverTest, UnknownLayoutReferenceWarns) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/never_registered;
    this.setContentView(lid);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  ASSERT_TRUE(R);
  // Graph construction reports the dangling @layout reference.
  EXPECT_GE(App->Diags.warningCount(), 1u);
  EXPECT_EQ(App->Diags.errorCount(), 0u);
}

TEST(SolverTest, UnmatchedFindViewYieldsEmptySet) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var ghost: int;
    var v: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    ghost := @id/no_such_widget;
    v := this.findViewById(ghost);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId V = varNode(*App, *R, "A", "onCreate", 0, "v");
  EXPECT_TRUE(R->Sol->viewsAt(V).empty());
}

TEST(SolverTest, DroppedResultsAreFine) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var okId: int;
    lid := @layout/main;
    this.setContentView(lid);
    okId := @id/ok;
    this.findViewById(okId);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  EXPECT_FALSE(R->Stats.HitWorkLimit);
  EXPECT_EQ(R->Sol->opsOfKind(android::OpKind::FindView2).size(), 1u);
}

TEST(SolverTest, ViewsFlowThroughCollections) {
  // Views stored in a java.util.List remain trackable through the
  // artificial field-based `elements` model.
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lst: java.util.ArrayList;
    var v: android.widget.Button;
    var i: int;
    var got: android.view.View;
    lst := new java.util.ArrayList;
    v := new android.widget.Button;
    lst.add(v);
    got := lst.get(i);
  }
}
)");
  auto R = runAnalysis(*App);
  NodeId Got = varNode(*App, *R, "A", "onCreate", 0, "got");
  EXPECT_EQ(viewClassesAt(*R, Got),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(SolverTest, ViewsFlowThroughCollectionSubclassesAtAnyDepth) {
  // The List interface is named two classes up (SubList -> MyList ->
  // ArrayList implements List); add/get must still resolve to the List
  // stubs and reach the collection model.
  auto App = makeBundle(R"(
class MyList extends java.util.ArrayList {
}
class SubList extends MyList {
}
class A extends android.app.Activity {
  method onCreate() {
    var l1: MyList;
    var l2: SubList;
    var a: android.widget.TextView;
    var b: android.widget.Button;
    var i: int;
    var o1: android.view.View;
    var o2: android.view.View;
    l1 := new MyList;
    a := new android.widget.TextView;
    l1.add(a);
    o1 := l1.get(i);
    l2 := new SubList;
    b := new android.widget.Button;
    l2.add(b);
    o2 := l2.get(i);
  }
}
)");
  auto R = runAnalysis(*App);
  // The model is field-based: every list shares one elements field.
  const std::vector<std::string> Both = {"android.widget.Button",
                                         "android.widget.TextView"};
  EXPECT_EQ(viewClassesAt(*R, varNode(*App, *R, "A", "onCreate", 0, "o1")),
            Both);
  EXPECT_EQ(viewClassesAt(*R, varNode(*App, *R, "A", "onCreate", 0, "o2")),
            Both);
}

TEST(SolverTest, CollectionRemoveReturnsElements) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lst: java.util.List;
    var v: android.widget.TextView;
    var i: int;
    var out: android.view.View;
    lst := new java.util.LinkedList;
    v := new android.widget.TextView;
    lst.add(v);
    out := lst.remove(i);
  }
}
)");
  auto R = runAnalysis(*App);
  NodeId Out = varNode(*App, *R, "A", "onCreate", 0, "out");
  EXPECT_EQ(viewClassesAt(*R, Out),
            std::vector<std::string>{"android.widget.TextView"});
}

TEST(SolverTest, MultiCallbackListenerWiresAllHandlers) {
  // OnSeekBarChangeListener declares three callbacks; each receives the
  // registered view.
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var sb: android.widget.SeekBar;
    var l: SeekL;
    sb := new android.widget.SeekBar;
    l := new SeekL;
    sb.setOnSeekBarChangeListener(l);
  }
}
class SeekL implements android.widget.SeekBar.OnSeekBarChangeListener {
  method onProgressChanged(v: android.view.View) { }
  method onStartTrackingTouch(v: android.view.View) { }
  method onStopTrackingTouch(v: android.view.View) { }
}
)");
  auto R = runAnalysis(*App);
  for (const char *Handler :
       {"onProgressChanged", "onStartTrackingTouch", "onStopTrackingTouch"}) {
    NodeId Param = varNode(*App, *R, "SeekL", Handler, 1, "v");
    EXPECT_EQ(viewClassesAt(*R, Param),
              std::vector<std::string>{"android.widget.SeekBar"})
        << Handler;
  }
}

TEST(SolverTest, XmlOnClickHandlerWired) {
  // `android:onClick="onHelp"` in the layout invokes A.onHelp(View) when
  // the button is clicked; the solver wires the association and callback.
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/main;
    this.setContentView(lid);
  }
  method onHelp(v: android.view.View) {
    var x: android.view.View;
    x := v;
  }
}
)",
                        {{"main", R"(
<LinearLayout>
  <Button android:id="@+id/help" android:onClick="onHelp" />
</LinearLayout>
)"}});
  auto R = runAnalysis(*App);
  EXPECT_EQ(App->Diags.warningCount(), 0u);
  // The handler's view parameter receives the button; `this` the activity.
  NodeId Param = varNode(*App, *R, "A", "onHelp", 1, "v");
  EXPECT_EQ(viewClassesAt(*R, Param),
            std::vector<std::string>{"android.widget.Button"});
  NodeId ThisH = varNode(*App, *R, "A", "onHelp", 1, "this");
  ASSERT_EQ(R->Sol->valuesAt(ThisH).size(), 1u);
  EXPECT_EQ(R->Graph->node(*R->Sol->valuesAt(ThisH).begin()).Kind,
            NodeKind::Activity);
  // The view's listener is the activity itself.
  NodeId Act = R->Graph->getActivityNode(App->Program.findClass("A"));
  NodeId Root = R->Graph->roots(Act).front();
  NodeId Button = R->Graph->children(Root).front();
  ASSERT_EQ(R->Graph->listeners(Button).size(), 1u);
  EXPECT_EQ(R->Graph->listeners(Button).front(), Act);
}

TEST(SolverTest, XmlOnClickMissingHandlerWarns) {
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/main;
    this.setContentView(lid);
  }
}
)",
                        {{"main", R"(
<LinearLayout>
  <Button android:onClick="noSuchMethod" />
</LinearLayout>
)"}});
  auto R = runAnalysis(*App);
  ASSERT_TRUE(R);
  EXPECT_EQ(App->Diags.warningCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Closure rule 8 (callbacks), proven with mutants: erase one callback fact
// from a correct solution and the checker must name it.
//===----------------------------------------------------------------------===//

/// Erases \p Value from \p N's flowsTo set.
void eraseFact(AnalysisResult &R, NodeId N, NodeId Value) {
  FlowSet *Set = R.Sol->flowsToSets().find(N);
  ASSERT_NE(Set, nullptr);
  ASSERT_EQ(Set->eraseValues([&](NodeId V) { return V == Value; }), 1u);
}

size_t violationsStartingWith(const AnalysisResult &R,
                              const std::string &Prefix) {
  size_t N = 0;
  for (const std::string &V : checkSolutionClosure(R))
    N += V.rfind(Prefix, 0) == 0;
  return N;
}

const char *CallbackSource = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var okId: int;
    var ok: android.view.View;
    var l: L;
    lid := @layout/main;
    this.setContentView(lid);
    okId := @id/ok;
    ok := this.findViewById(okId);
    l := new L;
    ok.setOnClickListener(l);
  }
  method onHelp(v: android.view.View) { }
}
class L implements android.view.View.OnClickListener {
  method onClick(v: android.view.View) { }
}
)";

const char *CallbackLayout = R"(
<LinearLayout>
  <Button android:id="@+id/ok" />
  <TextView android:onClick="onHelp" />
</LinearLayout>
)";

TEST(SolutionCheckerTest, CallbackRuleCatchesEachErasedCallbackFact) {
  struct Mutant {
    const char *Class, *Method, *Var, *Violation;
  };
  const Mutant Mutants[] = {
      {"L", "onClick", "v", "SetListener callback: "},
      {"L", "onClick", "this", "SetListener callback: "},
      {"A", "onHelp", "v", "XmlOnClick callback: "},
      {"A", "onHelp", "this", "XmlOnClick callback: "},
  };
  for (const Mutant &M : Mutants) {
    auto App = makeBundle(CallbackSource, {{"main", CallbackLayout}});
    auto R = runAnalysis(*App);
    ASSERT_TRUE(checkSolutionClosure(*R).empty());
    NodeId N = varNode(*App, *R, M.Class, M.Method, 1, M.Var);
    ASSERT_EQ(R->Sol->valuesAt(N).size(), 1u) << M.Method << " " << M.Var;
    eraseFact(*R, N, *R->Sol->valuesAt(N).begin());
    EXPECT_EQ(violationsStartingWith(*R, M.Violation), 1u)
        << M.Method << " " << M.Var;
  }
}

TEST(SolverTest, DialogLifecycleSeedsAllocation) {
  auto App = makeBundle(R"(
class MyDialog extends android.app.Dialog {
  method onCreate() {
    var lid: int;
    var t: android.view.View;
    var tid: int;
    lid := @layout/main;
    this.setContentView(lid);
    tid := @id/title;
    t := this.findViewById(tid);
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var d: MyDialog;
    d := new MyDialog;
    d.show();
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  // Without any explicit call to MyDialog.onCreate, the framework model
  // invokes it on the allocation, so the dialog's find resolves.
  NodeId T = varNode(*App, *R, "MyDialog", "onCreate", 0, "t");
  EXPECT_EQ(viewClassesAt(*R, T),
            std::vector<std::string>{"android.widget.TextView"});
}

TEST(SolverTest, DeclaredTypeFilterPrunesIncompatibleViews) {
  // Both a Button and a TextView flow into `v`; the ImageView-typed `w`
  // keeps neither under type filtering, and `t` keeps only the TextView.
  const char *Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var b: android.widget.Button;
    var x: android.widget.TextView;
    var v: android.view.View;
    var t: android.widget.TextView;
    var w: android.widget.ImageView;
    b := new android.widget.Button;
    x := new android.widget.TextView;
    v := b;
    v := x;
    t := v;
    w := v;
  }
}
)";
  {
    auto App = makeBundle(Source);
    auto R = runAnalysis(*App); // default: no filtering
    EXPECT_EQ(R->Sol->viewsAt(varNode(*App, *R, "A", "onCreate", 0, "w"))
                  .size(),
              2u);
  }
  {
    auto App = makeBundle(Source);
    AnalysisOptions Options;
    Options.DeclaredTypeFilter = true;
    auto R = runAnalysis(*App, Options);
    // Button is a TextView subtype in the model; TextView stays, and so
    // does Button (Button <: TextView). ImageView is unrelated to both.
    EXPECT_EQ(viewClassesAt(*R, varNode(*App, *R, "A", "onCreate", 0, "t")),
              (std::vector<std::string>{"android.widget.Button",
                                        "android.widget.TextView"}));
    EXPECT_TRUE(
        R->Sol->viewsAt(varNode(*App, *R, "A", "onCreate", 0, "w")).empty());
  }
}

TEST(SolverTest, FragmentViewAttachesUnderContainer) {
  // Extension (fragments): tx.add(containerId, fragment) makes the view
  // returned by fragment.onCreateView a child of the container, so an
  // activity-wide find reaches into fragment content.
  auto App = makeBundle(R"(
class MyFragment extends android.app.Fragment {
  method onCreateView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.view.View;
    var lid: int;
    lid := @layout/frag;
    v := inflater.inflate(lid);
    return v;
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var fm: android.app.FragmentManager;
    var tx: android.app.FragmentTransaction;
    var f: MyFragment;
    var cid: int;
    var fid: int;
    var found: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    fm := this.getFragmentManager();
    tx := fm.beginTransaction();
    f := new MyFragment;
    cid := @id/root;
    tx.add(cid, f);
    tx.commit();
    fid := @id/frag_text;
    found := this.findViewById(fid);
  }
}
)",
                        {{"main", SimpleLayout},
                         {"frag", "<TextView android:id=\"@+id/frag_text\"/>"}});
  auto R = runAnalysis(*App);
  // The fragment factory's `this` receives the allocation.
  NodeId ThisF = varNode(*App, *R, "MyFragment", "onCreateView", 1, "this");
  EXPECT_EQ(R->Sol->valuesAt(ThisF).size(), 1u);
  // The activity-wide find sees the fragment's TextView.
  NodeId Found = varNode(*App, *R, "A", "onCreate", 0, "found");
  EXPECT_EQ(viewClassesAt(*R, Found),
            std::vector<std::string>{"android.widget.TextView"});
}

TEST(SolverTest, FragmentReplaceAlsoModeled) {
  auto App = makeBundle(R"(
class F extends android.app.Fragment {
  method onCreateView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.widget.Button;
    v := new android.widget.Button;
    return v;
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var fm: android.app.FragmentManager;
    var tx: android.app.FragmentTransaction;
    var f: F;
    var cid: int;
    lid := @layout/main;
    this.setContentView(lid);
    fm := this.getFragmentManager();
    tx := fm.beginTransaction();
    f := new F;
    cid := @id/root;
    tx.replace(cid, f);
  }
}
)",
                        {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);
  // The programmatic Button hangs under the container with id root.
  NodeId Act = R->Graph->getActivityNode(App->Program.findClass("A"));
  NodeId Root = R->Graph->roots(Act).front();
  bool HasButton = false;
  for (NodeId D : R->Graph->descendantsOf(Root))
    if (R->Graph->node(D).Kind == NodeKind::ViewAlloc)
      HasButton = true;
  EXPECT_TRUE(HasButton);
}

TEST(SolverTest, SameLayoutInflatedAtTwoSitesMintsFreshTrees) {
  // Two activities share one layout; each inflation site mints its own
  // view nodes, so finds stay per-activity precise (Section 4.1's
  // "fresh set of graph nodes ... at each inflation site").
  auto App = makeBundle(R"(
class A1 extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var bid: int;
    var b: android.view.View;
    lid := @layout/shared;
    this.setContentView(lid);
    bid := @id/ok;
    b := this.findViewById(bid);
  }
}
class A2 extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var bid: int;
    var b: android.view.View;
    lid := @layout/shared;
    this.setContentView(lid);
    bid := @id/ok;
    b := this.findViewById(bid);
  }
}
)",
                        {{"shared", SimpleLayout}});
  auto R = runAnalysis(*App);
  NodeId B1 = varNode(*App, *R, "A1", "onCreate", 0, "b");
  NodeId B2 = varNode(*App, *R, "A2", "onCreate", 0, "b");
  auto V1 = R->Sol->viewsAt(B1);
  auto V2 = R->Sol->viewsAt(B2);
  ASSERT_EQ(V1.size(), 1u);
  ASSERT_EQ(V2.size(), 1u);
  EXPECT_NE(V1.front(), V2.front()) << "sites must not share view nodes";
}

TEST(SolverTest, IncludedLayoutsParticipateInFindView) {
  // A titlebar included via <include> is searchable through the includer.
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var tid: int;
    var t: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    tid := @id/bar_text;
    t := this.findViewById(tid);
  }
}
)",
                        {{"titlebar", R"(
<RelativeLayout android:id="@+id/bar">
  <TextView android:id="@+id/bar_text" />
</RelativeLayout>
)"},
                         {"main", R"(
<LinearLayout>
  <include layout="@layout/titlebar" />
  <Button android:id="@+id/ok" />
</LinearLayout>
)"}});
  auto R = runAnalysis(*App);
  NodeId T = varNode(*App, *R, "A", "onCreate", 0, "t");
  EXPECT_EQ(viewClassesAt(*R, T),
            std::vector<std::string>{"android.widget.TextView"});
}

TEST(SolverTest, ListenerSubclassHandlersDispatchCorrectly) {
  // The registered listener is a subclass inheriting onClick from a base
  // listener class; callback wiring must dispatch to the inherited body.
  auto App = makeBundle(R"(
class BaseListener implements android.view.View.OnClickListener {
  method onClick(v: android.view.View) {
    var x: android.view.View;
    x := v;
  }
}
class SubListener extends BaseListener {
}
class A extends android.app.Activity {
  method onCreate() {
    var b: android.widget.Button;
    var l: SubListener;
    b := new android.widget.Button;
    l := new SubListener;
    b.setOnClickListener(l);
  }
}
)");
  auto R = runAnalysis(*App);
  // The inherited handler's parameter receives the button, and its `this`
  // holds the SubListener allocation.
  NodeId Param = varNode(*App, *R, "BaseListener", "onClick", 1, "v");
  EXPECT_EQ(viewClassesAt(*R, Param),
            std::vector<std::string>{"android.widget.Button"});
  NodeId ThisH = varNode(*App, *R, "BaseListener", "onClick", 1, "this");
  ASSERT_EQ(R->Sol->valuesAt(ThisH).size(), 1u);
  EXPECT_EQ(R->Graph->node(*R->Sol->valuesAt(ThisH).begin()).Klass->name(),
            "SubListener");
}

TEST(SolverTest, InterfaceTypedListenerVariable) {
  // The listener flows through an interface-typed variable; registration
  // still associates the concrete allocation.
  auto App = makeBundle(R"(
class L implements android.view.View.OnClickListener {
  method onClick(v: android.view.View) { }
}
class A extends android.app.Activity {
  method onCreate() {
    var b: android.widget.Button;
    var l: L;
    var iface: android.view.View.OnClickListener;
    b := new android.widget.Button;
    l := new L;
    iface := l;
    b.setOnClickListener(iface);
  }
}
)");
  auto R = runAnalysis(*App);
  NodeId B = varNode(*App, *R, "A", "onCreate", 0, "b");
  auto Views = R->Sol->viewsAt(B);
  ASSERT_EQ(Views.size(), 1u);
  ASSERT_EQ(R->Graph->listeners(Views.front()).size(), 1u);
  EXPECT_EQ(
      R->Graph->node(R->Graph->listeners(Views.front()).front()).Klass->name(),
      "L");
}

TEST(SolverTest, AdapterItemViewsBecomeListChildren) {
  // listView.setAdapter(adapter): the adapter's getView result hangs
  // under the list, so activity-wide finds reach row content.
  auto App = makeBundle(R"(
class RowAdapter extends android.widget.BaseAdapter {
  method getView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.view.View;
    var lid: int;
    lid := @layout/row;
    v := inflater.inflate(lid);
    return v;
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var lvid: int;
    var lv: android.widget.ListView;
    var ad: RowAdapter;
    var rid: int;
    var found: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    lvid := @id/list;
    lv := this.findViewById(lvid);
    ad := new RowAdapter;
    lv.setAdapter(ad);
    rid := @id/row_text;
    found := this.findViewById(rid);
  }
}
)",
                        {{"main",
                          "<LinearLayout><ListView android:id=\"@+id/list\"/>"
                          "</LinearLayout>"},
                         {"row", "<TextView android:id=\"@+id/row_text\"/>"}});
  auto R = runAnalysis(*App);
  // The adapter factory's `this` receives the allocation.
  NodeId ThisA = varNode(*App, *R, "RowAdapter", "getView", 1, "this");
  EXPECT_EQ(R->Sol->valuesAt(ThisA).size(), 1u);
  // The row content is found through the activity hierarchy.
  NodeId Found = varNode(*App, *R, "A", "onCreate", 0, "found");
  EXPECT_EQ(viewClassesAt(*R, Found),
            std::vector<std::string>{"android.widget.TextView"});
}

TEST(SolverTest, TextWatcherHandlersReachableWithoutViewParam) {
  // TextWatcher callbacks carry no view parameter; the watcher object
  // still reaches the handlers' `this` via the implicit callback.
  auto App = makeBundle(R"(
class Watcher implements android.text.TextWatcher {
  method beforeTextChanged() { }
  method onTextChanged() { }
  method afterTextChanged() { }
}
class A extends android.app.Activity {
  method onCreate() {
    var t: android.widget.EditText;
    var w: Watcher;
    t := new android.widget.EditText;
    w := new Watcher;
    t.addTextChangedListener(w);
  }
}
)");
  auto R = runAnalysis(*App);
  for (const char *Handler :
       {"beforeTextChanged", "onTextChanged", "afterTextChanged"}) {
    NodeId ThisH = varNode(*App, *R, "Watcher", Handler, 0, "this");
    EXPECT_EQ(R->Sol->valuesAt(ThisH).size(), 1u) << Handler;
  }
  // The EditText is associated with the watcher.
  NodeId T = varNode(*App, *R, "A", "onCreate", 0, "t");
  ASSERT_EQ(R->Sol->viewsAt(T).size(), 1u);
  EXPECT_EQ(R->Graph->listeners(R->Sol->viewsAt(T).front()).size(), 1u);
}

TEST(SolverTest, SameNamedRegistrationsDisambiguatedByArgType) {
  // CompoundButton and RadioGroup both declare
  // setOnCheckedChangeListener, with different listener interfaces; the
  // classifier must pick by the argument's declared type.
  auto App = makeBundle(R"(
class BoxL implements android.widget.CompoundButton.OnCheckedChangeListener {
  method onCheckedChanged(v: android.view.View) { }
}
class GroupL implements android.widget.RadioGroup.OnCheckedChangeListener {
  method onCheckedChanged(v: android.view.View) { }
}
class A extends android.app.Activity {
  method onCreate() {
    var cb: android.widget.CheckBox;
    var rg: android.widget.RadioGroup;
    var bl: BoxL;
    var gl: GroupL;
    cb := new android.widget.CheckBox;
    rg := new android.widget.RadioGroup;
    bl := new BoxL;
    gl := new GroupL;
    cb.setOnCheckedChangeListener(bl);
    rg.setOnCheckedChangeListener(gl);
  }
}
)");
  auto R = runAnalysis(*App);
  auto Ops = R->Sol->opsOfKind(android::OpKind::SetListener);
  ASSERT_EQ(Ops.size(), 2u);
  std::set<std::string> Interfaces;
  for (const auto *Op : Ops)
    Interfaces.insert(Op->Spec.Listener->InterfaceName);
  EXPECT_EQ(Interfaces,
            (std::set<std::string>{
                "android.widget.CompoundButton.OnCheckedChangeListener",
                "android.widget.RadioGroup.OnCheckedChangeListener"}));
  // Both handlers receive their widgets.
  NodeId BoxParam = varNode(*App, *R, "BoxL", "onCheckedChanged", 1, "v");
  EXPECT_EQ(viewClassesAt(*R, BoxParam),
            std::vector<std::string>{"android.widget.CheckBox"});
  NodeId GroupParam = varNode(*App, *R, "GroupL", "onCheckedChanged", 1, "v");
  EXPECT_EQ(viewClassesAt(*R, GroupParam),
            std::vector<std::string>{"android.widget.RadioGroup"});
}

TEST(SolverTest, MetricsAbsentWithoutOps) {
  auto App = makeBundle("class A { method m() { } }");
  auto R = runAnalysis(*App);
  auto M = R->metrics();
  EXPECT_EQ(M.AvgReceivers, 0.0);
  EXPECT_FALSE(M.AvgParameters.has_value());
  EXPECT_FALSE(M.AvgResults.has_value());
  EXPECT_FALSE(M.AvgListeners.has_value());
}

TEST(SolverTest, StatsArePopulated) {
  auto App = corpus::buildConnectBotExample();
  ASSERT_TRUE(App && !App->Diags.hasErrors());
  auto R = runAnalysis(*App);
  EXPECT_GT(R->Stats.Propagations, 0ul);
  EXPECT_GT(R->Stats.OpFirings, 0ul);
  EXPECT_EQ(R->Stats.InflationCount, 2ul);
  EXPECT_FALSE(R->Stats.HitWorkLimit);
  EXPECT_GE(R->BuildSeconds, 0.0);
  EXPECT_GE(R->SolveSeconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Re-solve hygiene: registerOpUses starts from a clean slate
//===----------------------------------------------------------------------===//

TEST(SolverReuse, SecondSolveIsStable) {
  // Calling solve() twice on the same Solver must leave the saturated
  // solution untouched: registerOpUses and the per-node tables may not
  // accumulate stale state across solves. (A *fresh* Solver on an
  // already-solved graph is a different contract: its InflatedAt memo is
  // empty, so it re-mints ViewInfl trees per inflation site by design.)
  auto App = corpus::buildConnectBotExample();
  ASSERT_TRUE(App && !App->Diags.hasErrors());
  auto R = runAnalysis(*App);
  ASSERT_TRUE(R);

  AnalysisOptions Options;
  Solver Again(*R->Graph, *R->Sol, *App->Layouts, App->Android, Options,
               App->Diags);
  SolverStats Stats1 = Again.solve();
  EXPECT_FALSE(Stats1.HitWorkLimit);

  std::string Digest1 = solutionDigest(*R->Sol);
  EdgeCounts Counts1 = edgeCounts(*R);

  SolverStats Stats2 = Again.solve();
  EXPECT_FALSE(Stats2.HitWorkLimit);

  EdgeCounts Counts2 = edgeCounts(*R);
  EXPECT_EQ(Counts1.Nodes, Counts2.Nodes);
  EXPECT_EQ(Counts1.Flow, Counts2.Flow);
  EXPECT_EQ(Counts1.ParentChild, Counts2.ParentChild);
  EXPECT_EQ(Counts1.ViewInfl, Counts2.ViewInfl);
  EXPECT_EQ(Digest1, solutionDigest(*R->Sol));
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

//===----------------------------------------------------------------------===//
// FlowSet representation
//===----------------------------------------------------------------------===//

TEST(FlowSetTest, SmallRegimeDedupAndOrder) {
  support::Arena A;
  FlowSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(A, 7));
  EXPECT_TRUE(S.insert(A, 3));
  EXPECT_FALSE(S.insert(A, 7)); // duplicate
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(3));
  EXPECT_FALSE(S.contains(4));
  EXPECT_FALSE(S.promoted());
  // Insertion order is preserved.
  std::vector<NodeId> Got(S.begin(), S.end());
  EXPECT_EQ(Got, (std::vector<NodeId>{7, 3}));
}

TEST(FlowSetTest, PromotionAtSmallLimit) {
  support::Arena A;
  FlowSet S;
  for (NodeId V = 0; V < FlowSet::SmallLimit; ++V)
    EXPECT_TRUE(S.insert(A, V));
  EXPECT_FALSE(S.promoted()) << "promotion only past SmallLimit";
  EXPECT_TRUE(S.insert(A, FlowSet::SmallLimit));
  EXPECT_TRUE(S.promoted());
  EXPECT_EQ(S.size(), FlowSet::SmallLimit + 1);
  // Dedup and order still hold in the promoted regime.
  EXPECT_FALSE(S.insert(A, 0));
  EXPECT_TRUE(S.insert(A, 1000));
  EXPECT_TRUE(S.contains(1000));
  std::vector<NodeId> Got(S.begin(), S.end());
  ASSERT_EQ(Got.size(), FlowSet::SmallLimit + 2);
  EXPECT_EQ(Got.front(), 0u);
  EXPECT_EQ(Got.back(), 1000u);
}

TEST(FlowSetTest, DeltaSpanLifecycle) {
  support::Arena A;
  FlowSet S;
  EXPECT_FALSE(S.hasDelta());
  S.insert(A, 1);
  S.insert(A, 2);
  EXPECT_TRUE(S.hasDelta());
  EXPECT_EQ(S.deltaBegin(), 0u);

  S.commit(S.size());
  EXPECT_FALSE(S.hasDelta());
  EXPECT_EQ(S.deltaBegin(), 2u);

  S.insert(A, 3);
  EXPECT_TRUE(S.hasDelta());
  // The uncommitted suffix is exactly the values since the last commit.
  std::vector<NodeId> DeltaVals(S.begin() + S.deltaBegin(), S.end());
  EXPECT_EQ(DeltaVals, (std::vector<NodeId>{3}));
  S.commit(S.size());
  EXPECT_FALSE(S.hasDelta());
}

TEST(FlowSetTest, CloneIsDeepInBothRegimes) {
  support::Arena A;
  FlowSet Small;
  Small.insert(A, 1);
  Small.insert(A, 2);
  FlowSet SmallCopy = Small.clone(A);
  Small.insert(A, 3);
  EXPECT_EQ(SmallCopy.size(), 2u);
  EXPECT_FALSE(SmallCopy.contains(3));

  FlowSet Big;
  for (NodeId V = 0; V <= FlowSet::SmallLimit; ++V)
    Big.insert(A, V);
  ASSERT_TRUE(Big.promoted());
  FlowSet BigCopy = Big.clone(A);
  EXPECT_TRUE(BigCopy.promoted());
  Big.insert(A, 500);
  EXPECT_FALSE(BigCopy.contains(500));
  EXPECT_FALSE(BigCopy.insert(A, 3)) << "cloned index must dedup";
  EXPECT_TRUE(BigCopy.insert(A, 501));
  EXPECT_TRUE(BigCopy.contains(501));

  Big = SmallCopy.clone(A); // move-assign a clone over a promoted set
  EXPECT_FALSE(Big.promoted());
  EXPECT_EQ(Big.size(), 2u);
}

} // namespace
