//===- context_refinement_test.cpp - Call-site cloning tests ----*- C++ -*-===//

#include "analysis/ContextRefinement.h"
#include "ir/Verifier.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::test;

namespace {

const char *TwoActivityApp = R"(
class Base extends android.app.Activity {
  method lookup(a: int): android.view.View {
    var r: android.view.View;
    r := this.findViewById(a);
    return r;
  }
}
class A1 extends Base {
  method onCreate() {
    var lid: int;
    var wid: int;
    var v: android.view.View;
    lid := @layout/main1;
    this.setContentView(lid);
    wid := @id/w1;
    v := this.lookup(wid);
  }
}
class A2 extends Base {
  method onCreate() {
    var lid: int;
    var wid: int;
    var v: android.view.View;
    lid := @layout/main2;
    this.setContentView(lid);
    wid := @id/w2;
    v := this.lookup(wid);
  }
}
)";

const std::vector<std::pair<std::string, std::string>> TwoLayouts = {
    {"main1", "<LinearLayout><Button android:id=\"@+id/w1\"/></LinearLayout>"},
    {"main2", "<LinearLayout><TextView android:id=\"@+id/w2\"/></LinearLayout>"}};

TEST(ContextRefinementTest, StockAnalysisMergesHelperContexts) {
  auto App = makeBundle(TwoActivityApp, TwoLayouts);
  auto R = runAnalysis(*App);
  // Both activities' lookups merge through Base.lookup's return variable.
  NodeId V1 = varNode(*App, *R, "A1", "onCreate", 0, "v");
  EXPECT_EQ(viewClassesAt(*R, V1),
            (std::vector<std::string>{"android.widget.Button",
                                      "android.widget.TextView"}));
}

TEST(ContextRefinementTest, CloningRestoresPrecision) {
  auto App = makeBundle(TwoActivityApp, TwoLayouts);
  ContextRefinementStats Stats = applyContextRefinement(
      App->Program, App->Android, /*MaxHelperStmts=*/12, App->Diags);
  EXPECT_EQ(Stats.HelpersCloned, 1u);
  EXPECT_EQ(Stats.CallSitesRewritten, 1u); // second site gets the clone

  auto R = runAnalysis(*App);
  NodeId V1 = varNode(*App, *R, "A1", "onCreate", 0, "v");
  NodeId V2 = varNode(*App, *R, "A2", "onCreate", 0, "v");
  EXPECT_EQ(viewClassesAt(*R, V1),
            std::vector<std::string>{"android.widget.Button"});
  EXPECT_EQ(viewClassesAt(*R, V2),
            std::vector<std::string>{"android.widget.TextView"});
}

TEST(ContextRefinementTest, SingleCallerNotCloned) {
  auto App = makeBundle(R"(
class Base extends android.app.Activity {
  method lookup(a: int): android.view.View {
    var r: android.view.View;
    r := this.findViewById(a);
    return r;
  }
}
class A1 extends Base {
  method onCreate() {
    var wid: int;
    var v: android.view.View;
    wid := @id/w1;
    v := this.lookup(wid);
  }
}
)");
  ContextRefinementStats Stats = applyContextRefinement(
      App->Program, App->Android, 12, App->Diags);
  EXPECT_EQ(Stats.HelpersCloned, 0u);
}

TEST(ContextRefinementTest, LargeHelpersNotCloned) {
  auto App = makeBundle(TwoActivityApp, TwoLayouts);
  ContextRefinementStats Stats = applyContextRefinement(
      App->Program, App->Android, /*MaxHelperStmts=*/1, App->Diags);
  EXPECT_EQ(Stats.HelpersCloned, 0u);
}

TEST(ContextRefinementTest, NonViewReturningHelpersNotCloned) {
  auto App = makeBundle(R"(
class Util {
  method make(): java.lang.Object {
    var r: java.lang.Object;
    r := new java.lang.Object;
    return r;
  }
}
class C1 {
  method m(u: Util) {
    var x: java.lang.Object;
    x := u.make();
  }
}
class C2 {
  method m(u: Util) {
    var x: java.lang.Object;
    x := u.make();
  }
}
)");
  ContextRefinementStats Stats = applyContextRefinement(
      App->Program, App->Android, 12, App->Diags);
  EXPECT_EQ(Stats.HelpersCloned, 0u);
}

TEST(ContextRefinementTest, PolymorphicSitesNotRewritten) {
  auto App = makeBundle(R"(
class Base extends android.app.Activity {
  method pickView(): android.view.View {
    var r: android.widget.Button;
    r := new android.widget.Button;
    return r;
  }
}
class Sub extends Base {
  method pickView(): android.view.View {
    var r: android.widget.TextView;
    r := new android.widget.TextView;
    return r;
  }
}
class U1 {
  method m(b: Base) {
    var v: android.view.View;
    v := b.pickView();
  }
}
class U2 {
  method m(b: Base) {
    var v: android.view.View;
    v := b.pickView();
  }
}
)");
  // Receiver type Base has two CHA targets: cloning would alter dispatch,
  // so nothing happens.
  ContextRefinementStats Stats = applyContextRefinement(
      App->Program, App->Android, 12, App->Diags);
  EXPECT_EQ(Stats.CallSitesRewritten, 0u);
}

TEST(ContextRefinementTest, ClonesAreWellFormed) {
  auto App = makeBundle(TwoActivityApp, TwoLayouts);
  applyContextRefinement(App->Program, App->Android, 12, App->Diags);
  DiagnosticEngine VDiags;
  EXPECT_TRUE(ir::verifyProgram(App->Program, VDiags));
  EXPECT_EQ(VDiags.errorCount(), 0u);
  // The clone exists on the helper's class with a distinct name.
  const ir::ClassDecl *Base = App->Program.findClass("Base");
  unsigned Lookups = 0;
  for (const auto &M : Base->methods())
    if (M->name().view().starts_with("lookup"))
      ++Lookups;
  EXPECT_EQ(Lookups, 2u);
}

} // namespace
