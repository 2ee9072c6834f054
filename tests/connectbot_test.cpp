//===- connectbot_test.cpp - Figure 1 end-to-end integration ----*- C++ -*-===//
//
// Validates the full pipeline (parser -> layouts -> graph -> solver) on
// the paper's running example, asserting the resolution claims made in
// Sections 2 and 4.2 of the paper.
//
//===----------------------------------------------------------------------===//

#include "analysis/GuiAnalysis.h"
#include "analysis/SolutionChecker.h"
#include "corpus/ConnectBot.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::graph;

namespace {

class ConnectBotTest : public ::testing::Test {
protected:
  void SetUp() override {
    App = buildConnectBotExample();
    ASSERT_TRUE(App);
    if (App->Diags.hasErrors()) {
      std::ostringstream OS;
      App->Diags.print(OS);
      FAIL() << "example build failed:\n" << OS.str();
    }
    Result = GuiAnalysis::run(App->Program, *App->Layouts, App->Android,
                              AnalysisOptions(), App->Diags);
    ASSERT_TRUE(Result);
  }

  /// Variable node for Class.method(varName).
  NodeId varNode(const std::string &ClassName, const std::string &Method,
                 const std::string &Var, unsigned Arity) {
    const ir::ClassDecl *C = App->Program.findClass(ClassName);
    EXPECT_NE(C, nullptr);
    const ir::MethodDecl *M = C->findOwnMethod(Method, Arity);
    EXPECT_NE(M, nullptr) << ClassName << "." << Method;
    ir::VarId V = M->findVar(Var);
    EXPECT_NE(V, ir::InvalidVar) << Var;
    return Result->Graph->getVarNode(M, V);
  }

  /// The views reaching a variable, as sorted class-name strings.
  std::vector<std::string> viewClassesAt(NodeId N) {
    std::vector<std::string> Names;
    for (NodeId V : Result->Sol->viewsAt(N))
      Names.push_back(Result->Graph->node(V).Klass->name().str());
    std::sort(Names.begin(), Names.end());
    return Names;
  }

  std::unique_ptr<AppBundle> App;
  std::unique_ptr<AnalysisResult> Result;
};

TEST_F(ConnectBotTest, OpNodeInventory) {
  auto CountOps = [&](android::OpKind K) {
    return Result->Sol->opsOfKind(K).size();
  };
  EXPECT_EQ(CountOps(android::OpKind::Inflate2), 1u); // setContentView(int)
  EXPECT_EQ(CountOps(android::OpKind::Inflate1), 1u); // inflater.inflate
  EXPECT_EQ(CountOps(android::OpKind::FindView2), 2u); // lines 10, 13
  EXPECT_EQ(CountOps(android::OpKind::FindView1), 1u); // line 6
  EXPECT_EQ(CountOps(android::OpKind::FindView3), 1u); // getCurrentView
  EXPECT_EQ(CountOps(android::OpKind::SetListener), 1u); // line 16
  EXPECT_EQ(CountOps(android::OpKind::SetId), 1u);    // line 22
  EXPECT_EQ(CountOps(android::OpKind::AddView2), 2u); // lines 23, 25
}

TEST_F(ConnectBotTest, InflationCreatesLayoutViews) {
  // act_console: RelativeLayout root, ViewFlipper, RelativeLayout
  // (keyboard_group), ImageView (button_esc) = 4 nodes.
  // item_terminal: RelativeLayout root + TextView = 2 nodes.
  std::vector<NodeId> Infl(Result->Graph->nodesOfKind(NodeKind::ViewInfl).begin(),
                           Result->Graph->nodesOfKind(NodeKind::ViewInfl).end());
  EXPECT_EQ(Infl.size(), 6u);
}

TEST_F(ConnectBotTest, FindViewLine10ResolvesToFlipper) {
  // e := this.findViewById(@id/console_flip) resolves to the ViewFlipper
  // inflated from act_console — and nothing else.
  NodeId E = varNode("ConsoleActivity", "onCreate", "e", 0);
  EXPECT_EQ(viewClassesAt(E),
            std::vector<std::string>{"android.widget.ViewFlipper"});
}

TEST_F(ConnectBotTest, FindViewLine13ResolvesToEscButton) {
  NodeId G = varNode("ConsoleActivity", "onCreate", "g", 0);
  EXPECT_EQ(viewClassesAt(G),
            std::vector<std::string>{"android.widget.ImageView"});
}

TEST_F(ConnectBotTest, EscButtonHasClickListener) {
  // Section 2: the ImageView for the ESC button is associated with the
  // EscapeButtonListener created at line 15.
  NodeId G = varNode("ConsoleActivity", "onCreate", "g", 0);
  auto Views = Result->Sol->viewsAt(G);
  ASSERT_EQ(Views.size(), 1u);
  const auto &Listeners = Result->Graph->listeners(Views.front());
  ASSERT_EQ(Listeners.size(), 1u);
  EXPECT_EQ(Result->Graph->node(Listeners.front()).Klass->name(),
            "EscapeButtonListener");
}

TEST_F(ConnectBotTest, ClickCallbackReceivesEscButton) {
  // The implicit callback j.onClick(h): the handler's view parameter
  // receives the ImageView.
  NodeId R = varNode("EscapeButtonListener", "onClick", "r", 1);
  EXPECT_EQ(viewClassesAt(R),
            std::vector<std::string>{"android.widget.ImageView"});
  // And `this` of the handler is the listener allocated at line 15.
  NodeId ThisN = varNode("EscapeButtonListener", "onClick", "this", 1);
  const auto &Vals = Result->Sol->valuesAt(ThisN);
  ASSERT_EQ(Vals.size(), 1u);
  EXPECT_EQ(Result->Graph->node(*Vals.begin()).Klass->name(),
            "EscapeButtonListener");
}

TEST_F(ConnectBotTest, HelperChainResolvesToTerminalView) {
  // Section 2's punchline: the find-view at line 6 (inside the helper
  // called from onClick, line 32) returns the programmatically created
  // TerminalView — via getCurrentView over the flipper's children (added
  // at line 25), the setId at line 22, and the addView at line 23.
  NodeId D = varNode("ConsoleActivity", "findTerminalView", "d", 1);
  EXPECT_EQ(viewClassesAt(D), std::vector<std::string>{"TerminalView"});

  NodeId V = varNode("EscapeButtonListener", "onClick", "v", 1);
  EXPECT_EQ(viewClassesAt(V), std::vector<std::string>{"TerminalView"});
}

TEST_F(ConnectBotTest, GetCurrentViewResolvesToInflatedItemRoot) {
  // c := b.getCurrentView(): the flipper's children are exactly the
  // RelativeLayout roots inflated at line 19 (child-only refinement).
  NodeId C = varNode("ConsoleActivity", "findTerminalView", "c", 1);
  EXPECT_EQ(viewClassesAt(C),
            std::vector<std::string>{"android.widget.RelativeLayout"});
}

TEST_F(ConnectBotTest, ActivityRootIsActConsole) {
  // ConsoleActivity => root edge to the act_console RelativeLayout root.
  const ir::ClassDecl *Act = App->Program.findClass("ConsoleActivity");
  NodeId ActNode = Result->Graph->getActivityNode(Act);
  const auto &Roots = Result->Graph->roots(ActNode);
  ASSERT_EQ(Roots.size(), 1u);
  EXPECT_EQ(Result->Graph->node(Roots.front()).Klass->name(),
            "android.widget.RelativeLayout");
  // "the root node RelativeLayout_9.1 is an ancestor of" the whole GUI:
  // its descendant set covers the act_console nodes plus the item_terminal
  // subtree and the TerminalView linked in through AddView2 ops.
  EXPECT_EQ(Result->Graph->descendantsOf(Roots.front()).size(), 7u);
}

TEST_F(ConnectBotTest, PerfectPrecisionMetrics) {
  // Table 2 reports 1.00 across the board for ConnectBot.
  auto M = Result->metrics();
  EXPECT_DOUBLE_EQ(M.AvgReceivers, 1.0);
  ASSERT_TRUE(M.AvgParameters.has_value());
  EXPECT_DOUBLE_EQ(*M.AvgParameters, 1.0);
  ASSERT_TRUE(M.AvgResults.has_value());
  EXPECT_DOUBLE_EQ(*M.AvgResults, 1.0);
  ASSERT_TRUE(M.AvgListeners.has_value());
  EXPECT_DOUBLE_EQ(*M.AvgListeners, 1.0);
}

TEST_F(ConnectBotTest, SolutionIsAClosedFixedPoint) {
  for (const std::string &V : analysis::checkSolutionClosure(*Result))
    ADD_FAILURE() << V;
}

TEST_F(ConnectBotTest, NoDiagnosticsDuringAnalysis) {
  std::ostringstream OS;
  App->Diags.print(OS);
  EXPECT_EQ(App->Diags.errorCount(), 0u) << OS.str();
  EXPECT_EQ(App->Diags.warningCount(), 0u) << OS.str();
}

} // namespace
