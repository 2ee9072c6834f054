//===- solution_test.cpp - Solution query API unit tests --------*- C++ -*-===//

#include "corpus/ConnectBot.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::test;

namespace {

class SolutionTest : public ::testing::Test {
protected:
  void SetUp() override {
    App = corpus::buildConnectBotExample();
    ASSERT_TRUE(App && !App->Diags.hasErrors());
    Result = runAnalysis(*App);
    ASSERT_TRUE(Result);
  }

  std::unique_ptr<corpus::AppBundle> App;
  std::unique_ptr<AnalysisResult> Result;
};

TEST_F(SolutionTest, ValuesAtInvalidNodeIsEmpty) {
  EXPECT_TRUE(Result->Sol->valuesAt(InvalidNode).empty());
  EXPECT_TRUE(
      Result->Sol->valuesAt(static_cast<NodeId>(1'000'000)).empty());
}

TEST_F(SolutionTest, OpsOfKindPartitionsAllOps) {
  size_t Sum = 0;
  for (android::OpKind K :
       {android::OpKind::Inflate1, android::OpKind::Inflate2,
        android::OpKind::AddView1, android::OpKind::AddView2,
        android::OpKind::SetId, android::OpKind::SetListener,
        android::OpKind::FindView1, android::OpKind::FindView2,
        android::OpKind::FindView3, android::OpKind::StartActivity,
        android::OpKind::SetIntentClass})
    Sum += Result->Sol->opsOfKind(K).size();
  EXPECT_EQ(Sum, Result->Sol->ops().size());
}

TEST_F(SolutionTest, Inflate1ResultsAreTheMintedRoots) {
  auto Inflates = Result->Sol->opsOfKind(android::OpKind::Inflate1);
  ASSERT_EQ(Inflates.size(), 1u);
  auto Roots = Result->Sol->resultsOf(*Inflates.front(), Result->Options);
  ASSERT_EQ(Roots.size(), 1u);
  const Node &N = Result->Graph->node(Roots.front());
  EXPECT_EQ(N.Kind, NodeKind::ViewInfl);
  EXPECT_EQ(N.Klass->name(), "android.widget.RelativeLayout");
  EXPECT_EQ(N.InflateSite, Inflates.front()->OpNode);
}

TEST_F(SolutionTest, ReceiversParametersListenersOfOps) {
  auto SetListeners = Result->Sol->opsOfKind(android::OpKind::SetListener);
  ASSERT_EQ(SetListeners.size(), 1u);
  const OpSite &Op = *SetListeners.front();
  ASSERT_EQ(Result->Sol->receiversOf(Op).size(), 1u);
  ASSERT_EQ(Result->Sol->listenersAtOp(Op).size(), 1u);

  auto AddViews = Result->Sol->opsOfKind(android::OpKind::AddView2);
  ASSERT_EQ(AddViews.size(), 2u);
  for (const OpSite *AV : AddViews)
    EXPECT_EQ(Result->Sol->parametersOf(*AV).size(), 1u);
}

TEST_F(SolutionTest, OpSitesRecordEnclosingMethod) {
  for (const OpSite &Op : Result->Sol->ops()) {
    ASSERT_NE(Op.Method, nullptr);
    EXPECT_FALSE(Op.Method->owner()->isPlatform());
  }
}

TEST_F(SolutionTest, DumpMentionsEveryOp) {
  std::ostringstream OS;
  Result->Sol->dump(OS, Result->Options);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("SetListener"), std::string::npos);
  EXPECT_NE(Text.find("FindView2"), std::string::npos);
  EXPECT_NE(Text.find("Inflate2"), std::string::npos);
  EXPECT_NE(Text.find("ConsoleActivity.onCreate/0"), std::string::npos);
  EXPECT_NE(Text.find("TerminalView"), std::string::npos);
  // One line per op.
  EXPECT_EQ(static_cast<size_t>(
                std::count(Text.begin(), Text.end(), '\n')),
            Result->Sol->ops().size());
}

TEST_F(SolutionTest, MetricsMatchHandComputation) {
  // ConnectBot example: receiver ops are FindView1, FindView3, SetId,
  // SetListener, 2x AddView2 — all singleton => 1.0; results over 2x
  // FindView2 + FindView1 + FindView3, all singleton => 1.0.
  auto M = Result->metrics();
  EXPECT_DOUBLE_EQ(M.AvgReceivers, 1.0);
  EXPECT_DOUBLE_EQ(*M.AvgResults, 1.0);
  EXPECT_DOUBLE_EQ(*M.AvgParameters, 1.0);
  EXPECT_DOUBLE_EQ(*M.AvgListeners, 1.0);
}

TEST_F(SolutionTest, AblatedMetricQueriesUseTheFlags) {
  // Re-querying the same solved state without id tracking inflates the
  // results metric (FindView ignores the id filter).
  AnalysisOptions NoIds = Result->Options;
  NoIds.TrackViewIds = false;
  auto Loose = Result->Sol->computeMetrics(NoIds);
  auto Tight = Result->metrics();
  EXPECT_GT(*Loose.AvgResults, *Tight.AvgResults);
}

} // namespace
