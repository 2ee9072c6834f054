//===- options_matrix_test.cpp - Soundness across option combos -*- C++ -*-===//
//
// Sweeps the full analysis-option matrix on the ConnectBot example and
// checks that the *soundness* claims of Section 2 hold under every
// combination: ablations may enlarge solution sets, but the true run-time
// facts can never disappear, and every configuration must reach a closed
// fixed point.
//
//===----------------------------------------------------------------------===//

#include "analysis/SolutionChecker.h"
#include "corpus/ConnectBot.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::test;

namespace {

/// One bit per option; 4 options = 16 combinations.
struct OptionCombo {
  bool TrackViewIds;
  bool TrackHierarchy;
  bool FindView3ChildOnly;
  bool DeclaredTypeFilter;
};

OptionCombo comboFromIndex(unsigned Index) {
  return OptionCombo{(Index & 1) != 0, (Index & 2) != 0, (Index & 4) != 0,
                     (Index & 8) != 0};
}

AnalysisOptions toOptions(const OptionCombo &Combo) {
  AnalysisOptions Options;
  Options.TrackViewIds = Combo.TrackViewIds;
  Options.TrackHierarchy = Combo.TrackHierarchy;
  Options.FindView3ChildOnly = Combo.FindView3ChildOnly;
  Options.DeclaredTypeFilter = Combo.DeclaredTypeFilter;
  return Options;
}

class OptionsMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(OptionsMatrix, SoundAndClosedOnConnectBot) {
  OptionCombo Combo = comboFromIndex(GetParam());
  auto App = corpus::buildConnectBotExample();
  ASSERT_TRUE(App && !App->Diags.hasErrors());
  auto R = runAnalysis(*App, toOptions(Combo));
  ASSERT_TRUE(R);

  // 1. The solution is a genuine fixed point under these options.
  for (const std::string &V : checkSolutionClosure(*R))
    ADD_FAILURE() << V;

  // 2. Soundness of the Section 2 facts. The run-time truth (line 10
  // returns the flipper; line 13 the ESC button) must be in the solution
  // under *every* configuration — ablations only ever add.
  auto contains = [&](NodeId N, const std::string &ClassName) {
    for (NodeId V : R->Sol->viewsAt(N))
      if (R->Graph->node(V).Klass->name() == ClassName)
        return true;
    return false;
  };
  NodeId E = varNode(*App, *R, "ConsoleActivity", "onCreate", 0, "e");
  EXPECT_TRUE(contains(E, "android.widget.ViewFlipper"))
      << "line 10 truth lost";
  NodeId GVar = varNode(*App, *R, "ConsoleActivity", "onCreate", 0, "g");
  EXPECT_TRUE(contains(GVar, "android.widget.ImageView"))
      << "line 13 truth lost";

  // 3. The listener association survives every combination (the listener
  // rule itself is never ablated).
  bool EscHasListener = false;
  for (NodeId V : R->Sol->viewsAt(GVar))
    EscHasListener |= !R->Graph->listeners(V).empty();
  EXPECT_TRUE(EscHasListener);

  // 4. The callback parameter is populated under every combination.
  NodeId Param = varNode(*App, *R, "EscapeButtonListener", "onClick", 1, "r");
  EXPECT_FALSE(R->Sol->viewsAt(Param).empty());

  // 5. With the full configuration the solution is singleton-precise
  // (Table 2's ConnectBot row); ablations may only be coarser.
  auto M = R->metrics();
  if (Combo.TrackViewIds && Combo.TrackHierarchy && Combo.FindView3ChildOnly)
    EXPECT_DOUBLE_EQ(M.AvgReceivers, 1.0);
  else
    EXPECT_GE(M.AvgReceivers + 1e-9, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, OptionsMatrix,
                         ::testing::Range(0u, 16u));

} // namespace
