//===- differential_test.cpp - Fused vs. phased solver ----------*- C++ -*-===//
//
// Two independently written solvers (Solver.h: fine-grained worklist;
// PhasedSolver.h: the paper's literal phase pipeline with round-based
// sweeps) must compute identical solutions. Compared per app:
//  - every flowsTo set of every graph node (matched structurally, since
//    node ids of minted ViewInfl nodes may differ between runs);
//  - the counts of every relationship-edge family;
//  - the Table 2 precision metrics.
// Checked on every corpus app, and on ConnectBot and an extension-op app
// under all 32 combinations of five boolean analysis options.
//
//===----------------------------------------------------------------------===//

#include "analysis/PhasedSolver.h"
#include "analysis/SolutionChecker.h"
#include "corpus/ConnectBot.h"
#include "corpus/Corpus.h"

#include "DifferentialHelpers.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::graph;
using namespace gator::test;

namespace {

TEST(DifferentialTest, ConnectBotSolversAgree) {
  auto App1 = buildConnectBotExample();
  auto Fused = runAnalysis(*App1);
  auto App2 = buildConnectBotExample();
  auto Phased = runPhasedAnalysis(App2->Program, *App2->Layouts,
                                  App2->Android, AnalysisOptions(),
                                  App2->Diags);
  ASSERT_TRUE(Phased);
  expectSameSolution(*Fused, *Phased, "ConnectBot");
  EXPECT_TRUE(checkSolutionClosure(*Phased).empty());
}

/// Fragments + adapters + xml onClick in one app: the structure-sensitive
/// ops whose firing discipline differs most between the two engines.
const char *const ExtensionSource = R"(
class RowAdapter extends android.widget.BaseAdapter {
  method getView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.view.View;
    var lid: int;
    lid := @layout/row;
    v := inflater.inflate(lid);
    return v;
  }
}
class HeaderFragment extends android.app.Fragment {
  method onCreateView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.widget.Button;
    v := new android.widget.Button;
    return v;
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var lvid: int;
    var lv: android.widget.ListView;
    var ad: RowAdapter;
    var fm: android.app.FragmentManager;
    var tx: android.app.FragmentTransaction;
    var fg: HeaderFragment;
    var cid: int;
    lid := @layout/main;
    this.setContentView(lid);
    lvid := @id/list;
    lv := this.findViewById(lvid);
    ad := new RowAdapter;
    lv.setAdapter(ad);
    fm := this.getFragmentManager();
    tx := fm.beginTransaction();
    fg := new HeaderFragment;
    cid := @id/root;
    tx.add(cid, fg);
  }
  method onTap(v: android.view.View) { }
}
)";
const std::vector<std::pair<std::string, std::string>> ExtensionLayouts = {
    {"main", R"(
<LinearLayout android:id="@+id/root">
  <TextView android:onClick="onTap" />
  <ListView android:id="@+id/list" />
</LinearLayout>
)"},
    {"row", "<TextView android:id=\"@+id/row_text\"/>"}};

/// Runs both engines on fresh copies of one app under \p Options and
/// compares their solutions.
template <typename MakeApp>
void expectEnginesAgree(MakeApp Make, const AnalysisOptions &Options,
                        const std::string &Label) {
  auto App1 = Make();
  ASSERT_TRUE(App1 && !App1->Diags.hasErrors()) << Label;
  auto Fused = runAnalysis(*App1, Options);
  auto App2 = Make();
  auto Phased = runPhasedAnalysis(App2->Program, *App2->Layouts,
                                  App2->Android, Options, App2->Diags);
  ASSERT_TRUE(Phased) << Label;
  expectSameSolution(*Fused, *Phased, Label);
}

TEST(DifferentialTest, ExtensionOpsAgree) {
  expectEnginesAgree(
      [] { return makeBundle(ExtensionSource, ExtensionLayouts); },
      AnalysisOptions(), "extensions");
}

//===----------------------------------------------------------------------===//
// Options matrix: the engines agree under every option combination
//===----------------------------------------------------------------------===//

/// One bit per option; 5 options = 32 combinations.
AnalysisOptions optionsFromIndex(unsigned Index) {
  AnalysisOptions Options;
  Options.TrackViewIds = (Index & 1) != 0;
  Options.TrackHierarchy = (Index & 2) != 0;
  Options.FindView3ChildOnly = (Index & 4) != 0;
  Options.ModelListenerCallbacks = (Index & 8) != 0;
  Options.DeclaredTypeFilter = (Index & 16) != 0;
  return Options;
}

class OptionsMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(OptionsMatrix, SolversAgreeOnConnectBot) {
  expectEnginesAgree([] { return buildConnectBotExample(); },
                     optionsFromIndex(GetParam()),
                     "combo " + std::to_string(GetParam()));
}

TEST_P(OptionsMatrix, SolversAgreeOnExtensionOps) {
  expectEnginesAgree(
      [] { return makeBundle(ExtensionSource, ExtensionLayouts); },
      optionsFromIndex(GetParam()),
      "ext combo " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllCombos, OptionsMatrix, ::testing::Range(0u, 32u));

class CorpusDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(CorpusDifferential, SolversAgree) {
  const AppSpec &Spec = paperCorpus()[GetParam()];

  GeneratedApp App1 = generateApp(Spec);
  auto Fused = runAnalysis(*App1.Bundle);

  GeneratedApp App2 = generateApp(Spec);
  auto Phased =
      runPhasedAnalysis(App2.Bundle->Program, *App2.Bundle->Layouts,
                        App2.Bundle->Android, AnalysisOptions(),
                        App2.Bundle->Diags);
  ASSERT_TRUE(Phased);

  expectSameSolution(*Fused, *Phased, Spec.Name);
  // Both results are closed fixed points.
  EXPECT_TRUE(checkSolutionClosure(*Fused).empty()) << Spec.Name;
  EXPECT_TRUE(checkSolutionClosure(*Phased).empty()) << Spec.Name;
  EXPECT_GT(Fused->Stats.DeltaCommits, 0u) << Spec.Name;
  EXPECT_FALSE(Fused->Stats.HitWorkLimit) << Spec.Name;
}

TEST_P(CorpusDifferential, SolversAgreeUnderTypeFilter) {
  const AppSpec &Spec = paperCorpus()[GetParam()];
  AnalysisOptions Options;
  Options.DeclaredTypeFilter = true;

  GeneratedApp App1 = generateApp(Spec);
  auto Fused = runAnalysis(*App1.Bundle, Options);

  GeneratedApp App2 = generateApp(Spec);
  auto Phased =
      runPhasedAnalysis(App2.Bundle->Program, *App2.Bundle->Layouts,
                        App2.Bundle->Android, Options, App2.Bundle->Diags);
  ASSERT_TRUE(Phased);
  expectSameSolution(*Fused, *Phased, Spec.Name + "+filter");
}

INSTANTIATE_TEST_SUITE_P(AllCorpusApps, CorpusDifferential,
                         ::testing::Range<size_t>(0, 20),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return paperCorpus()[Info.param].Name;
                         });

} // namespace
