//===- corpus_test.cpp - Synthetic corpus generator tests -------*- C++ -*-===//

#include "analysis/AppStats.h"
#include "corpus/Corpus.h"
#include "ir/Verifier.h"
#include "layout/LayoutWriter.h"
#include "parser/Parser.h"
#include "parser/Printer.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::graph;
using namespace gator::test;

namespace {

AppSpec smallSpec() {
  AppSpec Spec;
  Spec.Name = "Mini";
  Spec.Seed = 3;
  Spec.Activities = 2;
  Spec.FillerClasses = 4;
  Spec.MethodsPerFillerClass = 3;
  Spec.ViewsPerLayout = 6;
  Spec.IdsPerLayout = 4;
  Spec.DirectFindsPerActivity = 2;
  Spec.ListenersPerActivity = 1;
  Spec.ProgViewsPerActivity = 1;
  Spec.InflateItemsPerActivity = 1;
  Spec.UseFlipper = true;
  return Spec;
}

TEST(CorpusTest, GeneratesWellFormedPrograms) {
  GeneratedApp App = generateApp(smallSpec());
  ASSERT_FALSE(App.Bundle->Diags.hasErrors());
  DiagnosticEngine VDiags;
  EXPECT_TRUE(ir::verifyProgram(App.Bundle->Program, VDiags));
  EXPECT_EQ(VDiags.errorCount(), 0u);
}

TEST(CorpusTest, DeterministicForSameSeed) {
  GeneratedApp A = generateApp(smallSpec());
  GeneratedApp B = generateApp(smallSpec());
  auto RA = runAnalysis(*A.Bundle);
  auto RB = runAnalysis(*B.Bundle);
  EXPECT_EQ(RA->Graph->size(), RB->Graph->size());
  EXPECT_EQ(RA->Graph->flowEdgeCount(), RB->Graph->flowEdgeCount());
  auto MA = RA->metrics();
  auto MB = RB->metrics();
  EXPECT_DOUBLE_EQ(MA.AvgReceivers, MB.AvgReceivers);
  EXPECT_EQ(A.Finds.size(), B.Finds.size());
}

TEST(CorpusTest, DifferentSeedsChangeLayoutShapes) {
  AppSpec S1 = smallSpec();
  AppSpec S2 = smallSpec();
  S2.Seed = 99;
  GeneratedApp A = generateApp(S1);
  GeneratedApp B = generateApp(S2);
  // Same scale either way.
  EXPECT_EQ(A.Bundle->Program.appClassCount(),
            B.Bundle->Program.appClassCount());
}

TEST(CorpusTest, GroundTruthFindsAreSoundAndPreciseWhenDirect) {
  GeneratedApp App = generateApp(smallSpec());
  auto R = runAnalysis(*App.Bundle);
  ASSERT_FALSE(App.Finds.empty());
  for (const FindViewExpectation &E : App.Finds) {
    NodeId N = varNode(*App.Bundle, *R, E.ClassName, E.MethodName, 0,
                       E.OutVar);
    auto Views = R->Sol->viewsAt(N);
    bool Found = false;
    for (NodeId V : Views) {
      const Node &Info = R->Graph->node(V);
      if (Info.Kind == NodeKind::ViewInfl && Info.LNode &&
          Info.LNode->viewIdName() == E.ViewIdName)
        Found = true;
      if (Info.Kind == NodeKind::ViewAlloc)
        Found = Found || E.ViewIdName.empty();
    }
    EXPECT_TRUE(Found) << "expected view with id '" << E.ViewIdName
                       << "' at " << E.ClassName << "." << E.MethodName
                       << "::" << E.OutVar;
    if (!E.ViaSharedHelper) {
      EXPECT_EQ(Views.size(), E.ExpectedMatches)
          << E.ClassName << "::" << E.OutVar;
    }
  }
}

TEST(CorpusTest, ListenerGroundTruthHolds) {
  GeneratedApp App = generateApp(smallSpec());
  auto R = runAnalysis(*App.Bundle);
  ASSERT_FALSE(App.Listeners.empty());
  for (const ListenerExpectation &E : App.Listeners) {
    // Find the view with the expected id inside the expected activity's
    // hierarchy and check its listener set.
    NodeId Act = R->Graph->getActivityNode(
        App.Bundle->Program.findClass(E.ActivityClass));
    bool Satisfied = false;
    for (NodeId Root : R->Graph->roots(Act))
      for (NodeId V : R->Graph->descendantsOf(Root)) {
        const Node &Info = R->Graph->node(V);
        if (Info.Kind != NodeKind::ViewInfl || !Info.LNode ||
            Info.LNode->viewIdName() != E.ViewIdName)
          continue;
        for (NodeId L : R->Graph->listeners(V))
          if (R->Graph->node(L).Klass &&
              R->Graph->node(L).Klass->name() == E.ListenerClass)
            Satisfied = true;
      }
    EXPECT_TRUE(Satisfied) << E.ActivityClass << " view id " << E.ViewIdName
                           << " should have listener " << E.ListenerClass;
  }
}

TEST(CorpusTest, PaperCorpusHasTwentyAppsInPaperOrder) {
  const auto &Corpus = paperCorpus();
  ASSERT_EQ(Corpus.size(), 20u);
  EXPECT_EQ(Corpus.front().Name, "APV");
  EXPECT_EQ(Corpus[4].Name, "ConnectBot");
  EXPECT_EQ(Corpus.back().Name, "XBMC");
}

TEST(CorpusTest, ClassAndMethodCountsTrackTable1) {
  // Spot-check a small and a large app: generated class counts match
  // Table 1 exactly; methods within 10% (filler rounding).
  struct Expectation {
    size_t Index;
    unsigned Classes;
    unsigned Methods;
  };
  for (const Expectation &E :
       {Expectation{0, 68, 415}, Expectation{1, 1228, 5782},
        Expectation{19, 568, 3012}}) {
    GeneratedApp App = generateApp(paperCorpus()[E.Index]);
    EXPECT_EQ(App.Bundle->Program.appClassCount(), E.Classes);
    double Ratio =
        double(App.Bundle->Program.appMethodCount()) / E.Methods;
    EXPECT_GT(Ratio, 0.9) << paperCorpus()[E.Index].Name;
    EXPECT_LT(Ratio, 1.15) << paperCorpus()[E.Index].Name;
  }
}

TEST(CorpusTest, SharedHelperCreatesImprecisionAndOnlyThere) {
  AppSpec Spec = smallSpec();
  Spec.SharedFindsPerActivity = 2;
  Spec.SharedHelperUsers = 2;
  GeneratedApp App = generateApp(Spec);
  auto R = runAnalysis(*App.Bundle);
  unsigned SharedChecked = 0;
  for (const FindViewExpectation &E : App.Finds) {
    if (!E.ViaSharedHelper)
      continue;
    ++SharedChecked;
    NodeId N = varNode(*App.Bundle, *R, E.ClassName, E.MethodName, 0,
                       E.OutVar);
    // Every shared lookup sees the union of all shared lookups (4 here).
    EXPECT_EQ(R->Sol->viewsAt(N).size(), 4u);
  }
  EXPECT_EQ(SharedChecked, 4u);
}

TEST(CorpusTest, StatsReflectSpecKnobs) {
  AppSpec Spec = smallSpec();
  GeneratedApp App = generateApp(Spec);
  auto R = runAnalysis(*App.Bundle);
  AppStats Stats = collectAppStats(Spec.Name, App.Bundle->Program, *R);
  // Layouts: 1 main + 1 item per activity.
  EXPECT_EQ(Stats.LayoutIds, Spec.Activities * 2);
  // setContentView + inflate items.
  EXPECT_EQ(Stats.OpInflate, Spec.Activities * 2);
  // One explicit view allocation per activity.
  EXPECT_EQ(Stats.AllocViews, Spec.Activities * Spec.ProgViewsPerActivity);
  EXPECT_EQ(Stats.Listeners, Spec.Activities * Spec.ListenersPerActivity);
  EXPECT_GT(Stats.InflViews, 0u);
  EXPECT_GT(Stats.OpFindView, 0u);
  EXPECT_EQ(Stats.OpSetListener, Spec.Activities * 1u);
}

TEST(CorpusTest, FullTextualRoundTripPreservesMetrics) {
  // Serialize a generated app to ALite text + layout XML, re-import both
  // through the real frontends, re-analyze, and compare the precision
  // metrics — the strongest end-to-end check of both serializers.
  AppSpec Spec = smallSpec();
  Spec.SharedFindsPerActivity = 1;
  Spec.SharedHelperUsers = 2;
  GeneratedApp Original = generateApp(Spec);
  auto ROrig = runAnalysis(*Original.Bundle);

  std::string AliteText = parser::programToString(Original.Bundle->Program);

  auto Reimported = std::make_unique<corpus::AppBundle>();
  Reimported->Android.install(Reimported->Program);
  ASSERT_TRUE(parser::parseAlite(AliteText, "roundtrip.alite",
                                 Reimported->Program, Reimported->Diags));
  for (const auto &Def : Original.Bundle->Layouts->layouts())
    ASSERT_NE(layout::readLayoutXml(*Reimported->Layouts, Def->name(),
                                    layout::layoutToXml(*Def),
                                    Reimported->Diags),
              nullptr);
  ASSERT_TRUE(Reimported->finalize());
  auto RNew = runAnalysis(*Reimported);

  auto MOrig = ROrig->metrics();
  auto MNew = RNew->metrics();
  EXPECT_DOUBLE_EQ(MOrig.AvgReceivers, MNew.AvgReceivers);
  EXPECT_DOUBLE_EQ(*MOrig.AvgResults, *MNew.AvgResults);
  EXPECT_EQ(ROrig->Graph->parentChildEdgeCount(),
            RNew->Graph->parentChildEdgeCount());
}

TEST(CorpusTest, WriteAppDirNamesAFileItCannotWrite) {
  // A directory squatting on a file's path makes that file unopenable;
  // the writer must stop there and name it rather than report success.
  namespace fs = std::filesystem;
  AppSpec Spec = smallSpec();
  GeneratedApp App = generateApp(Spec);
  const fs::path Dir = fs::temp_directory_path() /
                       ("gator_write_app_dir_" + std::to_string(::getpid()));
  for (const char *Name : {"app.alite", "main_0.xml", "AndroidManifest.xml"}) {
    fs::remove_all(Dir);
    ASSERT_TRUE(fs::create_directories(Dir / Name));
    std::ostringstream Err;
    EXPECT_FALSE(writeAppDir(Spec, *App.Bundle, Dir, Err)) << Name;
    EXPECT_EQ(Err.str(),
              "error: cannot write " + (Dir / Name).string() + "\n");
  }
  fs::remove_all(Dir);
  std::ostringstream Err;
  EXPECT_TRUE(writeAppDir(Spec, *App.Bundle, Dir, Err));
  EXPECT_EQ(Err.str(), "");
  EXPECT_TRUE(fs::is_regular_file(Dir / "main_0.xml"));
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// makeFleet: 10k-scale synthetic fleets (docs/MEMORY.md corpus engine)
//===----------------------------------------------------------------------===//

bool sameSpec(const AppSpec &A, const AppSpec &B) {
  return A.Name == B.Name && A.Seed == B.Seed &&
         A.Activities == B.Activities && A.FillerClasses == B.FillerClasses &&
         A.ViewsPerLayout == B.ViewsPerLayout &&
         A.IdsPerLayout == B.IdsPerLayout &&
         A.DirectFindsPerActivity == B.DirectFindsPerActivity &&
         A.SharedFindsPerActivity == B.SharedFindsPerActivity &&
         A.SharedHelperUsers == B.SharedHelperUsers &&
         A.ListenersPerActivity == B.ListenersPerActivity &&
         A.ProgViewsPerActivity == B.ProgViewsPerActivity &&
         A.InflateItemsPerActivity == B.InflateItemsPerActivity &&
         A.UseFlipper == B.UseFlipper && A.UseDialog == B.UseDialog;
}

TEST(FleetTest, DeterministicForSameSpec) {
  FleetSpec FS;
  FS.Apps = 200;
  FS.Seed = 11;
  std::vector<AppSpec> A = makeFleet(FS);
  std::vector<AppSpec> B = makeFleet(FS);
  ASSERT_EQ(A.size(), 200u);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(sameSpec(A[I], B[I])) << I;
}

TEST(FleetTest, SpecIsAPureFunctionOfSeedAndIndex) {
  // Per-index SplitMix64 streams: growing the fleet never perturbs the
  // specs already generated, so shards of a 10k fleet can be produced
  // independently and still agree.
  FleetSpec Small, Large;
  Small.Apps = 50;
  Large.Apps = 500;
  Small.Seed = Large.Seed = 42;
  std::vector<AppSpec> A = makeFleet(Small);
  std::vector<AppSpec> B = makeFleet(Large);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(sameSpec(A[I], B[I])) << I;
}

TEST(FleetTest, ShapeKnobsControlTheDistribution) {
  FleetSpec FS;
  FS.Apps = 400;
  FS.Seed = 9;
  unsigned Deep = 0, Wide = 0, Aliased = 0;
  for (const AppSpec &S : makeFleet(FS)) {
    if (S.ViewsPerLayout >= 24)
      ++Deep;
    else if (S.ListenersPerActivity >= 4)
      ++Wide;
    else if (S.SharedHelperUsers > 0)
      ++Aliased;
  }
  // 15% buckets over 400 draws: each shape should land well inside
  // [5%, 30%] unless the stream is badly skewed.
  EXPECT_GT(Deep, 20u);
  EXPECT_LT(Deep, 120u);
  EXPECT_GT(Wide, 20u);
  EXPECT_LT(Wide, 120u);
  EXPECT_GT(Aliased, 20u);
  EXPECT_LT(Aliased, 120u);

  // All-baseline fleet: turning the percentages off removes the shapes.
  FS.DeepTreePercent = FS.WideListenerPercent = FS.SharedHelperPercent = 0;
  for (const AppSpec &S : makeFleet(FS)) {
    EXPECT_LT(S.ViewsPerLayout, 24u);
    EXPECT_LT(S.ListenersPerActivity, 4u);
    EXPECT_EQ(S.SharedHelperUsers, 0u);
  }
}

TEST(FleetTest, FleetAppsGenerateAndVerify) {
  FleetSpec FS;
  FS.Apps = 8;
  FS.Seed = 123;
  for (const AppSpec &Spec : makeFleet(FS)) {
    GeneratedApp App = generateApp(Spec);
    ASSERT_NE(App.Bundle, nullptr) << Spec.Name;
    EXPECT_FALSE(App.Bundle->Diags.hasErrors()) << Spec.Name;
    EXPECT_TRUE(ir::verifyProgram(App.Bundle->Program, App.Bundle->Diags))
        << Spec.Name;
  }
}

TEST(CorpusTest, AppsWithoutAddViewExist) {
  // Table 1: four apps have no add-child operations at all.
  unsigned NoAddView = 0;
  for (const AppSpec &Spec : paperCorpus())
    if (Spec.ProgViewsPerActivity == 0 && Spec.InflateItemsPerActivity == 0)
      ++NoAddView;
  EXPECT_EQ(NoAddView, 4u);
}

} // namespace
