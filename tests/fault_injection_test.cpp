//===- fault_injection_test.cpp - Fail-soft robustness harness --*- C++ -*-===//
//
// Deterministic fault-injection sweep over the analysis pipeline
// (docs/ROBUSTNESS.md). Every test enforces the same contract: no input
// and no budget may crash the pipeline; the result is always an
// internally consistent Solution whose fidelity marker says how much to
// trust it.
//
//  - degenerate layouts (empty <merge/>) degrade, identically in both
//    solver engines;
//  - work/node/edge budgets truncate, and SolutionChecker accepts the
//    partial solution;
//  - a work budget swept over cut points 1..N exercises arbitrary
//    partial-solution states;
//  - seeded (SplitMix64) truncation and bit-flip corruption of the
//    sample_full_app inputs (ALite, DexLite, layout XML, manifest) must
//    surface as diagnostics, never as crashes;
//  - the scratch solve, the phased oracle and an incremental session's
//    initial solve mark every input with the same fidelity: the corpus,
//    the hostile batch fixtures, the empty merge and every mutated input
//    that finalizes.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/PhasedSolver.h"
#include "analysis/SolutionCache.h"
#include "analysis/SolutionChecker.h"
#include "android/Manifest.h"
#include "corpus/Corpus.h"
#include "dex/DexLite.h"
#include "driver/Driver.h"
#include "support/FaultInjection.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::graph;
using namespace gator::support;
using namespace gator::test;

namespace {

/// Checks that the phased oracle and an incremental session's initial
/// solve give \p App the fidelity the scratch solve \p Scratch gave it.
void expectFidelityParity(corpus::AppBundle &App,
                          const AnalysisResult &Scratch,
                          const std::string &Name) {
  const AnalysisOptions Options;
  auto Phased = runPhasedAnalysis(App.Program, *App.Layouts, App.Android,
                                  Options, App.Diags);
  IncrementalAnalysis Session(App.Program, *App.Layouts, App.Android,
                              Options, App.Diags);
  Session.solveInitial();
  const char *Want = fidelityName(Scratch.Sol->fidelity());
  EXPECT_STREQ(fidelityName(Phased->Sol->fidelity()), Want)
      << Name << ": phased";
  EXPECT_STREQ(fidelityName(Session.solution().fidelity()), Want)
      << Name << ": session";
}

/// An activity that inflates an empty <merge/> layout: the degenerate
/// input of the Solver "layout with no root" regression.
const char *EmptyMergeSource = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/empty;
    this.setContentView(lid);
  }
}
)";

const std::vector<std::pair<std::string, std::string>> EmptyMergeLayouts = {
    {"empty", "<merge/>"}};

void expectEmptyMergeDegradation(corpus::AppBundle &App,
                                 const AnalysisResult &R) {
  EXPECT_EQ(R.Sol->fidelity(), Fidelity::DegradedInput);
  EXPECT_EQ(R.Sol->unresolvedOps().size(), 1u);
  EXPECT_GE(App.Diags.warningCount(), 1u);
  bool SawWarning = false;
  for (const Diagnostic &D : App.Diags.diagnostics())
    SawWarning |= D.Message.find("empty <merge/>") != std::string::npos;
  EXPECT_TRUE(SawWarning) << "expected an empty-merge diagnostic";
  // The skipped site minted nothing: no inflated views anywhere.
  for (NodeId Id = 0; Id < R.Graph->size(); ++Id)
    EXPECT_NE(R.Graph->node(Id).Kind, NodeKind::ViewInfl);
  EXPECT_TRUE(checkSolutionClosure(R).empty());
}

TEST(EmptyMergeTest, FusedEngineSkipsSiteWithDiagnostic) {
  auto App = makeBundle(EmptyMergeSource, EmptyMergeLayouts);
  auto R = runAnalysis(*App);
  ASSERT_TRUE(R);
  expectEmptyMergeDegradation(*App, *R);
  expectFidelityParity(*App, *R, "empty merge");
}

TEST(EmptyMergeTest, PhasedEngineSkipsSiteWithDiagnostic) {
  auto App = makeBundle(EmptyMergeSource, EmptyMergeLayouts);
  auto R = runPhasedAnalysis(App->Program, *App->Layouts, App->Android,
                             AnalysisOptions(), App->Diags);
  ASSERT_TRUE(R);
  expectEmptyMergeDegradation(*App, *R);
}

TEST(EmptyMergeTest, HealthyLayoutsStillResolveAlongside) {
  // A degenerate layout must not poison sibling sites: the good layout
  // inflates normally while the empty merge is skipped.
  auto App = makeBundle(R"(
class A extends android.app.Activity {
  method onCreate() {
    var good: int;
    var bad: int;
    good := @layout/main;
    this.setContentView(good);
    bad := @layout/empty;
    this.setContentView(bad);
  }
}
)",
                        {{"main", "<LinearLayout/>"}, {"empty", "<merge/>"}});
  auto R = runAnalysis(*App);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::DegradedInput);
  EXPECT_EQ(R->Sol->unresolvedOps().size(), 1u);
  unsigned InflViews = 0;
  for (NodeId Id = 0; Id < R->Graph->size(); ++Id)
    InflViews += R->Graph->node(Id).Kind == NodeKind::ViewInfl;
  EXPECT_EQ(InflViews, 1u);
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

//===----------------------------------------------------------------------===//
// Budget trips
//===----------------------------------------------------------------------===//

TEST(BudgetTrip, WorkBudgetMarksTruncated) {
  GeneratedApp App = generateApp(paperCorpus()[0]);
  AnalysisOptions Options;
  Options.Budget.MaxWorkItems = 8;
  auto R = runAnalysis(*App.Bundle, Options);
  ASSERT_TRUE(R);
  EXPECT_TRUE(R->Stats.HitWorkLimit);
  EXPECT_EQ(R->Stats.BudgetTripped, BudgetReason::WorkItems);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::TruncatedBudget);
  EXPECT_EQ(R->Sol->truncationReason(), BudgetReason::WorkItems);
  EXPECT_LE(R->Stats.WorkCharged, 8ul);
  EXPECT_FALSE(R->Sol->unresolvedOps().empty());
  EXPECT_TRUE(checkSolutionClosure(*R).empty())
      << "checker must accept the truncated solution";
}

TEST(BudgetTrip, NodeCapMarksTruncated) {
  GeneratedApp App = generateApp(paperCorpus()[0]);
  AnalysisOptions Options;
  Options.Budget.MaxGraphNodes = 4; // far below any built graph
  auto R = runAnalysis(*App.Bundle, Options);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::TruncatedBudget);
  EXPECT_EQ(R->Sol->truncationReason(), BudgetReason::GraphNodes);
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

TEST(BudgetTrip, EdgeCapMarksTruncated) {
  GeneratedApp App = generateApp(paperCorpus()[0]);
  AnalysisOptions Options;
  Options.Budget.MaxGraphEdges = 1;
  auto R = runAnalysis(*App.Bundle, Options);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::TruncatedBudget);
  EXPECT_EQ(R->Sol->truncationReason(), BudgetReason::GraphEdges);
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

TEST(BudgetTrip, GenerousBudgetStaysComplete) {
  GeneratedApp App = generateApp(paperCorpus()[0]);
  AnalysisOptions Options;
  Options.Budget.MaxWorkItems = 50'000'000;
  auto R = runAnalysis(*App.Bundle, Options);
  ASSERT_TRUE(R);
  EXPECT_FALSE(R->Stats.HitWorkLimit);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::Complete);
  EXPECT_TRUE(R->Sol->unresolvedOps().empty());
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

//===----------------------------------------------------------------------===//
// Work-budget trips: cut the solver at every early step
//===----------------------------------------------------------------------===//

TEST(ForcedTripSweep, EveryCutPointYieldsConsistentSolution) {
  for (unsigned long Step = 1; Step <= 64; ++Step) {
    GeneratedApp App = generateApp(paperCorpus()[0]);
    AnalysisOptions Options;
    Options.Budget.MaxWorkItems = Step;
    auto R = runAnalysis(*App.Bundle, Options);
    ASSERT_TRUE(R);
    EXPECT_LE(R->Stats.WorkCharged, Step);
    EXPECT_EQ(R->Sol->fidelity(), Fidelity::TruncatedBudget)
        << "step=" << Step;
    EXPECT_EQ(R->Sol->truncationReason(), BudgetReason::WorkItems)
        << "step=" << Step;
    EXPECT_TRUE(checkSolutionClosure(*R).empty()) << "step=" << Step;
  }
}

//===----------------------------------------------------------------------===//
// Corpus budget sweep: every paper app under tight work budgets
//===----------------------------------------------------------------------===//

class CorpusBudgetSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CorpusBudgetSweep, TruncatedSolutionsStayConsistent) {
  const AppSpec &Spec = paperCorpus()[GetParam()];
  for (unsigned long Work : {1ul, 16ul, 256ul}) {
    GeneratedApp App = generateApp(Spec);
    AnalysisOptions Options;
    Options.Budget.MaxWorkItems = Work;
    auto R = runAnalysis(*App.Bundle, Options);
    ASSERT_TRUE(R);
    if (R->Stats.HitWorkLimit)
      EXPECT_EQ(R->Sol->fidelity(), Fidelity::TruncatedBudget);
    else
      EXPECT_EQ(R->Sol->fidelity(), Fidelity::Complete);
    EXPECT_TRUE(checkSolutionClosure(*R).empty())
        << Spec.Name << " work=" << Work;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperCorpus, CorpusBudgetSweep, ::testing::Range<size_t>(0, 20),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return paperCorpus()[Info.param].Name;
    });

//===----------------------------------------------------------------------===//
// Hostile-fleet sweep: corpus hostile-shape knobs through the fidelity /
// exit-code contract (docs/ROBUSTNESS.md)
//===----------------------------------------------------------------------===//

TEST(HostileFleetSweep, HostileShapesDegradePredictably) {
  // A small fleet with every hostile rate engaged. The contract swept
  // here is exactly what gator_cli maps to exit codes: an app that drew
  // a hostile shape analyzes as DegradedInput (exit 1), a clean app as
  // Complete (exit 0), and nothing crashes or fails the checker.
  FleetSpec Fleet;
  Fleet.Apps = 40;
  Fleet.ReflectivePercent = 35;
  Fleet.DynamicIdPercent = 35;
  Fleet.MissingLayoutPercent = 35;
  std::vector<AppSpec> Specs = makeFleet(Fleet);

  unsigned Degraded = 0, Complete = 0;
  for (const AppSpec &Spec : Specs) {
    bool Hostile = Spec.ReflectiveViewsPerActivity ||
                   Spec.DynamicFindsPerActivity ||
                   Spec.MissingLayoutRefsPerActivity;
    GeneratedApp App = generateApp(Spec);
    auto R = runAnalysis(*App.Bundle);
    ASSERT_TRUE(R) << Spec.Name;
    EXPECT_EQ(R->Sol->fidelity(),
              Hostile ? Fidelity::DegradedInput : Fidelity::Complete)
        << Spec.Name;
    EXPECT_TRUE(checkSolutionClosure(*R).empty()) << Spec.Name;
    ++(Hostile ? Degraded : Complete);
  }
  // The sweep only means something if both buckets are populated.
  EXPECT_GT(Degraded, 0u);
  EXPECT_GT(Complete, 0u);
}

TEST(HostileFleetSweep, HostileShapesComposeWithBudgets) {
  // Hostile shapes and budget trips interact: a degraded app that also
  // trips a budget reports TruncatedBudget (markDegraded never downgrades
  // it), and the checker accepts every combination.
  FleetSpec Fleet;
  Fleet.Apps = 8;
  Fleet.ReflectivePercent = 100;
  Fleet.DynamicIdPercent = 100;
  Fleet.MissingLayoutPercent = 100;
  for (const AppSpec &Spec : makeFleet(Fleet)) {
    for (unsigned long Work : {4ul, 64ul}) {
      GeneratedApp App = generateApp(Spec);
      AnalysisOptions Options;
      Options.Budget.MaxWorkItems = Work;
      auto R = runAnalysis(*App.Bundle, Options);
      ASSERT_TRUE(R) << Spec.Name;
      EXPECT_EQ(R->Sol->fidelity(), R->Stats.HitWorkLimit
                                        ? Fidelity::TruncatedBudget
                                        : Fidelity::DegradedInput)
          << Spec.Name << " work=" << Work;
      EXPECT_TRUE(checkSolutionClosure(*R).empty())
          << Spec.Name << " work=" << Work;
    }
  }
}

//===----------------------------------------------------------------------===//
// Seeded input-mutation sweep over examples/sample_full_app
//===----------------------------------------------------------------------===//

std::string readFileOrFail(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

std::string sampleAppPath(const std::string &File) {
  return std::string(GATOR_SOURCE_DIR) + "/examples/sample_full_app/" + File;
}

enum class InputKind { Alite, DexLite, LayoutXml, ManifestXml };

struct SampleInput {
  const char *File;
  InputKind Kind;
};

const SampleInput SampleInputs[] = {
    {"app.alite", InputKind::Alite},
    {"rows.dexlite", InputKind::DexLite},
    {"home.xml", InputKind::LayoutXml},
    {"results.xml", InputKind::LayoutXml},
    {"row.xml", InputKind::LayoutXml},
    {"AndroidManifest.xml", InputKind::ManifestXml},
};

/// Feeds one (possibly mutated) input through the full pipeline: parse,
/// finalize, analyze. The contract under test is crash-freedom plus
/// consistency, not acceptance — a mutation may happen to stay legal.
void runPipelineOnMutatedInput(const SampleInput &Input,
                               const std::string &Text, uint64_t Seed) {
  SCOPED_TRACE(std::string(Input.File) + " seed=" + std::to_string(Seed));
  corpus::AppBundle App;
  App.Android.install(App.Program);
  bool Ok = true;
  switch (Input.Kind) {
  case InputKind::Alite:
    Ok = parser::parseAlite(Text, Input.File, App.Program, App.Diags);
    break;
  case InputKind::DexLite:
    Ok = dex::parseDexLite(Text, Input.File, App.Program, App.Diags);
    break;
  case InputKind::LayoutXml:
    Ok = layout::readLayoutXml(*App.Layouts, "mutated", Text, App.Diags) !=
         nullptr;
    break;
  case InputKind::ManifestXml:
    Ok = android::parseManifest(Text, Input.File, App.Diags).has_value();
    break;
  }
  if (!Ok || App.Diags.hasErrors()) {
    // Rejected input must say why.
    EXPECT_TRUE(App.Diags.hasErrors());
    return;
  }
  if (!App.finalize())
    return; // degraded but diagnosed; not analyzable
  auto R = GuiAnalysis::run(App.Program, *App.Layouts, App.Android,
                            AnalysisOptions(), App.Diags);
  ASSERT_TRUE(R) << "pipeline must be fail-soft";
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
  expectFidelityParity(App, *R, Input.File);
}

TEST(MutationSweep, TruncatedInputsDiagnoseNotCrash) {
  for (const SampleInput &Input : SampleInputs) {
    std::string Original = readFileOrFail(sampleAppPath(Input.File));
    for (uint64_t Seed = 0; Seed < 24; ++Seed)
      runPipelineOnMutatedInput(Input, truncateInput(Original, Seed), Seed);
  }
}

TEST(MutationSweep, CorruptedInputsDiagnoseNotCrash) {
  for (const SampleInput &Input : SampleInputs) {
    std::string Original = readFileOrFail(sampleAppPath(Input.File));
    for (uint64_t Seed = 0; Seed < 24; ++Seed)
      runPipelineOnMutatedInput(Input, corruptInput(Original, Seed), Seed);
  }
}

TEST(MutationSweep, MutatorsAreDeterministic) {
  std::string Original = readFileOrFail(sampleAppPath("app.alite"));
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    EXPECT_EQ(truncateInput(Original, Seed), truncateInput(Original, Seed));
    EXPECT_EQ(corruptInput(Original, Seed), corruptInput(Original, Seed));
  }
}

//===----------------------------------------------------------------------===//
// Fidelity parity: every run goes through GuiAnalysis::runWith, so the
// fidelity rules cannot drift between the three (docs/ROBUSTNESS.md)
//===----------------------------------------------------------------------===//

TEST(FidelityParity, CorpusApps) {
  for (const AppSpec &Spec : paperCorpus()) {
    GeneratedApp App = generateApp(Spec);
    auto R = runAnalysis(*App.Bundle);
    ASSERT_TRUE(R) << Spec.Name;
    expectFidelityParity(*App.Bundle, *R, Spec.Name);
  }
}

TEST(FidelityParity, HostileBatchApps) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Dirs;
  for (const auto &E : fs::directory_iterator(
           fs::path(GATOR_SOURCE_DIR) / "tests" / "fixtures" / "hostile_batch"))
    Dirs.push_back(E.path());
  std::sort(Dirs.begin(), Dirs.end());
  ASSERT_EQ(Dirs.size(), 4u);
  unsigned Degraded = 0;
  for (const fs::path &Dir : Dirs) {
    support::AppInputs Inputs = support::loadAppDir(Dir);
    corpus::AppBundle App;
    std::ostringstream Err;
    ASSERT_NE(driver::loadApp(Inputs, App, /*Manifest=*/nullptr,
                              /*DiagJson=*/false, /*Trace=*/nullptr, Err),
              driver::LoadStatus::Failed)
        << Dir << ": " << Err.str();
    auto R = runAnalysis(App);
    ASSERT_TRUE(R) << Dir;
    expectFidelityParity(App, *R, Dir.filename().string());
    Degraded += R->Sol->fidelity() == Fidelity::DegradedInput;
  }
  // Three of the four fixtures are hostile.
  EXPECT_EQ(Degraded, 3u);
}

//===----------------------------------------------------------------------===//
// Cache-artifact poisoning (docs/INCREMENTAL.md): the same seeded
// mutators, aimed at GSC1 solution-cache entries. The contract extends
// the pipeline's fail-soft rule to the cache tier — a poisoned artifact
// is a counted Corrupt outcome (a miss), never a crash and never a
// fabricated analysis result.
//===----------------------------------------------------------------------===//

std::string sampleCacheArtifact() {
  CachedAnalysis E;
  E.ExitCode = 0;
  E.OutText = "app CachedApp: ok\n";
  E.Stats.Name = "CachedApp";
  E.Stats.GraphNodes = 64;
  E.FlowHistCounts.assign(12, 1);
  E.FlowHistSum = 12;
  E.FlowHistCount = 12;
  std::string Bytes;
  SolutionCache::serialize(E, Bytes);
  return Bytes;
}

TEST(CacheMutationSweep, PoisonedArtifactsNeverDeserialize) {
  std::string Artifact = sampleCacheArtifact();
  for (uint64_t Seed = 0; Seed < 32; ++Seed) {
    CachedAnalysis Out;
    EXPECT_FALSE(
        SolutionCache::deserialize(truncateInput(Artifact, Seed), Out))
        << "truncation seed " << Seed;
    EXPECT_FALSE(
        SolutionCache::deserialize(corruptInput(Artifact, Seed), Out))
        << "corruption seed " << Seed;
  }
}

TEST(CacheMutationSweep, PoisonedDiskEntriesAreCountedMisses) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "gator_fault_cache_sweep";
  fs::remove_all(Dir);

  support::Hash128 Key;
  Key.Hi = 0xabcdef;
  Key.Lo = 0x123456;
  std::string Artifact = sampleCacheArtifact();
  uint64_t Corrupt = 0;
  for (uint64_t Seed = 0; Seed < 16; ++Seed) {
    for (const std::string &Poison :
         {truncateInput(Artifact, Seed), corruptInput(Artifact, Seed)}) {
      SolutionCache Cache(Dir.string());
      std::ofstream OutF(Dir / (Key.hex() + ".gsc"),
                         std::ios::binary | std::ios::trunc);
      OutF.write(Poison.data(), static_cast<std::streamsize>(Poison.size()));
      OutF.close();
      CachedAnalysis Out;
      EXPECT_EQ(Cache.lookup(Key, Out), SolutionCache::Outcome::Corrupt);
      EXPECT_EQ(Cache.corruptEntries(), 1u);
      EXPECT_EQ(Cache.hits(), 0u);
      ++Corrupt;
    }
  }
  EXPECT_EQ(Corrupt, 32u);
  fs::remove_all(Dir);
}

} // namespace
