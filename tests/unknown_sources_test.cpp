//===- unknown_sources_test.cpp - Unknown-source modeling -------*- C++ -*-===//
//
// Hostile-input resilience (docs/ROBUSTNESS.md): the analysis models
// statically unresolvable sites — reflective construction, non-constant
// (dynamic) find ids, references to missing layout resources — as tagged
// UnknownView/UnknownId nodes instead of dropping them. These tests pin
// the contract:
//
//  - each hostile shape mints an unknown node with the right degradation
//    reason and marks the solution DegradedInput;
//  - clean inputs are untouched: zero unknown nodes, Complete fidelity,
//    and a solution identical with modeling on or off;
//  - `--no-unknown-sources` restores the silent-drop behavior;
//  - an unknown id at a FindView site conservatively yields the
//    receiver's view set, capped deterministically by UnknownFanoutBudget;
//  - provenance tags every approximate fact and --explain's derivation
//    printer names the reason and the site;
//  - both engines (fused and phased) agree on degraded apps, and
//    SolutionChecker accepts their solutions.
//
//===----------------------------------------------------------------------===//

#include "analysis/PhasedSolver.h"
#include "analysis/Provenance.h"
#include "analysis/SolutionChecker.h"
#include "corpus/Corpus.h"

#include "DifferentialHelpers.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::graph;
using namespace gator::test;

namespace {

const std::vector<std::pair<std::string, std::string>> MainLayout = {
    {"main", R"(<LinearLayout android:id="@+id/root">
                  <Button android:id="@+id/go"/>
                  <TextView android:id="@+id/title"/>
                </LinearLayout>)"}};

/// Reflective construction: `classof(C).newInstance()` attached under the
/// inflated root.
const char *ReflectiveSource = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var rid: int;
    var cont: android.widget.LinearLayout;
    var cc: java.lang.Class;
    var v: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    rid := @id/root;
    cont := this.findViewById(rid);
    cc := classof android.widget.Button;
    v := cc.newInstance();
    cont.addView(v);
  }
}
)";

/// Dynamic id: the find's id operand comes from getIdentifier, a run-time
/// resource lookup no static analysis resolves.
const char *DynamicIdSource = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var did: int;
    var v: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    did := this.getIdentifier();
    v := this.findViewById(did);
  }
}
)";

/// Missing layout: setContentView of a resource no layout file defines.
const char *MissingLayoutSource = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/nonexistent;
    this.setContentView(lid);
  }
}
)";

/// Clean control: same shape as DynamicIdSource but with a constant id.
const char *CleanSource = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var gid: int;
    var v: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    gid := @id/go;
    v := this.findViewById(gid);
  }
}
)";

size_t unknownNodeCount(const AnalysisResult &R) {
  return R.Graph->nodesOfKind(NodeKind::UnknownView).size() +
         R.Graph->nodesOfKind(NodeKind::UnknownId).size();
}

bool hasUnknownWithReason(const AnalysisResult &R, NodeKind K,
                          UnknownReason Reason) {
  for (NodeId N : R.Graph->nodesOfKind(K))
    if (R.Graph->node(N).Unknown == Reason)
      return true;
  return false;
}

std::string dumpSolution(const AnalysisResult &R,
                         const AnalysisOptions &Options) {
  std::ostringstream OS;
  R.Sol->dump(OS, Options);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Tagging and degradation
//===----------------------------------------------------------------------===//

TEST(UnknownSources, ReflectiveNewMintsTaggedViewAndDegrades) {
  auto App = makeBundle(ReflectiveSource, MainLayout);
  auto R = runAnalysis(*App);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::DegradedInput);
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownView,
                                   UnknownReason::ReflectiveNew));

  // The unknown view reaches the result variable and, through addView,
  // hangs under the container's views as a child.
  NodeId V = varNode(*App, *R, "A", "onCreate", 0, "v");
  bool SawUnknown = false;
  for (NodeId Val : R->Sol->viewsAt(V))
    SawUnknown |= R->Graph->node(Val).Kind == NodeKind::UnknownView;
  EXPECT_TRUE(SawUnknown);
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

TEST(UnknownSources, DynamicIdYieldsReceiverViewSet) {
  auto App = makeBundle(DynamicIdSource, MainLayout);
  auto R = runAnalysis(*App);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::DegradedInput);
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownId,
                                   UnknownReason::DynamicId));

  // Conservative fan-out: the find resolves to every view of the
  // activity's layout (3 layout nodes), not to nothing.
  NodeId V = varNode(*App, *R, "A", "onCreate", 0, "v");
  EXPECT_GE(R->Sol->viewsAt(V).size(), 3u);
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

TEST(UnknownSources, MissingLayoutMintsUnknownRootAndDegrades) {
  auto App = makeBundle(MissingLayoutSource);
  auto R = runAnalysis(*App);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::DegradedInput);
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownId,
                                   UnknownReason::MissingLayout));
  // Inflate2 over the unknown id minted a stand-in root under the
  // activity, so downstream hierarchy clients see a window, not nothing.
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownView,
                                   UnknownReason::MissingLayout));
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

TEST(UnknownSources, UnresolvedClassNewMintsUnknown) {
  // `new` of a class with no declaration anywhere (hostile/obfuscated
  // input): modeled as an unknown view rather than silently dropped.
  const char *Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var v: android.view.View;
    v := new com.missing.Widget();
  }
}
)";
  auto App = makeBundle(Source);
  auto R = runAnalysis(*App);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::DegradedInput);
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownView,
                                   UnknownReason::UnknownClass));
  EXPECT_TRUE(checkSolutionClosure(*R).empty());
}

//===----------------------------------------------------------------------===//
// Clean inputs are untouched
//===----------------------------------------------------------------------===//

TEST(UnknownSources, CleanInputMintsNothingAndMatchesDisabledMode) {
  AnalysisOptions On;
  AnalysisOptions Off;
  Off.ModelUnknownSources = false;

  auto App = makeBundle(CleanSource, MainLayout);
  auto R1 = runAnalysis(*App, On);
  auto R2 = runAnalysis(*App, Off);

  EXPECT_EQ(unknownNodeCount(*R1), 0u);
  EXPECT_EQ(R1->Sol->fidelity(), Fidelity::Complete);
  expectSameSolution(*R1, *R2, "clean input, modeling on vs off");
  EXPECT_EQ(dumpSolution(*R1, On), dumpSolution(*R2, Off));
}

TEST(UnknownSources, DisabledModeDropsHostileSitesSilently) {
  AnalysisOptions Off;
  Off.ModelUnknownSources = false;
  for (const char *Source :
       {ReflectiveSource, DynamicIdSource, MissingLayoutSource}) {
    auto App = makeBundle(Source, MainLayout);
    auto R = runAnalysis(*App, Off);
    EXPECT_EQ(unknownNodeCount(*R), 0u);
    EXPECT_EQ(R->Sol->fidelity(), Fidelity::Complete);
    EXPECT_TRUE(checkSolutionClosure(*R).empty());
  }
}

//===----------------------------------------------------------------------===//
// Fan-out budget
//===----------------------------------------------------------------------===//

TEST(UnknownSources, FanoutBudgetCapsDeterministically) {
  AnalysisOptions Capped;
  Capped.UnknownFanoutBudget = 2;
  auto App1 = makeBundle(DynamicIdSource, MainLayout);
  auto R1 = runAnalysis(*App1, Capped);
  NodeId V1 = varNode(*App1, *R1, "A", "onCreate", 0, "v");
  EXPECT_LE(R1->Sol->viewsAt(V1).size(), 2u);
  EXPECT_GE(R1->Sol->viewsAt(V1).size(), 1u);

  // Re-running the identical input yields the identical capped solution.
  auto App2 = makeBundle(DynamicIdSource, MainLayout);
  auto R2 = runAnalysis(*App2, Capped);
  EXPECT_EQ(dumpSolution(*R1, Capped), dumpSolution(*R2, Capped));

  // Budget 0 = uncapped: at least the three layout views.
  AnalysisOptions Uncapped;
  Uncapped.UnknownFanoutBudget = 0;
  auto App3 = makeBundle(DynamicIdSource, MainLayout);
  auto R3 = runAnalysis(*App3, Uncapped);
  NodeId V3 = varNode(*App3, *R3, "A", "onCreate", 0, "v");
  EXPECT_GE(R3->Sol->viewsAt(V3).size(), 3u);
}

//===----------------------------------------------------------------------===//
// Provenance: approximate facts carry their reason
//===----------------------------------------------------------------------===//

TEST(UnknownSources, ExplainNamesTheDegradationReason) {
  AnalysisOptions Options;
  Options.RecordProvenance = true;
  auto App = makeBundle(DynamicIdSource, MainLayout);
  auto R = runAnalysis(*App, Options);
  ASSERT_NE(R->Provenance, nullptr);
  EXPECT_GT(R->Provenance->approxFactCount(), 0u);

  NodeId V = varNode(*App, *R, "A", "onCreate", 0, "v");
  std::ostringstream OS;
  for (NodeId Val : R->Sol->valuesAt(V)) {
    auto F = R->Provenance->flowFact(V, Val);
    if (F != ProvenanceRecorder::NoFact)
      R->Provenance->printDerivation(OS, F, *R->Graph);
  }
  EXPECT_NE(OS.str().find("[approx]"), std::string::npos) << OS.str();
  EXPECT_NE(OS.str().find("approx: non-constant id at A.onCreate"),
            std::string::npos)
      << OS.str();
}

//===----------------------------------------------------------------------===//
// Engine agreement on degraded apps
//===----------------------------------------------------------------------===//

TEST(UnknownSources, AllEnginesAgreeOnDegradedApps) {
  // Budget 0 (uncapped) keeps the comparison exact: the cap is a sorted
  // prefix whose membership can differ across engines only in the order
  // views were discovered, which the uncapped set folds away.
  for (const char *Source :
       {ReflectiveSource, DynamicIdSource, MissingLayoutSource}) {
    AnalysisOptions Options;
    Options.UnknownFanoutBudget = 0;

    auto App = makeBundle(Source, MainLayout);
    auto RFused = runAnalysis(*App, Options);
    auto RPhased = runPhasedAnalysis(App->Program, *App->Layouts,
                                     App->Android, Options, App->Diags);
    ASSERT_NE(RPhased, nullptr);

    EXPECT_EQ(RFused->Sol->fidelity(), Fidelity::DegradedInput);
    expectSameSolution(*RFused, *RPhased, "fused vs phased (degraded)");
    EXPECT_EQ(RPhased->Sol->fidelity(), Fidelity::DegradedInput);
    EXPECT_TRUE(checkSolutionClosure(*RPhased).empty());
  }
}

//===----------------------------------------------------------------------===//
// Corpus hostile knobs
//===----------------------------------------------------------------------===//

TEST(UnknownSources, HostileCorpusKnobsDegradeGeneratedApps) {
  AppSpec Spec;
  Spec.Name = "Hostile";
  Spec.Activities = 2;
  Spec.FillerClasses = 2;
  Spec.ReflectiveViewsPerActivity = 1;
  Spec.DynamicFindsPerActivity = 1;
  Spec.MissingLayoutRefsPerActivity = 1;
  GeneratedApp App = generateApp(Spec);
  auto R = runAnalysis(*App.Bundle);
  EXPECT_EQ(R->Sol->fidelity(), Fidelity::DegradedInput);
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownView,
                                   UnknownReason::ReflectiveNew));
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownId,
                                   UnknownReason::DynamicId));
  EXPECT_TRUE(hasUnknownWithReason(*R, NodeKind::UnknownId,
                                   UnknownReason::MissingLayout));
  EXPECT_TRUE(checkSolutionClosure(*R).empty());

  // The same spec without hostile knobs stays Complete: degradation is
  // attributable to the hostile shapes alone.
  AppSpec Clean = Spec;
  Clean.ReflectiveViewsPerActivity = 0;
  Clean.DynamicFindsPerActivity = 0;
  Clean.MissingLayoutRefsPerActivity = 0;
  GeneratedApp CleanApp = generateApp(Clean);
  auto RClean = runAnalysis(*CleanApp.Bundle);
  EXPECT_EQ(RClean->Sol->fidelity(), Fidelity::Complete);
  EXPECT_EQ(unknownNodeCount(*RClean), 0u);
}

TEST(UnknownSources, CleanFleetIdenticalWithHostileKnobsAtZero) {
  // The hostile draws are guarded on the rate, so a default FleetSpec
  // produces exactly the specs it produced before the knobs existed.
  FleetSpec Clean;
  Clean.Apps = 32;
  std::vector<AppSpec> A = makeFleet(Clean);
  FleetSpec Zeroed;
  Zeroed.Apps = 32;
  Zeroed.ReflectivePercent = 0;
  Zeroed.DynamicIdPercent = 0;
  Zeroed.MissingLayoutPercent = 0;
  std::vector<AppSpec> B = makeFleet(Zeroed);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Seed, B[I].Seed);
    EXPECT_EQ(A[I].ReflectiveViewsPerActivity, 0u);
    EXPECT_EQ(A[I].DynamicFindsPerActivity, 0u);
    EXPECT_EQ(A[I].MissingLayoutRefsPerActivity, 0u);
    EXPECT_EQ(A[I].ViewsPerLayout, B[I].ViewsPerLayout);
    EXPECT_EQ(A[I].UseFlipper, B[I].UseFlipper);
    EXPECT_EQ(A[I].UseDialog, B[I].UseDialog);
  }
}

} // namespace
