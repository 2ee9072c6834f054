//===- incremental_test.cpp - Edit-scale incremental re-solve tests -------===//
//
// Differential verification of the DRed incremental session
// (docs/INCREMENTAL.md): after a method-body edit, a layout edit, or an
// id renumbering, reanalyzeMethod/reanalyzeLayout must reach the exact
// fixed point a from-scratch solve over the edited program reaches —
// across both engines and the semantic options matrix — while performing
// strictly fewer propagations than the scratch solve. The
// `--incremental-edit` driver loads both apps the way the run path does:
// diagnostics follow --diag-format, and an unreadable input is named.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "corpus/Corpus.h"
#include "driver/Driver.h"
#include "parser/Printer.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using gator::test::makeBundle;

namespace {

//===----------------------------------------------------------------------===//
// Fixture sources: in-memory mirror of tests/fixtures/incremental_base
// and .../incremental_edit (the CLI --incremental-edit integration test
// drives the on-disk copies; these drive the library API directly).
//===----------------------------------------------------------------------===//

const char *BaseSource = R"(
class MainActivity extends android.app.Activity {
  field cached: android.view.View;

  method onCreate() {
    var lid: int;
    var bid: int;
    var b: android.view.View;
    var l: TapListener;
    var t: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    bid := @id/action_button;
    b := this.findViewById(bid);
    l := new TapListener(this);
    b.setOnClickListener(l);
    t := this.helper();
    this.cached := t;
  }

  method helper(): android.view.View {
    var tid: int;
    var t: android.view.View;
    tid := @id/title_text;
    t := this.findViewById(tid);
    return t;
  }
}

class DetailActivity extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var did: int;
    var d: android.view.View;
    lid := @layout/second;
    this.setContentView(lid);
    did := @id/detail_text;
    d := this.findViewById(did);
  }
}

class TapListener implements android.view.View.OnClickListener {
  field owner: MainActivity;

  method init(a: MainActivity) {
    this.owner := a;
  }

  method onClick(v: android.view.View) {
    var a: MainActivity;
    var t: android.view.View;
    a := this.owner;
    t := a.helper();
  }
}
)";

// Same class/method/field/layout-name sets; helper() resolves a different
// id (the method edit).
const char *EditedSource = R"(
class MainActivity extends android.app.Activity {
  field cached: android.view.View;

  method onCreate() {
    var lid: int;
    var bid: int;
    var b: android.view.View;
    var l: TapListener;
    var t: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    bid := @id/action_button;
    b := this.findViewById(bid);
    l := new TapListener(this);
    b.setOnClickListener(l);
    t := this.helper();
    this.cached := t;
  }

  method helper(): android.view.View {
    var bid: int;
    var b: android.view.View;
    bid := @id/action_button;
    b := this.findViewById(bid);
    return b;
  }
}

class DetailActivity extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var did: int;
    var d: android.view.View;
    lid := @layout/second;
    this.setContentView(lid);
    did := @id/detail_text;
    d := this.findViewById(did);
  }
}

class TapListener implements android.view.View.OnClickListener {
  field owner: MainActivity;

  method init(a: MainActivity) {
    this.owner := a;
  }

  method onClick(v: android.view.View) {
    var a: MainActivity;
    var t: android.view.View;
    a := this.owner;
    t := a.helper();
  }
}
)";

const char *BaseMain = R"(<LinearLayout android:id="@+id/root_panel">
  <TextView android:id="@+id/title_text" />
  <Button android:id="@+id/action_button" />
</LinearLayout>)";

// Child order swapped: a tree edit that also renumbers the interning
// order of the two view ids in the edited parse.
const char *EditedMain = R"(<LinearLayout android:id="@+id/root_panel">
  <Button android:id="@+id/action_button" />
  <TextView android:id="@+id/title_text" />
</LinearLayout>)";

const char *BaseSecond = R"(<LinearLayout>
  <TextView android:id="@+id/detail_text" />
</LinearLayout>)";

// Adds a view with an id name the base app never interned.
const char *EditedSecond = R"(<LinearLayout>
  <TextView android:id="@+id/detail_text" />
  <Button android:id="@+id/detail_action" />
</LinearLayout>)";

std::unique_ptr<corpus::AppBundle> baseBundle() {
  return makeBundle(BaseSource,
                    {{"main", BaseMain}, {"second", BaseSecond}});
}

struct SessionRun {
  bool Supported = false;
  bool Applied = false;
  bool Match = false;
  unsigned long IncPropagations = 0;
  unsigned long ScratchPropagations = 0;
  size_t Retracted = 0;
};

/// Mirrors the CLI's --incremental-edit flow against the library API:
/// diff, graft, reanalyze, then differentially verify against a
/// from-scratch solve over the same (grafted) program and layouts.
SessionRun runSession(corpus::AppBundle &Base, corpus::AppBundle &Edited,
                      IncrementalAnalysis::Engine Eng,
                      const AnalysisOptions &Options = {}) {
  SessionRun R;
  EditDiff Diff = diffBundles(Base.Program, Edited.Program, *Base.Layouts,
                              *Edited.Layouts);
  if (!Diff.Unsupported.empty())
    return R;
  R.Supported = true;

  IncrementalAnalysis Inc(Base.Program, *Base.Layouts, Base.Android, Options,
                          Base.Diags, Eng);
  Inc.solveInitial();
  for (auto &[BaseMethod, EditMethod] : Diff.Methods) {
    if (!graftMethodBody(*BaseMethod, *EditMethod) ||
        !Inc.reanalyzeMethod(*BaseMethod))
      return R;
    R.IncPropagations += Inc.lastStats().Propagations;
    R.Retracted += Inc.lastFactsRetracted();
  }
  for (const std::string &Name : Diff.Layouts) {
    const layout::LayoutDef *Def = Edited.Layouts->findByName(Name);
    if (!Def || !Def->root() ||
        !Inc.reanalyzeLayout(Name, Def->root()->clone()))
      return R;
    R.IncPropagations += Inc.lastStats().Propagations;
    R.Retracted += Inc.lastFactsRetracted();
  }
  R.Applied = true;

  AnalysisOptions ScratchOptions = Options;
  ScratchOptions.RecordProvenance = false;
  auto Scratch = GuiAnalysis::run(Base.Program, *Base.Layouts, Base.Android,
                                  ScratchOptions, Base.Diags);
  if (!Scratch)
    return R;
  R.ScratchPropagations = Scratch->Stats.Propagations;
  R.Match = solutionDigest(Inc.solution()) == solutionDigest(*Scratch->Sol);
  return R;
}

//===----------------------------------------------------------------------===//
// Fixture edits, both engines, semantic options matrix
//===----------------------------------------------------------------------===//

TEST(IncrementalTest, CombinedEditMatchesScratchAcrossEnginesAndOptions) {
  for (auto Eng : {IncrementalAnalysis::Engine::Fused,
                   IncrementalAnalysis::Engine::Phased}) {
    for (unsigned Mask = 0; Mask < 16; ++Mask) {
      AnalysisOptions Options;
      Options.TrackViewIds = (Mask & 1) != 0;
      Options.TrackHierarchy = (Mask & 2) != 0;
      Options.FindView3ChildOnly = (Mask & 4) != 0;
      Options.ModelListenerCallbacks = (Mask & 8) != 0;
      auto Base = baseBundle();
      auto Edited = makeBundle(
          EditedSource, {{"main", EditedMain}, {"second", EditedSecond}});
      SessionRun R = runSession(*Base, *Edited, Eng, Options);
      ASSERT_TRUE(R.Supported) << "mask " << Mask;
      ASSERT_TRUE(R.Applied) << "mask " << Mask;
      EXPECT_TRUE(R.Match)
          << "engine " << (Eng == IncrementalAnalysis::Engine::Fused
                               ? "fused"
                               : "phased")
          << " options mask " << Mask;
    }
  }
}

TEST(IncrementalTest, GraftOutlivesTheSourceProgram) {
  // The edited copy is a separate Program with its own name table and
  // arena. Once grafted, the base must not reference either: destroying
  // the source right away leaves every grafted statement intact (under
  // ASan, a dangling name view or argument list faults here).
  auto Base = baseBundle();
  auto Edited =
      makeBundle(EditedSource, {{"main", EditedMain}, {"second", EditedSecond}});
  EditDiff Diff = diffBundles(Base->Program, Edited->Program, *Base->Layouts,
                              *Edited->Layouts);
  ASSERT_TRUE(Diff.Unsupported.empty());
  ASSERT_FALSE(Diff.Methods.empty());

  auto render = [](const ir::MethodDecl &M, const ir::Stmt &S) {
    std::ostringstream OS;
    parser::printStmt(M, S, OS);
    return OS.str();
  };
  std::vector<std::pair<ir::MethodDecl *, std::vector<std::string>>> Grafted;
  for (auto &[BaseMethod, EditMethod] : Diff.Methods) {
    std::vector<std::string> Lines;
    for (const ir::Stmt &S : EditMethod->body())
      Lines.push_back(render(*EditMethod, S));
    ASSERT_TRUE(graftMethodBody(*BaseMethod, *EditMethod));
    Grafted.emplace_back(BaseMethod, std::move(Lines));
  }
  Edited.reset();

  const ir::Program &P = Base->Program;
  auto ownedOrEmpty = [&](ir::Name N) { return N.empty() || P.owns(N); };
  for (const auto &[M, Lines] : Grafted) {
    ASSERT_EQ(M->body().size(), Lines.size());
    for (size_t I = 0; I < Lines.size(); ++I) {
      const ir::Stmt &S = M->body()[I];
      EXPECT_EQ(render(*M, S), Lines[I]);
      EXPECT_TRUE((!S.hasFieldName() || ownedOrEmpty(S.fieldName())) &&
                  (!S.hasClassName() || ownedOrEmpty(S.className())) &&
                  (!S.hasResourceName() || ownedOrEmpty(S.resourceName())) &&
                  (!S.isInvoke() || ownedOrEmpty(S.methodName())))
          << Lines[I];
    }
    for (const ir::Variable &V : M->vars())
      EXPECT_TRUE(ownedOrEmpty(V.Name) && ownedOrEmpty(V.TypeName));
  }
  auto R = GuiAnalysis::run(Base->Program, *Base->Layouts, Base->Android, {},
                            Base->Diags);
  ASSERT_TRUE(R);
  EXPECT_FALSE(Base->Diags.hasErrors());
}

TEST(IncrementalTest, MethodEditAloneMatchesAndBeatsScratch) {
  auto Base = baseBundle();
  auto Edited =
      makeBundle(EditedSource, {{"main", BaseMain}, {"second", BaseSecond}});
  SessionRun R =
      runSession(*Base, *Edited, IncrementalAnalysis::Engine::Fused);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_TRUE(R.Match);
  EXPECT_GT(R.Retracted, 0u);
  // The edit touches one method body; re-deriving it must move strictly
  // less work than re-solving the whole app.
  EXPECT_LT(R.IncPropagations, R.ScratchPropagations);
}

TEST(IncrementalTest, LayoutReorderEditMatchesScratch) {
  auto Base = baseBundle();
  auto Edited =
      makeBundle(BaseSource, {{"main", EditedMain}, {"second", BaseSecond}});
  SessionRun R =
      runSession(*Base, *Edited, IncrementalAnalysis::Engine::Fused);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_TRUE(R.Match);
  EXPECT_LT(R.IncPropagations, R.ScratchPropagations);
}

// Regression: a layout edit introducing an id name the base app never
// interned mints the ViewId node mid-re-solve; the solver must self-seed
// it exactly as seedValueNodes() would have in a scratch run.
TEST(IncrementalTest, LayoutEditWithNewIdNameMatchesScratch) {
  for (auto Eng : {IncrementalAnalysis::Engine::Fused,
                   IncrementalAnalysis::Engine::Phased}) {
    auto Base = baseBundle();
    auto Edited = makeBundle(
        BaseSource, {{"main", BaseMain}, {"second", EditedSecond}});
    SessionRun R = runSession(*Base, *Edited, Eng);
    ASSERT_TRUE(R.Supported);
    ASSERT_TRUE(R.Applied);
    EXPECT_TRUE(R.Match)
        << (Eng == IncrementalAnalysis::Engine::Fused ? "fused" : "phased");
  }
}

TEST(IncrementalTest, StructuralEditIsUnsupported) {
  const char *Extra = R"(
class MainActivity extends android.app.Activity {
  method onCreate() {
  }
  method added() {
  }
}
)";
  const char *BaseTiny = R"(
class MainActivity extends android.app.Activity {
  method onCreate() {
  }
}
)";
  auto Base = makeBundle(BaseTiny);
  auto Edited = makeBundle(Extra);
  EditDiff Diff = diffBundles(Base->Program, Edited->Program, *Base->Layouts,
                              *Edited->Layouts);
  EXPECT_FALSE(Diff.Unsupported.empty());
}

//===----------------------------------------------------------------------===//
// Corpus apps: generated programs are the adversarial input — shared
// helpers, listener fan-out, inflated item layouts.
//===----------------------------------------------------------------------===//

/// First layout the session accepts for re-analysis (skips <include>
/// targets, which are beyond edit scale).
bool applyLayoutEdit(IncrementalAnalysis &Inc,
                     const layout::LayoutRegistry &Layouts,
                     bool AddNewIdChild) {
  for (const auto &Def : Layouts.layouts()) {
    if (!Def->root())
      continue;
    auto NewRoot = Def->root()->clone();
    // Reverse child order; optionally graft a view carrying an id name
    // the generated app never interned.
    auto Children = NewRoot->takeChildren();
    for (auto It = Children.rbegin(); It != Children.rend(); ++It)
      NewRoot->addChild(std::move(*It));
    if (AddNewIdChild)
      NewRoot->addChild(std::make_unique<layout::LayoutNode>(
          "TextView", "inc_test_fresh_id"));
    if (Inc.reanalyzeLayout(Def->name(), std::move(NewRoot)))
      return true;
  }
  return false;
}

TEST(IncrementalTest, CorpusLayoutEditsMatchScratch) {
  // Small early paperCorpus specs keep the test fast; they still exercise
  // listeners, shared helpers, and multi-activity inflation.
  const auto &Specs = corpus::paperCorpus();
  ASSERT_GE(Specs.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    corpus::GeneratedApp App = corpus::generateApp(Specs[I]);
    ASSERT_TRUE(App.Bundle);
    corpus::AppBundle &B = *App.Bundle;
    for (bool AddNewId : {false, true}) {
      IncrementalAnalysis Inc(B.Program, *B.Layouts, B.Android, {}, B.Diags);
      Inc.solveInitial();
      if (!applyLayoutEdit(Inc, *B.Layouts, AddNewId))
        continue; // every layout an include target; nothing to edit
      AnalysisOptions ScratchOptions;
      ScratchOptions.RecordProvenance = false;
      auto Scratch = GuiAnalysis::run(B.Program, *B.Layouts, B.Android,
                                      ScratchOptions, B.Diags);
      ASSERT_TRUE(Scratch);
      EXPECT_EQ(solutionDigest(Inc.solution()), solutionDigest(*Scratch->Sol))
          << Specs[I].Name << (AddNewId ? " +new-id" : " reorder");
      EXPECT_LT(Inc.lastStats().Propagations, Scratch->Stats.Propagations)
          << Specs[I].Name;
    }
  }
}

TEST(IncrementalTest, CorpusMethodBodySwapMatchesScratch) {
  const auto &Specs = corpus::paperCorpus();
  ASSERT_GE(Specs.size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    corpus::GeneratedApp App = corpus::generateApp(Specs[I]);
    ASSERT_TRUE(App.Bundle);
    corpus::AppBundle &B = *App.Bundle;
    // Two activity onCreate bodies with identical signatures: grafting
    // one onto the other is a legal single-method edit that rewires
    // setContentView/findViewById traffic.
    std::vector<ir::MethodDecl *> OnCreates;
    for (ir::ClassDecl *C : B.Program.classes())
      if (ir::MethodDecl *M = C->findOwnMethod("onCreate", 0))
        if (!M->body().empty())
          OnCreates.push_back(M);
    if (OnCreates.size() < 2)
      continue;
    IncrementalAnalysis Inc(B.Program, *B.Layouts, B.Android, {}, B.Diags);
    Inc.solveInitial();
    ASSERT_TRUE(graftMethodBody(*OnCreates[0], *OnCreates[1]));
    ASSERT_TRUE(Inc.reanalyzeMethod(*OnCreates[0]));
    AnalysisOptions ScratchOptions;
    ScratchOptions.RecordProvenance = false;
    auto Scratch = GuiAnalysis::run(B.Program, *B.Layouts, B.Android,
                                    ScratchOptions, B.Diags);
    ASSERT_TRUE(Scratch);
    EXPECT_EQ(solutionDigest(Inc.solution()), solutionDigest(*Scratch->Sol))
        << Specs[I].Name;
    EXPECT_LT(Inc.lastStats().Propagations, Scratch->Stats.Propagations)
        << Specs[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// The --incremental-edit driver (src/driver/)
//===----------------------------------------------------------------------===//

TEST(IncrementalEditDriverTest, MalformedEditFollowsJsonDiagnostics) {
  namespace fs = std::filesystem;
  const fs::path Fixtures = fs::path(GATOR_SOURCE_DIR) / "tests" / "fixtures";
  const fs::path Edit =
      fs::temp_directory_path() /
      ("gator_incremental_edit_" + std::to_string(::getpid()));
  fs::remove_all(Edit);
  fs::copy(Fixtures / "incremental_edit", Edit);
  {
    std::ofstream Tail(Edit / "app.alite", std::ios::app);
    Tail << "class Broken extends {\n  field f T;\n}\n";
  }

  driver::RunConfig Cfg;
  Cfg.NoTimes = true;
  Cfg.DiagJson = true;
  std::ostringstream Out, Err;
  const int Code = driver::runIncrementalEdit(
      (Fixtures / "incremental_base").string(), Edit.string(), Cfg, nullptr,
      Out, Err);
  fs::remove_all(Edit);

  EXPECT_EQ(Code, 2);
  EXPECT_EQ(Out.str(), "");
  // One JSON document per load (the clean base, then the broken copy),
  // then the refusal; no text-format diagnostic.
  std::vector<std::string> Lines;
  std::istringstream SS(Err.str());
  for (std::string Line; std::getline(SS, Line);)
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 3u) << Err.str();
  EXPECT_EQ(Lines[0].rfind("{\"diagnostics\":[]", 0), 0u) << Lines[0];
  EXPECT_EQ(Lines[1].rfind("{\"diagnostics\":[{\"severity\":\"error\"", 0),
            0u)
      << Lines[1];
  EXPECT_EQ(Lines[2], "error: --incremental-edit requires cleanly parsing "
                      "base and edited apps");
}

TEST(IncrementalEditDriverTest, UnreadableInputIsNamed) {
  support::AppInputs Inputs = support::loadAppDir(
      std::filesystem::path(GATOR_SOURCE_DIR) / "tests" / "fixtures" /
      "incremental_edit");
  ASSERT_EQ(Inputs.Files.size(), 3u);
  ASSERT_TRUE(Inputs.complete());
  support::AppFile &Layout = Inputs.Files[1];
  Layout.ReadOk = false;
  Layout.Bytes.clear();

  corpus::AppBundle App;
  std::ostringstream Err, Expected;
  EXPECT_EQ(driver::loadApp(Inputs, App, /*Manifest=*/nullptr,
                            /*DiagJson=*/false, /*Trace=*/nullptr, Err),
            driver::LoadStatus::Failed);
  Expected << "error: cannot read " << Layout.Path << "\n";
  EXPECT_EQ(Err.str(), Expected.str());
}

} // namespace
