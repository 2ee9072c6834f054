//===- incremental_test.cpp - Edit-scale incremental re-solve tests -------===//
//
// Differential verification of the DRed incremental session
// (docs/INCREMENTAL.md): after a method-body edit, a layout edit, or an
// id renumbering, reanalyzeMethod/reanalyzeLayout must reach the exact
// fixed point a from-scratch solve over the edited program reaches —
// across the semantic options matrix — while performing strictly fewer
// propagations than the scratch solve. On every corpus app, a 24-step
// activity-graft replay must match scratch and pass checkSolutionClosure
// after each step. The `--incremental-edit` driver loads both apps the
// way the run path does: diagnostics follow --diag-format, and an
// unreadable input is named.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/SolutionChecker.h"
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
                      const AnalysisOptions &Options = {}) {
  SessionRun R;
  EditDiff Diff = diffBundles(Base.Program, Edited.Program, *Base.Layouts,
                              *Edited.Layouts);
  if (!Diff.Unsupported.empty())
    return R;
  R.Supported = true;

  IncrementalAnalysis Inc(Base.Program, *Base.Layouts, Base.Android, Options,
                          Base.Diags);
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
// Fixture edits, semantic options matrix
//===----------------------------------------------------------------------===//

TEST(IncrementalTest, CombinedEditMatchesScratchAcrossOptions) {
  for (unsigned Mask = 0; Mask < 16; ++Mask) {
    AnalysisOptions Options;
    Options.TrackViewIds = (Mask & 1) != 0;
    Options.TrackHierarchy = (Mask & 2) != 0;
    Options.FindView3ChildOnly = (Mask & 4) != 0;
    Options.ModelListenerCallbacks = (Mask & 8) != 0;
    auto Base = baseBundle();
    auto Edited = makeBundle(EditedSource,
                             {{"main", EditedMain}, {"second", EditedSecond}});
    SessionRun R = runSession(*Base, *Edited, Options);
    ASSERT_TRUE(R.Supported) << "mask " << Mask;
    ASSERT_TRUE(R.Applied) << "mask " << Mask;
    EXPECT_TRUE(R.Match) << "options mask " << Mask;
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
  SessionRun R = runSession(*Base, *Edited);
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
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_TRUE(R.Match);
  EXPECT_LT(R.IncPropagations, R.ScratchPropagations);
}

// Regression: a layout edit introducing an id name the base app never
// interned mints the ViewId node mid-re-solve; the solver must self-seed
// it exactly as seedValueNodes() would have in a scratch run.
TEST(IncrementalTest, LayoutEditWithNewIdNameMatchesScratch) {
  auto Base = baseBundle();
  auto Edited =
      makeBundle(BaseSource, {{"main", BaseMain}, {"second", EditedSecond}});
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_TRUE(R.Match);
}

// Regression: the handler's `this` fact of two android:onClick views of
// one activity cites the first view's listener edge. A layout edit that
// retires that view kills the fact while the second view's edge
// survives; the re-derive pass must re-wire the surviving callback.
TEST(IncrementalTest, XmlOnClickEditRewiresSurvivingCallback) {
  const char *Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var m: int;
    var s: int;
    m := @layout/main;
    this.setContentView(m);
    s := @layout/second;
    this.setContentView(s);
  }
  method onHelp(v: android.view.View) { }
}
)";
  const char *Second =
      R"(<LinearLayout><TextView android:onClick="onHelp" /></LinearLayout>)";
  auto App = makeBundle(Source, {{"main", R"(<LinearLayout>
  <Button android:onClick="onHelp" />
</LinearLayout>)"},
                                 {"second", Second}});
  auto Edited = makeBundle(
      Source, {{"main", "<LinearLayout><Button /></LinearLayout>"},
               {"second", Second}});
  const AnalysisOptions Options;
  IncrementalAnalysis Inc(App->Program, *App->Layouts, App->Android, Options,
                          App->Diags);
  Inc.solveInitial();
  ASSERT_TRUE(Inc.reanalyzeLayout(
      "main", Edited->Layouts->findByName("main")->root()->clone()));

  auto Scratch = GuiAnalysis::run(App->Program, *App->Layouts, App->Android,
                                  Options, App->Diags);
  ASSERT_TRUE(Scratch);
  EXPECT_EQ(solutionDigest(Inc.solution()), solutionDigest(*Scratch->Sol));
  for (const std::string &V : checkSolutionClosure(Inc.result()))
    ADD_FAILURE() << V;
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

/// Replays the edit sequence that once took the session off the fixed
/// point on eight corpus apps: graft Activity<k+1>.onCreate onto
/// Activity<k>, then reverse the children of main_<k>, with k advancing
/// after each pair. Each step is compared with a scratch solve and held to
/// the closure rules. Returns "<app> step <n>: <reasons>" for the first
/// failing step, or "" when all steps match. An edit that does not apply
/// (no Activity<k+1>, an <include> target) ends the replay.
std::string replayActivityGrafts(const corpus::AppSpec &Spec, unsigned Steps) {
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  if (!App.Bundle)
    return Spec.Name + ": generation failed";
  corpus::AppBundle &B = *App.Bundle;
  const AnalysisOptions Options;
  IncrementalAnalysis Inc(B.Program, *B.Layouts, B.Android, Options, B.Diags);
  Inc.solveInitial();
  auto onCreateOf = [&](unsigned K) -> ir::MethodDecl * {
    ir::ClassDecl *C =
        B.Program.findClass(Spec.Name + "Activity" + std::to_string(K));
    return C ? C->findOwnMethod("onCreate", 0) : nullptr;
  };
  const unsigned Span = Spec.Activities > 1 ? Spec.Activities - 1 : 1;
  for (unsigned Step = 0; Step < Steps; ++Step) {
    const unsigned K = (Step / 2) % Span;
    const std::string Where = Spec.Name + " step " + std::to_string(Step + 1);
    if (Step % 2 == 0) {
      ir::MethodDecl *Dst = onCreateOf(K), *Src = onCreateOf(K + 1);
      if (!Dst || !Src || !graftMethodBody(*Dst, *Src))
        break;
      if (!Inc.reanalyzeMethod(*Dst))
        return Where + ": the session refused the graft";
    } else {
      const std::string Name = "main_" + std::to_string(K);
      const layout::LayoutDef *Def = B.Layouts->findByName(Name);
      if (!Def || !Def->root())
        break;
      auto Root = Def->root()->clone();
      auto Children = Root->takeChildren();
      for (auto It = Children.rbegin(); It != Children.rend(); ++It)
        Root->addChild(std::move(*It));
      if (!Inc.reanalyzeLayout(Name, std::move(Root)))
        break;
    }
    auto Scratch =
        GuiAnalysis::run(B.Program, *B.Layouts, B.Android, Options, B.Diags);
    if (!Scratch)
      return Where + ": scratch solve failed";
    std::string Why;
    if (solutionDigest(Inc.solution()) != solutionDigest(*Scratch->Sol))
      Why = "incremental digest differs from scratch";
    std::vector<std::string> Violations = checkSolutionClosure(Inc.result());
    if (!Violations.empty())
      Why += (Why.empty() ? "" : "; ") + std::to_string(Violations.size()) +
             " closure violation(s), first: " + Violations.front();
    if (!Why.empty())
      return Where + ": " + Why;
  }
  return "";
}

TEST(IncrementalTest, CorpusActivityGraftReplayMatchesScratch) {
  std::string Failures;
  for (const corpus::AppSpec &Spec : corpus::paperCorpus())
    if (std::string F = replayActivityGrafts(Spec, 24); !F.empty())
      Failures += "\n  " + F;
  EXPECT_EQ(Failures, "");
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
