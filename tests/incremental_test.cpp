//===- incremental_test.cpp - Edit-scale incremental re-solve tests -------===//
//
// Differential verification of the DRed incremental session
// (docs/INCREMENTAL.md): after a method-body edit, a layout edit, or an
// id renumbering, reanalyzeMethod/reanalyzeLayout must reach the exact
// fixed point a from-scratch solve over the edited program reaches —
// across the semantic options matrix — while performing strictly fewer
// propagations than the scratch solve. On every corpus app, a 24-step
// activity-graft replay must match scratch and pass checkSolutionClosure
// after each step, and so must seeded mixes of method grafts, activity
// grafts and layout edits, moving few values per retracted fact. Small
// regressions pin the solver's memo validation, the re-derived
// unresolved-op markers and the re-marked fidelity. An edit costs the same
// allocations and work whatever the size of the app around it (a counting
// operator new, armed only around reanalyzeMethod), and a layout edit the
// same work whatever the number of other activities. The
// `--incremental-edit` driver loads both apps the way the run path does:
// diagnostics follow --diag-format, and an unreadable input is named.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/SolutionChecker.h"
#include "corpus/Corpus.h"
#include "driver/Driver.h"
#include "parser/Printer.h"
#include "support/FaultInjection.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

std::atomic<bool> Counting{false};
std::atomic<size_t> Allocations{0};
std::atomic<size_t> AllocatedBytes{0};

} // namespace

void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed)) {
    Allocations.fetch_add(1, std::memory_order_relaxed);
    AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  }
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free with the
// operator new it sees at the call site.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

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
  for (unsigned Mask = 0; Mask < 8; ++Mask) {
    AnalysisOptions Options;
    Options.TrackViewIds = (Mask & 1) != 0;
    Options.TrackHierarchy = (Mask & 2) != 0;
    Options.FindView3ChildOnly = (Mask & 4) != 0;
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

// A relationship edge two ops derive records only the first derivation.
// An edit that removes the recorded op kills the edge; the re-derive must
// fire the other op, which reads the same values through other variables.
TEST(IncrementalTest, EdgeOfTwoOpsIsDerivedAgainByTheSurvivor) {
  auto bundle = [](const std::string &Here, const std::string &There) {
    std::string Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var bid: int;
    var aid: int;
    var v: android.view.View;
    var l: L;
    lid := @layout/main;
    this.setContentView(lid);
    bid := @id/btn;
    aid := @id/alt;
    v := this.findViewById(bid);
    l := new L;
)";
    Source += "    " + Here + "\n    this.other(v, l, aid);\n  }\n";
    Source += "  method other(w: android.view.View, m: L, i: int) {\n    ";
    Source += There + R"(
  }
}
class L implements android.view.View.OnClickListener {
  method onClick(x: android.view.View) { }
}
)";
    return makeBundle(Source, {{"main", R"(<LinearLayout>
  <Button android:id="@+id/btn" />
  <TextView android:id="@+id/alt" />
</LinearLayout>)"}});
  };
  for (const auto &[Here, There] :
       {std::pair{"v.setOnClickListener(l);", "w.setOnClickListener(m);"},
        std::pair{"v.setId(aid);", "w.setId(i);"}}) {
    SCOPED_TRACE(Here);
    auto Base = bundle(Here, There);
    auto Edited = bundle("", There);
    SessionRun R = runSession(*Base, *Edited);
    ASSERT_TRUE(R.Supported);
    ASSERT_TRUE(R.Applied);
    EXPECT_GT(R.Retracted, 0u);
    EXPECT_TRUE(R.Match);
  }
}

// A FindView* result records the view and its id, not the path its search
// took. When a method edit removes that path (an addView linking the
// view in, or the receiver the search started from), the result must go.
TEST(IncrementalTest, DeletedPathHidesTheViewsFoundThroughIt) {
  const char *Layout = R"(<LinearLayout>
  <LinearLayout android:id="@+id/panel">
    <Button android:id="@+id/inner" />
  </LinearLayout>
  <LinearLayout android:id="@+id/other" />
</LinearLayout>)";
  // The base's `attach` links a new button into the panel, and its `pick`
  // returns the panel as the receiver of a find; each case edits one or
  // both.
  for (const auto &[Attach, Pick] :
       {std::pair{"", "@id/panel"}, std::pair{"q.addView(b);", "@id/other"},
        std::pair{"", "@id/other"}}) {
    auto bundle = [&Layout](const char *AttachBody, const char *PickId) {
      std::string Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var cid: int;
    var iid: int;
    var p: android.widget.LinearLayout;
    var v: android.view.View;
    var c: android.widget.Button;
    var x: android.view.View;
    var y: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    v := this.pick();
    p := v;
    c := new android.widget.Button;
    cid := @id/extra;
    c.setId(cid);
    this.attach(p, c);
    x := this.findViewById(cid);
    iid := @id/inner;
    y := v.findViewById(iid);
  }
  method attach(q: android.widget.LinearLayout, b: android.widget.Button) {
    )";
      Source += AttachBody;
      Source += R"(
  }
  method pick(): android.view.View {
    var r: android.view.View;
    var pid: int;
    pid := )";
      Source += PickId;
      Source += ";\n    r := this.findViewById(pid);\n    return r;\n  }\n}\n";
      return makeBundle(Source, {{"main", Layout}});
    };
    SCOPED_TRACE(std::string(Attach) + " / " + Pick);
    auto Base = bundle("q.addView(b);", "@id/panel");
    auto Edited = bundle(Attach, Pick);
    SessionRun R = runSession(*Base, *Edited);
    ASSERT_TRUE(R.Supported);
    ASSERT_TRUE(R.Applied);
    EXPECT_TRUE(R.Match);
  }
}

// An android:onClick listener edge records only its view. When an edit
// cuts one of two paths from the activity's roots to that view, the
// closure drops the edge, and the structure round must wire it again
// through the path that is left.
TEST(IncrementalTest, CutOnClickViewStillReachableIsWiredAgain) {
  auto bundle = [](const char *AttachBody) {
    std::string Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var pid: int;
    var sid: int;
    var p: android.view.View;
    var s: android.widget.LinearLayout;
    var w: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    pid := @id/panel;
    p := this.findViewById(pid);
    sid := @id/side;
    w := this.findViewById(sid);
    s := w;
    this.attach(s, p);
  }
  method attach(q: android.widget.LinearLayout, b: android.view.View) {
    )";
    Source += AttachBody;
    Source += R"(
  }
  method onGo(v: android.view.View) { }
}
)";
    return makeBundle(Source, {{"main", R"(<LinearLayout>
  <LinearLayout android:id="@+id/panel">
    <Button android:onClick="onGo" />
  </LinearLayout>
  <LinearLayout android:id="@+id/side" />
</LinearLayout>)"}});
  };
  auto Base = bundle("q.addView(b);");
  auto Edited = bundle("");
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_GT(R.Retracted, 0u);
  EXPECT_TRUE(R.Match);
}

/// An app whose activities A and B add one fragment class into their own
/// containers, A finding the fragment's view, and \p Others activities
/// that only find a view of their own layout. A's layout is \p ALayout.
std::unique_ptr<corpus::AppBundle> sharedFragmentBundle(const char *ALayout,
                                                        unsigned Others) {
  std::string Source = R"(
class F extends android.app.Fragment {
  method onCreateView(inflater: android.view.LayoutInflater): android.view.View {
    var lid: int;
    var v: android.view.View;
    lid := @layout/frag;
    v := inflater.inflate(lid);
    return v;
  }
}
)";
  std::vector<std::pair<std::string, std::string>> Layouts{
      {"a", ALayout},
      {"b", R"(<LinearLayout><FrameLayout android:id="@+id/cb" /></LinearLayout>)"},
      {"frag", R"(<TextView android:id="@+id/ftitle" />)"}};
  auto activity = [&](const std::string &Name, const std::string &Layout,
                      const std::string &Container, const std::string &Find) {
    Source += "class " + Name + R"( extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var cid: int;
    var tid: int;
    var fm: android.app.FragmentManager;
    var tx: android.app.FragmentTransaction;
    var f: F;
    var y: android.view.View;
    lid := @layout/)" + Layout + R"(;
    this.setContentView(lid);
)";
    if (!Container.empty())
      Source += R"(    fm := this.getFragmentManager();
    tx := fm.beginTransaction();
    f := new F;
    cid := @id/)" + Container + R"(;
    tx.add(cid, f);
)";
    Source += "    tid := @id/" + Find + ";\n    y := this.findViewById(tid);\n  }\n}\n";
  };
  activity("A", "a", "ca", "ftitle");
  activity("B", "b", "cb", "cb");
  for (unsigned I = 0; I < Others; ++I) {
    const std::string N = "x" + std::to_string(I);
    activity("X" + std::to_string(I), N, "", N);
    Layouts.emplace_back(N, "<LinearLayout><TextView android:id=\"@+id/" + N +
                                "\" /></LinearLayout>");
  }
  return makeBundle(Source, Layouts);
}

// An edit of A's layout cuts the fragment's view from A's old container,
// so the closure kills A's find result and, with it, every fragment edge
// to the view, B's too. B's op reads its container through the id edge,
// not through a role: the closure names that container's id, and the
// structure round fires the ops it reaches, not every one of the app.
TEST(IncrementalTest, FragmentEdgeOfAnotherActivityIsAddedAgain) {
  const char *Before =
      R"(<LinearLayout><FrameLayout android:id="@+id/ca" /></LinearLayout>)";
  const char *After = R"(<LinearLayout>
  <TextView />
  <FrameLayout android:id="@+id/ca" />
</LinearLayout>)";
  unsigned long Firings[2] = {};
  for (unsigned Others : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(Others) + " other activities");
    auto App = sharedFragmentBundle(Before, Others);
    auto Edited = sharedFragmentBundle(After, Others);
    const AnalysisOptions Options;
    IncrementalAnalysis Inc(App->Program, *App->Layouts, App->Android,
                            Options, App->Diags);
    Inc.solveInitial();
    ASSERT_TRUE(Inc.reanalyzeLayout(
        "a", Edited->Layouts->findByName("a")->root()->clone()));
    EXPECT_GT(Inc.lastFactsRetracted(), 0u);
    Firings[Others > 1] = Inc.lastStats().OpFirings;

    auto Scratch = GuiAnalysis::run(App->Program, *App->Layouts, App->Android,
                                    Options, App->Diags);
    ASSERT_TRUE(Scratch);
    EXPECT_EQ(solutionDigest(Inc.solution()), solutionDigest(*Scratch->Sol));
  }
  EXPECT_EQ(Firings[0], Firings[1]);
}

/// An app with a fragment added to the container the id \p ContainerId
/// names, whose onCreateView returns its local \p Own (`v`, the view
/// \p Picked of a helper, `d`, a view of its own, or `e`, which holds
/// nothing), and a list view given
/// a `new` \p Adapter. FragmentAdd and SetAdapter child edges cite neither
/// the id argument, nor the fragment or adapter argument, nor the
/// factory's return value.
std::unique_ptr<corpus::AppBundle>
factoryBundle(const char *ContainerId, const char *Adapter,
              const char *Picked, const char *Own) {
  std::string Source = R"(
class RowAdapter extends android.widget.BaseAdapter {
  method getView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.widget.Button;
    v := new android.widget.Button;
    return v;
  }
}
class OtherAdapter extends android.widget.BaseAdapter {
  method getView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.widget.TextView;
    v := new android.widget.TextView;
    return v;
  }
}
class F extends android.app.Fragment {
  method onCreateView(inflater: android.view.LayoutInflater): android.view.View {
    var v: android.view.View;
    var d: android.widget.CheckBox;
    var e: android.view.View;
    v := this.pick();
    d := new android.widget.CheckBox;
    return )";
  Source += Own;
  Source += R"(;
  }
  method pick(): android.view.View {
    var b: android.widget.Button;
    var c: android.widget.TextView;
    b := new android.widget.Button;
    c := new android.widget.TextView;
    return )";
  Source += Picked;
  Source += R"(;
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var lvid: int;
    var lv: android.widget.ListView;
    var ad: android.widget.BaseAdapter;
    var fm: android.app.FragmentManager;
    var tx: android.app.FragmentTransaction;
    var f: F;
    var cid: int;
    lid := @layout/main;
    this.setContentView(lid);
    lvid := @id/list;
    lv := this.findViewById(lvid);
    ad := this.adapter();
    lv.setAdapter(ad);
    fm := this.getFragmentManager();
    tx := fm.beginTransaction();
    f := new F;
    cid := this.container();
    tx.add(cid, f);
  }
  method adapter(): android.widget.BaseAdapter {
    var r: android.widget.BaseAdapter;
    r := new )";
  Source += Adapter;
  Source += R"(;
    return r;
  }
  method container(): int {
    var r: int;
    r := )";
  Source += ContainerId;
  Source += ";\n    return r;\n  }\n}\n";
  return makeBundle(Source, {{"main", R"(<LinearLayout android:id="@+id/root">
  <ListView android:id="@+id/list" />
  <FrameLayout android:id="@+id/other" />
</LinearLayout>)"}});
}

// Each edit changes an uncited input (the container id, the adapter, or
// the view the fragment's onCreateView returns, from a helper or its own
// return statement) in another method than the op: the child edges the
// old input gave must go.
TEST(IncrementalTest, FactoryEditsDropStaleChildEdges) {
  struct Case {
    const char *ContainerId, *Adapter, *Picked, *Own, *BaseOwn;
  };
  for (const Case &C : {Case{"@id/other", "RowAdapter", "b", "v", "v"},
                        Case{"@id/root", "OtherAdapter", "b", "v", "v"},
                        Case{"@id/other", "OtherAdapter", "b", "v", "v"},
                        Case{"@id/root", "RowAdapter", "c", "v", "v"},
                        Case{"@id/root", "RowAdapter", "b", "d", "v"},
                        // Nothing to retract: the new return must still
                        // be attached.
                        Case{"@id/root", "RowAdapter", "b", "d", "e"}}) {
    SCOPED_TRACE(std::string(C.ContainerId) + " " + C.Adapter + " " +
                 C.Picked + " " + C.Own + " from " + C.BaseOwn);
    auto Base = factoryBundle("@id/root", "RowAdapter", "b", C.BaseOwn);
    auto Edited = factoryBundle(C.ContainerId, C.Adapter, C.Picked, C.Own);
    SessionRun R = runSession(*Base, *Edited);
    ASSERT_TRUE(R.Supported);
    ASSERT_TRUE(R.Applied);
    EXPECT_TRUE(R.Match);
  }
}

// Regressions for memo validation: an edit that renames the local a
// callee returns through keeps every op site and layout, but retracts the
// value the unedited caller passed on, and with it what the solver's
// memos recorded.
const char *RenameEditSource = R"(
class F extends android.app.Fragment {
  method onCreateView(inflater: android.view.LayoutInflater): android.view.View {
    var b: android.widget.Button;
    b := new android.widget.Button;
    return b;
  }
}
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var infl: android.view.LayoutInflater;
    var v: android.view.View;
    var fm: android.app.FragmentManager;
    var tx: android.app.FragmentTransaction;
    var f: F;
    var cid: int;
    lid := this.helper();
    v := infl.inflate(lid);
    this.setContentView(v);
    fm := this.getFragmentManager();
    tx := fm.beginTransaction();
    f := this.makeFrag();
    cid := @id/root;
    tx.add(cid, f);
  }
  method helper(): int {
    var $H: int;
    $H := @layout/main;
    return $H;
  }
  method makeFrag(): F {
    var $M: F;
    $M := new F;
    return $M;
  }
}
)";

/// The base app, with helper()'s and makeFrag()'s locals named \p H and
/// \p M.
std::unique_ptr<corpus::AppBundle> renameEditBundle(const std::string &H,
                                                    const std::string &M) {
  std::string Source = RenameEditSource;
  for (const auto &[Var, Name] : {std::pair{"$H", H}, std::pair{"$M", M}})
    for (size_t At; (At = Source.find(Var)) != std::string::npos;)
      Source.replace(At, 2, Name);
  return makeBundle(Source,
                    {{"main", R"(<LinearLayout android:id="@+id/root" />)"}});
}

// (a) The inflated subtree is retired while its site and layout survive;
// the inflation memo's retired root must count as a miss.
TEST(IncrementalTest, RetiredInflationIsMintedAgain) {
  auto Base = renameEditBundle("x", "m");
  auto Edited = renameEditBundle("y", "m");
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_GT(R.Retracted, 0u);
  EXPECT_TRUE(R.Match);
}

// (b) The fragment's link to onCreateView's `this` is retracted; the
// factory memo must see the missing link and wire it again.
TEST(IncrementalTest, RetractedFactoryLinkIsWiredAgain) {
  auto Base = renameEditBundle("h", "x");
  auto Edited = renameEditBundle("h", "y");
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_GT(R.Retracted, 0u);
  EXPECT_TRUE(R.Match);
}

// A failed inflation is memoized as InvalidNode; the layout edit that
// makes it inflatable must drop that memo.
TEST(IncrementalTest, EditedEmptyMergeInflates) {
  const char *Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    lid := @layout/main;
    this.setContentView(lid);
  }
}
)";
  auto Base = makeBundle(Source, {{"main", "<merge/>"}});
  auto Edited =
      makeBundle(Source, {{"main", "<LinearLayout><Button/></LinearLayout>"}});
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_TRUE(R.Match);
}

// An edit that stops an unknown id from reaching an unedited find site
// resolves the site: its unresolved marker must go.
TEST(IncrementalTest, ResolvedSiteLosesItsUnresolvedMarker) {
  auto bundle = [](const char *IdSource) {
    std::string Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var did: int;
    var v: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    did := this.pick();
    v := this.findViewById(did);
  }
  method pick(): int {
    var r: int;
    r := )";
    Source += IdSource;
    Source += ";\n    return r;\n  }\n}\n";
    return makeBundle(Source, {{"main", R"(<LinearLayout>
  <TextView android:id="@+id/title" />
</LinearLayout>)"}});
  };
  auto Base = bundle("this.getIdentifier()");
  auto Edited = bundle("@id/title");
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_TRUE(R.Match);
}

// A re-derive re-notes the unresolved sites it does not touch: a memoized
// failed inflation and a memoized unknown root keep their markers.
TEST(IncrementalTest, UnrelatedEditKeepsUnresolvedMarkers) {
  auto bundle = [](const char *Local) {
    std::string Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var eid: int;
    var did: int;
    var infl: android.view.LayoutInflater;
    var v: android.view.View;
    var w: android.view.View;
    eid := @layout/empty;
    v := infl.inflate(eid);
    did := this.getIdentifier();
    w := infl.inflate(did);
    this.other();
  }
  method other() {
    var )";
    Source += Local;
    Source += ": int;\n    ";
    Source += Local;
    Source += " := @layout/empty;\n  }\n}\n";
    return makeBundle(Source, {{"empty", "<merge/>"}});
  };
  auto Base = bundle("x");
  auto Edited = bundle("y");
  SessionRun R = runSession(*Base, *Edited);
  ASSERT_TRUE(R.Supported);
  ASSERT_TRUE(R.Applied);
  EXPECT_TRUE(R.Match);
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

// The same edits with fidelity in view: an edit that resolves the only
// degraded site must leave the session Complete, as a scratch solve of the
// edited app is.
TEST(IncrementalTest, ResolvingEditRestoresCompleteFidelity) {
  auto bundle = [](const char *IdSource) {
    std::string Source = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var did: int;
    var v: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    did := this.pick();
    v := this.findViewById(did);
  }
  method pick(): int {
    var r: int;
    r := )";
    Source += IdSource;
    Source += ";\n    return r;\n  }\n}\n";
    return makeBundle(Source, {{"main", R"(<LinearLayout>
  <TextView android:id="@+id/title" />
</LinearLayout>)"}});
  };
  auto Base = bundle("this.getIdentifier()");
  auto Edited = bundle("@id/title");
  auto Back = bundle("this.getIdentifier()");
  const AnalysisOptions Options;
  IncrementalAnalysis Inc(Base->Program, *Base->Layouts, Base->Android,
                          Options, Base->Diags);
  Inc.solveInitial();
  ASSERT_EQ(Inc.solution().fidelity(), Fidelity::DegradedInput);

  auto graftAndCompare = [&](corpus::AppBundle &To, Fidelity Want) {
    EditDiff Diff = diffBundles(Base->Program, To.Program, *Base->Layouts,
                                *To.Layouts);
    ASSERT_TRUE(Diff.Unsupported.empty());
    ASSERT_EQ(Diff.Methods.size(), 1u);
    ASSERT_TRUE(graftMethodBody(*Diff.Methods[0].first,
                                *Diff.Methods[0].second));
    ASSERT_TRUE(Inc.reanalyzeMethod(*Diff.Methods[0].first));
    auto Scratch = GuiAnalysis::run(Base->Program, *Base->Layouts,
                                    Base->Android, Options, Base->Diags);
    ASSERT_TRUE(Scratch);
    EXPECT_EQ(Scratch->Sol->fidelity(), Want);
    EXPECT_EQ(Inc.solution().fidelity(), Want);
    EXPECT_EQ(solutionDigest(Inc.solution()), solutionDigest(*Scratch->Sol));
  };
  graftAndCompare(*Edited, Fidelity::Complete);
  // And back: the hostile statement degrades the session again.
  graftAndCompare(*Back, Fidelity::DegradedInput);
}

//===----------------------------------------------------------------------===//
// Edit cost: what the edit touches, not the app around it
//===----------------------------------------------------------------------===//

struct EditCost {
  size_t Nodes = 0;
  size_t Allocs = 0;
  size_t Bytes = 0;
  unsigned long OpFirings = 0;
  unsigned long ValuesPushed = 0;
  size_t Retracted = 0;
  bool Match = false;
};

/// Generates an app with \p FillerClasses filler classes, solves it in a
/// session, grafts Activity1.onCreate onto Activity0.onCreate, and counts
/// what reanalyzeMethod allocates and does.
EditCost graftInAppWithFillers(unsigned FillerClasses) {
  corpus::AppSpec Spec;
  Spec.Name = "Edit";
  Spec.Seed = 5;
  Spec.Activities = 4;
  Spec.FillerClasses = FillerClasses;
  Spec.MethodsPerFillerClass = 6;
  Spec.ListenersPerActivity = 3;
  Spec.DirectFindsPerActivity = 3;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  corpus::AppBundle &B = *App.Bundle;
  const AnalysisOptions Options;
  IncrementalAnalysis Inc(B.Program, *B.Layouts, B.Android, Options, B.Diags);
  Inc.solveInitial();

  EditCost Cost;
  Cost.Nodes = Inc.result().Graph->size();
  ir::MethodDecl *Dst =
      B.Program.findClass("EditActivity0")->findOwnMethod("onCreate", 0);
  ir::MethodDecl *Src =
      B.Program.findClass("EditActivity1")->findOwnMethod("onCreate", 0);
  if (!graftMethodBody(*Dst, *Src))
    return Cost;
  Allocations.store(0);
  AllocatedBytes.store(0);
  Counting.store(true);
  const bool Applied = Inc.reanalyzeMethod(*Dst);
  Counting.store(false);
  if (!Applied)
    return Cost;
  Cost.Allocs = Allocations.load();
  Cost.Bytes = AllocatedBytes.load();
  Cost.OpFirings = Inc.lastStats().OpFirings;
  Cost.ValuesPushed = Inc.lastStats().ValuesPushed;
  Cost.Retracted = Inc.lastFactsRetracted();
  auto Scratch = GuiAnalysis::run(B.Program, *B.Layouts, B.Android, Options,
                                  B.Diags);
  Cost.Match =
      Scratch && solutionDigest(Inc.solution()) == solutionDigest(*Scratch->Sol);
  return Cost;
}

TEST(IncrementalTest, EditCostIndependentOfAppSize) {
  const EditCost Small = graftInAppWithFillers(40);
  const EditCost Large = graftInAppWithFillers(80);
  ASSERT_GT(Large.Nodes, Small.Nodes + 1000);
  ASSERT_TRUE(Small.Match);
  ASSERT_TRUE(Large.Match);
  ASSERT_GT(Small.Retracted, 0u);
  // The filler classes hold no GUI value: the edit retracts and re-derives
  // the same facts in both apps, and must cost the same.
  EXPECT_EQ(Small.Retracted, Large.Retracted);
  EXPECT_EQ(Small.OpFirings, Large.OpFirings);
  EXPECT_EQ(Small.ValuesPushed, Large.ValuesPushed);
  EXPECT_EQ(Small.Allocs, Large.Allocs)
      << Small.Nodes << " nodes vs " << Large.Nodes << " nodes";
  EXPECT_EQ(Small.Bytes, Large.Bytes)
      << Small.Nodes << " nodes vs " << Large.Nodes << " nodes";
}

/// Generates an app with \p Activities activities, solves it in a session,
/// reverses the children of main_0, and counts what reanalyzeLayout does.
EditCost reverseMainInAppWithActivities(unsigned Activities) {
  corpus::AppSpec Spec;
  Spec.Name = "Edit";
  Spec.Seed = 5;
  Spec.Activities = Activities;
  Spec.ListenersPerActivity = 3;
  Spec.DirectFindsPerActivity = 3;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  corpus::AppBundle &B = *App.Bundle;
  const AnalysisOptions Options;
  IncrementalAnalysis Inc(B.Program, *B.Layouts, B.Android, Options, B.Diags);
  Inc.solveInitial();

  EditCost Cost;
  Cost.Nodes = Inc.result().Graph->size();
  auto Root = B.Layouts->findByName("main_0")->root()->clone();
  auto Children = Root->takeChildren();
  for (auto It = Children.rbegin(); It != Children.rend(); ++It)
    Root->addChild(std::move(*It));
  if (!Inc.reanalyzeLayout("main_0", std::move(Root)))
    return Cost;
  Cost.OpFirings = Inc.lastStats().OpFirings;
  Cost.ValuesPushed = Inc.lastStats().ValuesPushed;
  Cost.Retracted = Inc.lastFactsRetracted();
  auto Scratch = GuiAnalysis::run(B.Program, *B.Layouts, B.Android, Options,
                                  B.Diags);
  Cost.Match =
      Scratch && solutionDigest(Inc.solution()) == solutionDigest(*Scratch->Sol);
  return Cost;
}

// A layout edit re-mints the views of one activity. The structure round
// that follows fires only the ops the new views can reach, so the edit
// costs the same however many other activities the app has.
TEST(IncrementalTest, LayoutEditCostIndependentOfActivityCount) {
  const EditCost Small = reverseMainInAppWithActivities(4);
  const EditCost Large = reverseMainInAppWithActivities(8);
  ASSERT_GT(Large.Nodes, Small.Nodes);
  ASSERT_TRUE(Small.Match);
  ASSERT_TRUE(Large.Match);
  ASSERT_GT(Small.Retracted, 0u);
  EXPECT_EQ(Small.Retracted, Large.Retracted);
  EXPECT_EQ(Small.OpFirings, Large.OpFirings);
  EXPECT_EQ(Small.ValuesPushed, Large.ValuesPushed);
}

//===----------------------------------------------------------------------===//
// Seeded edit sequences (mixed method and layout edits) against scratch
//===----------------------------------------------------------------------===//

/// The first lines only \p A or only \p B holds, marked "-"/"+".
std::string digestDelta(const std::string &A, const std::string &B) {
  auto lines = [](const std::string &D) {
    std::vector<std::string> L;
    std::istringstream IS(D);
    for (std::string Line; std::getline(IS, Line);)
      L.push_back(Line);
    return L;
  };
  std::vector<std::string> LA = lines(A), LB = lines(B), Only;
  std::set_difference(LA.begin(), LA.end(), LB.begin(), LB.end(),
                      std::back_inserter(Only));
  std::string Out;
  for (size_t I = 0; I < Only.size() && I < 4; ++I)
    Out += "\n    - " + Only[I];
  Only.clear();
  std::set_difference(LB.begin(), LB.end(), LA.begin(), LA.end(),
                      std::back_inserter(Only));
  for (size_t I = 0; I < Only.size() && I < 4; ++I)
    Out += "\n    + " + Only[I];
  return Out;
}

/// Totals of one replay, for the work bound.
struct ReplayWork {
  unsigned long ValuesPushed = 0;
  size_t Retracted = 0;
  unsigned Edits = 0;
};

/// Replays \p Steps seeded edits on \p Spec's app in one session: grafts
/// between two same-signature methods of a filler class, grafts of
/// Activity<k+1>.onCreate onto Activity<k>, child reversals of main_<k>,
/// and views with fresh id names added to main_<k>. After every edit the
/// session's digest must equal a scratch solve's. Returns "" or the first
/// failing step.
std::string replaySeededEdits(const corpus::AppSpec &Spec, uint64_t Seed,
                              unsigned Steps, ReplayWork &Work) {
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  if (!App.Bundle)
    return Spec.Name + ": generation failed";
  corpus::AppBundle &B = *App.Bundle;
  const AnalysisOptions Options;
  IncrementalAnalysis Inc(B.Program, *B.Layouts, B.Android, Options, B.Diags);
  Inc.solveInitial();
  support::SplitMix64 Rng(Seed);
  auto methodOf = [&](const std::string &Class, const std::string &Name,
                      unsigned Arity) -> ir::MethodDecl * {
    ir::ClassDecl *C = B.Program.findClass(Class);
    return C ? C->findOwnMethod(Name, Arity) : nullptr;
  };
  for (unsigned Step = 0; Step < Steps; ++Step) {
    const std::string Where = Spec.Name + " seed " + std::to_string(Seed) +
                              " step " + std::to_string(Step + 1);
    const unsigned Kind = static_cast<unsigned>(Rng.below(4));
    bool Applied = false;
    if (Kind == 0 && Spec.FillerClasses > 0 &&
        Spec.MethodsPerFillerClass >= 2) {
      const std::string Class =
          Spec.Name + "Data" + std::to_string(Rng.below(Spec.FillerClasses));
      unsigned Dst = static_cast<unsigned>(Rng.below(Spec.MethodsPerFillerClass));
      unsigned Src = static_cast<unsigned>(
          Rng.below(Spec.MethodsPerFillerClass - 1));
      if (Src >= Dst)
        ++Src;
      ir::MethodDecl *D = methodOf(Class, "m" + std::to_string(Dst), 1);
      ir::MethodDecl *S = methodOf(Class, "m" + std::to_string(Src), 1);
      if (!D || !S || !graftMethodBody(*D, *S))
        return Where + ": the filler graft does not apply";
      Applied = Inc.reanalyzeMethod(*D);
    } else if (Kind == 1 && Spec.Activities > 1) {
      const unsigned K = static_cast<unsigned>(Rng.below(Spec.Activities - 1));
      ir::MethodDecl *D = methodOf(
          Spec.Name + "Activity" + std::to_string(K), "onCreate", 0);
      ir::MethodDecl *S = methodOf(
          Spec.Name + "Activity" + std::to_string(K + 1), "onCreate", 0);
      if (!D || !S || !graftMethodBody(*D, *S))
        return Where + ": the activity graft does not apply";
      Applied = Inc.reanalyzeMethod(*D);
    } else {
      const std::string Name =
          "main_" + std::to_string(Rng.below(Spec.Activities));
      const layout::LayoutDef *Def = B.Layouts->findByName(Name);
      if (!Def || !Def->root())
        return Where + ": no layout " + Name;
      auto Root = Def->root()->clone();
      if (Kind == 2) {
        auto Children = Root->takeChildren();
        for (auto It = Children.rbegin(); It != Children.rend(); ++It)
          Root->addChild(std::move(*It));
      } else {
        Root->addChild(std::make_unique<layout::LayoutNode>(
            "TextView", "seeded_" + std::to_string(Step)));
      }
      Applied = Inc.reanalyzeLayout(Name, std::move(Root));
    }
    if (!Applied)
      return Where + ": the session refused the edit";
    ++Work.Edits;
    Work.ValuesPushed += Inc.lastStats().ValuesPushed;
    Work.Retracted += Inc.lastFactsRetracted();
    auto Scratch =
        GuiAnalysis::run(B.Program, *B.Layouts, B.Android, Options, B.Diags);
    if (!Scratch)
      return Where + ": scratch solve failed";
    const std::string IncDigest = solutionDigest(Inc.solution());
    const std::string ScratchDigest = solutionDigest(*Scratch->Sol);
    if (IncDigest != ScratchDigest)
      return Where + ": incremental digest differs from scratch (- session, "
                     "+ scratch):" +
             digestDelta(IncDigest, ScratchDigest);
  }
  return "";
}

TEST(IncrementalTest, SeededEditSequencesMatchScratch) {
  std::string Failures;
  ReplayWork Work;
  for (uint64_t Seed : {11u, 23u, 47u})
    for (const corpus::AppSpec &Spec : corpus::paperCorpus())
      if (std::string F = replaySeededEdits(Spec, Seed, 8, Work); !F.empty())
        Failures += "\n  " + F;
  EXPECT_EQ(Failures, "");
  ASSERT_GT(Work.Retracted, 0u);
  // The re-derive redoes what the closure deleted, not the app: summed
  // over the replay, it pushes at most three values per retracted fact.
  EXPECT_LE(Work.ValuesPushed, 3 * Work.Retracted)
      << Work.Edits << " edits";
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
