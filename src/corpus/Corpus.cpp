//===- Corpus.cpp - Synthetic 20-app evaluation corpus ----------*- C++ -*-===//

#include "corpus/Corpus.h"

#include "ir/ProgramBuilder.h"
#include "layout/Layout.h"
#include "layout/LayoutWriter.h"
#include "parser/Printer.h"

#include <fstream>
#include <random>
#include <sstream>

using namespace gator;
using namespace gator::corpus;
using namespace gator::ir;

namespace {

constexpr const char *ViewT = "android.view.View";
constexpr const char *LinearT = "android.widget.LinearLayout";
constexpr const char *ButtonT = "android.widget.Button";
constexpr const char *InflaterT = "android.view.LayoutInflater";
constexpr const char *IntentT = "android.content.Intent";
constexpr const char *ClassT = "java.lang.Class";
constexpr const char *ClickIfaceT = "android.view.View.OnClickListener";

/// Generates one application per AppSpec.
class AppGenerator {
public:
  AppGenerator(const AppSpec &Spec, GeneratedApp &Out)
      : Spec(Spec), Out(Out), App(*Out.Bundle), Rng(Spec.Seed) {}

  void run() {
    App.Name = Spec.Name;
    App.Android.install(App.Program);
    makeSharedHelper();
    makeDialogClass();
    makeFragmentClass();
    for (unsigned I = 0; I < Spec.Activities; ++I)
      makeActivity(I);
    makeFillerClasses();
    App.finalize();
  }

private:
  //===--------------------------------------------------------------------===//
  // Naming helpers
  //===--------------------------------------------------------------------===//

  std::string actClass(unsigned I) const {
    return Spec.Name + "Activity" + std::to_string(I);
  }
  std::string baseClass() const { return Spec.Name + "BaseActivity"; }
  std::string listenerClass(unsigned Act, unsigned J) const {
    return Spec.Name + "Listener" + std::to_string(Act) + "_" +
           std::to_string(J);
  }
  std::string mainLayout(unsigned I) const {
    return "main_" + std::to_string(I);
  }
  std::string itemLayout(unsigned I, unsigned J) const {
    return "item_" + std::to_string(I) + "_" + std::to_string(J);
  }
  std::string widgetId(unsigned Act, unsigned K) const {
    return "w" + std::to_string(Act) + "_" + std::to_string(K);
  }
  std::string rootId(unsigned Act) const {
    return "root_" + std::to_string(Act);
  }
  std::string flipId(unsigned Act) const {
    return "flip_" + std::to_string(Act);
  }
  std::string pageTextId(unsigned Act) const {
    return "page_text_" + std::to_string(Act);
  }

  unsigned pick(unsigned Bound) {
    return std::uniform_int_distribution<unsigned>(0, Bound - 1)(Rng);
  }

  bool usesSharedHelper(unsigned Act) const {
    return Spec.SharedFindsPerActivity > 0 && Act < Spec.SharedHelperUsers;
  }

  //===--------------------------------------------------------------------===//
  // Layout generation
  //===--------------------------------------------------------------------===//

  /// Builds the main layout for activity \p Act: a LinearLayout root with
  /// id root_<Act> and ViewsPerLayout-1 further nodes; the first
  /// IdsPerLayout of them carry ids w<Act>_<k>.
  void makeMainLayout(unsigned Act) {
    static const char *Containers[] = {"LinearLayout", "RelativeLayout",
                                       "FrameLayout"};
    static const char *Leaves[] = {"Button", "TextView", "ImageView",
                                   "EditText", "CheckBox"};

    std::vector<layout::LayoutNode *> Parents;
    auto Root =
        std::make_unique<layout::LayoutNode>("LinearLayout", rootId(Act));
    Parents.push_back(Root.get());

    // App-wide shared id: every activity's layout has a "common_title"
    // (realistic id reuse across screens; precise only with hierarchy
    // tracking).
    if (Spec.UseCommonIds) {
      auto Title =
          std::make_unique<layout::LayoutNode>("TextView", "common_title");
      if (Spec.UseXmlOnClick)
        Title->setOnClickHandlerName("onXmlTap");
      Root->addChild(std::move(Title));
    }

    // ViewFlipper with two structurally identical pages (the ConnectBot
    // pattern): both pages' TextViews share the page-content id.
    if (Spec.UseFlipper) {
      auto Flipper = std::make_unique<layout::LayoutNode>("ViewFlipper",
                                                          flipId(Act));
      for (unsigned Pg = 0; Pg < 2; ++Pg) {
        auto Page = std::make_unique<layout::LayoutNode>("LinearLayout", "");
        Page->addChild(std::make_unique<layout::LayoutNode>(
            "TextView", pageTextId(Act)));
        Flipper->addChild(std::move(Page));
      }
      Root->addChild(std::move(Flipper));
    }

    unsigned Total = std::max(3u, Spec.ViewsPerLayout);
    unsigned Ids = std::min(Spec.IdsPerLayout, Total - 1);
    for (unsigned K = 1; K < Total; ++K) {
      bool Container = pick(100) < 30;
      std::string Klass = Container ? Containers[pick(3)] : Leaves[pick(5)];
      std::string Id = (K <= Ids) ? widgetId(Act, K) : std::string();
      auto Node = std::make_unique<layout::LayoutNode>(Klass, Id);
      layout::LayoutNode *Raw = Node.get();
      Parents[pick(static_cast<unsigned>(Parents.size()))]->addChild(
          std::move(Node));
      if (Container)
        Parents.push_back(Raw);
    }
    App.Layouts->add(mainLayout(Act), std::move(Root), App.Diags);
  }

  void makeItemLayout(unsigned Act, unsigned J) {
    auto Root = std::make_unique<layout::LayoutNode>("RelativeLayout", "");
    Root->addChild(std::make_unique<layout::LayoutNode>(
        "TextView", "item_" + std::to_string(Act) + "_" + std::to_string(J) +
                        "_text"));
    App.Layouts->add(itemLayout(Act, J), std::move(Root), App.Diags);
  }

  //===--------------------------------------------------------------------===//
  // Shared helper (imprecision source, Section 5 / XBMC mechanism)
  //===--------------------------------------------------------------------===//

  void makeSharedHelper() {
    if (Spec.SharedHelperUsers == 0 || Spec.SharedFindsPerActivity == 0)
      return;
    ClassDecl *C = App.Program.addClass(baseClass());
    C->setSuperName(android::names::Activity);
    MethodBuilder M(C->addMethod("lookup", ViewT));
    M.param("a", IntTypeName);
    M.local("r", ViewT);
    M.invoke(std::string("r"), "this", "findViewById", {"a"});
    M.ret(std::string("r"));
  }

  //===--------------------------------------------------------------------===//
  // Dialog / fragment patterns (extensions exercised at corpus scale)
  //===--------------------------------------------------------------------===//

  std::string dialogClass() const { return Spec.Name + "InfoDialog"; }
  std::string fragmentClass() const { return Spec.Name + "HeaderFragment"; }

  void makeDialogClass() {
    if (!Spec.UseDialog)
      return;
    auto Root = std::make_unique<layout::LayoutNode>("LinearLayout", "");
    Root->addChild(
        std::make_unique<layout::LayoutNode>("TextView", "dialog_text"));
    App.Layouts->add("dialog_info", std::move(Root), App.Diags);

    ClassDecl *C = App.Program.addClass(dialogClass());
    C->setSuperName(android::names::Dialog);
    MethodBuilder M(C->addMethod("onCreate", VoidTypeName));
    M.local("lid", IntTypeName);
    M.local("tid", IntTypeName);
    M.local("t", ViewT);
    M.layoutId("lid", "dialog_info");
    M.call("this", "setContentView", {"lid"});
    M.viewId("tid", "dialog_text");
    M.invoke(std::string("t"), "this", "findViewById", {"tid"});
    Out.Finds.push_back(FindViewExpectation{dialogClass(), "onCreate", "t",
                                            "dialog_text", false, 1});
  }

  void makeFragmentClass() {
    if (!Spec.UseFragment)
      return;
    auto Root = std::make_unique<layout::LayoutNode>("RelativeLayout", "");
    Root->addChild(
        std::make_unique<layout::LayoutNode>("TextView", "frag_title"));
    App.Layouts->add("frag_header", std::move(Root), App.Diags);

    ClassDecl *C = App.Program.addClass(fragmentClass());
    C->setSuperName(android::names::Fragment);
    MethodBuilder M(C->addMethod("onCreateView", ViewT));
    M.param("inflater", InflaterT);
    M.local("lid", IntTypeName);
    M.local("v", ViewT);
    M.layoutId("lid", "frag_header");
    M.invoke(std::string("v"), "inflater", "inflate", {"lid"});
    M.ret(std::string("v"));
  }

  //===--------------------------------------------------------------------===//
  // Activities
  //===--------------------------------------------------------------------===//

  void makeActivity(unsigned Act) {
    makeMainLayout(Act);
    for (unsigned J = 0; J < Spec.InflateItemsPerActivity; ++J)
      makeItemLayout(Act, J);

    ClassDecl *C = App.Program.addClass(actClass(Act));
    C->setSuperName(usesSharedHelper(Act) ? baseClass()
                                          : android::names::Activity);
    if (Spec.ActivityAsListener)
      C->addInterfaceName(ClickIfaceT);

    unsigned Ids = std::min(Spec.IdsPerLayout,
                            std::max(3u, Spec.ViewsPerLayout) - 1);

    // Listener classes (created up front so onCreate can allocate them).
    for (unsigned J = 0; J < Spec.ListenersPerActivity; ++J)
      makeListenerClass(Act, J);

    MethodBuilder OnCreate(C->addMethod("onCreate", VoidTypeName));
    OnCreate.local("lid", IntTypeName);
    OnCreate.layoutId("lid", mainLayout(Act));
    OnCreate.call("this", "setContentView", {"lid"});

    // Direct (precise) finds.
    std::vector<std::string> FoundVars;
    size_t FirstFindIndex = Out.Finds.size();
    for (unsigned K = 0; K < Spec.DirectFindsPerActivity; ++K) {
      std::string IdName = Ids ? widgetId(Act, 1 + (K % Ids)) : rootId(Act);
      if (K == 0 && Spec.UseCommonIds)
        IdName = "common_title";
      std::string IdVar = "fid" + std::to_string(K);
      std::string OutVar = "fv" + std::to_string(K);
      OnCreate.local(IdVar, IntTypeName);
      OnCreate.local(OutVar, ViewT);
      OnCreate.viewId(IdVar, IdName);
      OnCreate.invoke(OutVar, "this", "findViewById", {IdVar});
      FoundVars.push_back(OutVar);
      Out.Finds.push_back(FindViewExpectation{actClass(Act), "onCreate",
                                              OutVar, IdName, false});
    }

    // Listener registrations on found views.
    for (unsigned J = 0; J < Spec.ListenersPerActivity; ++J) {
      std::string LVar = "lsn" + std::to_string(J);
      OnCreate.local(LVar, listenerClass(Act, J));
      OnCreate.assignNew(LVar, listenerClass(Act, J));
      OnCreate.invoke(std::nullopt, LVar, "init", {"this"});
      if (!FoundVars.empty()) {
        size_t Sel = J % FoundVars.size();
        OnCreate.call(FoundVars[Sel], "setOnClickListener", {LVar});
        Out.Listeners.push_back(ListenerExpectation{
            actClass(Act), Out.Finds[FirstFindIndex + Sel].ViewIdName,
            listenerClass(Act, J), android::EventKind::Click});
      }
    }

    // Activity-as-listener registration.
    if (Spec.ActivityAsListener && !FoundVars.empty()) {
      OnCreate.local("me", actClass(Act));
      OnCreate.assign("me", "this");
      OnCreate.call(FoundVars.front(), "setOnClickListener", {"me"});
      Out.Listeners.push_back(ListenerExpectation{
          actClass(Act), Out.Finds[FirstFindIndex].ViewIdName, actClass(Act),
          android::EventKind::Click});
    }

    // Programmatic views: allocate, set id, attach under the root.
    if (Spec.ProgViewsPerActivity > 0) {
      OnCreate.local("rid", IntTypeName);
      OnCreate.local("cont", LinearT);
      OnCreate.viewId("rid", rootId(Act));
      OnCreate.invoke(std::string("cont"), "this", "findViewById", {"rid"});
      Out.Finds.push_back(FindViewExpectation{actClass(Act), "onCreate",
                                              "cont", rootId(Act), false});
      for (unsigned J = 0; J < Spec.ProgViewsPerActivity; ++J) {
        std::string PV = "pv" + std::to_string(J);
        std::string PId = "pvid" + std::to_string(J);
        OnCreate.local(PV, ButtonT);
        OnCreate.local(PId, IntTypeName);
        OnCreate.assignNew(PV, ButtonT);
        OnCreate.viewId(PId, "prog_" + std::to_string(Act) + "_" +
                                 std::to_string(J));
        OnCreate.call(PV, "setId", {PId});
        OnCreate.call("cont", "addView", {PV});
      }
    }

    // Shared-helper lookups (imprecise path) + consumer registrations.
    if (usesSharedHelper(Act)) {
      for (unsigned K = 0; K < Spec.SharedFindsPerActivity; ++K) {
        std::string IdName =
            Ids ? widgetId(Act, 1 + ((K + 1) % Ids)) : rootId(Act);
        std::string IdVar = "sid" + std::to_string(K);
        std::string OutVar = "sv" + std::to_string(K);
        OnCreate.local(IdVar, IntTypeName);
        OnCreate.local(OutVar, ViewT);
        OnCreate.viewId(IdVar, IdName);
        OnCreate.invoke(OutVar, "this", "lookup", {IdVar});
        Out.Finds.push_back(FindViewExpectation{actClass(Act), "onCreate",
                                                OutVar, IdName, true});
        if (Spec.ListenersPerActivity > 0)
          OnCreate.call(OutVar, "setOnClickListener", {"lsn0"});
      }
    }

    // Hostile shapes (docs/ROBUSTNESS.md): each site below is statically
    // unresolvable and mints a tagged unknown source in the analysis, so
    // any of them degrades the app's solution to DegradedInput. No ground
    // truth is recorded — there is none to record.
    if (Spec.ReflectiveViewsPerActivity > 0) {
      // Fetch the root container once, then per view:
      //   v := classof(Button).newInstance(); root.addView(v)
      OnCreate.local("hrid", IntTypeName);
      OnCreate.local("hcont", LinearT);
      OnCreate.viewId("hrid", rootId(Act));
      OnCreate.invoke(std::string("hcont"), "this", "findViewById",
                      {"hrid"});
      Out.Finds.push_back(FindViewExpectation{actClass(Act), "onCreate",
                                              "hcont", rootId(Act), false});
      for (unsigned J = 0; J < Spec.ReflectiveViewsPerActivity; ++J) {
        std::string CV = "rcls" + std::to_string(J);
        std::string RV = "rnew" + std::to_string(J);
        OnCreate.local(CV, ClassT);
        OnCreate.local(RV, ViewT);
        OnCreate.classConst(CV, ButtonT);
        OnCreate.invoke(std::string(RV), CV, "newInstance", {});
        OnCreate.call("hcont", "addView", {RV});
      }
    }
    for (unsigned J = 0; J < Spec.DynamicFindsPerActivity; ++J) {
      // id := getIdentifier(...); v := findViewById(id)
      std::string IV = "did" + std::to_string(J);
      std::string OV = "dv" + std::to_string(J);
      OnCreate.local(IV, IntTypeName);
      OnCreate.local(OV, ViewT);
      OnCreate.invoke(std::string(IV), "this", "getIdentifier", {});
      OnCreate.invoke(std::string(OV), "this", "findViewById", {IV});
    }
    for (unsigned J = 0; J < Spec.MissingLayoutRefsPerActivity; ++J) {
      // lid := @layout/<nonexistent>; setContentView(lid)
      std::string LV = "mlid" + std::to_string(J);
      OnCreate.local(LV, IntTypeName);
      OnCreate.layoutId(LV, "missing_" + std::to_string(Act) + "_" +
                                std::to_string(J));
      OnCreate.call("this", "setContentView", {LV});
    }

    // Show the app's info dialog (dialog extension).
    if (Spec.UseDialog) {
      OnCreate.local("dlg", dialogClass());
      OnCreate.assignNew("dlg", dialogClass());
      OnCreate.call("dlg", "show", {});
    }

    // Add the header fragment into this activity's root container
    // (fragment extension).
    if (Spec.UseFragment) {
      OnCreate.local("fm", "android.app.FragmentManager");
      OnCreate.local("tx", "android.app.FragmentTransaction");
      OnCreate.local("fg", fragmentClass());
      OnCreate.local("fcid", IntTypeName);
      OnCreate.invoke(std::string("fm"), "this", "getFragmentManager", {});
      OnCreate.invoke(std::string("tx"), "fm", "beginTransaction", {});
      OnCreate.assignNew("fg", fragmentClass());
      OnCreate.viewId("fcid", rootId(Act));
      OnCreate.call("tx", "add", {"fcid", "fg"});
      OnCreate.call("tx", "commit", {});
    }

    // Flipper navigation (the Section 2 ConnectBot pattern): find the
    // flipper, ask for the current page, find the page content by id.
    if (Spec.UseFlipper) {
      OnCreate.local("flid", IntTypeName);
      OnCreate.local("fl", "android.widget.ViewFlipper");
      OnCreate.local("cur", ViewT);
      OnCreate.local("ptid", IntTypeName);
      OnCreate.local("pt", ViewT);
      OnCreate.viewId("flid", flipId(Act));
      OnCreate.invoke(std::string("fl"), "this", "findViewById", {"flid"});
      Out.Finds.push_back(FindViewExpectation{actClass(Act), "onCreate",
                                              "fl", flipId(Act), false, 1});
      OnCreate.invoke(std::string("cur"), "fl", "getCurrentView", {});
      OnCreate.viewId("ptid", pageTextId(Act));
      OnCreate.invoke(std::string("pt"), "cur", "findViewById", {"ptid"});
      // Both pages carry the id: the perfectly-precise solution has 2.
      Out.Finds.push_back(FindViewExpectation{actClass(Act), "onCreate",
                                              "pt", pageTextId(Act), false,
                                              2});
    }

    // Inflate-item methods, called from onCreate.
    for (unsigned J = 0; J < Spec.InflateItemsPerActivity; ++J) {
      std::string MName = "populate" + std::to_string(J);
      MethodBuilder Pop(C->addMethod(MName, VoidTypeName));
      Pop.local("infl", InflaterT);
      Pop.local("ilid", IntTypeName);
      Pop.local("iv", ViewT);
      Pop.local("rid", IntTypeName);
      Pop.local("cont", LinearT);
      Pop.invoke(std::string("infl"), "this", "getLayoutInflater", {});
      Pop.layoutId("ilid", itemLayout(Act, J));
      Pop.invoke(std::string("iv"), "infl", "inflate", {"ilid"});
      Pop.viewId("rid", rootId(Act));
      Pop.invoke(std::string("cont"), "this", "findViewById", {"rid"});
      Pop.call("cont", "addView", {"iv"});
      OnCreate.call("this", MName, {});
    }

    // Activity-as-listener handler.
    if (Spec.ActivityAsListener) {
      MethodBuilder OnClick(C->addMethod("onClick", VoidTypeName));
      OnClick.param("r", ViewT);
      OnClick.local("x", ViewT);
      OnClick.assign("x", "r");
    }

    // Layout-declared handler for the common-title android:onClick.
    if (Spec.UseCommonIds && Spec.UseXmlOnClick) {
      MethodBuilder Tap(C->addMethod("onXmlTap", VoidTypeName));
      Tap.param("v", ViewT);
      Tap.local("x", ViewT);
      Tap.assign("x", "v");
    }
  }

  void makeListenerClass(unsigned Act, unsigned J) {
    ClassDecl *C = App.Program.addClass(listenerClass(Act, J));
    C->addInterfaceName(ClickIfaceT);
    C->addField("owner", actClass(Act));

    MethodBuilder Init(C->addMethod("init", VoidTypeName));
    Init.param("q", actClass(Act));
    Init.storeField("this", "owner", "q");

    MethodBuilder OnClick(C->addMethod("onClick", VoidTypeName));
    OnClick.param("r", ViewT);
    OnClick.local("x", ViewT);
    OnClick.assign("x", "r");

    // Transition to the next activity from the first listener's handler.
    if (Spec.EmitTransitions && J == 0 && Spec.Activities > 1) {
      unsigned Next = (Act + 1) % Spec.Activities;
      OnClick.local("s", actClass(Act));
      OnClick.local("it", IntentT);
      OnClick.local("cc", ClassT);
      OnClick.loadField("s", "this", "owner");
      OnClick.assignNew("it", IntentT);
      OnClick.classConst("cc", actClass(Next));
      OnClick.call("it", "setClass", {"s", "cc"});
      OnClick.call("s", "startActivity", {"it"});
    }
  }

  //===--------------------------------------------------------------------===//
  // Filler bulk
  //===--------------------------------------------------------------------===//

  void makeFillerClasses() {
    for (unsigned K = 0; K < Spec.FillerClasses; ++K) {
      std::string Name = Spec.Name + "Data" + std::to_string(K);
      ClassDecl *C = App.Program.addClass(Name);
      std::string NextName =
          Spec.Name + "Data" +
          std::to_string((K + 1) % std::max(1u, Spec.FillerClasses));
      C->addField("next", NextName);
      C->addField("payload", ObjectClassName);

      for (unsigned J = 0; J < Spec.MethodsPerFillerClass; ++J) {
        std::string MethodName = "m";
        MethodName += std::to_string(J);
        MethodBuilder M(C->addMethod(MethodName, ObjectClassName));
        M.param("p", ObjectClassName);
        M.local("x", ObjectClassName);
        M.storeField("this", "payload", "p");
        M.loadField("x", "this", "payload");
        if (J > 0) {
          // Call the previous sibling method: realistic call-graph bulk.
          M.local("y", ObjectClassName);
          std::string Callee = "m";
          Callee += std::to_string(J - 1);
          M.invoke(std::string("y"), "this", Callee, {"x"});
          M.ret(std::string("y"));
        } else if (K > 0 && pick(2) == 0) {
          M.local("d", NextName);
          M.local("y", ObjectClassName);
          M.loadField("d", "this", "next");
          M.invoke(std::string("y"), "d", "m0", {"x"});
          M.ret(std::string("y"));
        } else {
          M.ret(std::string("x"));
        }
      }
    }
  }

  const AppSpec &Spec;
  GeneratedApp &Out;
  AppBundle &App;
  std::mt19937 Rng;
};

} // namespace

GeneratedApp gator::corpus::generateApp(const AppSpec &Spec) {
  GeneratedApp Out;
  Out.Spec = Spec;
  Out.Bundle = std::make_unique<AppBundle>();
  AppGenerator(Spec, Out).run();
  return Out;
}

//===----------------------------------------------------------------------===//
// The 20-app corpus
//===----------------------------------------------------------------------===//

namespace {

/// Derives a full spec from Table 1 scale numbers plus precision knobs.
AppSpec makeSpec(const char *Name, unsigned TableClasses,
                 unsigned TableMethods, unsigned Activities,
                 unsigned ViewsPerLayout, unsigned IdsPerLayout,
                 unsigned DirectFinds, unsigned Listeners, unsigned ProgViews,
                 unsigned InflateItems, unsigned SharedFinds,
                 unsigned SharedUsers, bool Flipper, uint32_t Seed) {
  AppSpec Spec;
  Spec.Name = Name;
  Spec.Seed = Seed;
  Spec.Activities = Activities;
  Spec.ViewsPerLayout = ViewsPerLayout;
  Spec.IdsPerLayout = IdsPerLayout;
  Spec.DirectFindsPerActivity = DirectFinds;
  Spec.ListenersPerActivity = Listeners;
  Spec.ProgViewsPerActivity = ProgViews;
  Spec.InflateItemsPerActivity = InflateItems;
  Spec.SharedFindsPerActivity = SharedFinds;
  Spec.SharedHelperUsers = SharedUsers;
  Spec.UseFlipper = Flipper;

  // GUI classes generated: activities + listener classes (+ shared base).
  unsigned GuiClasses = Activities * (1 + Listeners) +
                        (SharedUsers && SharedFinds ? 1 : 0);
  Spec.FillerClasses =
      TableClasses > GuiClasses ? TableClasses - GuiClasses : 0;

  // GUI methods generated per activity: onCreate + populate* + onXmlTap;
  // per listener: init + onClick; shared base: lookup.
  unsigned GuiMethods = Activities * (2 + InflateItems) +
                        Activities * Listeners * 2 +
                        (SharedUsers && SharedFinds ? 1 : 0);
  if (Spec.FillerClasses > 0 && TableMethods > GuiMethods)
    Spec.MethodsPerFillerClass = std::max<unsigned>(
        1, (TableMethods - GuiMethods + Spec.FillerClasses / 2) /
               Spec.FillerClasses);
  else
    Spec.MethodsPerFillerClass = 1;
  return Spec;
}

} // namespace

const std::vector<AppSpec> &gator::corpus::paperCorpus() {
  // Class/method counts follow Table 1 of the paper. The remaining knobs
  // are chosen to reproduce the *structure* Table 1 reports (layout/view
  // id volume; explicitly-allocated views in 15 of 20 apps; AddView in all
  // but four) and the precision *shape* of Table 2: receivers around 1.0
  // for most apps, mild imprecision for a few, and the XBMC outlier
  // (around 9) driven by context-insensitive flow through shared helpers.
  static const std::vector<AppSpec> Corpus = [] {
    std::vector<AppSpec> Specs = {
      //       name            cls   mth  act vpl ids df ls pv inf sf su flip seed
      makeSpec("APV",            68,  415,  2, 10,  6, 3, 1, 0, 0, 0, 0, 0, 101),
      makeSpec("Astrid",       1228, 5782, 14, 14,  8, 3, 2, 1, 1, 3, 5, 1, 102),
      makeSpec("BarcodeScanner",126, 1224,  3, 11,  7, 4, 1, 0, 0, 0, 0, 0, 103),
      makeSpec("Beem",          284, 1883,  6, 12,  7, 3, 2, 1, 0, 1, 2, 0, 104),
      makeSpec("ConnectBot",    371, 2366,  5, 13,  8, 4, 2, 1, 1, 0, 0, 0, 105),
      makeSpec("FBReader",      954, 5452, 10, 13,  8, 3, 1, 1, 1, 1, 6, 1, 106),
      makeSpec("K9",            815, 5311, 12, 14,  9, 4, 2, 1, 1, 1, 3, 0, 107),
      makeSpec("KeePassDroid",  465, 2784,  8, 12,  7, 3, 2, 1, 0, 2, 3, 1, 108),
      makeSpec("Mileage",       221, 1223,  7, 11,  6, 2, 1, 1, 1, 3, 3, 1, 109),
      makeSpec("MyTracks",      485, 2680,  8, 12,  7, 3, 2, 1, 0, 1, 2, 0, 110),
      makeSpec("NPR",           249, 1359,  5, 12,  7, 2, 1, 1, 1, 2, 3, 1, 111),
      makeSpec("NotePad",        89,  394,  3, 10,  5, 2, 1, 0, 0, 0, 0, 0, 112),
      makeSpec("OpenManager",    60,  252,  3, 11,  6, 3, 2, 1, 0, 1, 2, 1, 113),
      makeSpec("OpenSudoku",    140,  728,  4, 11,  6, 3, 1, 1, 0, 1, 3, 1, 114),
      makeSpec("SipDroid",      351, 2683,  5, 12,  7, 2, 1, 1, 0, 0, 0, 0, 115),
      makeSpec("SuperGenPass",   65,  268,  2, 10,  6, 2, 1, 1, 0, 2, 2, 1, 116),
      makeSpec("TippyTipper",    57,  241,  4, 12,  8, 4, 2, 1, 0, 1, 2, 0, 117),
      makeSpec("VLC",           242, 1374,  6, 12,  7, 3, 2, 1, 1, 1, 2, 0, 118),
      makeSpec("VuDroid",        69,  385,  2, 10,  5, 2, 1, 0, 0, 0, 0, 0, 119),
      makeSpec("XBMC",          568, 3012, 12, 14,  9, 3, 2, 1, 1, 3,10, 1, 120),
    };

    // Dialog/fragment usage (the extensions) for a few larger apps —
    // realistic and irrelevant to the Table 2 metrics (dialog finds are
    // activity-style FindView2; fragment ops carry no metric).
    for (AppSpec &Spec : Specs) {
      if (Spec.Name == "K9" || Spec.Name == "Astrid" ||
          Spec.Name == "FBReader" || Spec.Name == "VLC") {
        Spec.UseDialog = true;
        --Spec.FillerClasses; // keep the Table 1 class count
      }
      if (Spec.Name == "K9" || Spec.Name == "XBMC" ||
          Spec.Name == "Astrid" || Spec.Name == "MyTracks") {
        Spec.UseFragment = true;
        --Spec.FillerClasses;
      }
    }
    return Specs;
  }();
  return Corpus;
}

//===----------------------------------------------------------------------===//
// Synthetic fleets (10k+ apps)
//===----------------------------------------------------------------------===//

namespace {

/// SplitMix64 step (Steele et al., "Fast splittable pseudorandom number
/// generators"). Small state, full-period, and cheap to seed per index —
/// exactly what an order-independent per-app stream needs.
uint64_t splitMix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Uniform draw in [Lo, Hi] from a per-app stream.
unsigned drawIn(uint64_t &State, unsigned Lo, unsigned Hi) {
  return Lo + static_cast<unsigned>(splitMix64(State) % (Hi - Lo + 1));
}

} // namespace

std::vector<AppSpec> gator::corpus::makeFleet(const FleetSpec &Fleet) {
  std::vector<AppSpec> Specs;
  Specs.reserve(Fleet.Apps);
  for (unsigned I = 0; I < Fleet.Apps; ++I) {
    // One explicit stream per index: the spec is a pure function of
    // (Fleet.Seed, I), never of generation order.
    uint64_t State = Fleet.Seed ^ (uint64_t(I) * 0x2545f4914f6cdd1dULL);

    AppSpec Spec;
    Spec.Name = Fleet.NamePrefix + std::to_string(I);
    Spec.Seed = static_cast<uint32_t>(splitMix64(State) | 1u);

    unsigned Bucket = drawIn(State, 0, 99);
    if (Bucket < Fleet.DeepTreePercent) {
      // Deep view trees: big layouts and inflated item layouts dominate
      // graph size and flow-set volume (the memory-bound solve).
      Spec.Activities = drawIn(State, 2, 4);
      Spec.ViewsPerLayout = drawIn(State, 24, 40);
      Spec.IdsPerLayout = Spec.ViewsPerLayout / 2;
      Spec.DirectFindsPerActivity = drawIn(State, 3, 6);
      Spec.InflateItemsPerActivity = drawIn(State, 1, 2);
      Spec.ListenersPerActivity = 1;
      Spec.FillerClasses = drawIn(State, 4, 8);
    } else if (Bucket < Fleet.DeepTreePercent + Fleet.WideListenerPercent) {
      // Wide listener fan-out: many listener classes and registrations.
      Spec.Activities = drawIn(State, 3, 6);
      Spec.ViewsPerLayout = drawIn(State, 10, 16);
      Spec.IdsPerLayout = drawIn(State, 6, 10);
      Spec.ListenersPerActivity = drawIn(State, 4, 8);
      Spec.ProgViewsPerActivity = drawIn(State, 1, 2);
      Spec.FillerClasses = drawIn(State, 4, 8);
    } else if (Bucket < Fleet.DeepTreePercent + Fleet.WideListenerPercent +
                            Fleet.SharedHelperPercent) {
      // Shared-helper aliasing: every activity routes lookups through the
      // shared base helper, merging results across callers (Section 5).
      Spec.Activities = drawIn(State, 4, 8);
      Spec.ViewsPerLayout = drawIn(State, 10, 14);
      Spec.IdsPerLayout = drawIn(State, 6, 9);
      Spec.SharedFindsPerActivity = drawIn(State, 2, 4);
      Spec.SharedHelperUsers = Spec.Activities;
      Spec.ListenersPerActivity = drawIn(State, 1, 2);
      Spec.FillerClasses = drawIn(State, 4, 8);
    } else {
      // Baseline: small quick apps; at fleet scale these stress the task
      // queue rather than the solver.
      Spec.Activities = drawIn(State, 2, 3);
      Spec.ViewsPerLayout = drawIn(State, 6, 10);
      Spec.IdsPerLayout = drawIn(State, 4, 6);
      Spec.DirectFindsPerActivity = 2;
      Spec.ListenersPerActivity = 1;
      Spec.ProgViewsPerActivity = 1;
      Spec.FillerClasses = drawIn(State, 2, 6);
    }
    Spec.UseFlipper = (splitMix64(State) & 7) == 0;
    Spec.UseDialog = (splitMix64(State) & 7) == 1;

    // Hostile-shape draws (docs/ROBUSTNESS.md) come from their own
    // unconditional per-app stream: every roll happens whether or not a
    // rate is set, so the knobs never perturb the shape stream or each
    // other. Clean fleets stay byte-identical to earlier releases (the
    // shape stream above is untouched), and enabling one hostile rate no
    // longer re-rolls the others — one code path for clean and hostile.
    uint64_t HostileState = Fleet.Seed ^ 0xd1b54a32d192ed03ULL ^
                            (uint64_t(I) * 0x9e3779b97f4a7c15ULL);
    const unsigned ReflectiveRoll = drawIn(HostileState, 0, 99);
    const unsigned ReflectiveCount = drawIn(HostileState, 1, 2);
    const unsigned DynamicRoll = drawIn(HostileState, 0, 99);
    const unsigned DynamicCount = drawIn(HostileState, 1, 2);
    const unsigned MissingRoll = drawIn(HostileState, 0, 99);
    if (ReflectiveRoll < Fleet.ReflectivePercent)
      Spec.ReflectiveViewsPerActivity = ReflectiveCount;
    if (DynamicRoll < Fleet.DynamicIdPercent)
      Spec.DynamicFindsPerActivity = DynamicCount;
    if (MissingRoll < Fleet.MissingLayoutPercent)
      Spec.MissingLayoutRefsPerActivity = 1;
    Specs.push_back(std::move(Spec));
  }
  return Specs;
}

bool gator::corpus::writeAppDir(const AppSpec &Spec, const AppBundle &App,
                                const std::filesystem::path &AppDir,
                                std::ostream &Err) {
  std::error_code EC;
  std::filesystem::create_directories(AppDir, EC);
  if (EC) {
    Err << "error: cannot create " << AppDir << ": " << EC.message() << "\n";
    return false;
  }

  // Each file is checked after its write and close, so an unopenable
  // path or a short write names the file instead of leaving a partial app.
  auto writeFile = [&](const std::string &Name, auto &&Emit) {
    const std::filesystem::path Path = AppDir / Name;
    std::ofstream Out(Path);
    if (Out) {
      Emit(Out);
      Out.close();
    }
    if (!Out)
      Err << "error: cannot write " << Path.string() << "\n";
    return static_cast<bool>(Out);
  };

  if (!writeFile("app.alite", [&](std::ostream &Out) {
        parser::printProgram(App.Program, Out);
      }))
    return false;
  for (const auto &Def : App.Layouts->layouts())
    if (!writeFile(Def->name() + ".xml", [&](std::ostream &Out) {
          Out << layout::layoutToXml(*Def);
        }))
      return false;
  // Manifest: every activity declared, Activity0 as the launcher.
  return writeFile("AndroidManifest.xml", [&](std::ostream &Out) {
    Out << "<manifest package=\"corpus." << Spec.Name << "\">\n"
        << "  <application>\n";
    for (unsigned I = 0; I < Spec.Activities; ++I) {
      Out << "    <activity android:name=\"" << Spec.Name << "Activity" << I
          << "\"";
      if (I == 0)
        Out << ">\n"
            << "      <intent-filter>\n"
            << "        <action android:name=\"android.intent.action."
               "MAIN\" />\n"
            << "        <category android:name=\"android.intent.category."
               "LAUNCHER\" />\n"
            << "      </intent-filter>\n"
            << "    </activity>\n";
      else
        Out << " />\n";
    }
    Out << "  </application>\n</manifest>\n";
  });
}
