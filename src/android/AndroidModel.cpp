//===- AndroidModel.cpp - Android platform model ----------------*- C++ -*-===//

#include "android/AndroidModel.h"

#include <array>
#include <cassert>
#include <cctype>

using namespace gator;
using namespace gator::android;
using namespace gator::ir;

const char *gator::android::opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Inflate1:
    return "Inflate1";
  case OpKind::Inflate2:
    return "Inflate2";
  case OpKind::AddView1:
    return "AddView1";
  case OpKind::AddView2:
    return "AddView2";
  case OpKind::SetId:
    return "SetId";
  case OpKind::SetListener:
    return "SetListener";
  case OpKind::FindView1:
    return "FindView1";
  case OpKind::FindView2:
    return "FindView2";
  case OpKind::FindView3:
    return "FindView3";
  case OpKind::FragmentAdd:
    return "FragmentAdd";
  case OpKind::SetAdapter:
    return "SetAdapter";
  case OpKind::StartActivity:
    return "StartActivity";
  case OpKind::SetIntentClass:
    return "SetIntentClass";
  }
  return "unknown";
}

const char *gator::android::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::Click:
    return "click";
  case EventKind::LongClick:
    return "long-click";
  case EventKind::Touch:
    return "touch";
  case EventKind::Key:
    return "key";
  case EventKind::FocusChange:
    return "focus-change";
  case EventKind::ItemClick:
    return "item-click";
  case EventKind::ItemSelected:
    return "item-selected";
  case EventKind::SeekBarChange:
    return "seekbar-change";
  case EventKind::CheckedChange:
    return "checked-change";
  case EventKind::TextChange:
    return "text-change";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Platform installation
//===----------------------------------------------------------------------===//

namespace {

/// Adds a platform class unless it already exists; returns it either way.
ClassDecl *ensureClass(Program &P, const std::string &Name,
                       const std::string &Super, bool IsInterface = false) {
  if (ClassDecl *Existing = P.findClass(Name))
    return Existing;
  ClassDecl *C = P.addClass(Name, IsInterface, /*IsPlatform=*/true);
  assert(C && "platform class creation cannot collide");
  if (!Super.empty())
    C->setSuperName(Super);
  return C;
}

/// Adds a bodiless platform method stub unless already declared.
MethodDecl *ensureMethod(ClassDecl *C, const std::string &Name,
                         const std::string &RetType,
                         const std::vector<std::pair<std::string, std::string>>
                             &Params) {
  if (MethodDecl *Existing = C->findOwnMethod(
          Name, static_cast<unsigned>(Params.size())))
    return Existing;
  MethodDecl *M = C->addMethod(Name, RetType);
  for (const auto &[PName, PType] : Params)
    M->addParam(PName, PType);
  M->setAbstract(true);
  return M;
}

} // namespace

void AndroidModel::buildSpecs() {
  if (!Specs.empty())
    return;

  auto add = [&](const char *Iface, const char *Register, EventKind Event,
                 std::vector<HandlerSig> Handlers) {
    Specs.push_back(ListenerSpec{Iface, Register, Event, std::move(Handlers)});
  };

  add("android.view.View.OnClickListener", "setOnClickListener",
      EventKind::Click, {{"onClick", 1, 0}});
  add("android.view.View.OnLongClickListener", "setOnLongClickListener",
      EventKind::LongClick, {{"onLongClick", 1, 0}});
  add("android.view.View.OnTouchListener", "setOnTouchListener",
      EventKind::Touch, {{"onTouch", 1, 0}});
  add("android.view.View.OnKeyListener", "setOnKeyListener", EventKind::Key,
      {{"onKey", 1, 0}});
  add("android.view.View.OnFocusChangeListener", "setOnFocusChangeListener",
      EventKind::FocusChange, {{"onFocusChange", 1, 0}});
  add("android.widget.AdapterView.OnItemClickListener", "setOnItemClickListener",
      EventKind::ItemClick, {{"onItemClick", 1, 0}});
  // Multi-callback interfaces: every handler participates in the implicit
  // callback modeling (each receives the view the event fired on).
  add("android.widget.AdapterView.OnItemSelectedListener",
      "setOnItemSelectedListener", EventKind::ItemSelected,
      {{"onItemSelected", 1, 0}, {"onNothingSelected", 1, 0}});
  add("android.widget.SeekBar.OnSeekBarChangeListener",
      "setOnSeekBarChangeListener", EventKind::SeekBarChange,
      {{"onProgressChanged", 1, 0},
       {"onStartTrackingTouch", 1, 0},
       {"onStopTrackingTouch", 1, 0}});
  add("android.widget.CompoundButton.OnCheckedChangeListener",
      "setOnCheckedChangeListener", EventKind::CheckedChange,
      {{"onCheckedChanged", 1, 0}});
  // RadioGroup's checked-change listener has its own interface type.
  add("android.widget.RadioGroup.OnCheckedChangeListener",
      "setOnCheckedChangeListener", EventKind::CheckedChange,
      {{"onCheckedChanged", 1, 0}});
  // TextWatcher callbacks carry no view parameter (ViewParamIndex -1):
  // the handlers still become reachable, but no view flows in.
  add("android.text.TextWatcher", "addTextChangedListener",
      EventKind::TextChange,
      {{"beforeTextChanged", 0, -1},
       {"onTextChanged", 0, -1},
       {"afterTextChanged", 0, -1}});

  for (const ListenerSpec &Spec : Specs) {
    SpecByRegister.emplace(Spec.RegisterMethod, &Spec);
    SpecByInterface.emplace(Spec.InterfaceName, &Spec);
  }
}

void AndroidModel::install(Program &P) {
  buildSpecs();

  using namespace names;

  ClassDecl *Obj = ensureClass(P, Object, "");
  (void)Obj;
  ensureClass(P, ClassClass, Object);
  ClassDecl *Ctx = ensureClass(P, Context, Object);
  ensureMethod(Ctx, "startActivity", "void", {{"intent", Intent}});

  ClassDecl *Act = ensureClass(P, Activity, Context);
  ensureMethod(Act, "setContentView", "void", {{"layoutId", "int"}});
  ensureMethod(Act, "setContentView", "void", {{"view", View}});
  ensureMethod(Act, "findViewById", View, {{"id", "int"}});
  ensureMethod(Act, "getLayoutInflater", LayoutInflater, {});
  ensureMethod(Act, "onCreate", "void", {});
  ensureMethod(Act, "onStart", "void", {});
  ensureMethod(Act, "onResume", "void", {});
  ensureMethod(Act, "onPause", "void", {});
  ensureMethod(Act, "onStop", "void", {});
  ensureMethod(Act, "onRestart", "void", {});
  ensureMethod(Act, "onDestroy", "void", {});
  ensureMethod(Act, "onBackPressed", "void", {});
  ensureMethod(Act, "finish", "void", {});

  ClassDecl *Dlg = ensureClass(P, Dialog, Object);
  ensureMethod(Dlg, "setContentView", "void", {{"layoutId", "int"}});
  ensureMethod(Dlg, "setContentView", "void", {{"view", View}});
  ensureMethod(Dlg, "findViewById", View, {{"id", "int"}});
  ensureMethod(Dlg, "show", "void", {});

  ClassDecl *Vw = ensureClass(P, View, Object);
  ensureMethod(Vw, "findViewById", View, {{"id", "int"}});
  ensureMethod(Vw, "setId", "void", {{"id", "int"}});
  ensureMethod(Vw, "findFocus", View, {});
  for (const ListenerSpec &Spec : Specs)
    if (Spec.Event == EventKind::Click || Spec.Event == EventKind::LongClick ||
        Spec.Event == EventKind::Touch || Spec.Event == EventKind::Key ||
        Spec.Event == EventKind::FocusChange)
      ensureMethod(Vw, Spec.RegisterMethod, "void",
                   {{"listener", Spec.InterfaceName}});

  ClassDecl *Vg = ensureClass(P, ViewGroup, View);
  ensureMethod(Vg, "addView", "void", {{"child", View}});
  ensureMethod(Vg, "getChildAt", View, {{"index", "int"}});

  ClassDecl *Inflater = ensureClass(P, LayoutInflater, Object);
  ensureMethod(Inflater, "inflate", View, {{"layoutId", "int"}});
  ensureMethod(Inflater, "inflate", View,
               {{"layoutId", "int"}, {"parent", ViewGroup}});

  ClassDecl *Int = ensureClass(P, Intent, Object);
  ensureMethod(Int, "setClass", "void",
               {{"ctx", Context}, {"cls", ClassClass}});

  // Fragments (extension; the paper lists them as unhandled): a Fragment
  // provides its GUI through the onCreateView callback; a transaction
  // attaches that view under the container with the given id.
  ClassDecl *Frag = ensureClass(P, Fragment, Object);
  ensureMethod(Frag, "onCreateView", View, {{"inflater", LayoutInflater}});
  ClassDecl *FragMgr = ensureClass(P, FragmentManager, Object);
  ensureMethod(FragMgr, "beginTransaction", FragmentTransaction, {});
  ClassDecl *FragTx = ensureClass(P, FragmentTransaction, Object);
  ensureMethod(FragTx, "add", "void",
               {{"containerId", "int"}, {"fragment", Fragment}});
  ensureMethod(FragTx, "replace", "void",
               {{"containerId", "int"}, {"fragment", Fragment}});
  ensureMethod(FragTx, "commit", "void", {});
  ensureMethod(Act, "getFragmentManager", FragmentManager, {});

  // Collections: views stored in lists are tracked field-based through an
  // artificial `elements` field on java.util.List (see GraphBuilder).
  ClassDecl *ListIface = ensureClass(P, List, "", /*IsInterface=*/true);
  ensureMethod(ListIface, "add", "void", {{"e", Object}});
  ensureMethod(ListIface, "get", Object, {{"index", "int"}});
  ensureMethod(ListIface, "remove", Object, {{"index", "int"}});
  ensureMethod(ListIface, "size", "int", {});
  if (!ListIface->findOwnField("elements"))
    ListIface->addField("elements", Object);
  for (const char *Impl :
       {"java.util.ArrayList", "java.util.LinkedList", "java.util.Vector"}) {
    ClassDecl *C = ensureClass(P, Impl, Object);
    if (C->interfaceNames().empty())
      C->addInterfaceName(List);
  }

  // Widget hierarchy (a representative subset of android.widget).
  ClassDecl *Text = ensureClass(P, "android.widget.TextView", View);
  ensureMethod(Text, "addTextChangedListener", "void",
               {{"watcher", "android.text.TextWatcher"}});
  ensureClass(P, "android.widget.EditText", "android.widget.TextView");
  ensureClass(P, "android.widget.Button", "android.widget.TextView");
  ClassDecl *Compound =
      ensureClass(P, "android.widget.CompoundButton", "android.widget.Button");
  ensureMethod(Compound, "setOnCheckedChangeListener", "void",
               {{"listener", "android.widget.CompoundButton.OnCheckedChangeListener"}});
  ensureClass(P, "android.widget.CheckBox", "android.widget.CompoundButton");
  ensureClass(P, "android.widget.RadioButton",
              "android.widget.CompoundButton");
  ensureClass(P, "android.widget.ToggleButton",
              "android.widget.CompoundButton");
  ensureClass(P, "android.widget.ImageView", View);
  ensureClass(P, "android.widget.ImageButton", "android.widget.ImageView");
  ClassDecl *Progress = ensureClass(P, "android.widget.ProgressBar", View);
  (void)Progress;
  ClassDecl *Seek =
      ensureClass(P, "android.widget.SeekBar", "android.widget.ProgressBar");
  ensureMethod(Seek, "setOnSeekBarChangeListener", "void",
               {{"listener", "android.widget.SeekBar.OnSeekBarChangeListener"}});

  ClassDecl *RadioGroup =
      ensureClass(P, "android.widget.RadioGroup", ViewGroup);
  ensureMethod(RadioGroup, "setOnCheckedChangeListener", "void",
               {{"listener",
                 "android.widget.RadioGroup.OnCheckedChangeListener"}});

  ensureClass(P, "android.widget.LinearLayout", ViewGroup);
  ensureClass(P, "android.widget.RelativeLayout", ViewGroup);
  ClassDecl *Frame = ensureClass(P, "android.widget.FrameLayout", ViewGroup);
  (void)Frame;
  ensureClass(P, "android.widget.TableLayout", "android.widget.LinearLayout");
  ensureClass(P, "android.widget.TableRow", "android.widget.LinearLayout");
  ensureClass(P, "android.widget.ScrollView", "android.widget.FrameLayout");
  ClassDecl *Animator =
      ensureClass(P, "android.widget.ViewAnimator", "android.widget.FrameLayout");
  ensureMethod(Animator, "getCurrentView", View, {});
  ensureClass(P, "android.widget.ViewFlipper", "android.widget.ViewAnimator");
  ensureClass(P, "android.widget.ViewSwitcher", "android.widget.ViewAnimator");

  // Adapters (extension): item views come from the adapter's getView
  // factory, invoked by the framework for each list row.
  ClassDecl *BaseAdapter = ensureClass(P, "android.widget.BaseAdapter", Object);
  ensureMethod(BaseAdapter, "getView", View, {{"inflater", LayoutInflater}});

  ClassDecl *Adapter = ensureClass(P, "android.widget.AdapterView", ViewGroup);
  ensureMethod(Adapter, "setAdapter", "void",
               {{"adapter", "android.widget.BaseAdapter"}});
  ensureMethod(Adapter, "setOnItemClickListener", "void",
               {{"listener", "android.widget.AdapterView.OnItemClickListener"}});
  ensureMethod(
      Adapter, "setOnItemSelectedListener", "void",
      {{"listener", "android.widget.AdapterView.OnItemSelectedListener"}});
  ensureClass(P, "android.widget.ListView", "android.widget.AdapterView");
  ensureClass(P, "android.widget.GridView", "android.widget.AdapterView");
  ensureClass(P, "android.widget.Spinner", "android.widget.AdapterView");
  ensureClass(P, "android.webkit.WebView", ViewGroup);

  // Listener interfaces with their handler signatures.
  for (const ListenerSpec &Spec : Specs) {
    ClassDecl *Iface =
        ensureClass(P, Spec.InterfaceName, "", /*IsInterface=*/true);
    for (const HandlerSig &Sig : Spec.Handlers) {
      std::vector<std::pair<std::string, std::string>> Params;
      for (unsigned I = 0; I < Sig.Arity; ++I) {
        std::string PName = "p";
        PName += std::to_string(I);
        Params.push_back(
            {std::move(PName),
             static_cast<int>(I) == Sig.ViewParamIndex ? View : Object});
      }
      ensureMethod(Iface, Sig.MethodName, "void", Params);
    }
  }
}

//===----------------------------------------------------------------------===//
// Binding and queries
//===----------------------------------------------------------------------===//

const ClassDecl *AndroidModel::anchor(const char *Name) const {
  assert(P && "AndroidModel::bind() must run first");
  return P->findClass(Name);
}

bool AndroidModel::bind(const Program &Prog, DiagnosticEngine &Diags) {
  buildSpecs();
  P = &Prog;
  if (!Prog.isResolved()) {
    Diags.error("AndroidModel::bind requires a resolved program");
    return false;
  }
  ActivityClass = anchor(names::Activity);
  DialogClass = anchor(names::Dialog);
  ViewClass = anchor(names::View);
  ViewGroupClass = anchor(names::ViewGroup);
  InflaterClass = anchor(names::LayoutInflater);
  ContextClass = anchor(names::Context);
  IntentClass = anchor(names::Intent);
  ListClass = anchor(names::List);
  FragmentTxClass = anchor(names::FragmentTransaction);
  bindSymbols();
  if (!ActivityClass || !ViewClass || !ViewGroupClass || !InflaterClass) {
    Diags.error("platform classes missing: call AndroidModel::install before "
                "building the application");
    return false;
  }
  return true;
}

bool AndroidModel::isActivityClass(const ClassDecl *C) const {
  return C && P->isSubtypeOf(C, ActivityClass);
}

bool AndroidModel::isWindowClass(const ClassDecl *C) const {
  if (!C)
    return false;
  return P->isSubtypeOf(C, ActivityClass) ||
         (DialogClass && P->isSubtypeOf(C, DialogClass));
}

bool AndroidModel::isViewClass(const ClassDecl *C) const {
  return C && P->isSubtypeOf(C, ViewClass);
}

bool AndroidModel::isViewGroupClass(const ClassDecl *C) const {
  return C && P->isSubtypeOf(C, ViewGroupClass);
}

bool AndroidModel::isListenerClass(const ClassDecl *C) const {
  return C && !listenerSpecsOf(C).empty();
}

std::vector<const ClassDecl *> AndroidModel::appActivityClasses() const {
  std::vector<const ClassDecl *> Result;
  for (const auto &C : P->classes())
    if (!C->isPlatform() && !C->isInterface() && isActivityClass(C))
      Result.push_back(C);
  return Result;
}

const ListenerSpec *
AndroidModel::findListenerSpec(const std::string &InterfaceName) const {
  auto It = SpecByInterface.find(InterfaceName);
  return It == SpecByInterface.end() ? nullptr : It->second;
}

void AndroidModel::bindSymbols() {
  // install() declares a platform method or parameter type with each of
  // these names. In a program built without install(), a name missing at
  // bind() time never matches.
  auto sym = [&](const char *Text) { return P->lookup(Text).symbol(); };
  Sym.SetContentView = sym("setContentView");
  Sym.Inflate = sym("inflate");
  Sym.FindViewById = sym("findViewById");
  Sym.AddView = sym("addView");
  Sym.SetId = sym("setId");
  Sym.FindFocus = sym("findFocus");
  Sym.GetCurrentView = sym("getCurrentView");
  Sym.GetChildAt = sym("getChildAt");
  Sym.SetAdapter = sym("setAdapter");
  Sym.Add = sym("add");
  Sym.Replace = sym("replace");
  Sym.StartActivity = sym("startActivity");
  Sym.SetClass = sym("setClass");
  Sym.Int = sym(IntTypeName);

  SpecIfaces.clear();
  for (const ListenerSpec &Spec : Specs)
    SpecIfaces.push_back(P->findClass(Spec.InterfaceName));

  // One entry per registration method, its specs in SpecByRegister's
  // equal_range order (the first is the fallback match).
  RegisterSpecs.clear();
  for (const ListenerSpec &Spec : Specs) {
    Symbol Register = sym(Spec.RegisterMethod.c_str());
    if (!Register.isValid() || findRegisterSpecs(Register))
      continue;
    RegisterSpecs.push_back({Register, {}});
    auto [Begin, End] = SpecByRegister.equal_range(Spec.RegisterMethod);
    for (auto It = Begin; It != End; ++It)
      RegisterSpecs.back().Specs.push_back(It->second);
  }
}

const std::vector<const ListenerSpec *> *
AndroidModel::findRegisterSpecs(Symbol Register) const {
  for (const RegisterEntry &E : RegisterSpecs)
    if (E.Method == Register)
      return &E.Specs;
  return nullptr;
}

const ClassDecl *AndroidModel::specInterface(const ListenerSpec &Spec) const {
  size_t I = static_cast<size_t>(&Spec - Specs.data());
  return I < SpecIfaces.size() ? SpecIfaces[I] : nullptr;
}

std::vector<const ListenerSpec *>
AndroidModel::listenerSpecsOf(const ClassDecl *C) const {
  std::vector<const ListenerSpec *> Result;
  for (const ListenerSpec &Spec : Specs) {
    const ClassDecl *Iface = specInterface(Spec);
    if (Iface && P->isSubtypeOf(C, Iface))
      Result.push_back(&Spec);
  }
  return Result;
}

bool AndroidModel::isLifecycleCallbackName(std::string_view Name) {
  static const std::array<const char *, 14> Known = {
      "onCreate",          "onStart",       "onResume",
      "onPause",           "onStop",        "onRestart",
      "onDestroy",         "onBackPressed", "onCreateOptionsMenu",
      "onOptionsItemSelected", "onActivityResult", "onNewIntent",
      "onSaveInstanceState", "onRestoreInstanceState"};
  for (const char *K : Known)
    if (Name == K)
      return true;
  // Conservative convention: the framework only ever calls into the
  // application through on* callbacks.
  return Name.size() > 2 && Name[0] == 'o' && Name[1] == 'n' &&
         std::isupper(static_cast<unsigned char>(Name[2]));
}

std::optional<OpSpec>
AndroidModel::classifyInvoke(const MethodDecl &Enclosing,
                             const Stmt &S) const {
  assert(S.Kind == StmtKind::Invoke && "not an invoke");
  const Variable &BaseVar = Enclosing.var(S.Base);
  const ClassDecl *Recv = BaseVar.TypeName.empty()
                              ? nullptr
                              : P->findClass(BaseVar.TypeName);
  if (!Recv)
    return std::nullopt;

  // Names compare as symbols of the bound program. A method name the
  // program never interned has the invalid symbol and matches nothing.
  auto is = [](Symbol A, Symbol Known) { return Known.isValid() && A == Known; };
  auto argIsInt = [&](unsigned I) {
    return is(P->symbolOf(Enclosing.var(S.args()[I]).TypeName), Sym.Int);
  };

  const Symbol Name = P->symbolOf(S.methodName());

  if (is(Name, Sym.SetContentView) && S.args().size() == 1 &&
      isWindowClass(Recv)) {
    OpSpec Spec;
    Spec.Kind = argIsInt(0) ? OpKind::Inflate2 : OpKind::AddView1;
    return Spec;
  }

  if (is(Name, Sym.Inflate) && InflaterClass &&
      P->isSubtypeOf(Recv, InflaterClass) &&
      (S.args().size() == 1 || S.args().size() == 2) && argIsInt(0)) {
    OpSpec Spec;
    Spec.Kind = OpKind::Inflate1;
    if (S.args().size() == 2)
      Spec.AttachParentArgIndex = 1;
    return Spec;
  }

  if (is(Name, Sym.FindViewById) && S.args().size() == 1 && argIsInt(0)) {
    if (isWindowClass(Recv)) {
      OpSpec Spec;
      Spec.Kind = OpKind::FindView2;
      return Spec;
    }
    if (isViewClass(Recv)) {
      OpSpec Spec;
      Spec.Kind = OpKind::FindView1;
      return Spec;
    }
  }

  if (is(Name, Sym.AddView) && S.args().size() == 1 && isViewGroupClass(Recv)) {
    OpSpec Spec;
    Spec.Kind = OpKind::AddView2;
    return Spec;
  }

  if (is(Name, Sym.SetId) && S.args().size() == 1 && argIsInt(0) &&
      isViewClass(Recv)) {
    OpSpec Spec;
    Spec.Kind = OpKind::SetId;
    return Spec;
  }

  const std::vector<const ListenerSpec *> *Registered =
      S.args().size() == 1 && Name.isValid() ? findRegisterSpecs(Name) : nullptr;
  if (Registered && isViewClass(Recv)) {
    const ListenerSpec *Match = nullptr;
    const ClassDecl *ArgType = P->findClass(Enclosing.var(S.args()[0]).TypeName);
    for (const ListenerSpec *Candidate : *Registered) {
      if (!Match)
        Match = Candidate; // fallback: first registered spec
      // Disambiguate same-named registrations (e.g. CompoundButton vs
      // RadioGroup setOnCheckedChangeListener) by the argument's declared
      // type.
      const ClassDecl *Iface = specInterface(*Candidate);
      if (ArgType && Iface && P->isSubtypeOf(ArgType, Iface)) {
        Match = Candidate;
        break;
      }
    }
    if (Match) {
      OpSpec Spec;
      Spec.Kind = OpKind::SetListener;
      Spec.Listener = Match;
      return Spec;
    }
  }

  if (is(Name, Sym.FindFocus) && S.args().empty() && isViewClass(Recv)) {
    OpSpec Spec;
    Spec.Kind = OpKind::FindView3;
    return Spec;
  }

  if ((is(Name, Sym.GetCurrentView) && S.args().empty()) ||
      (is(Name, Sym.GetChildAt) && S.args().size() == 1)) {
    if (isViewGroupClass(Recv)) {
      OpSpec Spec;
      Spec.Kind = OpKind::FindView3;
      Spec.ChildOnly = true;
      return Spec;
    }
  }

  if (is(Name, Sym.SetAdapter) && S.args().size() == 1 &&
      isViewGroupClass(Recv)) {
    OpSpec Spec;
    Spec.Kind = OpKind::SetAdapter;
    return Spec;
  }

  if ((is(Name, Sym.Add) || is(Name, Sym.Replace)) && S.args().size() == 2 &&
      argIsInt(0) && FragmentTxClass &&
      P->isSubtypeOf(Recv, FragmentTxClass)) {
    OpSpec Spec;
    Spec.Kind = OpKind::FragmentAdd;
    return Spec;
  }

  if (is(Name, Sym.StartActivity) && S.args().size() == 1 && ContextClass &&
      P->isSubtypeOf(Recv, ContextClass)) {
    OpSpec Spec;
    Spec.Kind = OpKind::StartActivity;
    return Spec;
  }

  if (is(Name, Sym.SetClass) && S.args().size() == 2 && IntentClass &&
      P->isSubtypeOf(Recv, IntentClass)) {
    OpSpec Spec;
    Spec.Kind = OpKind::SetIntentClass;
    return Spec;
  }

  return std::nullopt;
}

const FieldDecl *AndroidModel::listElementsField() const {
  return ListClass ? ListClass->findOwnField("elements") : nullptr;
}

const ClassDecl *
AndroidModel::resolveLayoutClassName(const std::string &Name) const {
  auto [It, Inserted] = LayoutClassCache.try_emplace(Name, nullptr);
  if (!Inserted)
    return It->second;
  if (const ClassDecl *C = P->findClass(Name)) {
    It->second = C;
    return C;
  }
  static const std::array<const char *, 3> Prefixes = {
      "android.widget.", "android.view.", "android.webkit."};
  for (const char *Prefix : Prefixes)
    if (const ClassDecl *C = P->findClass(std::string(Prefix) + Name)) {
      It->second = C;
      return C;
    }
  return nullptr;
}
