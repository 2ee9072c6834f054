//===- AndroidModel.h - Android platform model ------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative model of the Android platform. Following Section 3.1 of
/// the paper, platform method *bodies* are never analyzed; instead this
/// model (1) installs bodiless platform class declarations into the
/// Program, (2) classifies application call sites into the operation kinds
/// of Section 3.2 (Ops.h), (3) registers the listener interfaces and the
/// signatures of their event-handler callbacks, and (4) names the activity
/// lifecycle callbacks invoked implicitly by the framework.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANDROID_ANDROIDMODEL_H
#define GATOR_ANDROID_ANDROIDMODEL_H

#include "android/Ops.h"
#include "ir/Ir.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gator {
namespace android {

/// Well-known platform class names.
namespace names {
inline constexpr const char *Object = "java.lang.Object";
inline constexpr const char *ClassClass = "java.lang.Class";
inline constexpr const char *Context = "android.content.Context";
inline constexpr const char *Intent = "android.content.Intent";
inline constexpr const char *Activity = "android.app.Activity";
inline constexpr const char *Dialog = "android.app.Dialog";
inline constexpr const char *View = "android.view.View";
inline constexpr const char *ViewGroup = "android.view.ViewGroup";
inline constexpr const char *LayoutInflater = "android.view.LayoutInflater";
inline constexpr const char *List = "java.util.List";
inline constexpr const char *Fragment = "android.app.Fragment";
inline constexpr const char *FragmentManager = "android.app.FragmentManager";
inline constexpr const char *FragmentTransaction =
    "android.app.FragmentTransaction";
} // namespace names

/// One event-handler callback declared by a listener interface.
struct HandlerSig {
  std::string MethodName; ///< e.g. "onClick"
  unsigned Arity;         ///< parameter count
  /// Index of the parameter that receives the view the event fired on, or
  /// -1 when the callback has no view parameter.
  int ViewParamIndex;
};

/// One listener interface and how it is registered.
struct ListenerSpec {
  std::string InterfaceName;    ///< e.g. "android.view.View.OnClickListener"
  std::string RegisterMethod;   ///< e.g. "setOnClickListener"
  EventKind Event;
  std::vector<HandlerSig> Handlers;
};

/// The classification of one call site.
struct OpSpec {
  OpKind Kind;
  /// For SetListener: which listener registration this is.
  const ListenerSpec *Listener = nullptr;
  /// For FindView3: restrict results to direct children (e.g.
  /// getCurrentView(), getChildAt()) instead of all descendants.
  bool ChildOnly = false;
  /// For Inflate1 with the two-argument inflate(id, parent) variant: the
  /// argument index of the parent ViewGroup the inflated root attaches to
  /// (-1 when absent).
  int AttachParentArgIndex = -1;
};

/// Installs and queries the platform model.
class AndroidModel {
public:
  /// Installs all platform classes (hierarchy anchors, widgets, listener
  /// interfaces, inflater, intent) into \p P. Call before parsing/building
  /// application classes so app code can extend them. Idempotent per
  /// Program: classes already present are left untouched.
  void install(ir::Program &P);

  /// Binds the model to a resolved Program; caches anchor ClassDecls.
  /// Returns false (and reports) if the platform classes are missing.
  bool bind(const ir::Program &P, DiagnosticEngine &Diags);

  const ir::Program &program() const { return *P; }

  // Class category queries (Section 3.1). All require bind().

  /// True for application classes that are (transitive) subclasses of
  /// android.app.Activity.
  bool isActivityClass(const ir::ClassDecl *C) const;
  /// Activity or Dialog: classes whose instances own a view hierarchy root.
  bool isWindowClass(const ir::ClassDecl *C) const;
  /// True for subclasses of android.view.View (including platform widgets).
  bool isViewClass(const ir::ClassDecl *C) const;
  bool isViewGroupClass(const ir::ClassDecl *C) const;
  /// True for classes implementing at least one registered listener
  /// interface. The paper's Section 4.1 notes any object can be a listener
  /// (even activities and views); this query is purely structural.
  bool isListenerClass(const ir::ClassDecl *C) const;

  /// All application (non-platform) activity classes.
  std::vector<const ir::ClassDecl *> appActivityClasses() const;

  /// Classifies an Invoke statement inside \p Enclosing. Returns nullopt
  /// for ordinary (non-Android-operation) calls.
  std::optional<OpSpec> classifyInvoke(const ir::MethodDecl &Enclosing,
                                       const ir::Stmt &S) const;

  /// True if \p MethodName is an Android lifecycle / framework callback
  /// invoked implicitly on activities (Section 3.2, "Effects of
  /// callbacks"). The model uses the documented lifecycle list plus the
  /// conservative "on*" prefix convention.
  static bool isLifecycleCallbackName(std::string_view MethodName);

  /// Calls \p Visit with, for each lifecycle callback name/arity, the
  /// method a framework call on an instance of \p C dispatches to: the
  /// first concrete instance method found walking up from \p C through
  /// application classes.
  template <typename Fn>
  static void forEachLifecycleCallback(const ir::ClassDecl *C, Fn Visit) {
    std::vector<uint64_t> Seen; // packSymbolKey(name, arity); a few entries
    for (; C && !C->isPlatform(); C = C->superClass())
      for (const ir::MethodDecl *M : C->methods()) {
        if (M->isAbstract() || M->isStatic() ||
            !isLifecycleCallbackName(M->name()))
          continue;
        uint64_t Sig = support::packSymbolKey(M->name().symbol().rawIndex(),
                                              M->paramCount());
        if (std::find(Seen.begin(), Seen.end(), Sig) != Seen.end())
          continue; // overridden below; the dispatch target came first
        Seen.push_back(Sig);
        Visit(M);
      }
  }

  /// The listener specs known to the model.
  const std::vector<ListenerSpec> &listenerSpecs() const { return Specs; }

  /// The spec for a listener interface name, or null.
  const ListenerSpec *findListenerSpec(const std::string &InterfaceName) const;

  /// All listener interfaces implemented by \p C (walking supertypes).
  std::vector<const ListenerSpec *>
  listenerSpecsOf(const ir::ClassDecl *C) const;

  /// Resolves a view class name as spelled in a layout file: tries the
  /// exact name, then android.widget.X / android.view.X / android.webkit.X.
  const ir::ClassDecl *resolveLayoutClassName(const std::string &Name) const;

  /// The java.util.List platform interface, whose `add`/`get` calls the
  /// analysis models field-based through the artificial `elements` field
  /// (views stored in collections remain trackable).
  const ir::ClassDecl *listClass() const { return ListClass; }
  /// The artificial List.elements field, or null.
  const ir::FieldDecl *listElementsField() const;

private:
  void buildSpecs();
  const ir::ClassDecl *anchor(const char *Name) const;
  /// Looks up, once per bind(), the symbols classifyInvoke() compares
  /// method and type names against, and each spec's interface class.
  void bindSymbols();
  /// The specs registered through the method named \p Register, or null.
  const std::vector<const ListenerSpec *> *
  findRegisterSpecs(Symbol Register) const;
  /// The bound program's class for \p Spec's interface, or null.
  const ir::ClassDecl *specInterface(const ListenerSpec &Spec) const;

  const ir::Program *P = nullptr;
  std::vector<ListenerSpec> Specs;
  std::unordered_multimap<std::string, const ListenerSpec *> SpecByRegister;
  std::unordered_map<std::string, const ListenerSpec *> SpecByInterface;

  /// resolveLayoutClassName memo, keyed by the spelled name. The model is
  /// bound to one resolved program, so entries never go stale; misses are
  /// cached too (as null) to spare the repeated prefix probing.
  mutable std::unordered_map<std::string, const ir::ClassDecl *>
      LayoutClassCache;

  const ir::ClassDecl *ActivityClass = nullptr;
  const ir::ClassDecl *DialogClass = nullptr;
  const ir::ClassDecl *ViewClass = nullptr;
  const ir::ClassDecl *ViewGroupClass = nullptr;
  const ir::ClassDecl *InflaterClass = nullptr;
  const ir::ClassDecl *ContextClass = nullptr;
  const ir::ClassDecl *IntentClass = nullptr;
  const ir::ClassDecl *ListClass = nullptr;
  const ir::ClassDecl *FragmentTxClass = nullptr;

  /// Bound-program symbols of the names classifyInvoke() matches; invalid
  /// when the program never interned the name.
  struct {
    Symbol SetContentView, Inflate, FindViewById, AddView, SetId, FindFocus,
        GetCurrentView, GetChildAt, SetAdapter, Add, Replace, StartActivity,
        SetClass, Int;
  } Sym;
  struct RegisterEntry {
    Symbol Method;
    std::vector<const ListenerSpec *> Specs;
  };
  std::vector<RegisterEntry> RegisterSpecs;
  /// Interface class per entry of Specs (same index), for the bound program.
  std::vector<const ir::ClassDecl *> SpecIfaces;
};

} // namespace android
} // namespace gator

#endif // GATOR_ANDROID_ANDROIDMODEL_H
