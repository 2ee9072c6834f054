//===- Ops.h - Android operation kinds --------------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The categories of Android operations whose semantics Section 3.2 of the
/// paper defines. Each occurrence of such an operation in application code
/// becomes one operation node in the constraint graph (Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANDROID_OPS_H
#define GATOR_ANDROID_OPS_H

#include <cstddef>
#include <cstdint>

namespace gator {
namespace android {

/// Operation-node kinds, named after the paper's semantic rules.
enum class OpKind : uint8_t {
  /// Rule INFLATE1: `x := inflater.inflate(layoutId)` — inflate a layout,
  /// return the root view.
  Inflate1,
  /// Rule INFLATE2: `activity.setContentView(layoutId)` — inflate a layout
  /// and associate its root with the activity (or dialog).
  Inflate2,
  /// Rule ADDVIEW1: `activity.setContentView(view)` — associate an
  /// existing view with the activity as its hierarchy root.
  AddView1,
  /// Rule ADDVIEW2: `parent.addView(child)` — make one view a child of
  /// another.
  AddView2,
  /// Rule SETID: `view.setId(intId)`.
  SetId,
  /// Rule SETLISTENER: `view.setOnXListener(listener)`.
  SetListener,
  /// Rule FINDVIEW1: `z := view.findViewById(intId)` — search the
  /// hierarchy rooted at the receiver view.
  FindView1,
  /// Rule FINDVIEW2: `z := activity.findViewById(intId)` — search the
  /// activity's whole hierarchy.
  FindView2,
  /// Rule FINDVIEW3: `z := view.m()` for operations retrieving some
  /// descendant with a run-time property (e.g. findFocus(),
  /// getCurrentView()). A child-only refinement restricts the result to
  /// direct children (the paper mentions this refinement for
  /// getCurrentView()).
  FindView3,
  /// Extension (the paper lists fragments as unhandled future work):
  /// `transaction.add(containerId, fragment)` / `.replace(...)` — the
  /// fragment's onCreateView result becomes a child of the container view
  /// with the given id.
  FragmentAdd,
  /// Extension (GATOR-family list modeling): `listView.setAdapter(a)` —
  /// the views returned by the adapter's getView factory become children
  /// of the AdapterView.
  SetAdapter,
  /// Client extension (Section 6): `ctx.startActivity(intent)` — used by
  /// the activity-transition-graph client, not by the core analysis.
  StartActivity,
  /// Client extension: `intent.setClass(ctx, classConst)`.
  SetIntentClass,
};

/// Number of OpKind enumerators; sizes per-kind stat arrays.
inline constexpr size_t NumOpKinds =
    static_cast<size_t>(OpKind::SetIntentClass) + 1;

/// Printable rule name ("Inflate1", "FindView2", ...).
const char *opKindName(OpKind Kind);

/// GUI event categories for listener registration.
enum class EventKind {
  Click,
  LongClick,
  Touch,
  Key,
  FocusChange,
  ItemClick,
  ItemSelected,
  SeekBarChange,
  CheckedChange,
  TextChange,
};

/// Printable event name ("click", "long-click", ...).
const char *eventKindName(EventKind Kind);

} // namespace android
} // namespace gator

#endif // GATOR_ANDROID_OPS_H
