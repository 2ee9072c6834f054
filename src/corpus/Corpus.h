//===- Corpus.h - Synthetic 20-app evaluation corpus ------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generator of synthetic Android applications standing in
/// for the paper's 20-app corpus (DESIGN.md, substitution table). Each
/// generated app exercises every construct the analysis models — layout
/// inflation (setContentView and LayoutInflater.inflate), find-view by id,
/// programmatic view allocation with setId/addView, listener registration,
/// and view flow through helpers, fields, and callbacks — and carries
/// ground truth for its find-view resolutions and listener associations.
///
/// The paper's precision outlier mechanism is reproduced faithfully: XBMC's
/// imprecision stems from calling-context-insensitive flow through shared
/// helper methods (Section 5). The generator routes a configurable number
/// of lookups through a shared `lookup(int): View` helper on a base
/// activity class; the helper's return variable merges all callers'
/// results, inflating receiver/result sets at downstream operations while
/// the per-caller ground truth stays singleton.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_CORPUS_CORPUS_H
#define GATOR_CORPUS_CORPUS_H

#include "android/Ops.h"
#include "corpus/AppBundle.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace gator {
namespace corpus {

/// Generation parameters for one synthetic application.
struct AppSpec {
  std::string Name;
  uint32_t Seed = 1;

  /// Number of activity classes, each with its own main layout.
  unsigned Activities = 3;
  /// Plain (non-GUI) classes providing realistic program bulk.
  unsigned FillerClasses = 20;
  unsigned MethodsPerFillerClass = 4;

  /// Nodes per activity main layout (>= 3) and how many carry view ids.
  unsigned ViewsPerLayout = 10;
  unsigned IdsPerLayout = 6;

  /// Precise findViewById calls per activity (searching its own layout).
  unsigned DirectFindsPerActivity = 2;
  /// Lookups routed through the shared base-class helper (imprecision
  /// source); only the first SharedHelperUsers activities use the helper.
  unsigned SharedFindsPerActivity = 0;
  unsigned SharedHelperUsers = 0;

  /// Listener registrations per activity (each with its own listener
  /// class, registered on a found view).
  unsigned ListenersPerActivity = 1;
  /// Programmatic views per activity (new widget + setId + addView).
  unsigned ProgViewsPerActivity = 1;
  /// Item layouts inflated via LayoutInflater.inflate + addView.
  unsigned InflateItemsPerActivity = 0;

  // Hostile-input shapes (docs/ROBUSTNESS.md): sites no static analysis
  // can resolve exactly. Each mints a tagged unknown source, so any
  // nonzero knob makes the generated app analyze as DegradedInput.

  /// Views built reflectively (`classof(C).newInstance()`) and attached
  /// under the root container per activity.
  unsigned ReflectiveViewsPerActivity = 0;
  /// findViewById calls whose id comes from `getIdentifier(...)` — a
  /// run-time resource lookup the analysis models as an unknown id.
  unsigned DynamicFindsPerActivity = 0;
  /// setContentView references to layout resources that do not exist.
  unsigned MissingLayoutRefsPerActivity = 0;

  /// Register the activity itself as a click listener on one view.
  bool ActivityAsListener = false;
  /// Give every main layout a node with the app-wide shared id
  /// "common_title" and target it from the first direct find. Hierarchy
  /// tracking keeps such finds singleton; the no-hierarchy ablation makes
  /// them resolve across all activities (realistic id reuse).
  bool UseCommonIds = true;
  /// Declare an `android:onClick="onXmlTap"` handler on the common-title
  /// node of every main layout (requires UseCommonIds), handled by an
  /// activity method — the layout-declared handler mechanism.
  bool UseXmlOnClick = true;
  /// Give the app an info dialog (Dialog subclass with its own inflated
  /// layout, shown from every activity's onCreate) — exercises the dialog
  /// extension at corpus scale.
  bool UseDialog = false;
  /// Give the app a header fragment added into every activity's root
  /// container via FragmentTransaction.add — exercises the fragment
  /// extension at corpus scale.
  bool UseFragment = false;
  /// Add a ViewFlipper with two structurally identical pages to each main
  /// layout, navigated via getCurrentView() + findViewById — the
  /// ConnectBot pattern of Section 2. The page-content find legitimately
  /// resolves to both pages' views (ExpectedMatches = 2).
  bool UseFlipper = false;
  /// Emit startActivity transitions A[i] -> A[i+1] inside click handlers
  /// (exercises the activity-transition-graph client).
  bool EmitTransitions = true;

  bool operator==(const AppSpec &) const = default;
};

/// Ground truth for one find-view call site.
struct FindViewExpectation {
  std::string ClassName;  ///< class declaring the method
  std::string MethodName; ///< method containing the call
  std::string OutVar;     ///< variable receiving the result
  std::string ViewIdName; ///< the unique view the call returns at run time
  /// True when the call flows through the shared helper: the static
  /// solution is allowed (expected) to be a superset of the ground truth.
  bool ViaSharedHelper = false;
  /// Number of views the perfectly-precise solution contains (2 for the
  /// flipper page-content find, whose pages share a view id; 1 otherwise).
  unsigned ExpectedMatches = 1;
};

/// Ground truth for one listener registration.
struct ListenerExpectation {
  std::string ActivityClass;
  std::string ViewIdName;
  std::string ListenerClass;
  android::EventKind Event = android::EventKind::Click;
};

/// A generated app with its ground truth.
struct GeneratedApp {
  AppSpec Spec;
  std::unique_ptr<AppBundle> Bundle;
  std::vector<FindViewExpectation> Finds;
  std::vector<ListenerExpectation> Listeners;
};

/// Generates one application from \p Spec. The result is finalized (ready
/// to analyze); generation is deterministic in Spec (including Seed).
GeneratedApp generateApp(const AppSpec &Spec);

/// The 20 specs standing in for Table 1's corpus, in the paper's order
/// (APV ... XBMC). Class/method counts approximate the published Table 1
/// values; shared-helper knobs are tuned so the receiver-precision column
/// reproduces the shape of Table 2 (mostly < 2, XBMC an outlier near 9).
const std::vector<AppSpec> &paperCorpus();

/// Shape distribution for a synthetic fleet at 10k+-app scale. The fleet
/// mixes four app shapes so both scheduler-bound (many tiny apps) and
/// memory-bound (deep trees, wide fan-out, heavy aliasing) regimes are
/// exercised in one batch:
///  - deep: deep/wide view trees with inflated item layouts (big graphs,
///    big flow sets — the memory-bound solve);
///  - wide: wide listener fan-out (many listener classes and
///    registrations per activity);
///  - aliased: shared-helper lookups from every activity (the XBMC-style
///    context-insensitive merge, fattening receiver sets);
///  - the remainder: small baseline apps (the scheduler stress case).
/// Percentages are of the whole fleet; they must sum to <= 100.
struct FleetSpec {
  unsigned Apps = 10000;
  uint64_t Seed = 42;
  std::string NamePrefix = "Fleet";
  unsigned DeepTreePercent = 15;
  unsigned WideListenerPercent = 15;
  unsigned SharedHelperPercent = 15;

  /// Hostile-shape rates (docs/ROBUSTNESS.md), drawn independently of the
  /// shape bucket: the percentage of apps carrying reflective view
  /// construction, dynamic (getIdentifier) find ids, and missing-layout
  /// references respectively. Apps that draw a hostile shape analyze as
  /// DegradedInput. The rolls come from a dedicated per-app stream, drawn
  /// unconditionally: the knobs never perturb the shape stream or each
  /// other, and a clean fleet (all rates 0) is byte-identical to earlier
  /// releases.
  unsigned ReflectivePercent = 0;
  unsigned DynamicIdPercent = 0;
  unsigned MissingLayoutPercent = 0;
};

/// Expands a FleetSpec into per-app generation specs. Every app's knobs
/// are drawn from its own SplitMix64 stream keyed by (Fleet.Seed, index),
/// so the spec at index i is a pure function of (Fleet, i): generation is
/// deterministic and order-independent, and a parallel batch produces the
/// same fleet at every -j value (docs/PARALLEL.md determinism contract).
std::vector<AppSpec> makeFleet(const FleetSpec &Fleet);

/// Writes \p App, generated from \p Spec, as an app directory that
/// gator_cli analyzes: \p AppDir/app.alite (the printed program), one
/// `<name>.xml` per layout, and an AndroidManifest.xml declaring every
/// activity with Activity0 as the launcher. Creates \p AppDir. Returns
/// false, with an error naming the path on \p Err, when the directory or
/// any of these files cannot be opened or written.
bool writeAppDir(const AppSpec &Spec, const AppBundle &App,
                 const std::filesystem::path &AppDir, std::ostream &Err);

} // namespace corpus
} // namespace gator

#endif // GATOR_CORPUS_CORPUS_H
