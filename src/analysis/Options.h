//===- Options.h - Analysis configuration -----------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Knobs for the GUI reference analysis. The defaults reproduce the paper's
/// configuration; the ablation benches flip individual knobs to measure
/// what each ingredient of the analysis buys.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_OPTIONS_H
#define GATOR_ANALYSIS_OPTIONS_H

#include "support/Budget.h"

namespace gator {
namespace support {
class TraceSink;
} // namespace support

namespace analysis {

struct AnalysisOptions {
  /// Track view ids and use them to resolve find-view operations. When
  /// off, FindView1/2 behave like FindView3 (any descendant matches) —
  /// ablation for the paper's id-tracking ingredient.
  bool TrackViewIds = true;

  /// Track the parent-child hierarchy. When off, find-view operations
  /// resolve to *every* view reaching the analysis — ablation showing why
  /// hierarchical structure must be modeled statically.
  bool TrackHierarchy = true;

  /// Apply the child-only refinement for FindView3 operations such as
  /// getCurrentView() (Section 4.2: "sometimes more restricted semantics
  /// applies ... employed by our implementation").
  bool FindView3ChildOnly = true;

  /// Model the implicit callback `y.n(x)` injected by a resolved
  /// set-listener call (Section 3.2, "Effects of callbacks").
  bool ModelListenerCallbacks = true;

  /// Model layout-declared handlers (`android:onClick="name"`): a clicked
  /// view with the attribute invokes the named one-argument method on the
  /// activity (or dialog) owning its hierarchy. A GATOR-tool feature on
  /// top of the paper's core analysis.
  bool ModelXmlOnClickHandlers = true;

  /// Declared-type filtering: drop a class-bearing value from a variable
  /// or field whose declared type is cast-incompatible with the value's
  /// class (neither is a subtype of the other). Downcasts in the source
  /// (`f := (ViewFlipper) e`) then act as filters, a refinement the GATOR
  /// tool family applies on top of the paper's analysis. Off by default
  /// (the paper's configuration).
  bool DeclaredTypeFilter = false;

  /// Resource budgets (docs/ROBUSTNESS.md): work items (the historical
  /// MaxWorkItems safety valve), wall-clock deadline, graph size caps.
  /// Exhaustion yields a consistent partial Solution marked
  /// TruncatedBudget rather than an aborted run.
  support::BudgetPolicy Budget;

  /// Span/event sink for this analysis (docs/OBSERVABILITY.md). Null (the
  /// default) disables tracing; every instrumentation hook is a single
  /// null check. The sink must outlive the analysis and is thread-confined
  /// — parallel drivers give each task its own sink.
  support::TraceSink *Trace = nullptr;

  /// Record the producing rule and premise facts of every committed
  /// flowsTo fact and relationship edge (docs/OBSERVABILITY.md), making
  /// `gator_cli --explain` able to print derivation trees. Off by default:
  /// recording costs one hash insert per committed fact. Only the fused
  /// Solver records; runPhasedAnalysis ignores it.
  bool RecordProvenance = false;

  /// Incomplete-information modeling (docs/ROBUSTNESS.md): reflective
  /// view construction, non-constant find/set ids, and missing layout
  /// resources become tagged UnknownView/UnknownId graph nodes with
  /// conservative flow rules instead of being dropped. Solutions touched
  /// by an unknown source are marked DegradedInput, and each unknown node
  /// carries the reason `--explain` prints. Clean inputs mint no unknown
  /// nodes, so results there are bit-identical with the knob on or off.
  bool ModelUnknownSources = true;

  /// Cap on how many views a single unknown-id find/inflate site may
  /// yield (the receiver's full view set is the sound answer; this bounds
  /// hostile inputs from blowing up the solve). 0 = uncapped.
  unsigned UnknownFanoutBudget = 64;
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_OPTIONS_H
