//===- GuiAnalysis.h - Analysis facade --------------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the GUI reference analysis: build the
/// constraint graph from an ALite program + layouts, run the fixed point,
/// and return the solution with timing statistics.
///
/// Typical use:
/// \code
///   ir::Program P;
///   android::AndroidModel AM;
///   AM.install(P);
///   ... parse or build application classes, read layouts ...
///   P.resolve(Diags);
///   AM.bind(P, Diags);
///   auto Result = analysis::GuiAnalysis::run(P, Layouts, AM, {}, Diags);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_GUIANALYSIS_H
#define GATOR_ANALYSIS_GUIANALYSIS_H

#include "analysis/Options.h"
#include "analysis/Provenance.h"
#include "analysis/Solution.h"
#include "analysis/Solver.h"
#include "android/AndroidModel.h"
#include "graph/ConstraintGraph.h"
#include "hier/ClassHierarchy.h"
#include "layout/Layout.h"

#include <functional>
#include <memory>
#include <optional>

namespace gator {
namespace analysis {

class GraphBuilder;

/// Everything one analysis run produces.
struct AnalysisResult {
  std::unique_ptr<graph::ConstraintGraph> Graph;
  std::unique_ptr<Solution> Sol;
  SolverStats Stats;
  double BuildSeconds = 0.0;
  double SolveSeconds = 0.0;
  AnalysisOptions Options;

  /// Fact derivations (docs/OBSERVABILITY.md); non-null only when the run
  /// was configured with RecordProvenance. Feeds `gator_cli --explain`.
  std::unique_ptr<ProvenanceRecorder> Provenance;

  /// The class hierarchy graph build resolved calls with, kept for the
  /// clients (their call graphs resolve through it), so one analysis
  /// builds one. A result assembled without one builds it on first use.
  const hier::ClassHierarchy &hierarchy() const;
  mutable std::optional<hier::ClassHierarchy> Hierarchy;

  /// Table 2 metrics under the options this run used.
  Solution::PrecisionMetrics metrics() const {
    return Sol->computeMetrics(Options);
  }
};

class GuiAnalysis {
public:
  /// Runs the full pipeline with the fused Solver. \p P must be resolved
  /// and \p AM bound to it. Fail-soft (docs/ROBUSTNESS.md): always returns
  /// a result; build errors or recoverable-invariant failures mark the
  /// solution DegradedInput and budget exhaustion marks it TruncatedBudget.
  static std::unique_ptr<AnalysisResult>
  run(const ir::Program &P, layout::LayoutRegistry &Layouts,
      const android::AndroidModel &AM, const AnalysisOptions &Options,
      DiagnosticEngine &Diags);

  /// Solves R's built graph into R.Sol (and R.Stats, where kept).
  using SolveStep = std::function<void(AnalysisResult &R)>;
  /// Configures R's graph builder before it runs.
  using BuildHook = std::function<void(GraphBuilder &, AnalysisResult &R)>;

  /// The one scaffold of every run (Section 4.3): GuiAnalysis::run, the
  /// phased oracle and the incremental session differ only in \p Solve.
  /// Builds the graph with GraphBuilder::build (build errors mark
  /// DegradedInput), runs \p Solve, then markFidelity.
  static std::unique_ptr<AnalysisResult>
  runWith(const ir::Program &P, layout::LayoutRegistry &Layouts,
          const android::AndroidModel &AM, const AnalysisOptions &Options,
          DiagnosticEngine &Diags, const SolveStep &Solve,
          const BuildHook &Prepare = nullptr);

  /// The post-solve fidelity rules (docs/ROBUSTNESS.md), applied after
  /// every solve and re-derive: a recoverable invariant failed since
  /// \p CheckFailuresBefore (facts may be missing) or an unknown source
  /// (facts approximate hostile input) marks R DegradedInput.
  static void markFidelity(AnalysisResult &R, const DiagnosticEngine &Diags,
                           unsigned CheckFailuresBefore);
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_GUIANALYSIS_H
