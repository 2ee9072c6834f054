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

#include <memory>
#include <optional>

namespace gator {
namespace analysis {

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
    return Sol->computeMetrics(Options.TrackViewIds, Options.TrackHierarchy,
                               Options.FindView3ChildOnly,
                               Options.UnknownFanoutBudget);
  }
};

class GuiAnalysis {
public:
  /// Runs the full pipeline. \p P must be resolved and \p AM bound to it.
  /// Fail-soft (docs/ROBUSTNESS.md): always returns a result; build errors
  /// or recoverable-invariant failures mark the solution DegradedInput and
  /// budget exhaustion marks it TruncatedBudget.
  static std::unique_ptr<AnalysisResult>
  run(const ir::Program &P, layout::LayoutRegistry &Layouts,
      const android::AndroidModel &AM, const AnalysisOptions &Options,
      DiagnosticEngine &Diags);
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_GUIANALYSIS_H
