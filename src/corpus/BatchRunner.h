//===- BatchRunner.h - Parallel corpus-wide analysis ------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one corpus-wide driver behind the Table 1/Table 2 benches and the
/// determinism tests: generate and analyze every app of a spec list,
/// fanning whole-app tasks over the parallel execution layer
/// (docs/PARALLEL.md). Each task is thread-confined — its own AppBundle
/// (program, layouts, diagnostics) and its own BudgetTracker — so results
/// are independent of the job count; records come back in spec order
/// regardless of scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_CORPUS_BATCHRUNNER_H
#define GATOR_CORPUS_BATCHRUNNER_H

#include "analysis/AppStats.h"
#include "analysis/GuiAnalysis.h"
#include "corpus/Corpus.h"

#include <memory>
#include <vector>

namespace gator {
namespace corpus {

/// One ordered record of a corpus-wide run. The lightweight summaries
/// (Stats, Metrics, phase times) are always harvested inside the task;
/// the heavyweight artifacts (App bundle, full AnalysisResult) are kept
/// only when the caller asks for them — see analyzeCorpus().
struct BatchAppResult {
  size_t Index = 0;  ///< position in the input spec list
  std::string Name;
  GeneratedApp App;  ///< bundle + ground truth; empty if !KeepArtifacts
  /// Null if generation produced errors (the analysis itself is fail-soft
  /// and always yields a result) or if the run dropped artifacts.
  std::unique_ptr<analysis::AnalysisResult> Result;
  analysis::AppStats Stats; ///< collected unless GenerationFailed
  analysis::Solution::PrecisionMetrics Metrics; ///< Table 2 averages
  double BuildSeconds = 0.0; ///< graph-construction time of the analysis
  double SolveSeconds = 0.0; ///< fixed-point time of the analysis
  bool GenerationFailed = false;
};

/// Generates and analyzes every spec with Options.Jobs workers (0 =
/// hardware concurrency, 1 = exact serial). A positive
/// Options.Budget.MaxWallSeconds becomes a shared batch-wide deadline
/// (computed once before the fan-out) unless the caller already set
/// Budget.SharedDeadline; work-item and graph caps stay per-task.
/// Options.Trace is ignored: the tasks run untraced.
///
/// With \p KeepArtifacts false, each task releases its app bundle and
/// AnalysisResult as soon as Stats/Metrics are harvested, so at most one
/// app per worker is resident at a time — the same memory profile as a
/// destroy-per-iteration serial loop, and measurably faster for
/// stats-only consumers (see bench/history/BENCH_parallel.json). Callers
/// that read Result or App afterwards (solution JSON, differential tests)
/// need the default KeepArtifacts = true.
std::vector<BatchAppResult>
analyzeCorpus(const std::vector<AppSpec> &Specs,
              const analysis::AnalysisOptions &Options,
              bool KeepArtifacts = true);

} // namespace corpus
} // namespace gator

#endif // GATOR_CORPUS_BATCHRUNNER_H
