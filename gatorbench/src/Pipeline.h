//===- Pipeline.h - gator_cli's default run, in process, by layer -*- C++ -*-===//
//
// The traced run of the on-disk workloads analyzes each app directory in
// process, calling the same public functions gator_cli calls, one span per
// layer: read, lex, parse, XML, manifest, finalize, graph build, solve,
// stats, clients, teardown. The rendered text equals gator_cli's standard
// output under --no-times, which the benchmark checks.
//
// The same file holds the correctness gate every workload uses: the
// generator's ground truth, the PhasedSolver and closure oracles, and the
// exit-code contract.
//
//===----------------------------------------------------------------------===//

#ifndef GATORBENCH_PIPELINE_H
#define GATORBENCH_PIPELINE_H

#include "Layers.h"

#include "analysis/GuiAnalysis.h"
#include "analysis/SolutionCache.h"
#include "android/Manifest.h"
#include "corpus/AppBundle.h"
#include "corpus/Corpus.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gatorbench {

/// One app directory loaded through the frontends.
struct LoadedApp {
  std::unique_ptr<gator::corpus::AppBundle> Bundle;
  std::optional<gator::android::Manifest> Manifest;
  bool Ok = true;        ///< every frontend call succeeded
  bool Finalized = false;
  uint64_t InputBytes = 0;
};

/// Reads and parses every input file of \p Dir in the CLI's sorted
/// census order, then finalizes. Returns false when the directory has no
/// readable sources (gator_cli exits 1 there).
bool loadAppDir(const std::string &Dir, LoadedApp &App, Tracer *T);

/// The analysis as GuiAnalysis::run performs it, with the class hierarchy
/// plus graph build and the solve under separate spans.
std::unique_ptr<gator::analysis::AnalysisResult>
analyzeBundle(gator::corpus::AppBundle &App,
              const gator::analysis::AnalysisOptions &Options, Tracer *T);

/// gator_cli's default clients under --no-times: the counts line, graph
/// stats, the precision line, fidelity, the manifest line and the launcher
/// event sequences. Returns the CLI's exit code (0 clean, 1 degraded).
int renderDefaultOutput(
    const gator::corpus::AppBundle &App,
    const gator::analysis::AnalysisResult &Result,
    const gator::android::Manifest *Manifest, bool HadInputErrors,
    const gator::analysis::Solution::PrecisionMetrics &Precision,
    std::string &Out);

/// One whole gator_cli-equivalent run of \p Dir: load, analyze, stats,
/// clients, teardown. When \p Capture is non-null it is filled as the
/// CLI's cache wrapper would fill it before a store. The caller opens the
/// operation's span.
struct DirRun {
  int ExitCode = 2;
  std::string Out;
  double AvgReceivers = 0;
};
DirRun runAppDir(const std::string &Dir, Tracer *T,
                 gator::analysis::CachedAnalysis *Capture = nullptr);

/// Checks a solution against the generator's ground truth: every expected
/// find-view result and listener association must be present (sound);
/// for clean apps, direct finds must also be exactly as precise as the
/// expectation. Appends one line per violation to \p Failures.
void checkGroundTruth(const gator::corpus::GeneratedApp &Truth,
                      gator::corpus::AppBundle &App,
                      gator::analysis::AnalysisResult &Result, bool SoundOnly,
                      std::vector<std::string> &Failures);

/// The independent oracles: PhasedSolver reaches the same fixed point
/// (solutionDigest), and the solution honors its closure contract.
void checkOracles(gator::corpus::AppBundle &App,
                  const gator::analysis::AnalysisResult &Result,
                  std::vector<std::string> &Failures);

/// The exit code gator_cli gives an analyzed app: 1 when the solution is
/// not Complete or the input had errors, else 0.
int cliExitCode(const gator::analysis::AnalysisResult &Result,
                bool HadInputErrors);

/// Source bytes of a generated app as exported (ALite plus layouts).
uint64_t sourceBytes(const gator::corpus::GeneratedApp &App);

} // namespace gatorbench

#endif // GATORBENCH_PIPELINE_H
