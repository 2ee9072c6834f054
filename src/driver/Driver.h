//===- Driver.h - One app pipeline from directory to output -----*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gator_cli's app pipeline after support::loadAppDir: parse (loadApp),
/// analyze and render (runApp), cache (runAppDir), fan a batch out
/// (runBatch), and replay an edit incrementally (runIncrementalEdit).
/// Each writes only to the streams and records it is given; the caller
/// folds results in input order (docs/PARALLEL.md). Exit codes: 0 =
/// complete, 1 = degraded (input diagnostics or a solution whose fidelity
/// is not Complete), 2 = internal error.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_DRIVER_DRIVER_H
#define GATOR_DRIVER_DRIVER_H

#include "analysis/AppStats.h"
#include "analysis/Options.h"
#include "android/Manifest.h"
#include "corpus/AppBundle.h"
#include "support/FileIO.h"

#include <filesystem>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace gator {
namespace analysis {
class SolutionCache;
} // namespace analysis

namespace driver {

/// What one run computes and prints: the gator_cli flags.
struct RunConfig {
  std::string DotFile;
  bool WantTuples = false, WantHierarchy = false, WantAtg = false;
  bool WantSolution = false;
  bool WantReach = false;
  std::string SequencesFrom;
  std::string JsonFile;
  bool WantLint = false;
  bool Batch = false;
  /// Suppresses the wall-clock "time:" line — the one output line that
  /// differs between any two runs — and the Seconds-unit instruments of
  /// the metrics export. With it, batch output is literally
  /// byte-identical across runs and across every -j value; the
  /// determinism harness compares with this on.
  bool NoTimes = false;
  std::string TraceFile;   ///< --trace-out: Chrome trace-event JSON
  std::string MetricsFile; ///< --metrics-out
  bool MetricsProm = false; ///< --metrics-format prom
  std::string ExplainQuery; ///< --explain: node-label substring
  bool DiagJson = false;    ///< --diag-format json
  std::string CacheDir; ///< --cache-dir: content-addressed solution cache
  std::string EditDir;  ///< --incremental-edit: edited copy of the app
  std::string LedgerFile; ///< --ledger-out: JSONL run ledger
  analysis::AnalysisOptions Options;
};

/// What loadApp made of an app's inputs.
enum class LoadStatus : uint8_t {
  Clean,       ///< finalized with no error diagnostic
  InputErrors, ///< finalized, but some input had errors
  Failed,      ///< nothing to analyze; the reason was printed
};

/// Parses loaded \p Inputs into \p App in load order and finalizes it,
/// freeing each file's bytes once parsed so the app's text is not held
/// through the analysis. A directory that cannot be listed, has no
/// sources, or has an unreadable file fails the load with an error on
/// \p Err. AndroidManifest.xml is parsed into \p Manifest when that is
/// non-null, else skipped. The parse is one "parse" span in \p Trace (may
/// be null). Diagnostics go to \p Err, as one JSON document if \p DiagJson.
LoadStatus loadApp(support::AppInputs &Inputs, corpus::AppBundle &App,
                   std::optional<android::Manifest> *Manifest, bool DiagJson,
                   support::TraceSink *Trace, std::ostream &Err);

/// Analyzes one app from its loaded inputs: loadApp, GuiAnalysis::run,
/// the record, and the output \p Out and \p Err receive. Fail-soft: input
/// diagnostics do not abort the run, whose solution carries a fidelity
/// marker. An escaping exception is an internal error (2) named on \p Err.
/// A non-null \p Record gets the completed analysis's AppStats (named
/// Record->Stats.Name), precision row and flowset histogram.
int runApp(support::AppInputs &Inputs, const RunConfig &Cfg,
           analysis::CachedAnalysis *Record, std::ostream &Out,
           std::ostream &Err);

/// One app's result: what a cold run produces and a cache hit reads back
/// (Run.Stats is filled only when the run collects a record), plus the
/// app's ledger identity.
struct AppResult {
  analysis::CachedAnalysis Run;
  std::string ContentKey; ///< empty unless a cache or the ledger keyed it
  const char *Cache = "off"; ///< the ledger's cache value
};

/// Loads the app directory \p InputDir once and runs runApp behind the
/// solution cache: a hit reads the cold run's result back without parsing
/// or solving; a miss runs cold and stores it; a corrupt entry degrades
/// to a cold run with a stderr warning. An incomplete load (an unreadable
/// file) bypasses the cache. The record is collected for a cache, the
/// ledger or the metrics export (Cfg.LedgerFile, Cfg.MetricsFile); no
/// file is written here.
AppResult runAppDir(const std::string &InputDir, const RunConfig &Cfg,
                    analysis::SolutionCache *Cache);

/// Runs runAppDir over \p Dirs on \p Jobs worker threads (0 = hardware
/// concurrency) and returns the results in input order, identical for
/// every job count. Budget.MaxWallSeconds becomes one deadline for the
/// whole batch, unless Budget.SharedDeadline is already set; other caps
/// stay per app. With Cfg.Options.Trace set, each task traces into its
/// own sink under an "analyze-app" span, appended to it in input order
/// (tid = 1 + app ordinal).
std::vector<AppResult> runBatch(const std::vector<std::filesystem::path> &Dirs,
                                const RunConfig &Cfg, unsigned Jobs,
                                analysis::SolutionCache *Cache);

/// --incremental-edit: solve \p BaseDir, apply the method and layout
/// edits of its copy \p EditDir through the DRed session
/// (docs/INCREMENTAL.md), and compare with a from-scratch solve (0 =
/// match). Both apps must load cleanly (else 2). Unsupported edit shapes
/// fall back to runApp on the edited app, which fills \p Record.
int runIncrementalEdit(const std::string &BaseDir, const std::string &EditDir,
                       const RunConfig &Cfg, analysis::CachedAnalysis *Record,
                       std::ostream &Out, std::ostream &Err);

} // namespace driver
} // namespace gator

#endif // GATOR_DRIVER_DRIVER_H
