//===- gator_cli.cpp - Command-line analysis driver -------------*- C++ -*-===//
//
// A real tool over the library: analyze an application given as files on
// disk. Every `*.alite` file in the input directory is parsed as ALite
// source; every `*.dexlite` file as DexLite bytecode; every `*.xml` file
// is registered as a layout under its base name (so `res/act_console.xml`
// defines `@layout/act_console`).
//
// Usage:
//   gator_cli <dir> [--dot <file>] [--tuples] [--hierarchy] [--atg]
//             [--solution] [--sequences <ActivityClass>] [--reach]
//             [--json <file>] [--lint] [--batch] [-j <n>]
//             [--max-seconds <s>] [--max-work <n>]
//             [--max-nodes <n>] [--max-edges <n>]
//             [--trace-out <file>] [--metrics-out <file>]
//             [--metrics-format json|prom] [--ledger-out <file>]
//             [--explain <substr>] [--diag-format text|json] [--help]
//   gator_cli report <ledger> [--report-format json|text]
//   gator_cli report --diff <old> <new> [--threshold <pct>]
//             [--report-format json|text]
//
// Value flags accept both `--flag value` and `--flag=value`.
//
// Prints Table 2-style precision metrics by default; the flags add the
// Section 6 client outputs. `--batch` treats every immediate subdirectory
// of <dir> as one app and analyzes each in crash isolation; `-j N` runs
// the batch on N worker threads (0 = hardware concurrency; default 1, or
// the GATOR_JOBS environment variable). Output is byte-identical for
// every job count: each app's output is captured and merged in input
// order (docs/PARALLEL.md). The --max-* flags set resource budgets
// (docs/ROBUSTNESS.md); a tripped budget yields a partial solution marked
// truncated, not a failure. In batch mode --max-seconds is a deadline
// shared by the whole batch, while --max-work/--max-nodes/--max-edges
// stay per-app.
//
// Observability (docs/OBSERVABILITY.md): `--trace-out` writes a Chrome
// trace-event JSON of the run's phase spans (Perfetto-loadable);
// `--metrics-out` writes the metrics registry as JSON or, with
// `--metrics-format prom`, Prometheus text; `--ledger-out` appends one
// wide-event record per analyzed app to a JSONL run ledger that the
// `report` subcommand aggregates and diffs; `--explain <substr>` records
// fact provenance during the solve and prints the derivation tree of
// every flow fact at nodes whose label contains <substr> (single-app
// mode only). `--no-times` also suppresses wall-clock instruments from
// the metrics export. Each app yields one result (its exit code, output
// text and, when a cache, ledger or metrics flag asks for it, its
// AppStats record); a batch task also records into its own trace sink.
// main() folds the results in input order into stdout/stderr, the
// ledger and the metrics registry, so telemetry is deterministic across
// every -j value (timestamps aside).
//
// The per-app pipeline (load, analyze, render, cache, batch fan-out and
// the incremental edit) lives in src/driver/; this file parses arguments,
// renders `report`, and folds the results into the process's outputs.
//
// Exit codes: 0 = complete run, 1 = degraded run (input diagnostics, or a
// solution whose fidelity is not Complete — unknown-source degradation and
// budget truncation both count; docs/ROBUSTNESS.md), 2 = internal error
// (and usage errors). In batch mode the exit code is the maximum over the
// per-app codes, so "some apps degraded" (1) is distinguishable from "all
// complete" (0) at every -j value.
//
//===----------------------------------------------------------------------===//

#include "analysis/SolutionCache.h"
#include "analysis/WideEvent.h"
#include "corpus/FleetReport.h"
#include "driver/Driver.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace gator;
namespace fs = std::filesystem;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: gator_cli <dir> [--dot <file>] [--tuples] "
        "[--hierarchy] [--atg] [--solution] "
        "[--sequences <ActivityClass>] [--reach] [--json <file>] "
        "[--lint] [--batch] [-j <n>] "
        "[--max-seconds <s>] [--max-work <n>] "
        "[--max-nodes <n>] [--max-edges <n>] [--trace-out <file>] "
        "[--metrics-out <file>] [--metrics-format json|prom] "
        "[--ledger-out <file>] "
        "[--explain <substr>] [--diag-format text|json] "
        "[--no-unknown-sources] [--unknown-fanout <n>] "
        "[--cache-dir <dir>] [--incremental-edit <dir2>] [--help]\n"
        "       gator_cli report <ledger> [--report-format json|text]\n"
        "       gator_cli report --diff <old> <new> [--threshold <pct>] "
        "[--report-format json|text]\n"
        "  --batch        analyze every immediate subdirectory of <dir> "
        "as one app\n"
        "  -j, --jobs <n> batch worker threads; 0 = hardware concurrency "
        "(default: 1,\n"
        "                 or $GATOR_JOBS); output is byte-identical for "
        "every value\n"
        "  --max-seconds  wall-clock budget; in batch mode one deadline "
        "shared by the\n"
        "                 whole batch (per-app caps below stay per-app)\n"
        "  --no-times     omit the wall-clock time line and the "
        "wall-clock metrics\n"
        "                 (for byte-exact comparison; see the determinism "
        "harness)\n"
        "  --trace-out    write Chrome trace-event JSON of the run's "
        "phase spans\n"
        "  --metrics-out  write the metrics registry (JSON, or "
        "Prometheus text with\n"
        "                 --metrics-format prom)\n"
        "  --ledger-out   write a JSONL run ledger: a header line, then "
        "one wide-event\n"
        "                 record per analyzed app in input order "
        "(byte-identical for\n"
        "                 every -j value under --no-times); aggregate or\n"
        "                 diff ledgers with `gator_cli report`\n"
        "  --explain      record provenance and print the derivation "
        "tree of every\n"
        "                 flow fact at nodes whose label contains "
        "<substr>\n"
        "                 (single-app mode only)\n"
        "  --diag-format  print diagnostics as text (default) or one "
        "JSON document\n"
        "  --no-unknown-sources\n"
        "                 drop tagged unknown-source modeling of "
        "reflection, dynamic\n"
        "                 ids, and missing layouts (docs/ROBUSTNESS.md); "
        "such sites\n"
        "                 are then silently unresolved\n"
        "  --unknown-fanout <n>\n"
        "                 cap on views an unknown id may match at "
        "FindView sites\n"
        "                 (0 = uncapped; default 64)\n"
        "  --cache-dir <dir>\n"
        "                 content-addressed solution cache "
        "(docs/INCREMENTAL.md):\n"
        "                 warm hits replay a prior run's output and "
        "metrics without\n"
        "                 re-analyzing; corrupt entries degrade to a "
        "full solve\n"
        "  --incremental-edit <dir2>\n"
        "                 treat <dir2> as an edited copy of <dir>: solve "
        "<dir>, apply\n"
        "                 the edits through the incremental re-solver, "
        "and verify the\n"
        "                 result against a from-scratch solve "
        "(single-app mode only)\n";
}

int usage() {
  printUsage(std::cerr);
  return 2;
}

/// Walks argv from index \p First. `--flag=value` is equivalent to
/// `--flag value`: next() splits off the inline value and value() reads it.
class ArgReader {
public:
  ArgReader(int Argc, char **Argv, int First)
      : Argc(Argc), Argv(Argv), I(First - 1) {}

  /// Moves to the next argument; false past the last one.
  bool next(std::string &Arg) {
    if (++I >= Argc)
      return false;
    Arg = Argv[I];
    HasInline = false;
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-') {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg.resize(Eq);
        HasInline = true;
      }
    }
    return true;
  }

  /// Reads the current flag's value; false when it is missing.
  bool value(std::string &Out) {
    if (HasInline) {
      Out = Inline;
      return true;
    }
    if (++I >= Argc)
      return false;
    Out = Argv[I];
    return true;
  }

private:
  int Argc;
  char **Argv;
  int I;
  std::string Inline;
  bool HasInline = false;
};

/// Parses a non-negative number for a --max-* flag; false on garbage.
bool parseCount(const std::string &Text, unsigned long &Out) {
  if (Text.empty() ||
      !std::all_of(Text.begin(), Text.end(), [](unsigned char C) {
        return std::isdigit(C);
      }))
    return false;
  try {
    Out = std::stoul(Text);
  } catch (const std::exception &) {
    return false;
  }
  return true;
}

/// Parses a finite, non-negative number for --max-seconds and --threshold;
/// false on trailing garbage, inf, nan, or a negative value.
bool parseNonNegative(const std::string &Text, double &Out) {
  size_t End = 0;
  try {
    Out = std::stod(Text, &End);
  } catch (const std::exception &) {
    return false;
  }
  return End == Text.size() && std::isfinite(Out) && Out >= 0;
}

/// Writes the --trace-out / --metrics-out files (a no-op for whichever
/// was not requested). Returns false on an I/O failure.
bool writeTelemetry(const driver::RunConfig &Cfg,
                    const support::TraceSink &Trace,
                    const support::MetricsRegistry &Metrics) {
  if (!Cfg.TraceFile.empty()) {
    std::ofstream OS(Cfg.TraceFile);
    if (!OS) {
      std::cerr << "error: cannot write " << Cfg.TraceFile << "\n";
      return false;
    }
    Trace.writeJson(OS);
  }
  if (!Cfg.MetricsFile.empty()) {
    std::ofstream OS(Cfg.MetricsFile);
    if (!OS) {
      std::cerr << "error: cannot write " << Cfg.MetricsFile << "\n";
      return false;
    }
    if (Cfg.MetricsProm)
      Metrics.writePrometheus(OS, !Cfg.NoTimes);
    else
      Metrics.writeJson(OS, !Cfg.NoTimes);
  }
  return true;
}

/// Writes the --ledger-out file (a no-op when the flag was not given).
/// The header stamps the canonical options digest and the --no-times
/// flag, so `report --diff` can refuse ledgers measured under different
/// analysis semantics. Returns false on an I/O failure.
bool writeLedgerFile(const driver::RunConfig &Cfg,
                     const std::vector<analysis::WideEvent> &Events) {
  if (Cfg.LedgerFile.empty())
    return true;
  std::ofstream OS(Cfg.LedgerFile);
  if (!OS) {
    std::cerr << "error: cannot write " << Cfg.LedgerFile << "\n";
    return false;
  }
  analysis::LedgerHeader H;
  H.OptionsDigest = analysis::hashAnalysisOptions(Cfg.Options).hex();
  H.NoTimes = Cfg.NoTimes;
  analysis::writeLedger(OS, H, Events);
  return true;
}

/// `gator_cli report`: aggregate one ledger into a corpus health report,
/// or diff two ledgers of the same configuration. Exit codes: 0 = report
/// rendered / diff empty, 1 = diff non-empty, 2 = unreadable input,
/// incomparable ledgers, or a usage error — scriptable as "did this run
/// regress against the baseline?".
int runReportMode(int argc, char **argv) {
  bool Diff = false;
  bool Json = false;
  double ThresholdPct = 0;
  std::vector<std::string> Paths;
  ArgReader Args(argc, argv, 2);
  for (std::string Arg; Args.next(Arg);) {
    std::string Val;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (Arg == "--diff") {
      Diff = true;
    } else if (Arg == "--report-format") {
      if (!Args.value(Val))
        return usage();
      if (Val == "json") {
        Json = true;
      } else if (Val == "text") {
        Json = false;
      } else {
        std::cerr << "error: unknown report format '" << Val
                  << "' (expected json or text)\n";
        return 2;
      }
    } else if (Arg == "--threshold") {
      if (!Args.value(Val) || !parseNonNegative(Val, ThresholdPct))
        return usage();
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.size() != (Diff ? 2u : 1u))
    return usage();

  std::string Error;
  if (!Diff) {
    analysis::Ledger L;
    if (!analysis::readLedgerFile(Paths[0], L, Error)) {
      std::cerr << "error: cannot read ledger '" << Paths[0]
                << "': " << Error << "\n";
      return 2;
    }
    const corpus::FleetReport R = corpus::buildFleetReport(L);
    if (Json)
      corpus::writeFleetReportJson(std::cout, R);
    else
      corpus::writeFleetReportText(std::cout, R);
    return 0;
  }

  analysis::Ledger OldLedger, NewLedger;
  if (!analysis::readLedgerFile(Paths[0], OldLedger, Error)) {
    std::cerr << "error: cannot read ledger '" << Paths[0] << "': " << Error
              << "\n";
    return 2;
  }
  if (!analysis::readLedgerFile(Paths[1], NewLedger, Error)) {
    std::cerr << "error: cannot read ledger '" << Paths[1] << "': " << Error
              << "\n";
    return 2;
  }
  const corpus::LedgerDiff D =
      corpus::diffLedgers(OldLedger, NewLedger, ThresholdPct);
  if (Json)
    corpus::writeLedgerDiffJson(std::cout, D);
  else
    corpus::writeLedgerDiffText(std::cout, D);
  if (!D.Incomparable.empty())
    return 2;
  return D.empty() ? 0 : 1;
}

/// Parses a jobs knob. Accepts 0 (hardware concurrency) through
/// support::MaxReasonableJobs; anything else — negative, non-numeric,
/// absurdly large — is rejected with a diagnostic, never silently
/// clamped.
bool parseJobs(const std::string &Text, const char *Origin, unsigned &Jobs) {
  unsigned long N = 0;
  if (!parseCount(Text, N) || N > support::MaxReasonableJobs) {
    std::cerr << "error: invalid jobs value '" << Text << "' from " << Origin
              << " (expected 0.." << support::MaxReasonableJobs
              << "; 0 = hardware concurrency)\n";
    return false;
  }
  Jobs = static_cast<unsigned>(N);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  if (std::string(argv[1]) == "report")
    return runReportMode(argc, argv);

  std::string InputDir;
  driver::RunConfig Cfg;
  unsigned Jobs = 1;
  bool JobsFromFlag = false;
  ArgReader Args(argc, argv, 1);
  for (std::string Arg; Args.next(Arg);) {
    std::string Val;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (Arg == "-j" || Arg == "--jobs") {
      if (!Args.value(Val))
        return usage();
      if (!parseJobs(Val, "the -j flag", Jobs))
        return 2;
      JobsFromFlag = true;
    } else if (Arg == "--dot") {
      if (!Args.value(Cfg.DotFile))
        return usage();
    } else if (Arg == "--tuples") {
      Cfg.WantTuples = true;
    } else if (Arg == "--hierarchy") {
      Cfg.WantHierarchy = true;
    } else if (Arg == "--atg") {
      Cfg.WantAtg = true;
    } else if (Arg == "--solution") {
      Cfg.WantSolution = true;
    } else if (Arg == "--sequences") {
      if (!Args.value(Cfg.SequencesFrom))
        return usage();
    } else if (Arg == "--reach") {
      Cfg.WantReach = true;
    } else if (Arg == "--json") {
      if (!Args.value(Cfg.JsonFile))
        return usage();
    } else if (Arg == "--trace-out") {
      if (!Args.value(Cfg.TraceFile))
        return usage();
    } else if (Arg == "--metrics-out") {
      if (!Args.value(Cfg.MetricsFile))
        return usage();
    } else if (Arg == "--ledger-out") {
      if (!Args.value(Cfg.LedgerFile) || Cfg.LedgerFile.empty())
        return usage();
    } else if (Arg == "--metrics-format") {
      if (!Args.value(Val))
        return usage();
      if (Val == "prom" || Val == "prometheus") {
        Cfg.MetricsProm = true;
      } else if (Val == "json") {
        Cfg.MetricsProm = false;
      } else {
        std::cerr << "error: unknown metrics format '" << Val
                  << "' (expected json or prom)\n";
        return 2;
      }
    } else if (Arg == "--explain") {
      if (!Args.value(Cfg.ExplainQuery) || Cfg.ExplainQuery.empty())
        return usage();
    } else if (Arg == "--diag-format") {
      if (!Args.value(Val))
        return usage();
      if (Val == "json") {
        Cfg.DiagJson = true;
      } else if (Val == "text") {
        Cfg.DiagJson = false;
      } else {
        std::cerr << "error: unknown diagnostics format '" << Val
                  << "' (expected text or json)\n";
        return 2;
      }
    } else if (Arg == "--cache-dir") {
      if (!Args.value(Cfg.CacheDir) || Cfg.CacheDir.empty())
        return usage();
    } else if (Arg == "--incremental-edit") {
      if (!Args.value(Cfg.EditDir) || Cfg.EditDir.empty())
        return usage();
    } else if (Arg == "--lint") {
      Cfg.WantLint = true;
    } else if (Arg == "--no-times") {
      Cfg.NoTimes = true;
    } else if (Arg == "--batch") {
      Cfg.Batch = true;
    } else if (Arg == "--max-seconds") {
      if (!Args.value(Val) ||
          !parseNonNegative(Val, Cfg.Options.Budget.MaxWallSeconds))
        return usage();
    } else if (Arg == "--max-work") {
      if (!Args.value(Val) ||
          !parseCount(Val, Cfg.Options.Budget.MaxWorkItems))
        return usage();
    } else if (Arg == "--max-nodes") {
      unsigned long N = 0;
      if (!Args.value(Val) || !parseCount(Val, N))
        return usage();
      Cfg.Options.Budget.MaxGraphNodes = N;
    } else if (Arg == "--no-unknown-sources") {
      Cfg.Options.ModelUnknownSources = false;
    } else if (Arg == "--unknown-fanout") {
      unsigned long N = 0;
      if (!Args.value(Val) || !parseCount(Val, N))
        return usage();
      Cfg.Options.UnknownFanoutBudget = static_cast<unsigned>(N);
    } else if (Arg == "--max-edges") {
      unsigned long N = 0;
      if (!Args.value(Val) || !parseCount(Val, N))
        return usage();
      Cfg.Options.Budget.MaxGraphEdges = N;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      InputDir = Arg;
    }
  }
  if (InputDir.empty())
    return usage();

  if (!JobsFromFlag)
    if (const char *Env = std::getenv("GATOR_JOBS"))
      if (!parseJobs(Env, "the GATOR_JOBS environment variable", Jobs))
        return 2;

  if (!Cfg.ExplainQuery.empty()) {
    if (Cfg.Batch) {
      std::cerr << "error: --explain works on a single app and cannot be "
                   "combined with --batch\n";
      return 2;
    }
    Cfg.Options.RecordProvenance = true;
  }

  // Invocation-wide telemetry (docs/OBSERVABILITY.md). In single-app mode
  // the analysis traces straight into this sink; in batch mode each task
  // traces into its own sink, which runBatch appends in input order.
  const bool WantTrace = !Cfg.TraceFile.empty();
  const bool WantMetrics = !Cfg.MetricsFile.empty();
  support::TraceSink Trace;
  support::MetricsRegistry Metrics;
  if (WantTrace)
    Cfg.Options.Trace = &Trace;

  if (!Cfg.EditDir.empty()) {
    if (Cfg.Batch) {
      std::cerr << "error: --incremental-edit works on a single app and "
                   "cannot be combined with --batch\n";
      return 2;
    }
    if (!Cfg.LedgerFile.empty()) {
      // The edit session analyzes two program states; there is no single
      // per-app record that describes it.
      std::cerr << "error: --ledger-out cannot be combined with "
                   "--incremental-edit\n";
      return 2;
    }
    analysis::CachedAnalysis Record;
    int Code = driver::runIncrementalEdit(InputDir, Cfg.EditDir, Cfg,
                                          WantMetrics ? &Record : nullptr,
                                          std::cout, std::cerr);
    if (Record.analyzed())
      analysis::recordAppMetrics(Metrics, Record);
    if (!writeTelemetry(Cfg, Trace, Metrics))
      return 2;
    return Code;
  }

  // The solution cache (docs/INCREMENTAL.md). Runs whose outcome can
  // depend on timing (wall-clock budgets) or that write per-app artifact
  // files are never cached — the flag is ignored with a note rather than
  // serving a result that could differ from the cold run.
  std::unique_ptr<analysis::SolutionCache> Cache;
  if (!Cfg.CacheDir.empty()) {
    if (!analysis::cacheEligible(Cfg.Options) || !Cfg.JsonFile.empty() ||
        !Cfg.DotFile.empty())
      std::cerr << "note: --cache-dir ignored (wall-clock budget or per-app "
                   "artifact files make runs uncacheable)\n";
    else
      Cache = std::make_unique<analysis::SolutionCache>(Cfg.CacheDir);
  }

  // Single-app mode is a batch of one app, run on this thread.
  std::vector<driver::AppResult> Results;
  std::vector<fs::path> AppDirs;
  if (!Cfg.Batch) {
    Results.push_back(driver::runAppDir(InputDir, Cfg, Cache.get()));
  } else {
    if (support::resolveJobs(Jobs) > 1 &&
        (!Cfg.JsonFile.empty() || !Cfg.DotFile.empty())) {
      // Every app would race on the same output file; there is no
      // sensible merged artifact, so reject rather than corrupt.
      std::cerr << "error: --json/--dot write one fixed file per app and "
                   "cannot be combined with --batch -j > 1\n";
      return 2;
    }

    // Every immediate subdirectory is one app.
    std::error_code EC;
    for (const auto &Entry : fs::directory_iterator(InputDir, EC))
      if (Entry.is_directory())
        AppDirs.push_back(Entry.path());
    if (EC) {
      std::cerr << "error: cannot read directory '" << InputDir
                << "': " << EC.message() << "\n";
      return 1;
    }
    if (AppDirs.empty()) {
      std::cerr << "error: no app subdirectories under '" << InputDir
                << "'\n";
      return 1;
    }
    std::sort(AppDirs.begin(), AppDirs.end());
    Results = driver::runBatch(AppDirs, Cfg, Jobs, Cache.get());
  }

  // The ordered fold: stdout/stderr, the metrics registry and the ledger
  // take the results in input order, so every output of a batch run is
  // independent of -j (timestamps aside). The process exit code is the
  // worst per-app code.
  int Worst = 0;
  std::vector<analysis::WideEvent> Events;
  for (size_t I = 0; I < Results.size(); ++I) {
    driver::AppResult &R = Results[I];
    if (Cfg.Batch) {
      std::cout << "=== app: " << AppDirs[I].filename().string() << " ===\n"
                << R.Run.OutText << "=== exit: " << R.Run.ExitCode
                << " ===\n";
      std::cerr << R.Run.ErrText;
    } else {
      std::cerr << R.Run.ErrText;
      std::cout << R.Run.OutText;
    }
    if (WantMetrics && R.Run.analyzed())
      analysis::recordAppMetrics(Metrics, R.Run);
    if (!Cfg.LedgerFile.empty()) {
      analysis::WideEvent &E = Events.emplace_back();
      E.Index = I;
      E.ContentKey = std::move(R.ContentKey);
      E.ExitCode = R.Run.ExitCode;
      E.Cache = R.Cache;
      E.Stats = std::move(R.Run.Stats);
    }
    Worst = std::max(Worst, R.Run.ExitCode);
  }
  if (Cache && WantMetrics)
    Cache->recordMetrics(Metrics);
  if (!writeLedgerFile(Cfg, Events))
    Worst = std::max(Worst, 2);
  if (!writeTelemetry(Cfg, Trace, Metrics))
    Worst = std::max(Worst, 2);
  return Worst;
}
