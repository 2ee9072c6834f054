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
// The driver folds the results in input order into stdout/stderr, the
// ledger and the metrics registry, so telemetry is deterministic across
// every -j value (timestamps aside).
//
// Exit codes: 0 = complete run, 1 = degraded run (input diagnostics, or a
// solution whose fidelity is not Complete — unknown-source degradation and
// budget truncation both count; docs/ROBUSTNESS.md), 2 = internal error
// (and usage errors). In batch mode the exit code is the maximum over the
// per-app codes, so "some apps degraded" (1) is distinguishable from "all
// complete" (0) at every -j value.
//
//===----------------------------------------------------------------------===//

#include "analysis/AppStats.h"
#include "analysis/GuiAnalysis.h"
#include "analysis/Incremental.h"
#include "analysis/SolutionCache.h"
#include "analysis/WideEvent.h"
#include "android/Manifest.h"
#include "corpus/AppBundle.h"
#include "corpus/FleetReport.h"
#include "dex/DexLite.h"
#include "guimodel/GuiModel.h"
#include "guimodel/JsonExport.h"
#include "guimodel/Lint.h"
#include "layout/Layout.h"
#include "parser/Parser.h"
#include "support/FileIO.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
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

struct CliConfig {
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

/// Parses one loaded `.alite`, `.dexlite` or layout file into \p App.
/// The manifest is not parsed here: it is read after App.finalize().
bool parseInputFile(const support::AppFile &F, corpus::AppBundle &App) {
  switch (F.Kind) {
  case support::AppFileKind::Alite:
    return parser::parseAlite(F.Bytes, F.Path.string(), App.Program,
                              App.Diags);
  case support::AppFileKind::DexLite:
    return dex::parseDexLite(F.Bytes, F.Path.string(), App.Program,
                             App.Diags);
  case support::AppFileKind::Layout:
    return layout::readLayoutXml(*App.Layouts, F.Path.stem().string(),
                                 F.Bytes, App.Diags) != nullptr;
  case support::AppFileKind::Manifest:
    break;
  }
  return true;
}

/// Analyzes one application end to end from its loaded inputs, releasing
/// each file's bytes once it is parsed (nothing refers to them after the
/// parse), so the app's whole text is not held through the analysis.
/// Fail-soft: parse diagnostics do not abort the run — the analysis still
/// executes and its solution carries a fidelity marker. Returns 0 (clean),
/// 1 (input diagnostics), or 2 (internal error).
/// \p Out and \p Err receive what a serial run would write to stdout and
/// stderr. When \p Record is non-null, a completed analysis fills its
/// AppStats (named Record->Stats.Name), precision row and flowset
/// histogram; the caller adds the exit code and the text.
int runOneAppUnguarded(support::AppInputs &Inputs, const CliConfig &Cfg,
                       analysis::CachedAnalysis *Record, std::ostream &Out,
                       std::ostream &Err) {
  const std::string InputDir = Inputs.Root.string();
  if (Inputs.ListError) {
    Err << "error: cannot read directory '" << InputDir
        << "': " << Inputs.ListError.message() << "\n";
    return 1;
  }
  if (!Inputs.hasSources()) {
    Err << "error: no .alite or .dexlite files under '" << InputDir
        << "'\n";
    return 1;
  }

  for (const support::AppFile &F : Inputs.Files)
    if (!F.ReadOk) {
      Err << "error: cannot read " << F.Path << "\n";
      return 1;
    }

  corpus::AppBundle App;
  App.Android.install(App.Program);

  bool Ok = true;
  bool Finalized = false;
  std::optional<android::Manifest> Manifest;
  {
  support::TraceSpan ParseSpan(Cfg.Options.Trace, "parse");
  support::AppFile *ManifestFile = nullptr;
  for (support::AppFile &F : Inputs.Files) {
    if (F.Kind == support::AppFileKind::Manifest) {
      ManifestFile = &F;
      continue;
    }
    Ok &= parseInputFile(F, App);
    // Swap, not assign: assigning an empty string keeps the capacity.
    std::string().swap(F.Bytes);
  }
  ParseSpan.arg("files", Inputs.Files.size() - (ManifestFile ? 1 : 0));
  Finalized = App.finalize();
  Ok &= Finalized;

  // Manifest (optional): validates declared activities and provides the
  // default start point for --sequences.
  if (ManifestFile) {
    Manifest = android::parseManifest(
        ManifestFile->Bytes, ManifestFile->Path.string(), App.Diags);
    std::string().swap(ManifestFile->Bytes);
    if (Manifest)
      for (const android::ManifestActivity &A : Manifest->Activities)
        if (!App.Program.findClass(A.ClassName))
          App.Diags.warning("manifest declares unknown activity '" +
                            A.ClassName + "'");
  }
  } // end of the "parse" span

  if (Cfg.DiagJson)
    App.Diags.printJson(Err);
  else
    App.Diags.print(Err);
  // An unresolved program has no coherent hierarchy to analyze; anything
  // short of that proceeds fail-soft, with diagnostics reflected in the
  // exit code and the fidelity marker.
  if (!Finalized)
    return 1;
  bool HadInputErrors = !Ok || App.Diags.hasErrors();

  auto Result = analysis::GuiAnalysis::run(App.Program, *App.Layouts,
                                           App.Android, Cfg.Options,
                                           App.Diags);
  if (!Result) {
    if (Cfg.DiagJson)
      App.Diags.printJson(Err);
    else
      App.Diags.print(Err);
    return 2; // the facade contract is "always a result"
  }

  auto M = Result->metrics();
  if (Record) {
    Record->Stats =
        analysis::collectAppStats(Record->Stats.Name, App.Program, *Result);
    Record->Precision = M;
    analysis::captureFlowsetHistogram(*Result->Sol, Record->FlowHistCounts,
                                      Record->FlowHistSum,
                                      Record->FlowHistCount);
  }

  Out << "classes: " << App.Program.appClassCount()
            << "  methods: " << App.Program.appMethodCount()
            << "  layouts: " << App.Resources.layoutCount()
            << "  view ids: " << App.Resources.viewIdCount() << "\n";
  Result->Graph->dumpStats(Out);
  Out << "precision: receivers=" << M.AvgReceivers;
  if (M.AvgParameters)
    Out << " parameters=" << *M.AvgParameters;
  if (M.AvgResults)
    Out << " results=" << *M.AvgResults;
  if (M.AvgListeners)
    Out << " listeners=" << *M.AvgListeners;
  Out << "\n";
  if (!Cfg.NoTimes)
    Out << "time: build=" << Result->BuildSeconds * 1000
        << "ms solve=" << Result->SolveSeconds * 1000 << "ms\n";
  Out << "fidelity: " << analysis::fidelityName(Result->Sol->fidelity());
  if (Result->Sol->fidelity() == analysis::Fidelity::TruncatedBudget)
    Out << " (budget: "
              << support::budgetReasonName(Result->Sol->truncationReason())
              << ")";
  if (!Result->Sol->unresolvedOps().empty())
    Out << " unresolved-ops=" << Result->Sol->unresolvedOps().size();
  size_t UnknownSources =
      Result->Graph->nodesOfKind(graph::NodeKind::UnknownView).size() +
      Result->Graph->nodesOfKind(graph::NodeKind::UnknownId).size();
  if (UnknownSources)
    Out << " unknown-sources=" << UnknownSources;
  Out << "\n";

  if (!Cfg.ExplainQuery.empty()) {
    Out << "\nexplain '" << Cfg.ExplainQuery << "':\n";
    const analysis::ProvenanceRecorder *Prov = Result->Provenance.get();
    if (!Prov) {
      Out << "(provenance was not recorded for this run)\n";
    } else {
      const graph::ConstraintGraph &G = *Result->Graph;
      constexpr unsigned MaxNodes = 8;
      unsigned Matched = 0;
      std::string Label;
      for (graph::NodeId N = 0, E = static_cast<graph::NodeId>(G.size());
           N != E; ++N) {
        Label.clear();
        G.appendLabel(Label, N);
        if (Label.find(Cfg.ExplainQuery) == std::string::npos)
          continue;
        const analysis::FlowSet &Vals = Result->Sol->valuesAt(N);
        if (Vals.empty())
          continue;
        ++Matched;
        if (Matched > MaxNodes)
          continue;
        Out << "node " << Label << ":\n";
        for (graph::NodeId V : Vals) {
          analysis::ProvenanceRecorder::FactId F = Prov->flowFact(N, V);
          if (F != analysis::ProvenanceRecorder::NoFact)
            Prov->printDerivation(Out, F, G);
        }
      }
      if (Matched > MaxNodes)
        Out << "(" << Matched - MaxNodes << " more matching nodes elided)\n";
      if (Matched == 0)
        Out << "(no node with flow facts matches '" << Cfg.ExplainQuery
            << "')\n";
    }
  }

  if (Cfg.WantSolution) {
    Out << "\nper-operation solution:\n";
    Result->Sol->dump(Out, Cfg.Options.TrackViewIds,
                      Cfg.Options.TrackHierarchy,
                      Cfg.Options.FindView3ChildOnly,
                      Cfg.Options.UnknownFanoutBudget);
  }
  if (Cfg.WantTuples) {
    Out << "\n(activity, view, event, handler) tuples:\n";
    guimodel::printHandlerTuples(Out, *Result,
                                 guimodel::extractHandlerTuples(*Result));
  }
  if (Cfg.WantHierarchy) {
    Out << "\nview hierarchies:\n";
    guimodel::printViewHierarchies(Out, *Result);
  }
  if (Cfg.WantAtg) {
    Out << "\nactivity transition graph:\n";
    guimodel::printTransitionsDot(
        Out, guimodel::buildActivityTransitionGraph(*Result));
  }
  std::string SequencesFrom = Cfg.SequencesFrom;
  if (Manifest) {
    Out << "manifest: package=" << Manifest->Package;
    if (auto Launcher = Manifest->launcherActivity())
      Out << " launcher=" << *Launcher;
    Out << "\n";
    if (SequencesFrom.empty())
      if (auto Launcher = Manifest->launcherActivity())
        SequencesFrom = *Launcher;
  }

  if (!SequencesFrom.empty()) {
    const ir::ClassDecl *Start = App.Program.findClass(SequencesFrom);
    if (!Start) {
      Err << "error: unknown activity class '" << SequencesFrom
                << "'\n";
      return 1;
    }
    Out << "\nevent sequences from " << SequencesFrom
              << " (length <= 5):\n";
    guimodel::printEventSequences(
        Out, *Result,
        guimodel::enumerateEventSequences(*Result, Start, 5, 64));
  }
  if (Cfg.WantReach) {
    Out << "\nEditText view-reach report:\n";
    guimodel::printViewReach(Out, *Result,
                             guimodel::computeViewReach(*Result));
  }
  if (Cfg.WantLint) {
    Out << "\nlint findings:\n";
    guimodel::printLintFindings(Out,
                                guimodel::runLint(*Result, *App.Layouts));
  }
  if (!Cfg.JsonFile.empty()) {
    std::ofstream Json(Cfg.JsonFile);
    if (!Json) {
      Err << "error: cannot write " << Cfg.JsonFile << "\n";
      return 1;
    }
    guimodel::writeAnalysisJson(Json, *Result);
    Out << "analysis JSON written to " << Cfg.JsonFile << "\n";
  }
  if (!Cfg.DotFile.empty()) {
    std::ofstream Dot(Cfg.DotFile);
    if (!Dot) {
      Err << "error: cannot write " << Cfg.DotFile << "\n";
      return 1;
    }
    Result->Graph->dumpDot(Dot);
    Out << "constraint graph written to " << Cfg.DotFile << "\n";
  }
  // Degraded-but-sound runs exit 1 like input diagnostics do: the contract
  // is "0 means every fact is exact". Unknown-source degradation and budget
  // truncation both leave the solution usable, so nothing above aborted.
  bool Degraded =
      Result->Sol->fidelity() != analysis::Fidelity::Complete;
  return (HadInputErrors || Degraded) ? 1 : 0;
}

/// Crash isolation: a C++ exception escaping one app's analysis is an
/// internal error (exit 2) for that app, not a process abort — in batch
/// mode the remaining apps still run.
int runOneApp(support::AppInputs &Inputs, const CliConfig &Cfg,
              analysis::CachedAnalysis *Record, std::ostream &Out,
              std::ostream &Err) {
  try {
    return runOneAppUnguarded(Inputs, Cfg, Record, Out, Err);
  } catch (const std::exception &E) {
    Err << "internal error analyzing '" << Inputs.Root.string()
        << "': " << E.what() << "\n";
    return 2;
  } catch (...) {
    Err << "internal error analyzing '" << Inputs.Root.string() << "'\n";
    return 2;
  }
}

/// The cache key of one CLI app run: the analysis content key (the
/// app's input bytes, \p Content, + canonical options) folded with the
/// app directory as spelled on the command line (\p InputDir) and every
/// flag that shapes the captured output text. Two invocations share an
/// entry only when they would print the same bytes; the directory is part
/// of that, because diagnostics print each input's path.
support::Hash128 cliCacheKey(const support::Hash128 &Content,
                             const std::string &InputDir,
                             const CliConfig &Cfg) {
  const support::Hash128 Base = analysis::combineCacheKey(
      Content, analysis::hashAnalysisOptions(Cfg.Options));
  support::ContentHasher H;
  H.field("gator-cli-key", "v2");
  H.u64("base.hi", Base.Hi);
  H.u64("base.lo", Base.Lo);
  H.field("dir", InputDir);
  H.boolean("tuples", Cfg.WantTuples);
  H.boolean("hierarchy", Cfg.WantHierarchy);
  H.boolean("atg", Cfg.WantAtg);
  H.boolean("solution", Cfg.WantSolution);
  H.boolean("reach", Cfg.WantReach);
  H.boolean("lint", Cfg.WantLint);
  H.boolean("no-times", Cfg.NoTimes);
  H.boolean("diag-json", Cfg.DiagJson);
  H.field("sequences", Cfg.SequencesFrom);
  H.field("explain", Cfg.ExplainQuery);
  return H.digest();
}

/// The ledger's name for the app at \p Dir: the last component of the
/// normalized absolute path, so `corpus/APV/` and `corpus/APV/.` both
/// name APV.
std::string appName(const std::string &Dir) {
  fs::path P = fs::absolute(Dir).lexically_normal();
  if (!P.has_filename())
    P = P.parent_path();
  return P.filename().string();
}

/// One app's result: what a cold run produces and a cache hit reads back
/// (Run.Stats is filled only when the run collects a record), plus the
/// app's ledger identity.
struct AppResult {
  analysis::CachedAnalysis Run;
  std::string ContentKey; ///< empty unless a cache or the ledger keyed it
  const char *Cache = "off"; ///< the ledger's cache value
};

/// Analyzes the app directory \p InputDir: loads its inputs once, keys
/// them when a cache or the ledger needs the content key, and runs
/// runOneApp behind the solution cache. A hit reads the cold run's result
/// back without parsing or solving anything; a miss runs cold and stores
/// the result. A corrupt on-disk entry degrades to a cold run with a
/// stderr warning — stdout and the exit code are identical to an uncached
/// run. A load that is not complete (a file could not be read) bypasses
/// the cache: its bytes are not the app's inputs, so it is never looked
/// up or stored.
AppResult runAppDir(const std::string &InputDir, const CliConfig &Cfg,
                    analysis::SolutionCache *Cache) {
  AppResult R;
  support::AppInputs Inputs;
  {
    support::TraceSpan ReadSpan(Cfg.Options.Trace, "read");
    Inputs = support::loadAppDir(InputDir);
    ReadSpan.arg("files", Inputs.Files.size());
    ReadSpan.arg("bytes", Inputs.bytes());
  }
  const bool Cacheable = Cache && Inputs.complete();
  support::Hash128 Content;
  if (Cacheable || !Cfg.LedgerFile.empty()) {
    Content = analysis::hashAppDir(Inputs);
    R.ContentKey = Content.hex();
  }
  std::ostringstream Out, Err;
  std::string Warning;
  support::Hash128 Key;
  if (Cacheable) {
    Key = cliCacheKey(Content, InputDir, Cfg);
    analysis::CachedAnalysis Entry;
    const analysis::SolutionCache::Outcome Found = Cache->lookup(Key, Entry);
    if (Found == analysis::SolutionCache::Outcome::Hit) {
      R.Run = std::move(Entry);
      R.Cache = "hit";
      return R;
    }
    if (Found == analysis::SolutionCache::Outcome::Corrupt)
      Warning = "warning: corrupt cache entry for '" + InputDir +
                "' ignored; re-analyzing\n";
    R.Cache = "miss";
  }

  // Only the cache, the ledger and the metrics export read the record.
  analysis::CachedAnalysis *Record = nullptr;
  if (Cache || !Cfg.LedgerFile.empty() || !Cfg.MetricsFile.empty()) {
    Record = &R.Run;
    Record->Stats.Name = appName(InputDir);
  }
  R.Run.ExitCode = runOneApp(Inputs, Cfg, Record, Out, Err);
  R.Run.OutText = std::move(Out).str();
  R.Run.ErrText = std::move(Err).str();
  // Only a completed analysis is stored; early-exit error paths stay
  // uncached.
  if (Cacheable && R.Run.analyzed())
    Cache->store(Key, R.Run);
  R.Run.ErrText.insert(0, Warning);
  return R;
}

/// Builds \p App from loaded inputs for the incremental-edit path: the
/// same files as runOneAppUnguarded without the manifest, but demanding
/// a clean parse (diagnostics go to stderr; any error fails the load).
bool loadBundle(const support::AppInputs &Inputs, corpus::AppBundle &App) {
  App.Android.install(App.Program);
  if (Inputs.ListError) {
    std::cerr << "error: cannot read directory '" << Inputs.Root.string()
              << "': " << Inputs.ListError.message() << "\n";
    return false;
  }
  if (!Inputs.hasSources()) {
    std::cerr << "error: no .alite or .dexlite files under '"
              << Inputs.Root.string() << "'\n";
    return false;
  }
  bool Ok = true;
  for (const support::AppFile &F : Inputs.Files) {
    if (F.Kind == support::AppFileKind::Manifest)
      continue;
    if (!F.ReadOk)
      return false;
    Ok &= parseInputFile(F, App);
  }
  Ok &= App.finalize();
  App.Diags.print(std::cerr);
  return Ok && !App.Diags.hasErrors();
}

/// --incremental-edit: solve the base app, apply the edited copy's
/// method/layout differences through the DRed incremental session
/// (docs/INCREMENTAL.md), then differentially verify the result against a
/// from-scratch solve of the edited program. Unsupported edit shapes
/// (class/method/field set changes, include-target layout edits) fall
/// back to a plain full solve of the edited app, which fills \p Record
/// when it is non-null.
int runIncrementalEdit(const std::string &BaseDir, const std::string &EditDir,
                       const CliConfig &Cfg, analysis::CachedAnalysis *Record) {
  const support::AppInputs BaseInputs = support::loadAppDir(BaseDir);
  support::AppInputs EditInputs = support::loadAppDir(EditDir);
  corpus::AppBundle Base, Edited;
  if (!loadBundle(BaseInputs, Base) || !loadBundle(EditInputs, Edited)) {
    std::cerr << "error: --incremental-edit requires cleanly parsing base "
                 "and edited apps\n";
    return 2;
  }
  analysis::EditDiff Diff = analysis::diffBundles(
      Base.Program, Edited.Program, *Base.Layouts, *Edited.Layouts);
  if (!Diff.Unsupported.empty()) {
    for (const std::string &Reason : Diff.Unsupported)
      std::cout << "unsupported edit: " << Reason << "\n";
    std::cout << "fallback: full solve of the edited app\n";
    return runOneApp(EditInputs, Cfg, Record, std::cout, std::cerr);
  }
  std::cout << "edit diff: " << Diff.Methods.size() << " method(s), "
            << Diff.Layouts.size() << " layout(s)\n";

  analysis::IncrementalAnalysis Inc(Base.Program, *Base.Layouts, Base.Android,
                                    Cfg.Options, Base.Diags);
  Inc.solveInitial();

  unsigned long IncPropagations = 0;
  size_t Retracted = 0;
  bool Applied = true;
  for (auto &[BaseMethod, EditMethod] : Diff.Methods) {
    if (!analysis::graftMethodBody(*BaseMethod, *EditMethod) ||
        !Inc.reanalyzeMethod(*BaseMethod)) {
      Applied = false;
      break;
    }
    IncPropagations += Inc.lastStats().Propagations;
    Retracted += Inc.lastFactsRetracted();
  }
  if (Applied)
    for (const std::string &Name : Diff.Layouts) {
      const layout::LayoutDef *Def = Edited.Layouts->findByName(Name);
      if (!Def || !Def->root() ||
          !Inc.reanalyzeLayout(Name, Def->root()->clone())) {
        Applied = false;
        break;
      }
      IncPropagations += Inc.lastStats().Propagations;
      Retracted += Inc.lastFactsRetracted();
    }
  if (!Applied) {
    std::cout << "fallback: full solve of the edited app\n";
    return runOneApp(EditInputs, Cfg, Record, std::cout, std::cerr);
  }

  // Differential check: a from-scratch solve over the same (now grafted)
  // program and layout objects must reach the same fixed point.
  analysis::AnalysisOptions ScratchOptions = Cfg.Options;
  ScratchOptions.RecordProvenance = false;
  auto Scratch = analysis::GuiAnalysis::run(Base.Program, *Base.Layouts,
                                            Base.Android, ScratchOptions,
                                            Base.Diags);
  if (!Scratch)
    return 2;
  const std::string IncDigest = analysis::solutionDigest(Inc.solution());
  const std::string ScratchDigest = analysis::solutionDigest(*Scratch->Sol);
  const bool Match = IncDigest == ScratchDigest;
  std::cout << "facts retracted: " << Retracted << "\n"
            << "incremental propagations: " << IncPropagations
            << "  scratch propagations: " << Scratch->Stats.Propagations
            << "\n"
            << "incremental matches scratch: " << (Match ? "yes" : "no")
            << "\n";
  if (!Match) {
    // Line-level digest diff, capped — enough to localize a divergence.
    auto Split = [](const std::string &Text) {
      std::vector<std::string> Lines;
      std::istringstream SS(Text);
      for (std::string Line; std::getline(SS, Line);)
        Lines.push_back(Line);
      return Lines;
    };
    const std::vector<std::string> A = Split(IncDigest), B = Split(ScratchDigest);
    unsigned Shown = 0;
    for (const std::string &L : A)
      if (!std::binary_search(B.begin(), B.end(), L) && Shown++ < 16)
        std::cout << "  only-incremental: " << L << "\n";
    for (const std::string &L : B)
      if (!std::binary_search(A.begin(), A.end(), L) && Shown++ < 32)
        std::cout << "  only-scratch: " << L << "\n";
  }
  return Match ? 0 : 1;
}

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

/// Writes the --trace-out / --metrics-out files (a no-op for whichever
/// was not requested). Returns false on an I/O failure.
bool writeTelemetry(const CliConfig &Cfg, const support::TraceSink &Trace,
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
bool writeLedgerFile(const CliConfig &Cfg,
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
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Inline;
    bool HasInline = false;
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-') {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg.resize(Eq);
        HasInline = true;
      }
    }
    auto NextValue = [&](std::string &Out) {
      if (HasInline) {
        Out = Inline;
        return true;
      }
      if (++I >= argc)
        return false;
      Out = argv[I];
      return true;
    };
    std::string Val;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (Arg == "--diff") {
      Diff = true;
    } else if (Arg == "--report-format") {
      if (!NextValue(Val))
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
      if (!NextValue(Val))
        return usage();
      try {
        ThresholdPct = std::stod(Val);
      } catch (const std::exception &) {
        return usage();
      }
      if (ThresholdPct < 0)
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
  CliConfig Cfg;
  bool JobsFromFlag = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    // `--flag=value` is equivalent to `--flag value`.
    std::string Inline;
    bool HasInline = false;
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-') {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg.resize(Eq);
        HasInline = true;
      }
    }
    auto NextValue = [&](std::string &Out) {
      if (HasInline) {
        Out = Inline;
        return true;
      }
      if (++I >= argc)
        return false;
      Out = argv[I];
      return true;
    };
    std::string Val;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (Arg == "-j" || Arg == "--jobs") {
      if (!NextValue(Val))
        return usage();
      if (!parseJobs(Val, "the -j flag", Cfg.Options.Jobs))
        return 2;
      JobsFromFlag = true;
    } else if (Arg == "--dot") {
      if (!NextValue(Cfg.DotFile))
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
      if (!NextValue(Cfg.SequencesFrom))
        return usage();
    } else if (Arg == "--reach") {
      Cfg.WantReach = true;
    } else if (Arg == "--json") {
      if (!NextValue(Cfg.JsonFile))
        return usage();
    } else if (Arg == "--trace-out") {
      if (!NextValue(Cfg.TraceFile))
        return usage();
    } else if (Arg == "--metrics-out") {
      if (!NextValue(Cfg.MetricsFile))
        return usage();
    } else if (Arg == "--ledger-out") {
      if (!NextValue(Cfg.LedgerFile) || Cfg.LedgerFile.empty())
        return usage();
    } else if (Arg == "--metrics-format") {
      if (!NextValue(Val))
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
      if (!NextValue(Cfg.ExplainQuery) || Cfg.ExplainQuery.empty())
        return usage();
    } else if (Arg == "--diag-format") {
      if (!NextValue(Val))
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
      if (!NextValue(Cfg.CacheDir) || Cfg.CacheDir.empty())
        return usage();
    } else if (Arg == "--incremental-edit") {
      if (!NextValue(Cfg.EditDir) || Cfg.EditDir.empty())
        return usage();
    } else if (Arg == "--lint") {
      Cfg.WantLint = true;
    } else if (Arg == "--no-times") {
      Cfg.NoTimes = true;
    } else if (Arg == "--batch") {
      Cfg.Batch = true;
    } else if (Arg == "--max-seconds") {
      if (!NextValue(Val))
        return usage();
      try {
        Cfg.Options.Budget.MaxWallSeconds = std::stod(Val);
      } catch (const std::exception &) {
        return usage();
      }
      if (Cfg.Options.Budget.MaxWallSeconds < 0)
        return usage();
    } else if (Arg == "--max-work") {
      if (!NextValue(Val) ||
          !parseCount(Val, Cfg.Options.Budget.MaxWorkItems))
        return usage();
    } else if (Arg == "--max-nodes") {
      unsigned long N = 0;
      if (!NextValue(Val) || !parseCount(Val, N))
        return usage();
      Cfg.Options.Budget.MaxGraphNodes = N;
    } else if (Arg == "--no-unknown-sources") {
      Cfg.Options.ModelUnknownSources = false;
    } else if (Arg == "--unknown-fanout") {
      unsigned long N = 0;
      if (!NextValue(Val) || !parseCount(Val, N))
        return usage();
      Cfg.Options.UnknownFanoutBudget = static_cast<unsigned>(N);
    } else if (Arg == "--max-edges") {
      unsigned long N = 0;
      if (!NextValue(Val) || !parseCount(Val, N))
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
      if (!parseJobs(Env, "the GATOR_JOBS environment variable",
                     Cfg.Options.Jobs))
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
  // traces into its own sink, appended below in input order.
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
    int Code = runIncrementalEdit(InputDir, Cfg.EditDir, Cfg,
                                  WantMetrics ? &Record : nullptr);
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
  std::vector<AppResult> Results;
  std::vector<fs::path> AppDirs;
  if (!Cfg.Batch) {
    Results.push_back(runAppDir(InputDir, Cfg, Cache.get()));
  } else {
    unsigned Jobs = support::resolveJobs(Cfg.Options.Jobs);
    if (Jobs > 1 && (!Cfg.JsonFile.empty() || !Cfg.DotFile.empty())) {
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

    // One wall-clock deadline for the whole batch, per-app caps per task
    // (docs/ROBUSTNESS.md, "Batch deadline semantics").
    CliConfig TaskCfg = Cfg;
    TaskCfg.Options.Budget.SharedDeadline =
        support::makeSharedDeadline(Cfg.Options.Budget.MaxWallSeconds);

    // Fan one thread-confined task per app over the pool; each task
    // returns its result and its own trace sink.
    struct Task {
      AppResult Result;
      std::unique_ptr<support::TraceSink> Trace;
    };
    std::vector<Task> Tasks = support::parallelMap<Task>(
        Cfg.Options.Jobs, AppDirs.size(), [&](size_t I) {
          Task T;
          CliConfig AppCfg = TaskCfg;
          if (WantTrace) {
            T.Trace = std::make_unique<support::TraceSink>();
            AppCfg.Options.Trace = T.Trace.get();
          }
          {
            support::TraceSpan AppSpan(AppCfg.Options.Trace, "analyze-app");
            AppSpan.arg("index", I);
            T.Result = runAppDir(AppDirs[I].string(), AppCfg, Cache.get());
          }
          return T;
        });
    // Trace lanes append in input order (tid = 1 + app ordinal).
    for (size_t I = 0; I < Tasks.size(); ++I) {
      if (Tasks[I].Trace)
        Trace.append(std::move(*Tasks[I].Trace), static_cast<uint32_t>(I + 1));
      Results.push_back(std::move(Tasks[I].Result));
    }
  }

  // The ordered fold: stdout/stderr, the metrics registry and the ledger
  // take the results in input order, so every output of a batch run is
  // independent of -j (timestamps aside). The process exit code is the
  // worst per-app code.
  int Worst = 0;
  std::vector<analysis::WideEvent> Events;
  for (size_t I = 0; I < Results.size(); ++I) {
    AppResult &R = Results[I];
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
