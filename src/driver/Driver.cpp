//===- Driver.cpp - One app pipeline from directory to output ---*- C++ -*-===//

#include "driver/Driver.h"

#include "analysis/GuiAnalysis.h"
#include "analysis/Incremental.h"
#include "analysis/SolutionCache.h"
#include "dex/DexLite.h"
#include "guimodel/GuiModel.h"
#include "guimodel/JsonExport.h"
#include "guimodel/Lint.h"
#include "layout/Layout.h"
#include "parser/Parser.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>

using namespace gator;
using namespace gator::driver;
namespace fs = std::filesystem;

namespace {

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

void printDiags(const DiagnosticEngine &Diags, bool Json, std::ostream &OS) {
  if (Json)
    Diags.printJson(OS);
  else
    Diags.print(OS);
}

int runAppUnguarded(support::AppInputs &Inputs, const RunConfig &Cfg,
                    analysis::CachedAnalysis *Record, std::ostream &Out,
                    std::ostream &Err) {
  corpus::AppBundle App;
  std::optional<android::Manifest> Manifest;
  const LoadStatus Load = loadApp(Inputs, App, &Manifest, Cfg.DiagJson,
                                  Cfg.Options.Trace, Err);
  // An unresolved program has no coherent hierarchy to analyze; anything
  // short of that proceeds fail-soft, with diagnostics reflected in the
  // exit code and the fidelity marker.
  if (Load == LoadStatus::Failed)
    return 1;
  bool HadInputErrors = Load == LoadStatus::InputErrors;

  auto Result = analysis::GuiAnalysis::run(App.Program, *App.Layouts,
                                           App.Android, Cfg.Options,
                                           App.Diags);
  if (!Result) {
    printDiags(App.Diags, Cfg.DiagJson, Err);
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
        << support::budgetReasonName(Result->Sol->truncationReason()) << ")";
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
    Result->Sol->dump(Out, Result->Options);
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
      Err << "error: unknown activity class '" << SequencesFrom << "'\n";
      return 1;
    }
    Out << "\nevent sequences from " << SequencesFrom << " (length <= 5):\n";
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
  bool Degraded = Result->Sol->fidelity() != analysis::Fidelity::Complete;
  return (HadInputErrors || Degraded) ? 1 : 0;
}

/// The cache key of one CLI app run: the analysis content key (the
/// app's input bytes, \p Content, + canonical options) folded with the
/// app directory as spelled on the command line (\p InputDir) and every
/// flag that shapes the captured output text. Two invocations share an
/// entry only when they would print the same bytes; the directory is part
/// of that, because diagnostics print each input's path.
support::Hash128 cliCacheKey(const support::Hash128 &Content,
                             const std::string &InputDir,
                             const RunConfig &Cfg) {
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

} // namespace

LoadStatus gator::driver::loadApp(support::AppInputs &Inputs,
                                  corpus::AppBundle &App,
                                  std::optional<android::Manifest> *Manifest,
                                  bool DiagJson, support::TraceSink *Trace,
                                  std::ostream &Err) {
  const std::string InputDir = Inputs.Root.string();
  if (Inputs.ListError) {
    Err << "error: cannot read directory '" << InputDir
        << "': " << Inputs.ListError.message() << "\n";
    return LoadStatus::Failed;
  }
  if (!Inputs.hasSources()) {
    Err << "error: no .alite or .dexlite files under '" << InputDir
        << "'\n";
    return LoadStatus::Failed;
  }

  for (const support::AppFile &F : Inputs.Files)
    if (!F.ReadOk) {
      Err << "error: cannot read " << F.Path << "\n";
      return LoadStatus::Failed;
    }

  App.Android.install(App.Program);

  bool Ok = true;
  bool Finalized = false;
  {
  support::TraceSpan ParseSpan(Trace, "parse");
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
  if (ManifestFile && Manifest) {
    *Manifest = android::parseManifest(
        ManifestFile->Bytes, ManifestFile->Path.string(), App.Diags);
    std::string().swap(ManifestFile->Bytes);
    if (*Manifest)
      for (const android::ManifestActivity &A : (*Manifest)->Activities)
        if (!App.Program.findClass(A.ClassName))
          App.Diags.warning("manifest declares unknown activity '" +
                            A.ClassName + "'");
  }
  } // end of the "parse" span

  printDiags(App.Diags, DiagJson, Err);
  if (!Finalized)
    return LoadStatus::Failed;
  return Ok && !App.Diags.hasErrors() ? LoadStatus::Clean
                                      : LoadStatus::InputErrors;
}

int gator::driver::runApp(support::AppInputs &Inputs, const RunConfig &Cfg,
                          analysis::CachedAnalysis *Record, std::ostream &Out,
                          std::ostream &Err) {
  try {
    return runAppUnguarded(Inputs, Cfg, Record, Out, Err);
  } catch (const std::exception &E) {
    Err << "internal error analyzing '" << Inputs.Root.string()
        << "': " << E.what() << "\n";
    return 2;
  } catch (...) {
    Err << "internal error analyzing '" << Inputs.Root.string() << "'\n";
    return 2;
  }
}

AppResult gator::driver::runAppDir(const std::string &InputDir,
                                   const RunConfig &Cfg,
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
  R.Run.ExitCode = runApp(Inputs, Cfg, Record, Out, Err);
  R.Run.OutText = std::move(Out).str();
  R.Run.ErrText = std::move(Err).str();
  // Only a completed analysis is stored; early-exit error paths stay
  // uncached.
  if (Cacheable && R.Run.analyzed())
    Cache->store(Key, R.Run);
  R.Run.ErrText.insert(0, Warning);
  return R;
}

std::vector<AppResult>
gator::driver::runBatch(const std::vector<fs::path> &Dirs,
                        const RunConfig &Cfg, unsigned Jobs,
                        analysis::SolutionCache *Cache) {
  // One wall-clock deadline for the whole batch, per-app caps per task
  // (docs/ROBUSTNESS.md, "Batch deadline semantics").
  RunConfig TaskCfg = Cfg;
  if (!TaskCfg.Options.Budget.SharedDeadline)
    TaskCfg.Options.Budget.SharedDeadline =
        support::makeSharedDeadline(Cfg.Options.Budget.MaxWallSeconds);

  // Fan one thread-confined task per app over the workers; each task
  // returns its result and its own trace sink.
  struct Task {
    AppResult Result;
    std::unique_ptr<support::TraceSink> Trace;
  };
  std::vector<Task> Tasks =
      support::parallelMap<Task>(Jobs, Dirs.size(), [&](size_t I) {
        Task T;
        RunConfig AppCfg = TaskCfg;
        if (Cfg.Options.Trace) {
          T.Trace = std::make_unique<support::TraceSink>();
          AppCfg.Options.Trace = T.Trace.get();
        }
        {
          support::TraceSpan AppSpan(AppCfg.Options.Trace, "analyze-app");
          AppSpan.arg("index", I);
          T.Result = runAppDir(Dirs[I].string(), AppCfg, Cache);
        }
        return T;
      });
  // Trace lanes append in input order (tid = 1 + app ordinal).
  std::vector<AppResult> Results;
  Results.reserve(Tasks.size());
  for (size_t I = 0; I < Tasks.size(); ++I) {
    if (Tasks[I].Trace)
      Cfg.Options.Trace->append(std::move(*Tasks[I].Trace),
                                static_cast<uint32_t>(I + 1));
    Results.push_back(std::move(Tasks[I].Result));
  }
  return Results;
}

int gator::driver::runIncrementalEdit(const std::string &BaseDir,
                                      const std::string &EditDir,
                                      const RunConfig &Cfg,
                                      analysis::CachedAnalysis *Record,
                                      std::ostream &Out, std::ostream &Err) {
  support::AppInputs BaseInputs = support::loadAppDir(BaseDir);
  support::AppInputs EditInputs = support::loadAppDir(EditDir);
  corpus::AppBundle Base, Edited;
  // Both loads skip the manifest and stay untraced; the edit is checked
  // against a clean parse of each app.
  auto LoadClean = [&](support::AppInputs &Inputs, corpus::AppBundle &App) {
    return loadApp(Inputs, App, /*Manifest=*/nullptr, Cfg.DiagJson,
                   /*Trace=*/nullptr, Err) == LoadStatus::Clean;
  };
  if (!LoadClean(BaseInputs, Base) || !LoadClean(EditInputs, Edited)) {
    Err << "error: --incremental-edit requires cleanly parsing base "
           "and edited apps\n";
    return 2;
  }
  // The fallback analyzes the edited app from a fresh load: loadApp
  // released the bytes of the first one.
  auto Fallback = [&] {
    Out << "fallback: full solve of the edited app\n";
    support::AppInputs Inputs = support::loadAppDir(EditDir);
    return runApp(Inputs, Cfg, Record, Out, Err);
  };
  analysis::EditDiff Diff = analysis::diffBundles(
      Base.Program, Edited.Program, *Base.Layouts, *Edited.Layouts);
  if (!Diff.Unsupported.empty()) {
    for (const std::string &Reason : Diff.Unsupported)
      Out << "unsupported edit: " << Reason << "\n";
    return Fallback();
  }
  Out << "edit diff: " << Diff.Methods.size() << " method(s), "
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
  if (!Applied)
    return Fallback();

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
  Out << "facts retracted: " << Retracted << "\n"
      << "incremental propagations: " << IncPropagations
      << "  scratch propagations: " << Scratch->Stats.Propagations << "\n"
      << "incremental matches scratch: " << (Match ? "yes" : "no") << "\n";
  if (!Match) {
    // Line-level digest diff, capped — enough to localize a divergence.
    auto Split = [](const std::string &Text) {
      std::vector<std::string> Lines;
      std::istringstream SS(Text);
      for (std::string Line; std::getline(SS, Line);)
        Lines.push_back(Line);
      return Lines;
    };
    const std::vector<std::string> A = Split(IncDigest);
    const std::vector<std::string> B = Split(ScratchDigest);
    unsigned Shown = 0;
    for (const std::string &L : A)
      if (!std::binary_search(B.begin(), B.end(), L) && Shown++ < 16)
        Out << "  only-incremental: " << L << "\n";
    for (const std::string &L : B)
      if (!std::binary_search(A.begin(), A.end(), L) && Shown++ < 32)
        Out << "  only-scratch: " << L << "\n";
  }
  return Match ? 0 : 1;
}
