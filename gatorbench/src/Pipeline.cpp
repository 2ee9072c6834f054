//===- Pipeline.cpp - gator_cli's default run, in process, by layer -------===//

#include "Pipeline.h"

#include "analysis/AppStats.h"
#include "analysis/GraphBuilder.h"
#include "analysis/Incremental.h"
#include "analysis/PhasedSolver.h"
#include "analysis/SolutionChecker.h"
#include "dex/DexLite.h"
#include "guimodel/GuiModel.h"
#include "hier/ClassHierarchy.h"
#include "layout/LayoutWriter.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "support/Timer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace gator;
namespace fs = std::filesystem;

namespace gatorbench {

namespace {

/// The CLI's file reader, byte for byte the same calls.
bool readFile(const fs::path &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool readCounted(const fs::path &Path, std::string &Out, LoadedApp &App,
                 Tracer *T) {
  Span S(T, Layer::Read);
  if (!readFile(Path, Out))
    return false;
  App.InputBytes += Out.size();
  if (T)
    T->add(Counter::ReadBytes, Out.size());
  return true;
}

/// The separate lexAll call of the traced run: its time and allocations
/// are kept out of the operation and moved from the parse span (which
/// lexes again inside parseAlite) to the lex layer.
struct LexProbe {
  uint64_t Ns = 0;
  AllocCounts Used;
};
LexProbe probeLex(const std::string &Text, const std::string &FileName,
                  Tracer &T) {
  LexProbe P;
  const AllocCounts A0 = allocCounts();
  const auto T0 = std::chrono::steady_clock::now();
  size_t Tokens = 0;
  {
    DiagnosticEngine Diags;
    parser::Lexer L(Text, FileName, Diags);
    Tokens = L.lexAll().size();
  }
  const auto T1 = std::chrono::steady_clock::now();
  const AllocCounts A1 = allocCounts();
  P.Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  P.Used = {A1.Allocs - A0.Allocs, A1.Bytes - A0.Bytes};
  T.exclude(P.Ns, P.Used);
  T.add(Counter::Tokens, Tokens);
  return P;
}

} // namespace

bool loadAppDir(const std::string &Dir, LoadedApp &App, Tracer *T) {
  App.Bundle = std::make_unique<corpus::AppBundle>();
  corpus::AppBundle &B = *App.Bundle;
  B.Name = fs::path(Dir).filename().string();
  B.Android.install(B.Program);

  std::vector<fs::path> AliteFiles, DexFiles, XmlFiles;
  fs::path ManifestFile;
  {
    Span Census(T, Layer::Read);
    std::error_code EC;
    for (const auto &Entry : fs::recursive_directory_iterator(Dir, EC)) {
      if (!Entry.is_regular_file())
        continue;
      if (Entry.path().extension() == ".alite")
        AliteFiles.push_back(Entry.path());
      else if (Entry.path().extension() == ".dexlite")
        DexFiles.push_back(Entry.path());
      else if (Entry.path().filename() == "AndroidManifest.xml")
        ManifestFile = Entry.path();
      else if (Entry.path().extension() == ".xml")
        XmlFiles.push_back(Entry.path());
    }
    if (EC)
      return false;
    std::sort(AliteFiles.begin(), AliteFiles.end());
    std::sort(DexFiles.begin(), DexFiles.end());
    std::sort(XmlFiles.begin(), XmlFiles.end());
  }
  if (AliteFiles.empty() && DexFiles.empty())
    return false;

  std::string Text;
  for (const fs::path &Path : AliteFiles) {
    if (!readCounted(Path, Text, App, T))
      return false;
    LexProbe Probe;
    if (T)
      Probe = probeLex(Text, Path.string(), *T);
    {
      Span S(T, Layer::Parse);
      App.Ok &= parser::parseAlite(Text, Path.string(), B.Program, B.Diags);
    }
    if (T)
      T->move(Layer::Parse, Layer::Lex, Probe.Ns, Probe.Used);
  }
  for (const fs::path &Path : DexFiles) {
    if (!readCounted(Path, Text, App, T))
      return false;
    Span S(T, Layer::Parse);
    App.Ok &= dex::parseDexLite(Text, Path.string(), B.Program, B.Diags);
  }
  for (const fs::path &Path : XmlFiles) {
    if (!readCounted(Path, Text, App, T))
      return false;
    Span S(T, Layer::Xml);
    App.Ok &= layout::readLayoutXml(*B.Layouts, Path.stem().string(), Text,
                                    B.Diags) != nullptr;
  }
  {
    Span S(T, Layer::Finalize);
    App.Finalized = B.finalize();
  }
  App.Ok &= App.Finalized;

  if (!ManifestFile.empty()) {
    if (!readCounted(ManifestFile, Text, App, T))
      return false;
    Span S(T, Layer::Manifest);
    App.Manifest =
        android::parseManifest(Text, ManifestFile.string(), B.Diags);
    if (App.Manifest)
      for (const android::ManifestActivity &A : App.Manifest->Activities)
        if (!B.Program.findClass(A.ClassName))
          B.Diags.warning("manifest declares unknown activity '" +
                          A.ClassName + "'");
  }
  return true;
}

std::unique_ptr<analysis::AnalysisResult>
analyzeBundle(corpus::AppBundle &App, const analysis::AnalysisOptions &Options,
              Tracer *T) {
  if (!T)
    return analysis::GuiAnalysis::run(App.Program, *App.Layouts, App.Android,
                                      Options, App.Diags);

  // GuiAnalysis::run, step by step, so build and solve get their own span.
  auto Result = std::make_unique<analysis::AnalysisResult>();
  Result->Options = Options;
  Result->Graph = std::make_unique<graph::ConstraintGraph>();
  Result->Sol = std::make_unique<analysis::Solution>(*Result->Graph,
                                                     App.Android);
  const unsigned CheckFailuresBefore = App.Diags.checkFailureCount();
  Result->Graph->setDiagnostics(&App.Diags);
  {
    Span S(T, Layer::GraphBuild);
    Timer BuildTimer;
    hier::ClassHierarchy CH(App.Program, &App.Diags);
    analysis::GraphBuilder Builder(App.Program, *App.Layouts, App.Android, CH,
                                   App.Diags);
    Builder.setTrace(Options.Trace);
    Builder.setModelUnknownSources(Options.ModelUnknownSources);
    if (!Builder.build(*Result->Graph, Result->Sol->opSites()))
      Result->Sol->markDegraded();
    Result->BuildSeconds = BuildTimer.seconds();
  }
  T->add(Counter::GraphNodes, Result->Graph->size());
  T->add(Counter::FlowEdges, Result->Graph->flowEdgeCount());
  {
    Span S(T, Layer::Solve);
    Timer SolveTimer;
    analysis::Solver Solver(*Result->Graph, *Result->Sol, *App.Layouts,
                            App.Android, Options, App.Diags);
    Result->Stats = Solver.solve();
    Result->SolveSeconds = SolveTimer.seconds();
  }
  T->add(Counter::Propagations, Result->Stats.Propagations);
  T->add(Counter::OpFires, Result->Stats.OpFirings);
  if (App.Diags.checkFailureCount() != CheckFailuresBefore)
    Result->Sol->markDegraded();
  if (!Result->Graph->nodesOfKind(graph::NodeKind::UnknownView).empty() ||
      !Result->Graph->nodesOfKind(graph::NodeKind::UnknownId).empty())
    Result->Sol->markDegraded();
  return Result;
}

int cliExitCode(const analysis::AnalysisResult &Result, bool HadInputErrors) {
  const bool Degraded =
      Result.Sol->fidelity() != analysis::Fidelity::Complete;
  return (HadInputErrors || Degraded) ? 1 : 0;
}

int renderDefaultOutput(const corpus::AppBundle &App,
                        const analysis::AnalysisResult &Result,
                        const android::Manifest *Manifest,
                        bool HadInputErrors,
                        const analysis::Solution::PrecisionMetrics &M,
                        std::string &Text) {
  std::ostringstream Out;
  Out << "classes: " << App.Program.appClassCount()
      << "  methods: " << App.Program.appMethodCount()
      << "  layouts: " << App.Resources.layoutCount()
      << "  view ids: " << App.Resources.viewIdCount() << "\n";
  Result.Graph->dumpStats(Out);
  Out << "precision: receivers=" << M.AvgReceivers;
  if (M.AvgParameters)
    Out << " parameters=" << *M.AvgParameters;
  if (M.AvgResults)
    Out << " results=" << *M.AvgResults;
  if (M.AvgListeners)
    Out << " listeners=" << *M.AvgListeners;
  Out << "\n";
  Out << "fidelity: " << analysis::fidelityName(Result.Sol->fidelity());
  if (Result.Sol->fidelity() == analysis::Fidelity::TruncatedBudget)
    Out << " (budget: "
        << support::budgetReasonName(Result.Sol->truncationReason()) << ")";
  if (!Result.Sol->unresolvedOps().empty())
    Out << " unresolved-ops=" << Result.Sol->unresolvedOps().size();
  const size_t UnknownSources =
      Result.Graph->nodesOfKind(graph::NodeKind::UnknownView).size() +
      Result.Graph->nodesOfKind(graph::NodeKind::UnknownId).size();
  if (UnknownSources)
    Out << " unknown-sources=" << UnknownSources;
  Out << "\n";

  std::string SequencesFrom;
  if (Manifest) {
    Out << "manifest: package=" << Manifest->Package;
    if (auto Launcher = Manifest->launcherActivity()) {
      Out << " launcher=" << *Launcher;
      SequencesFrom = *Launcher;
    }
    Out << "\n";
  }
  int Code = cliExitCode(Result, HadInputErrors);
  if (!SequencesFrom.empty()) {
    const ir::ClassDecl *Start = App.Program.findClass(SequencesFrom);
    if (!Start) {
      Code = 1;
    } else {
      Out << "\nevent sequences from " << SequencesFrom
          << " (length <= 5):\n";
      guimodel::printEventSequences(
          Out, Result,
          guimodel::enumerateEventSequences(Result, Start, 5, 64));
    }
  }
  Text = Out.str();
  return Code;
}

DirRun runAppDir(const std::string &Dir, Tracer *T,
                 analysis::CachedAnalysis *Capture) {
  DirRun R;
  LoadedApp App;
  const bool Loaded = loadAppDir(Dir, App, T);
  std::unique_ptr<analysis::AnalysisResult> Result;
  if (Loaded && App.Finalized) {
    std::ostringstream Err;
    App.Bundle->Diags.print(Err);
    const bool HadInputErrors = !App.Ok || App.Bundle->Diags.hasErrors();
    Result = analyzeBundle(*App.Bundle, analysis::AnalysisOptions(), T);
    analysis::Solution::PrecisionMetrics M;
    {
      Span S(T, Layer::Stats);
      M = Result->metrics();
      if (Capture) {
        Capture->Stats = analysis::collectAppStats(
            fs::path(Dir).filename().string(), App.Bundle->Program, *Result);
        Capture->Precision = M;
        analysis::captureFlowsetHistogram(*Result->Sol,
                                          Capture->FlowHistCounts,
                                          Capture->FlowHistSum,
                                          Capture->FlowHistCount);
      }
    }
    {
      Span S(T, Layer::Clients);
      R.ExitCode =
          renderDefaultOutput(*App.Bundle, *Result,
                              App.Manifest ? &*App.Manifest : nullptr,
                              HadInputErrors, M, R.Out);
    }
    R.AvgReceivers = M.AvgReceivers;
  } else {
    R.ExitCode = 1;
  }
  Span S(T, Layer::Teardown);
  Result.reset();
  App.Bundle.reset();
  return R;
}

namespace {

const ir::MethodDecl *findMethod(const ir::ClassDecl &C,
                                 const std::string &Name) {
  if (const ir::MethodDecl *M = C.findOwnMethod(Name, 0))
    return M;
  for (const ir::MethodDecl *M : C.methods())
    if (M->name() == Name)
      return M;
  return nullptr;
}

} // namespace

void checkGroundTruth(const corpus::GeneratedApp &Truth,
                      corpus::AppBundle &App,
                      analysis::AnalysisResult &Result, bool SoundOnly,
                      std::vector<std::string> &Failures) {
  graph::ConstraintGraph &G = *Result.Graph;
  const std::string &Name = Truth.Spec.Name;
  for (const corpus::FindViewExpectation &E : Truth.Finds) {
    const ir::ClassDecl *C = App.Program.findClass(E.ClassName);
    const ir::MethodDecl *M = C ? findMethod(*C, E.MethodName) : nullptr;
    const ir::VarId V = M ? M->findVar(E.OutVar) : ir::InvalidVar;
    if (V == ir::InvalidVar) {
      Failures.push_back(Name + ": no variable " + E.ClassName + "." +
                         E.MethodName + "::" + E.OutVar);
      continue;
    }
    const std::vector<graph::NodeId> Views =
        Result.Sol->viewsAt(G.getVarNode(M, V));
    bool Found = false;
    for (graph::NodeId View : Views) {
      const graph::Node &Info = G.node(View);
      if (Info.Kind == graph::NodeKind::ViewInfl && Info.LNode &&
          Info.LNode->viewIdName() == E.ViewIdName)
        Found = true;
      if (Info.Kind == graph::NodeKind::ViewAlloc && E.ViewIdName.empty())
        Found = true;
    }
    if (!Found)
      Failures.push_back(Name + ": find " + E.ClassName + "." + E.MethodName +
                         "::" + E.OutVar + " misses view " + E.ViewIdName);
    else if (!SoundOnly && !E.ViaSharedHelper &&
             Views.size() != E.ExpectedMatches)
      Failures.push_back(Name + ": find " + E.ClassName + "." + E.MethodName +
                         "::" + E.OutVar + " has " +
                         std::to_string(Views.size()) + " views, expected " +
                         std::to_string(E.ExpectedMatches));
  }
  for (const corpus::ListenerExpectation &E : Truth.Listeners) {
    const ir::ClassDecl *Act = App.Program.findClass(E.ActivityClass);
    bool Satisfied = false;
    if (Act)
      for (graph::NodeId Root : G.roots(G.getActivityNode(Act)))
        for (graph::NodeId View : G.descendantsOf(Root)) {
          const graph::Node &Info = G.node(View);
          if (Info.Kind != graph::NodeKind::ViewInfl || !Info.LNode ||
              Info.LNode->viewIdName() != E.ViewIdName)
            continue;
          for (graph::NodeId L : G.listeners(View))
            if (G.node(L).Klass && G.node(L).Klass->name() == E.ListenerClass)
              Satisfied = true;
        }
    if (!Satisfied)
      Failures.push_back(Name + ": view " + E.ViewIdName + " of " +
                         E.ActivityClass + " lacks listener " +
                         E.ListenerClass);
  }
}

void checkOracles(corpus::AppBundle &App,
                  const analysis::AnalysisResult &Result,
                  std::vector<std::string> &Failures) {
  DiagnosticEngine Diags;
  auto Phased = analysis::runPhasedAnalysis(App.Program, *App.Layouts,
                                            App.Android, Result.Options,
                                            Diags);
  if (!Phased ||
      analysis::solutionDigest(*Phased->Sol) !=
          analysis::solutionDigest(*Result.Sol))
    Failures.push_back(App.Name + ": PhasedSolver disagrees with the solver");
  for (const std::string &V : analysis::checkSolutionClosure(Result))
    Failures.push_back(App.Name + ": closure: " + V);
}

uint64_t sourceBytes(const corpus::GeneratedApp &App) {
  uint64_t Bytes = parser::programToString(App.Bundle->Program).size();
  for (const auto &Def : App.Bundle->Layouts->layouts())
    Bytes += layout::layoutToXml(*Def).size();
  return Bytes;
}

} // namespace gatorbench
