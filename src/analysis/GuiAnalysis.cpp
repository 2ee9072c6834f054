//===- GuiAnalysis.cpp - Analysis facade ------------------------*- C++ -*-===//

#include "analysis/GuiAnalysis.h"

#include "analysis/GraphBuilder.h"
#include "hier/ClassHierarchy.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace gator;
using namespace gator::analysis;

const hier::ClassHierarchy &AnalysisResult::hierarchy() const {
  if (!Hierarchy)
    Hierarchy.emplace(Sol->androidModel().program());
  return *Hierarchy;
}

std::unique_ptr<AnalysisResult>
GuiAnalysis::run(const ir::Program &P, layout::LayoutRegistry &Layouts,
                 const android::AndroidModel &AM,
                 const AnalysisOptions &Options, DiagnosticEngine &Diags) {
  return runWith(P, Layouts, AM, Options, Diags, [&](AnalysisResult &R) {
    Solver S(*R.Graph, *R.Sol, Layouts, AM, R.Options, Diags);
    S.setProvenance(R.Provenance.get());
    R.Stats = S.solve();
  });
}

std::unique_ptr<AnalysisResult>
GuiAnalysis::runWith(const ir::Program &P, layout::LayoutRegistry &Layouts,
                     const android::AndroidModel &AM,
                     const AnalysisOptions &Options, DiagnosticEngine &Diags,
                     const SolveStep &Solve, const BuildHook &Prepare) {
  auto Result = std::make_unique<AnalysisResult>();
  Result->Options = Options;
  Result->Graph = std::make_unique<graph::ConstraintGraph>();
  Result->Sol = std::make_unique<Solution>(*Result->Graph, AM);

  unsigned CheckFailuresBefore = Diags.checkFailureCount();

  Timer BuildTimer;
  Result->Graph->setDiagnostics(&Diags);
  {
    support::TraceSpan BuildSpan(Options.Trace, "graph-build");
    Result->Hierarchy.emplace(P, &Diags);
    GraphBuilder Builder(P, Layouts, AM, *Result->Hierarchy, Diags);
    Builder.setTrace(Options.Trace);
    Builder.setModelUnknownSources(Options.ModelUnknownSources);
    if (Prepare)
      Prepare(Builder, *Result);
    if (!Builder.build(*Result->Graph, Result->Sol->opSites()))
      Result->Sol->markDegraded();
    BuildSpan.arg("nodes", Result->Graph->size());
    BuildSpan.arg("ops", Result->Sol->opSites().size());
  }
  Result->BuildSeconds = BuildTimer.seconds();

  if (Options.RecordProvenance) {
    Result->Provenance = std::make_unique<ProvenanceRecorder>();
    // Endpoint-kind checks let the recorder flag facts involving unknown
    // nodes as approximate (docs/ROBUSTNESS.md).
    Result->Provenance->bindGraph(Result->Graph.get());
  }

  Timer SolveTimer;
  {
    support::TraceSpan SolveSpan(Options.Trace, "solve");
    Solve(*Result);
    SolveSpan.arg("propagations", Result->Stats.Propagations);
  }
  Result->SolveSeconds = SolveTimer.seconds();

  markFidelity(*Result, Diags, CheckFailuresBefore);
  return Result;
}

void GuiAnalysis::markFidelity(AnalysisResult &R,
                               const DiagnosticEngine &Diags,
                               unsigned CheckFailuresBefore) {
  if (Diags.checkFailureCount() != CheckFailuresBefore ||
      R.Graph->hasUnknownSources())
    R.Sol->markDegraded();
}
