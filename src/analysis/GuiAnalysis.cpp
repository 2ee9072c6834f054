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
    Solver S(*Result->Graph, *Result->Sol, Layouts, AM, Options, Diags);
    S.setProvenance(Result->Provenance.get());
    Result->Stats = S.solve();
    SolveSpan.arg("propagations", Result->Stats.Propagations);
  }
  Result->SolveSeconds = SolveTimer.seconds();

  // Any recoverable-invariant failure during this run (graph edge drops,
  // hierarchy degradations) means facts may have been discarded.
  if (Diags.checkFailureCount() != CheckFailuresBefore)
    Result->Sol->markDegraded();
  // Unknown-source nodes mean some facts are conservative approximations
  // of hostile input (reflection, dynamic ids, missing resources): the
  // solution is usable but must not claim completeness.
  if (!Result->Graph->nodesOfKind(graph::NodeKind::UnknownView).empty() ||
      !Result->Graph->nodesOfKind(graph::NodeKind::UnknownId).empty())
    Result->Sol->markDegraded();
  return Result;
}
