//===- BatchRunner.cpp - Parallel corpus-wide analysis ----------*- C++ -*-===//

#include "corpus/BatchRunner.h"

#include "support/ThreadPool.h"

using namespace gator;
using namespace gator::corpus;

std::vector<BatchAppResult>
gator::corpus::analyzeCorpus(const std::vector<AppSpec> &Specs,
                             const analysis::AnalysisOptions &Options,
                             bool KeepArtifacts) {
  analysis::AnalysisOptions TaskOptions = Options;
  // A TraceSink is thread-confined and no caller of the batch traces, so
  // the tasks run untraced.
  TaskOptions.Trace = nullptr;
  if (!TaskOptions.Budget.SharedDeadline)
    TaskOptions.Budget.SharedDeadline =
        support::makeSharedDeadline(Options.Budget.MaxWallSeconds);

  return support::parallelMap<BatchAppResult>(
      Options.Jobs, Specs.size(), [&](size_t I) {
        BatchAppResult R;
        R.Index = I;
        R.Name = Specs[I].Name;

        R.App = generateApp(Specs[I]);
        if (R.App.Bundle->Diags.hasErrors()) {
          R.GenerationFailed = true;
          return R;
        }
        R.Result = analysis::GuiAnalysis::run(
            R.App.Bundle->Program, *R.App.Bundle->Layouts,
            R.App.Bundle->Android, TaskOptions, R.App.Bundle->Diags);
        R.Stats = analysis::collectAppStats(R.Name, R.App.Bundle->Program,
                                            *R.Result);
        R.Metrics = R.Result->metrics();
        R.BuildSeconds = R.Result->BuildSeconds;
        R.SolveSeconds = R.Result->SolveSeconds;
        if (!KeepArtifacts) {
          // All per-app ownership (IR decls, graph adjacency, flow sets)
          // lives on arenas inside the bundle and the result, so this is
          // a pure slab drop — no per-node deletes (docs/MEMORY.md). The
          // stats row above already harvested ArenaBytes/PeakRssBytes.
          R.Result.reset();
          R.App = GeneratedApp();
        }
        return R;
      });
}
