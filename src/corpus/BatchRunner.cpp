//===- BatchRunner.cpp - Parallel corpus-wide analysis ----------*- C++ -*-===//

#include "corpus/BatchRunner.h"

using namespace gator;
using namespace gator::corpus;

std::vector<BatchAppResult>
gator::corpus::analyzeCorpus(const std::vector<AppSpec> &Specs,
                             const analysis::AnalysisOptions &Options,
                             support::ParallelForStats *Stats,
                             bool KeepArtifacts,
                             analysis::SolutionCache *Cache) {
  analysis::AnalysisOptions TaskOptions = Options;
  if (!TaskOptions.Budget.SharedDeadline)
    TaskOptions.Budget.SharedDeadline =
        support::makeSharedDeadline(Options.Budget.MaxWallSeconds);

  // The cache serves a record without artifacts, so it only applies to
  // stats-only sweeps; a wall deadline makes outcomes timing-dependent
  // and thus uncacheable (docs/INCREMENTAL.md).
  if (KeepArtifacts || !analysis::cacheEligible(TaskOptions))
    Cache = nullptr;
  const support::Hash128 OptionsKey =
      Cache ? analysis::hashAnalysisOptions(TaskOptions) : support::Hash128{};

  return support::parallelMap<BatchAppResult>(
      Options.Jobs, Specs.size(),
      [&](size_t I) {
        BatchAppResult R;
        R.Index = I;
        R.Name = Specs[I].Name;

        // Tracing is thread-confined: each task records into its own sink
        // and the caller merges them in spec order. The shared sink from
        // the options is never touched inside the fan-out. The sink exists
        // before the cache consult so warm hits still record their
        // cache.lookup span inside the analyze-app envelope.
        analysis::AnalysisOptions AppOptions = TaskOptions;
        if (Options.Trace) {
          R.Trace = std::make_unique<support::TraceSink>();
          AppOptions.Trace = R.Trace.get();
        }
        support::TraceSpan AppSpan(AppOptions.Trace, "analyze-app");
        AppSpan.arg("index", I);

        support::Hash128 Key{};
        if (Cache) {
          Key = analysis::combineCacheKey(hashAppSpec(Specs[I]), OptionsKey);
          analysis::CachedAnalysis Entry;
          if (Cache->lookup(Key, Entry, AppOptions.Trace) ==
              analysis::SolutionCache::Outcome::Hit) {
            R.CacheHit = true;
            R.Stats = Entry.Stats;
            R.Metrics = Entry.Precision;
            R.BuildSeconds = Entry.Stats.BuildSeconds;
            R.SolveSeconds = Entry.Stats.SolveSeconds;
            return R;
          }
          // Corrupt degrades to a miss: fall through to the full solve.
        }

        R.App = generateApp(Specs[I]);
        if (R.App.Bundle->Diags.hasErrors()) {
          R.GenerationFailed = true;
          return R;
        }
        R.Result = analysis::GuiAnalysis::run(
            R.App.Bundle->Program, *R.App.Bundle->Layouts,
            R.App.Bundle->Android, AppOptions, R.App.Bundle->Diags);
        R.Stats = analysis::collectAppStats(R.Name, R.App.Bundle->Program,
                                            *R.Result);
        R.Metrics = R.Result->metrics();
        R.BuildSeconds = R.Result->BuildSeconds;
        R.SolveSeconds = R.Result->SolveSeconds;
        if (Cache) {
          analysis::CachedAnalysis Entry;
          Entry.Stats = R.Stats;
          Entry.Precision = R.Metrics;
          analysis::captureFlowsetHistogram(*R.Result->Sol,
                                            Entry.FlowHistCounts,
                                            Entry.FlowHistSum,
                                            Entry.FlowHistCount);
          Cache->store(Key, Entry, AppOptions.Trace);
        }
        if (!KeepArtifacts) {
          // All per-app ownership (IR decls, graph adjacency, flow sets)
          // lives on arenas inside the bundle and the result, so this is
          // a pure slab drop — no per-node deletes (docs/MEMORY.md). The
          // stats row above already harvested ArenaBytes/PeakRssBytes.
          R.Result.reset();
          R.App = GeneratedApp();
        }
        return R;
      },
      Stats);
}
