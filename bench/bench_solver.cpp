//===- bench_solver.cpp - Solver-core microbenchmarks -----------*- C++ -*-===//
//
// Google-benchmark suite isolating the fixed-point solver core
// (docs/DELTA_SOLVER.md) from the rest of the pipeline. Graph
// construction happens outside the timed region, so the BM_Solve*
// benchmarks time the solver core alone; BM_GraphBuildOnly gives the
// phase they exclude. Solver counters are exported as benchmark counters
// so regressions in work done (not just wall time) are visible.
//
// Record results in bench/BENCH_solver.json (instructions there).
//
//===----------------------------------------------------------------------===//

#include "analysis/GraphBuilder.h"
#include "analysis/GuiAnalysis.h"
#include "analysis/Solver.h"
#include "corpus/ConnectBot.h"
#include "corpus/Corpus.h"
#include "hier/ClassHierarchy.h"

#include <benchmark/benchmark.h>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;

namespace {

AppSpec sweepSpec(unsigned Activities) {
  AppSpec Spec;
  Spec.Name = "SolverSweep";
  Spec.Seed = 7;
  Spec.Activities = Activities;
  Spec.FillerClasses = 50;
  Spec.MethodsPerFillerClass = 5;
  Spec.ViewsPerLayout = 12;
  Spec.IdsPerLayout = 7;
  Spec.DirectFindsPerActivity = 3;
  Spec.ListenersPerActivity = 2;
  Spec.ProgViewsPerActivity = 1;
  Spec.InflateItemsPerActivity = 1;
  return Spec;
}

/// One fresh graph + solution + op table, ready to solve. The solver
/// mutates the graph (inflation mints nodes), so every timed solve needs
/// its own copy; construction runs outside the timed region.
struct PreparedGraph {
  graph::ConstraintGraph Graph;
  std::unique_ptr<Solution> Sol;
  bool Ok = false;
};

PreparedGraph prepare(const AppBundle &Bundle, DiagnosticEngine &Diags) {
  PreparedGraph P;
  P.Sol = std::make_unique<Solution>(P.Graph, Bundle.Android);
  hier::ClassHierarchy CH(Bundle.Program);
  GraphBuilder Builder(Bundle.Program, *Bundle.Layouts, Bundle.Android, CH,
                       Diags);
  P.Ok = Builder.build(P.Graph, P.Sol->opSites());
  return P;
}

void exportCounters(benchmark::State &State, const SolverStats &Stats) {
  State.counters["propagations"] = static_cast<double>(Stats.Propagations);
  State.counters["op_firings"] = static_cast<double>(Stats.OpFirings);
  State.counters["values_pushed"] = static_cast<double>(Stats.ValuesPushed);
  State.counters["dedup_hits"] = static_cast<double>(Stats.DedupHits);
  State.counters["delta_commits"] = static_cast<double>(Stats.DeltaCommits);
  State.counters["structure_rounds"] =
      static_cast<double>(Stats.StructureRounds);
  State.counters["peak_set"] = static_cast<double>(Stats.PeakSetSize);
  State.counters["desc_hits"] = static_cast<double>(Stats.DescCacheHits);
  State.counters["desc_misses"] = static_cast<double>(Stats.DescCacheMisses);
}

/// Times solve() alone on fresh graphs of \p Bundle and exports the last
/// run's counters.
void solveLoop(benchmark::State &State, const AppBundle &Bundle) {
  AnalysisOptions Options;
  SolverStats Last;
  for (auto _ : State) {
    State.PauseTiming();
    DiagnosticEngine Diags;
    PreparedGraph P = prepare(Bundle, Diags);
    State.ResumeTiming();
    Solver S(P.Graph, *P.Sol, *Bundle.Layouts, Bundle.Android, Options,
             Diags);
    Last = S.solve();
    benchmark::DoNotOptimize(Last);
  }
  exportCounters(State, Last);
}

/// Solve-only cost, swept by app size.
void BM_SolveDelta(benchmark::State &State) {
  GeneratedApp App = generateApp(sweepSpec(static_cast<unsigned>(State.range(0))));
  solveLoop(State, *App.Bundle);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SolveDelta)->RangeMultiplier(2)->Range(2, 64)->Complexity();

/// High-aliasing variant: lookups routed through a shared base-class
/// helper merge views from every activity into the same variables, so
/// flowsTo sets grow far past the small-set regime, where difference
/// propagation matters most.
AppSpec aliasedSpec(unsigned Activities) {
  AppSpec Spec = sweepSpec(Activities);
  Spec.Name = "SolverAliased";
  Spec.SharedFindsPerActivity = 4;
  Spec.SharedHelperUsers = Activities;
  Spec.UseFlipper = true;
  return Spec;
}

void BM_SolveAliased(benchmark::State &State) {
  GeneratedApp App =
      generateApp(aliasedSpec(static_cast<unsigned>(State.range(0))));
  solveLoop(State, *App.Bundle);
}
BENCHMARK(BM_SolveAliased)->Arg(16)->Arg(32)->Arg(64);

/// The phase the solve benchmarks exclude: hierarchy + graph construction.
void BM_GraphBuildOnly(benchmark::State &State) {
  GeneratedApp App = generateApp(sweepSpec(static_cast<unsigned>(State.range(0))));
  for (auto _ : State) {
    DiagnosticEngine Diags;
    PreparedGraph P = prepare(*App.Bundle, Diags);
    benchmark::DoNotOptimize(P.Ok);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_GraphBuildOnly)->RangeMultiplier(2)->Range(2, 64)->Complexity();

/// The hand-written ConnectBot example (small, but the op mix — inflate,
/// findView, listeners, hierarchy walks — is realistic).
void BM_SolveConnectBot(benchmark::State &State) {
  auto Bundle = buildConnectBotExample();
  if (!Bundle || Bundle->Diags.hasErrors()) {
    State.SkipWithError("ConnectBot example failed to build");
    return;
  }
  solveLoop(State, *Bundle);
}
BENCHMARK(BM_SolveConnectBot);

} // namespace

BENCHMARK_MAIN();
