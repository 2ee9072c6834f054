//===- bench_parallel.cpp - Strong-scaling sweep of the batch engine ------===//
//
// Measures the parallel batch-analysis engine (docs/PARALLEL.md) end to
// end: the 20-app paper corpus and a synthetic 200-app batch, each swept
// over 1/2/4/8 workers. Reports wall time, speedup vs -j 1, parallel
// efficiency, and the per-worker task split, and cross-checks that the
// aggregate solver counters are identical at every job count (the
// determinism contract — parallelism must never change a result).
//
// Results are recorded in bench/BENCH_parallel.json. On a single-core
// container the sweep degenerates to an overhead measurement: every job
// count should take about the -j 1 time (the scheduler just interleaves),
// and the counter cross-check is the meaningful signal.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "corpus/BatchRunner.h"
#include "corpus/FleetReport.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::support;

namespace {

/// The synthetic 200-app batch: small apps (a few activities each) whose
/// per-app solve is quick, so scheduling overhead is a visible fraction —
/// the stress case for the task queue rather than the solver.
std::vector<AppSpec> syntheticBatch(unsigned Count) {
  std::vector<AppSpec> Specs;
  Specs.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    AppSpec Spec;
    Spec.Name = "Synth" + std::to_string(I);
    Spec.Seed = 1000 + I;
    Spec.Activities = 2 + I % 3;
    Spec.FillerClasses = 4;
    Spec.ViewsPerLayout = 6;
    Spec.IdsPerLayout = 4;
    Spec.DirectFindsPerActivity = 2;
    Spec.ListenersPerActivity = 1;
    Spec.ProgViewsPerActivity = 1;
    Specs.push_back(Spec);
  }
  return Specs;
}

/// One counter line summing the whole batch; any divergence across job
/// counts is a determinism bug.
std::string aggregateLine(const std::vector<BatchAppResult> &Batch) {
  std::vector<AppStats> PerApp;
  for (const BatchAppResult &R : Batch)
    if (!R.GenerationFailed)
      PerApp.push_back(R.Stats);
  AppStats A = aggregateAppStats("TOTAL", PerApp);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "apps=%zu propagate=%lu opFire=%lu pushed=%lu work=%lu "
                "unresolved=%lu",
                PerApp.size(), A.Propagations, A.OpFirings, A.ValuesPushed,
                A.WorkCharged, A.UnresolvedOps);
  return Buf;
}

struct SweepPoint {
  unsigned Jobs = 1;
  double Seconds = 0.0;
  unsigned long long PeakRssBytes = 0; ///< process high-water after the point
  std::vector<unsigned long> TasksPerWorker;
  std::string Counters;
};

std::vector<SweepPoint> sweep(const char *Label,
                              const std::vector<AppSpec> &Specs,
                              const std::vector<unsigned> &JobValues,
                              std::vector<BatchAppResult> *KeepLast = nullptr) {
  std::printf("%s (%zu apps)\n", Label, Specs.size());
  std::printf("%6s %10s %9s %11s  %s\n", "jobs", "time(s)", "speedup",
              "efficiency", "tasks/worker");
  std::vector<SweepPoint> Points;
  double Baseline = 0.0;
  for (unsigned Jobs : JobValues) {
    AnalysisOptions Options;
    Options.Jobs = Jobs;
    ParallelForStats Stats;
    Timer T;
    std::vector<BatchAppResult> Batch =
        analyzeCorpus(Specs, Options, &Stats, /*KeepArtifacts=*/false);
    SweepPoint P;
    P.Jobs = Jobs;
    P.Seconds = T.seconds();
    P.PeakRssBytes = currentPeakRssBytes();
    P.TasksPerWorker = Stats.TasksPerWorker;
    P.Counters = aggregateLine(Batch);
    if (Points.empty())
      Baseline = P.Seconds;
    double Speedup = Baseline / P.Seconds;
    std::string Split;
    for (unsigned long C : P.TasksPerWorker) {
      if (!Split.empty())
        Split += '/';
      Split += std::to_string(C);
    }
    std::printf("%6u %10.3f %8.2fx %10.0f%%  %s\n", Jobs, P.Seconds, Speedup,
                100.0 * Speedup / Stats.WorkersUsed, Split.c_str());
    Points.push_back(std::move(P));
    if (KeepLast)
      *KeepLast = std::move(Batch);
  }
  bool CountersAgree = true;
  for (const SweepPoint &P : Points)
    CountersAgree &= P.Counters == Points.front().Counters;
  std::printf("counters: %s -> %s\n\n", Points.front().Counters.c_str(),
              CountersAgree ? "identical at every job count"
                            : "DIVERGED (determinism bug!)");
  return Points;
}

struct CachePoint {
  unsigned Jobs = 1;
  double ColdSeconds = 0.0;
  double WarmSeconds = 0.0;
  double EditSeconds = 0.0;
  unsigned long long WarmHits = 0;
  unsigned long long EditMisses = 0;
};

/// Cold/warm/edit sweep of the content-addressed solution cache
/// (docs/INCREMENTAL.md) over one spec list. Per job count: a fresh cache
/// is populated cold, replayed warm (every app a hit; the aggregate
/// counters must match the cold pass exactly), then hit with an "edited"
/// fleet — 1% of specs changed — where only the edited apps re-solve.
std::vector<CachePoint> cacheSweep(const std::vector<AppSpec> &Specs,
                                   const std::vector<unsigned> &JobValues) {
  std::vector<AppSpec> Edited = Specs;
  unsigned EditedApps = 0;
  for (size_t I = 0; I < Edited.size(); I += 100) {
    Edited[I].DirectFindsPerActivity += 1;
    ++EditedApps;
  }
  std::printf("solution-cache sweep (%zu apps, %u edited in the edit pass)\n",
              Specs.size(), EditedApps);
  std::printf("%6s %10s %10s %9s %10s\n", "jobs", "cold(s)", "warm(s)",
              "speedup", "edit(s)");
  std::vector<CachePoint> Points;
  for (unsigned Jobs : JobValues) {
    AnalysisOptions Options;
    Options.Jobs = Jobs;
    // Memory tier sized to the fleet so the warm pass measures replay,
    // not FIFO churn.
    analysis::SolutionCache Cache("", Specs.size() + 64);
    CachePoint P;
    P.Jobs = Jobs;
    Timer TC;
    std::vector<BatchAppResult> Cold = analyzeCorpus(
        Specs, Options, nullptr, /*KeepArtifacts=*/false, &Cache);
    P.ColdSeconds = TC.seconds();
    const unsigned long long ColdMisses = Cache.misses();
    Timer TW;
    std::vector<BatchAppResult> Warm = analyzeCorpus(
        Specs, Options, nullptr, /*KeepArtifacts=*/false, &Cache);
    P.WarmSeconds = TW.seconds();
    P.WarmHits = Cache.hits();
    Timer TE;
    std::vector<BatchAppResult> Edit = analyzeCorpus(
        Edited, Options, nullptr, /*KeepArtifacts=*/false, &Cache);
    P.EditSeconds = TE.seconds();
    P.EditMisses = Cache.misses() - ColdMisses;
    std::printf("%6u %10.3f %10.3f %8.1fx %10.3f\n", Jobs, P.ColdSeconds,
                P.WarmSeconds, P.ColdSeconds / P.WarmSeconds, P.EditSeconds);
    if (aggregateLine(Warm) != aggregateLine(Cold))
      std::printf("  WARM COUNTERS DIVERGED from cold (replay bug!)\n");
    if (P.WarmHits != Specs.size())
      std::printf("  warm hits %llu != %zu apps (eligibility bug?)\n",
                  P.WarmHits, Specs.size());
    if (P.EditMisses != EditedApps)
      std::printf("  edit pass missed %llu apps, expected %u\n", P.EditMisses,
                  EditedApps);
    Points.push_back(P);
  }
  std::printf("\n");
  return Points;
}

struct EditMicro {
  double ScratchSeconds = 0.0;
  double IncSeconds = 0.0;
  unsigned long IncPropagations = 0;
  unsigned long ScratchPropagations = 0;
};

/// Edit-scale micro-measure: one layout edit re-solved incrementally
/// (DRed retract + re-derive) vs a from-scratch solve of the edited app.
EditMicro editScaleMicro() {
  EditMicro M;
  AppSpec Spec = paperCorpus().front();
  GeneratedApp App = generateApp(Spec);
  corpus::AppBundle &B = *App.Bundle;
  analysis::IncrementalAnalysis Inc(B.Program, *B.Layouts, B.Android, {},
                                    B.Diags);
  Inc.solveInitial();
  // Reverse the child order of the first editable layout.
  for (const auto &Def : B.Layouts->layouts()) {
    if (!Def->root())
      continue;
    auto NewRoot = Def->root()->clone();
    auto Children = NewRoot->takeChildren();
    for (auto It = Children.rbegin(); It != Children.rend(); ++It)
      NewRoot->addChild(std::move(*It));
    Timer TI;
    if (!Inc.reanalyzeLayout(Def->name(), std::move(NewRoot)))
      continue; // include target; try the next layout
    M.IncSeconds = TI.seconds();
    M.IncPropagations = Inc.lastStats().Propagations;
    break;
  }
  AnalysisOptions ScratchOptions;
  ScratchOptions.RecordProvenance = false;
  Timer TS;
  auto Scratch = analysis::GuiAnalysis::run(B.Program, *B.Layouts, B.Android,
                                            ScratchOptions, B.Diags);
  M.ScratchSeconds = TS.seconds();
  if (Scratch)
    M.ScratchPropagations = Scratch->Stats.Propagations;
  std::printf("edit-scale micro (1 layout edit, %s): incremental %.4fs "
              "(%lu propagations) vs scratch %.4fs (%lu propagations)\n\n",
              Spec.Name.c_str(), M.IncSeconds, M.IncPropagations,
              M.ScratchSeconds, M.ScratchPropagations);
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  // --fleet N      size of the generated fleet sweep (0 disables; default
  //                10000 — the memory-bound regime of docs/MEMORY.md)
  // --fleet-only   skip the corpus/synthetic sweeps (fresh-process fleet
  //                numbers: peak RSS is attributable to the fleet alone)
  // --jobs A,B,..  job counts to sweep (default 1,2,4,8)
  // --hostile [P]  hostile-shape rates for the fleet (docs/ROBUSTNESS.md):
  //                P percent of apps (default 20) draw reflective
  //                construction, dynamic find ids, and missing-layout
  //                references each; such apps analyze as DegradedInput
  // --cache        replace the scaling sweep with the solution-cache
  //                cold/warm/edit sweep over the fleet plus the
  //                edit-scale incremental micro-measure
  //                (docs/INCREMENTAL.md); results go to
  //                bench/BENCH_incremental.json
  // --ledger-out F write the fleet sweep's run ledger to F: one JSONL
  //                wide-event record per generated app
  //                (docs/OBSERVABILITY.md, "Run ledger & reports");
  //                inspect with `gator_cli report F`
  unsigned FleetApps = 10000;
  bool FleetOnly = false;
  bool CacheMode = false;
  unsigned HostilePercent = 0;
  const char *LedgerOut = nullptr;
  std::vector<unsigned> JobValues = {1, 2, 4, 8};
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--fleet") && I + 1 < Argc)
      FleetApps = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--ledger-out") && I + 1 < Argc)
      LedgerOut = Argv[++I];
    else if (!std::strcmp(Argv[I], "--fleet-only"))
      FleetOnly = true;
    else if (!std::strcmp(Argv[I], "--cache"))
      CacheMode = true;
    else if (!std::strcmp(Argv[I], "--hostile"))
      HostilePercent = (I + 1 < Argc &&
                        std::isdigit(static_cast<unsigned char>(*Argv[I + 1])))
                           ? static_cast<unsigned>(std::atoi(Argv[++I]))
                           : 20;
    else if (!std::strcmp(Argv[I], "--jobs") && I + 1 < Argc) {
      JobValues.clear();
      for (const char *P = Argv[++I]; *P;) {
        JobValues.push_back(static_cast<unsigned>(std::strtoul(P, nullptr, 10)));
        while (*P && *P != ',')
          ++P;
        if (*P == ',')
          ++P;
      }
    }
  }

  if (CacheMode) {
    std::printf("Solution-cache cold/warm/edit sweep "
                "(docs/INCREMENTAL.md)\n");
    std::printf("hardware concurrency: %u\n\n",
                std::thread::hardware_concurrency());
    FleetSpec FS;
    FS.Apps = FleetApps;
    std::vector<CachePoint> Points = cacheSweep(makeFleet(FS), JobValues);
    EditMicro Micro = editScaleMicro();
    // Machine-readable tail for bench/BENCH_incremental.json.
    std::printf("json: {\"apps\": %u, \"sweep\": {", FleetApps);
    const char *Sep = "";
    for (const CachePoint &P : Points) {
      std::printf("%s\"j%u\": {\"cold\": %.4f, \"warm\": %.4f, "
                  "\"edit\": %.4f, \"warm_speedup\": %.1f}",
                  Sep, P.Jobs, P.ColdSeconds, P.WarmSeconds, P.EditSeconds,
                  P.ColdSeconds / P.WarmSeconds);
      Sep = ", ";
    }
    std::printf("}, \"edit_micro\": {\"incremental\": %.6f, "
                "\"scratch\": %.6f, \"incremental_propagations\": %lu, "
                "\"scratch_propagations\": %lu}}\n",
                Micro.IncSeconds, Micro.ScratchSeconds, Micro.IncPropagations,
                Micro.ScratchPropagations);
    return 0;
  }

  std::printf("Strong-scaling sweep of the parallel batch engine "
              "(docs/PARALLEL.md)\n");
  std::printf("hardware concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  std::vector<SweepPoint> Corpus, Synthetic, Fleet;
  if (!FleetOnly) {
    Corpus = sweep("paper corpus", paperCorpus(), JobValues);
    Synthetic = sweep("synthetic batch", syntheticBatch(200), JobValues);
  }
  if (FleetApps) {
    FleetSpec FS;
    FS.Apps = FleetApps;
    FS.ReflectivePercent = HostilePercent;
    FS.DynamicIdPercent = HostilePercent;
    FS.MissingLayoutPercent = HostilePercent;
    const std::vector<AppSpec> FleetSpecs = makeFleet(FS);
    std::vector<BatchAppResult> LastBatch;
    Fleet = sweep(HostilePercent ? "generated fleet (hostile)"
                                 : "generated fleet",
                  FleetSpecs, JobValues, LedgerOut ? &LastBatch : nullptr);
    const SweepPoint &P0 = Fleet.front();
    std::printf("fleet throughput at -j%u: %.1f apps/s, peak RSS %.1f MiB "
                "(%.1f KiB/app)\n\n",
                P0.Jobs, FleetApps / P0.Seconds,
                P0.PeakRssBytes / (1024.0 * 1024.0),
                P0.PeakRssBytes / 1024.0 / FleetApps);
    if (LedgerOut) {
      // The ledger of the sweep's last pass: an inspectable artifact per
      // bench run (`gator_cli report <file>` renders the health summary).
      std::ofstream OS(LedgerOut);
      if (!OS) {
        std::fprintf(stderr, "error: cannot write %s\n", LedgerOut);
        return 2;
      }
      const support::Ledger L = corpus::fleetLedger(
          FleetSpecs, AnalysisOptions(), LastBatch,
          /*CacheEnabled=*/false, /*NoTimes=*/false);
      support::writeLedger(OS, L.Header, L.Events);
      std::printf("fleet ledger written to %s (%zu records)\n\n", LedgerOut,
                  L.Events.size());
    }
  }

  // Machine-readable tail for bench/BENCH_parallel.json and
  // bench/BENCH_arena.json.
  std::printf("json: {");
  const char *Sep = "";
  struct Series {
    const char *Name;
    const std::vector<SweepPoint> *Points;
  };
  for (const Series &S : {Series{"corpus20", &Corpus},
                          Series{"synthetic200", &Synthetic},
                          Series{"fleet", &Fleet}}) {
    if (S.Points->empty())
      continue;
    std::printf("%s\"%s\": {", Sep, S.Name);
    const char *Inner = "";
    for (const SweepPoint &P : *S.Points) {
      std::printf("%s\"j%u\": %.4f", Inner, P.Jobs, P.Seconds);
      Inner = ", ";
    }
    std::printf("%s\"peak_rss_bytes\": %llu", Inner,
                S.Points->front().PeakRssBytes);
    if (S.Points == &Fleet)
      std::printf(", \"apps\": %u", FleetApps);
    std::printf("}");
    Sep = ", ";
  }
  std::printf("}\n");
  return 0;
}
