//===- parallel_test.cpp - Parallel batch engine tests ----------*- C++ -*-===//
//
// The determinism and thread-safety contract of the parallel execution
// layer (docs/PARALLEL.md):
//
//  - ThreadPool runs every task, survives task exceptions, and reports
//    per-worker task counts;
//  - parallelFor is an exact inline serial loop at Jobs=1 and rethrows
//    the lowest-index exception deterministically at any job count;
//  - a corpus batch produces byte-identical per-app JSON, identical
//    per-app and aggregate AppStats, and identical fidelity markers at
//    -j 1/2/4/8 — including under injected faults and forced budget
//    trips;
//  - a 200-app hostile generated fleet, artifacts dropped per task,
//    yields identical per-app counters and fidelity at -j 1 and -j 4;
//  - the batch wall-clock deadline is shared (a slow early app starves
//    later apps, which report TruncatedBudget/deadline) while work-item
//    caps stay per-task;
//  - BudgetTracker cancellation is safe to trip from another thread.
//
//===----------------------------------------------------------------------===//

#include "analysis/WideEvent.h"
#include "corpus/BatchRunner.h"
#include "guimodel/JsonExport.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::support;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  std::atomic<int> Sum{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Sum] { Sum.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 100);

  std::vector<unsigned long> Counts = Pool.tasksExecuted();
  EXPECT_EQ(Counts.size(), 4u);
  EXPECT_EQ(std::accumulate(Counts.begin(), Counts.end(), 0ul), 100ul);
}

TEST(ThreadPoolTest, SurvivesTaskExceptions) {
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  Pool.submit([] { throw std::runtime_error("task failed"); });
  Pool.submit([&Ran] { ++Ran; });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 1);

  std::vector<std::exception_ptr> Errors = Pool.takeExceptions();
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_THROW(std::rethrow_exception(Errors[0]), std::runtime_error);
  // Drained: a second take returns nothing.
  EXPECT_TRUE(Pool.takeExceptions().empty());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> Sum{0};
  {
    ThreadPool Pool(3);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Sum] { Sum.fetch_add(1, std::memory_order_relaxed); });
    // No wait(): destruction itself must finish the queue.
  }
  EXPECT_EQ(Sum.load(), 64);
}

TEST(ResolveJobsTest, ZeroMeansHardwareAndNeverZero) {
  EXPECT_GE(resolveJobs(0), 1u);
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
}

//===----------------------------------------------------------------------===//
// parallelFor / parallelMap
//===----------------------------------------------------------------------===//

TEST(ParallelForTest, SingleJobRunsInlineInOrder) {
  std::vector<size_t> Order;
  std::thread::id Caller = std::this_thread::get_id();
  ParallelForStats Stats = parallelFor(1, 10, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  std::vector<size_t> Expected(10);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
  EXPECT_EQ(Stats.WorkersUsed, 1u);
  ASSERT_EQ(Stats.TasksPerWorker.size(), 1u);
  EXPECT_EQ(Stats.TasksPerWorker[0], 10ul);
}

TEST(ParallelForTest, CoversEveryIndexAtAnyJobCount) {
  for (unsigned Jobs : {2u, 4u, 8u}) {
    std::vector<std::atomic<int>> Hits(50);
    ParallelForStats Stats =
        parallelFor(Jobs, Hits.size(), [&](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I < Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " jobs " << Jobs;
    EXPECT_EQ(std::accumulate(Stats.TasksPerWorker.begin(),
                              Stats.TasksPerWorker.end(), 0ul),
              50ul);
  }
}

TEST(ParallelForTest, NeverMoreWorkersThanItems) {
  ParallelForStats Stats = parallelFor(8, 3, [](size_t) {});
  EXPECT_LE(Stats.WorkersUsed, 3u);
}

TEST(ParallelForTest, RethrowsLowestIndexException) {
  // Whatever the scheduling, attribution must be deterministic: the
  // lowest failing index wins.
  for (unsigned Jobs : {2u, 4u}) {
    try {
      parallelFor(Jobs, 16, [](size_t I) {
        if (I == 3 || I == 11)
          throw std::runtime_error("index " + std::to_string(I));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "index 3");
    }
  }
}

TEST(ParallelForTest, ZeroItemsIsANoOp) {
  int Calls = 0;
  parallelFor(4, 0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
}

TEST(ParallelMapTest, ResultsComeBackInIndexOrder) {
  std::vector<int> Out = parallelMap<int>(
      4, 32, [](size_t I) { return static_cast<int>(I * I); });
  ASSERT_EQ(Out.size(), 32u);
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], static_cast<int>(I * I));
}

//===----------------------------------------------------------------------===//
// Corpus batch determinism across job counts
//===----------------------------------------------------------------------===//

/// Everything about one batch run that must not depend on the job count.
struct BatchFingerprint {
  std::vector<std::string> AppJson;      ///< per-app full JSON export
  std::vector<std::string> AppStatsRows; ///< per-app Table 1 + solver rows
  std::string AggregateRow;              ///< summed AppStats
  std::vector<Fidelity> Fidelities;
  std::vector<support::BudgetReason> TruncReasons;
};

BatchFingerprint fingerprintCorpus(const AnalysisOptions &Options) {
  BatchFingerprint F;
  std::vector<BatchAppResult> Batch = analyzeCorpus(paperCorpus(), Options);
  std::vector<AppStats> PerApp;
  for (const BatchAppResult &R : Batch) {
    EXPECT_FALSE(R.GenerationFailed) << R.Name;
    if (!R.Result)
      continue;
    std::ostringstream Json;
    guimodel::writeAnalysisJson(Json, *R.Result);
    F.AppJson.push_back(Json.str());
    std::ostringstream Rows;
    printAppStatsRow(Rows, R.Stats);
    printSolverStatsRow(Rows, R.Stats);
    Rows << " workCharged=" << R.Stats.WorkCharged;
    F.AppStatsRows.push_back(Rows.str());
    F.Fidelities.push_back(R.Result->Sol->fidelity());
    F.TruncReasons.push_back(R.Result->Sol->truncationReason());
    PerApp.push_back(R.Stats);
  }
  std::ostringstream Agg;
  printSolverStatsRow(Agg, aggregateAppStats("TOTAL", PerApp));
  F.AggregateRow = Agg.str();
  return F;
}

void expectSameFingerprint(const BatchFingerprint &A,
                           const BatchFingerprint &B, const char *Label) {
  ASSERT_EQ(A.AppJson.size(), B.AppJson.size()) << Label;
  for (size_t I = 0; I < A.AppJson.size(); ++I) {
    EXPECT_EQ(A.AppJson[I], B.AppJson[I]) << Label << " app " << I;
    EXPECT_EQ(A.AppStatsRows[I], B.AppStatsRows[I]) << Label << " app " << I;
    EXPECT_EQ(A.Fidelities[I], B.Fidelities[I]) << Label << " app " << I;
    EXPECT_EQ(A.TruncReasons[I], B.TruncReasons[I]) << Label << " app " << I;
  }
  EXPECT_EQ(A.AggregateRow, B.AggregateRow) << Label;
}

TEST(BatchDeterminismTest, IdenticalResultsAtEveryJobCount) {
  AnalysisOptions Options;
  Options.Jobs = 1;
  BatchFingerprint Serial = fingerprintCorpus(Options);
  ASSERT_EQ(Serial.AppJson.size(), paperCorpus().size());
  for (unsigned Jobs : {2u, 4u, 8u}) {
    Options.Jobs = Jobs;
    BatchFingerprint Parallel = fingerprintCorpus(Options);
    expectSameFingerprint(Serial, Parallel,
                          ("jobs=" + std::to_string(Jobs)).c_str());
  }
}

TEST(BatchDeterminismTest, IdenticalUnderForcedBudgetTrips) {
  // The fault-injection forced trip (docs/ROBUSTNESS.md) caps every
  // tracker's work budget — including every parallel task's — so each
  // app truncates at the same deterministic cut point at any -j.
  // Corpus apps charge 77..1435 work items: step 50 truncates every app,
  // step 500 truncates only the large ones — both cut points must be
  // identical at any -j.
  for (unsigned long Step : {50ul, 500ul}) {
    ScopedForcedBudgetTrip Trip(Step);
    AnalysisOptions Options;
    Options.Jobs = 1;
    BatchFingerprint Serial = fingerprintCorpus(Options);
    bool AnyTruncated = false;
    for (Fidelity F : Serial.Fidelities)
      AnyTruncated |= F == Fidelity::TruncatedBudget;
    EXPECT_TRUE(AnyTruncated) << "step " << Step
                              << ": forced trip should truncate some app";
    Options.Jobs = 4;
    BatchFingerprint Parallel = fingerprintCorpus(Options);
    expectSameFingerprint(Serial, Parallel,
                          ("trip=" + std::to_string(Step)).c_str());
  }
}

TEST(BatchDeterminismTest, IdenticalUnderPerTaskWorkCaps) {
  AnalysisOptions Options;
  Options.Budget.MaxWorkItems = 50; // below the smallest app's 77 items
  Options.Jobs = 1;
  BatchFingerprint Serial = fingerprintCorpus(Options);
  // The cap is per task: every app charges at most its own 50 items and
  // reports its own truncation, not only the first app in the batch.
  for (size_t I = 0; I < Serial.Fidelities.size(); ++I)
    EXPECT_EQ(Serial.Fidelities[I], Fidelity::TruncatedBudget) << "app " << I;
  Options.Jobs = 8;
  expectSameFingerprint(Serial, fingerprintCorpus(Options), "work caps");
}

TEST(BatchDeterminismTest, HostileFleetStatsIdenticalAtEveryJobCount) {
  // 200 generated apps with artifacts dropped inside each task, a fifth
  // of them with reflective construction, dynamic find ids, or missing
  // layouts: at batch scale this runs every per-app slab drop and the
  // unknown-source paths (node minting, capped FindView fanout, degraded
  // fidelity), which the sanitizer builds check for memory errors and
  // races.
  FleetSpec FS;
  FS.Apps = 200;
  FS.ReflectivePercent = 20;
  FS.DynamicIdPercent = 20;
  FS.MissingLayoutPercent = 20;
  const std::vector<AppSpec> Specs = makeFleet(FS);

  // Each app's deterministic record: its no-times run-ledger line (every
  // counter, the fidelity and the unknown-source reasons a ledger keeps)
  // plus the Table 1 and solver rows.
  auto Record = [](const AppStats &Stats) {
    WideEvent E;
    E.Stats = Stats;
    std::ostringstream OS;
    E.writeJsonl(OS, /*IncludeVolatile=*/false);
    printAppStatsRow(OS, Stats);
    printSolverStatsRow(OS, Stats);
    return OS.str();
  };
  auto Run = [&](unsigned Jobs) {
    AnalysisOptions Options;
    Options.Jobs = Jobs;
    return analyzeCorpus(Specs, Options, /*KeepArtifacts=*/false);
  };
  const std::vector<BatchAppResult> Serial = Run(1);
  const std::vector<BatchAppResult> Parallel = Run(4);
  ASSERT_EQ(Serial.size(), Specs.size());
  ASSERT_EQ(Parallel.size(), Specs.size());

  size_t Degraded = 0;
  for (size_t I = 0; I < Specs.size(); ++I) {
    const AppStats &Stats = Serial[I].Stats;
    EXPECT_FALSE(Serial[I].GenerationFailed) << Specs[I].Name;
    EXPECT_EQ(Serial[I].Result, nullptr) << Specs[I].Name;
    EXPECT_EQ(Record(Parallel[I].Stats), Record(Stats)) << "app " << I;
    if (Stats.SolutionFidelity != Fidelity::Complete) {
      ++Degraded;
      EXPECT_GT(std::accumulate(std::begin(Stats.UnknownByReason),
                                std::end(Stats.UnknownByReason), 0ul),
                0ul)
          << Specs[I].Name;
    }
  }
  EXPECT_GT(Degraded, 0u);
  EXPECT_LT(Degraded, Specs.size());
}

//===----------------------------------------------------------------------===//
// Shared batch deadline and cross-thread cancellation
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Arena-backed artifact lifecycle (docs/MEMORY.md)
//===----------------------------------------------------------------------===//

TEST(BatchArtifactsTest, KeepArtifactsFalseIsAPureArenaDrop) {
  // With KeepArtifacts=false every per-app owner (bundle, graph,
  // solution) is destroyed inside the task, which releases the app's
  // arena slabs wholesale — nothing object-shaped survives into the
  // merged results, only the harvested stats row.
  std::vector<AppSpec> Specs(paperCorpus().begin(),
                             paperCorpus().begin() + 4);
  AnalysisOptions Options;
  Options.Jobs = 2;
  std::vector<BatchAppResult> Dropped =
      analyzeCorpus(Specs, Options, /*KeepArtifacts=*/false);
  ASSERT_EQ(Dropped.size(), Specs.size());
  for (const BatchAppResult &R : Dropped) {
    EXPECT_EQ(R.Result, nullptr) << R.Name;
    EXPECT_EQ(R.App.Bundle, nullptr) << R.Name;
    // The stats were harvested before the drop, arenas included.
    EXPECT_GT(R.Stats.Classes, 0u) << R.Name;
    EXPECT_GT(R.Stats.ArenaBytes, 0u) << R.Name;
  }

  // Dropping artifacts must not change what was measured.
  std::vector<BatchAppResult> Kept =
      analyzeCorpus(Specs, Options, /*KeepArtifacts=*/true);
  for (size_t I = 0; I < Specs.size(); ++I) {
    ASSERT_NE(Kept[I].Result, nullptr);
    std::ostringstream A, B;
    printAppStatsRow(A, Dropped[I].Stats);
    printSolverStatsRow(A, Dropped[I].Stats);
    printAppStatsRow(B, Kept[I].Stats);
    printSolverStatsRow(B, Kept[I].Stats);
    EXPECT_EQ(A.str(), B.str()) << Specs[I].Name;
    EXPECT_EQ(Dropped[I].Stats.ArenaBytes, Kept[I].Stats.ArenaBytes)
        << Specs[I].Name;
  }
}

TEST(BatchArtifactsTest, ArenaBytesAreDeterministicAcrossJobCounts) {
  // Arena byte counts are allocation-order accounting, and per-app
  // solves are thread-confined — so unlike peak RSS they must not
  // depend on the job count.
  FleetSpec FS;
  FS.Apps = 12;
  FS.Seed = 7;
  std::vector<AppSpec> Specs = makeFleet(FS);
  AnalysisOptions Options;
  Options.Jobs = 1;
  std::vector<BatchAppResult> Serial =
      analyzeCorpus(Specs, Options, /*KeepArtifacts=*/false);
  for (unsigned Jobs : {4u, 8u}) {
    Options.Jobs = Jobs;
    std::vector<BatchAppResult> Parallel =
        analyzeCorpus(Specs, Options, /*KeepArtifacts=*/false);
    ASSERT_EQ(Parallel.size(), Serial.size());
    for (size_t I = 0; I < Serial.size(); ++I)
      EXPECT_EQ(Parallel[I].Stats.ArenaBytes, Serial[I].Stats.ArenaBytes)
          << "jobs=" << Jobs << " app " << I;
  }
}

TEST(BatchDeadlineTest, DeadlineIsSharedAcrossTheBatch) {
  // The deadline is computed once for the whole batch. Emulate a slow
  // early app by exhausting the deadline before the fan-out: every app
  // must then report TruncatedBudget/deadline, even though each would
  // easily finish under a fresh per-app allowance.
  AnalysisOptions Options;
  Options.Jobs = 2;
  Options.Budget.SharedDeadline = makeSharedDeadline(0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  std::vector<BatchAppResult> Batch =
      analyzeCorpus({paperCorpus()[0], paperCorpus()[1], paperCorpus()[2]},
                    Options);
  for (const BatchAppResult &R : Batch) {
    ASSERT_TRUE(R.Result) << R.Name;
    EXPECT_EQ(R.Result->Sol->fidelity(), Fidelity::TruncatedBudget)
        << R.Name;
    EXPECT_EQ(R.Result->Sol->truncationReason(),
              support::BudgetReason::Deadline)
        << R.Name;
  }
}

TEST(BatchDeadlineTest, SharedDeadlineOverridesRelativeSeconds) {
  // With only MaxWallSeconds, each tracker would start its own generous
  // clock; the already-expired shared deadline must win.
  BudgetPolicy Policy;
  Policy.MaxWallSeconds = 3600.0;
  Policy.SharedDeadline = std::chrono::steady_clock::now() -
                          std::chrono::milliseconds(1);
  BudgetTracker Tracker(Policy);
  EXPECT_FALSE(Tracker.checkpoint(0, 0));
  EXPECT_EQ(Tracker.reason(), BudgetReason::Deadline);
}

TEST(BatchDeadlineTest, PerTaskCapsAreNotShared) {
  // Two trackers under one policy: each gets its own work allowance
  // (only the wall clock is shared batch-wide).
  BudgetPolicy Policy;
  Policy.MaxWorkItems = 5;
  BudgetTracker A(Policy), B(Policy);
  for (int I = 0; I < 5; ++I) {
    EXPECT_TRUE(A.charge());
    EXPECT_TRUE(B.charge());
  }
  EXPECT_FALSE(A.charge());
  EXPECT_FALSE(B.charge());
  EXPECT_EQ(A.workCharged(), 5ul);
  EXPECT_EQ(B.workCharged(), 5ul);
}

TEST(BudgetCancelTest, TripFromAnotherThreadIsSafe) {
  BudgetPolicy Policy;
  BudgetTracker Tracker(Policy);
  std::thread Other(
      [&Tracker] { Tracker.trip(BudgetReason::Cancelled); });
  Other.join();
  EXPECT_TRUE(Tracker.exhausted());
  EXPECT_EQ(Tracker.reason(), BudgetReason::Cancelled);
  // First reason wins; a later trip does not overwrite it.
  Tracker.trip(BudgetReason::Deadline);
  EXPECT_EQ(Tracker.reason(), BudgetReason::Cancelled);
}

TEST(BudgetCancelTest, CancelFlagStopsEveryTaskInTheBatch) {
  std::atomic<bool> Cancel{true};
  AnalysisOptions Options;
  Options.Jobs = 4;
  Options.Budget.CancelFlag = &Cancel;
  std::vector<BatchAppResult> Batch =
      analyzeCorpus({paperCorpus()[0], paperCorpus()[1]}, Options);
  for (const BatchAppResult &R : Batch) {
    ASSERT_TRUE(R.Result) << R.Name;
    EXPECT_EQ(R.Result->Sol->fidelity(), Fidelity::TruncatedBudget)
        << R.Name;
    EXPECT_EQ(R.Result->Sol->truncationReason(),
              support::BudgetReason::Cancelled)
        << R.Name;
  }
}

} // namespace
