//===- parallel_test.cpp - Parallel batch engine tests ----------*- C++ -*-===//
//
// The determinism and thread-safety contract of the parallel execution
// layer (docs/PARALLEL.md):
//
//  - parallelFor runs every index once at any job count, is an in-order
//    loop on the calling thread at Jobs=1, and after running every index
//    rethrows the lowest-index exception, the same at every job count;
//  - driver::runBatch, the fan-out behind `gator_cli --batch`, run in
//    process on apps written to disk by the export_corpus writer: the
//    20 corpus apps give byte-identical output text, exit codes, records
//    and precision rows at -j 1/2/4/8 — also under per-task work caps
//    that truncate every app or only the large ones — and so does a
//    200-app hostile generated fleet at -j 1 and -j 4;
//  - single-app mode is a batch of one, and a cache hit reads back the
//    cold run's result field for field;
//  - the batch wall-clock deadline is shared (a slow early app starves
//    later apps, which report TruncatedBudget/deadline) while work-item
//    caps stay per-task, and a deadline past the clock's range is none.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/SolutionCache.h"
#include "analysis/WideEvent.h"
#include "corpus/Corpus.h"
#include "driver/Driver.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;
using namespace gator::support;
namespace fs = std::filesystem;

namespace {

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
  parallelFor(1, 10, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  std::vector<size_t> Expected(10);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(Order, Expected);
}

TEST(ParallelForTest, CoversEveryIndexAtAnyJobCount) {
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> Hits(50);
    parallelFor(Jobs, Hits.size(), [&](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I < Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " jobs " << Jobs;
  }
}

TEST(ParallelForTest, RunsEveryIndexThenRethrowsTheLowestException) {
  // Whatever the scheduling and the job count, an exception skips no
  // other index, and attribution is deterministic: the lowest failing
  // index wins.
  for (unsigned Jobs : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> Hits(16);
    try {
      parallelFor(Jobs, Hits.size(), [&](size_t I) {
        ++Hits[I];
        if (I == 3 || I == 11)
          throw std::runtime_error("index " + std::to_string(I));
      });
      ADD_FAILURE() << "expected an exception, jobs " << Jobs;
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "index 3") << "jobs " << Jobs;
    }
    for (size_t I = 0; I < Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " jobs " << Jobs;
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
// The batch driver (src/driver/): apps written to disk, run in process
//===----------------------------------------------------------------------===//

/// A directory under the system temp dir, unique to this process and
/// removed at exit.
struct ScratchTree {
  fs::path Root = fs::temp_directory_path() /
                  ("gator_parallel_test_" + std::to_string(::getpid()));
  ScratchTree() { fs::remove_all(Root); }
  ~ScratchTree() {
    std::error_code EC;
    fs::remove_all(Root, EC);
  }
};

fs::path scratchRoot() {
  static ScratchTree Tree;
  return Tree.Root;
}

/// Writes every spec's generated app to \p Root/<name> with the
/// export_corpus writer and returns the app directories in spec order.
std::vector<fs::path> writeApps(const std::vector<AppSpec> &Specs,
                                const fs::path &Root) {
  std::vector<fs::path> Dirs;
  for (const AppSpec &Spec : Specs) {
    GeneratedApp App = generateApp(Spec);
    EXPECT_FALSE(App.Bundle->Diags.hasErrors()) << Spec.Name;
    std::ostringstream Err;
    EXPECT_TRUE(writeAppDir(Spec, *App.Bundle, Root / Spec.Name, Err))
        << Err.str();
    Dirs.push_back(Root / Spec.Name);
  }
  return Dirs;
}

/// The 20 paper-corpus apps on disk, written once per test binary.
const std::vector<fs::path> &corpusDirs() {
  static const std::vector<fs::path> Dirs =
      writeApps(paperCorpus(), scratchRoot() / "corpus");
  return Dirs;
}

/// A --no-times run that renders the solution, the hierarchies and the
/// handler tuples. The ledger flag only makes each task collect its record
/// and content key; the driver writes no file.
driver::RunConfig recordingConfig() {
  driver::RunConfig Cfg;
  Cfg.NoTimes = true;
  Cfg.WantSolution = true;
  Cfg.WantHierarchy = true;
  Cfg.WantTuples = true;
  Cfg.LedgerFile = "ledger.jsonl";
  return Cfg;
}

/// Everything about one app's result that must not depend on the job
/// count or on the run: the exit code, the output text, the no-times
/// ledger line (every stable AppStats field, the content key and the
/// cache stamp), the fidelity and the Table 2 precision row.
std::string fingerprint(const driver::AppResult &R) {
  std::ostringstream OS;
  OS << "exit " << R.Run.ExitCode << "\n"
     << R.Run.OutText << "--- stderr\n"
     << R.Run.ErrText << "--- record\n";
  WideEvent E;
  E.ContentKey = R.ContentKey;
  E.ExitCode = R.Run.ExitCode;
  E.Cache = R.Cache;
  E.Stats = R.Run.Stats;
  E.writeJsonl(OS, /*IncludeVolatile=*/false);
  const Solution::PrecisionMetrics &P = R.Run.Precision;
  OS << "\nfidelity " << fidelityName(R.Run.Stats.SolutionFidelity)
     << " receivers " << P.AvgReceivers << " parameters "
     << P.AvgParameters.value_or(-1) << " results "
     << P.AvgResults.value_or(-1) << " listeners "
     << P.AvgListeners.value_or(-1) << "\n";
  return OS.str();
}

/// Fingerprints runBatch's results, checking that each one belongs to the
/// app directory at its index.
std::vector<std::string>
fingerprintBatch(const std::vector<fs::path> &Dirs,
                 const driver::RunConfig &Cfg, unsigned Jobs) {
  const std::vector<driver::AppResult> Results =
      driver::runBatch(Dirs, Cfg, Jobs, nullptr);
  EXPECT_EQ(Results.size(), Dirs.size());
  std::vector<std::string> Out;
  for (size_t I = 0; I < Results.size(); ++I) {
    EXPECT_EQ(Results[I].Run.Stats.Name, Dirs[I].filename().string())
        << "jobs=" << Jobs;
    Out.push_back(fingerprint(Results[I]));
  }
  return Out;
}

void expectSameBatch(const std::vector<std::string> &A,
                     const std::vector<std::string> &B, const char *Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << Label << " app " << I;
}

TEST(BatchDeterminismTest, IdenticalResultsAtEveryJobCount) {
  const driver::RunConfig Cfg = recordingConfig();
  const std::vector<std::string> Serial =
      fingerprintBatch(corpusDirs(), Cfg, 1);
  ASSERT_EQ(Serial.size(), paperCorpus().size());
  for (const std::string &F : Serial)
    EXPECT_NE(F.find("fidelity: complete"), std::string::npos) << F;
  for (unsigned Jobs : {2u, 4u, 8u})
    expectSameBatch(Serial, fingerprintBatch(corpusDirs(), Cfg, Jobs),
                    ("jobs=" + std::to_string(Jobs)).c_str());
}

TEST(BatchDeterminismTest, IdenticalUnderPerTaskWorkCaps) {
  // Corpus apps charge 77..1435 work items: a cap of 50 truncates every
  // app, a cap of 500 only the large ones. The cap is per task, so each
  // app truncates at its own deterministic cut point at any -j.
  driver::RunConfig Cfg = recordingConfig();
  for (unsigned long Cap : {50ul, 500ul}) {
    Cfg.Options.Budget.MaxWorkItems = Cap;
    const std::vector<driver::AppResult> Serial =
        driver::runBatch(corpusDirs(), Cfg, 1, nullptr);
    std::vector<std::string> SerialPrints;
    size_t Truncated = 0;
    for (const driver::AppResult &R : Serial) {
      SerialPrints.push_back(fingerprint(R));
      if (R.Run.Stats.SolutionFidelity == Fidelity::TruncatedBudget) {
        ++Truncated;
        EXPECT_EQ(R.Run.ExitCode, 1) << R.Run.Stats.Name;
      }
    }
    // Every app charges its own allowance and reports its own truncation,
    // not only the first app in the batch.
    if (Cap == 50)
      EXPECT_EQ(Truncated, Serial.size());
    else
      EXPECT_GT(Truncated, 0u);
    for (unsigned Jobs : {4u, 8u})
      expectSameBatch(SerialPrints, fingerprintBatch(corpusDirs(), Cfg, Jobs),
                      ("cap=" + std::to_string(Cap) +
                       " jobs=" + std::to_string(Jobs))
                          .c_str());
  }
}

TEST(BatchDeterminismTest, HostileFleetStatsIdenticalAtEveryJobCount) {
  // 200 generated apps, a fifth of them with reflective construction,
  // dynamic find ids, or missing layouts: at batch scale this runs every
  // per-app slab drop and the unknown-source paths (node minting, capped
  // FindView fanout, degraded fidelity), which the sanitizer builds check
  // for memory errors and races.
  FleetSpec FS;
  FS.Apps = 200;
  FS.ReflectivePercent = 20;
  FS.DynamicIdPercent = 20;
  FS.MissingLayoutPercent = 20;
  const std::vector<fs::path> Dirs =
      writeApps(makeFleet(FS), scratchRoot() / "hostile_fleet");

  const driver::RunConfig Cfg = recordingConfig();
  const std::vector<driver::AppResult> Serial =
      driver::runBatch(Dirs, Cfg, 1, nullptr);
  const std::vector<std::string> Parallel = fingerprintBatch(Dirs, Cfg, 4);
  ASSERT_EQ(Serial.size(), Dirs.size());
  ASSERT_EQ(Parallel.size(), Dirs.size());

  size_t Degraded = 0;
  for (size_t I = 0; I < Dirs.size(); ++I) {
    const AppStats &Stats = Serial[I].Run.Stats;
    EXPECT_TRUE(Serial[I].Run.analyzed()) << Dirs[I];
    EXPECT_EQ(Parallel[I], fingerprint(Serial[I])) << "app " << I;
    if (Stats.SolutionFidelity != Fidelity::Complete) {
      ++Degraded;
      EXPECT_EQ(Serial[I].Run.ExitCode, 1) << Dirs[I];
      EXPECT_GT(std::accumulate(std::begin(Stats.UnknownByReason),
                                std::end(Stats.UnknownByReason), 0ul),
                0ul)
          << Dirs[I];
    }
  }
  EXPECT_GT(Degraded, 0u);
  EXPECT_LT(Degraded, Dirs.size());
}

TEST(BatchDriverTest, SingleAppModeIsABatchOfOne) {
  const driver::RunConfig Cfg = recordingConfig();
  for (const fs::path &Dir :
       {fs::path(GATOR_SOURCE_DIR) / "examples" / "sample_full_app",
        fs::path(GATOR_SOURCE_DIR) / "tests" / "fixtures" / "hostile_batch" /
            "dynamic_id_app",
        corpusDirs()[1]}) {
    const driver::AppResult Single =
        driver::runAppDir(Dir.string(), Cfg, nullptr);
    const std::vector<driver::AppResult> Batch =
        driver::runBatch({Dir}, Cfg, 1, nullptr);
    ASSERT_EQ(Batch.size(), 1u);
    EXPECT_TRUE(Single.Run.analyzed()) << Dir;
    EXPECT_EQ(fingerprint(Batch[0]), fingerprint(Single)) << Dir;
  }
}

TEST(BatchDriverTest, CacheHitEqualsTheColdRunFieldForField) {
  const fs::path CacheDir = scratchRoot() / "cache";
  SolutionCache Cache(CacheDir.string());
  std::vector<fs::path> Dirs(corpusDirs().begin(), corpusDirs().begin() + 3);
  for (const auto &Entry : fs::directory_iterator(
           fs::path(GATOR_SOURCE_DIR) / "tests" / "fixtures" / "hostile_batch"))
    Dirs.push_back(Entry.path());

  driver::RunConfig Cfg = recordingConfig();
  Cfg.LedgerFile.clear(); // the cache alone makes the tasks record
  const std::vector<driver::AppResult> Cold =
      driver::runBatch(Dirs, Cfg, 2, &Cache);
  const std::vector<driver::AppResult> Warm =
      driver::runBatch(Dirs, Cfg, 2, &Cache);
  ASSERT_EQ(Cold.size(), Dirs.size());
  ASSERT_EQ(Warm.size(), Dirs.size());
  for (size_t I = 0; I < Dirs.size(); ++I) {
    const analysis::CachedAnalysis &C = Cold[I].Run, &W = Warm[I].Run;
    EXPECT_STREQ(Cold[I].Cache, "miss") << Dirs[I];
    EXPECT_STREQ(Warm[I].Cache, "hit") << Dirs[I];
    EXPECT_EQ(Warm[I].ContentKey, Cold[I].ContentKey) << Dirs[I];
    EXPECT_TRUE(C.analyzed()) << Dirs[I];
    EXPECT_EQ(W.ExitCode, C.ExitCode) << Dirs[I];
    EXPECT_EQ(W.OutText, C.OutText) << Dirs[I];
    EXPECT_EQ(W.ErrText, C.ErrText) << Dirs[I];
    // Every field, the volatile ones included: a hit reads back the
    // record the cold run stored.
    EXPECT_EQ(test::differingFields(W.Stats, C.Stats),
              std::vector<std::string>())
        << Dirs[I];
    EXPECT_EQ(W.Precision.AvgReceivers, C.Precision.AvgReceivers) << Dirs[I];
    EXPECT_EQ(W.Precision.AvgParameters, C.Precision.AvgParameters) << Dirs[I];
    EXPECT_EQ(W.Precision.AvgResults, C.Precision.AvgResults) << Dirs[I];
    EXPECT_EQ(W.Precision.AvgListeners, C.Precision.AvgListeners) << Dirs[I];
    EXPECT_EQ(W.FlowHistCounts, C.FlowHistCounts) << Dirs[I];
    EXPECT_EQ(W.FlowHistSum, C.FlowHistSum) << Dirs[I];
    EXPECT_EQ(W.FlowHistCount, C.FlowHistCount) << Dirs[I];
  }
}

//===----------------------------------------------------------------------===//
// Arena-backed artifact lifecycle (docs/MEMORY.md)
//===----------------------------------------------------------------------===//

TEST(BatchArtifactsTest, ArenaBytesAreDeterministicAcrossJobCounts) {
  // Arena byte counts are allocation-order accounting, and per-app
  // solves are thread-confined — so unlike peak RSS they must not
  // depend on the job count.
  FleetSpec FS;
  FS.Apps = 12;
  FS.Seed = 7;
  const std::vector<fs::path> Dirs =
      writeApps(makeFleet(FS), scratchRoot() / "arena_fleet");
  const driver::RunConfig Cfg = recordingConfig();
  const std::vector<driver::AppResult> Serial =
      driver::runBatch(Dirs, Cfg, 1, nullptr);
  for (unsigned Jobs : {4u, 8u}) {
    const std::vector<driver::AppResult> Parallel =
        driver::runBatch(Dirs, Cfg, Jobs, nullptr);
    ASSERT_EQ(Parallel.size(), Serial.size());
    for (size_t I = 0; I < Serial.size(); ++I) {
      EXPECT_GT(Serial[I].Run.Stats.ArenaBytes, 0u) << "app " << I;
      EXPECT_EQ(Parallel[I].Run.Stats.ArenaBytes,
                Serial[I].Run.Stats.ArenaBytes)
          << "jobs=" << Jobs << " app " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Shared batch deadline
//===----------------------------------------------------------------------===//

/// Expects every app of \p Batch to have stopped early for \p Reason.
void expectAllTruncated(const std::vector<driver::AppResult> &Batch,
                        BudgetReason Reason) {
  const std::string Line = std::string("fidelity: truncated-budget (budget: ") +
                           budgetReasonName(Reason) + ")";
  for (size_t I = 0; I < Batch.size(); ++I) {
    EXPECT_EQ(Batch[I].Run.ExitCode, 1) << "app " << I;
    EXPECT_EQ(Batch[I].Run.Stats.SolutionFidelity, Fidelity::TruncatedBudget)
        << "app " << I;
    EXPECT_NE(Batch[I].Run.OutText.find(Line), std::string::npos)
        << Batch[I].Run.OutText;
  }
}

TEST(BatchDeadlineTest, DeadlineIsSharedAcrossTheBatch) {
  // The deadline is computed once for the whole batch. Emulate a slow
  // early app by exhausting the deadline before the fan-out: every app
  // must then report TruncatedBudget/deadline, even though each would
  // easily finish under a fresh per-app allowance.
  driver::RunConfig Cfg = recordingConfig();
  Cfg.Options.Budget.SharedDeadline = makeSharedDeadline(0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const std::vector<fs::path> Dirs(corpusDirs().begin(),
                                   corpusDirs().begin() + 3);
  expectAllTruncated(driver::runBatch(Dirs, Cfg, 2, nullptr),
                     BudgetReason::Deadline);
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

TEST(BatchDeadlineTest, DeadlinePastTheClockRangeIsNoDeadline) {
  // 1e300 s is far past the steady clock's range: no deadline at all, not
  // one that an overflowing conversion puts in the past.
  for (double Seconds :
       {1e300, 1e18, std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(makeSharedDeadline(Seconds).has_value()) << Seconds;
    BudgetPolicy Policy;
    Policy.MaxWallSeconds = Seconds;
    BudgetTracker Tracker(Policy);
    for (int I = 0; I < 5000; ++I)
      ASSERT_TRUE(Tracker.charge()) << Seconds;
    EXPECT_TRUE(Tracker.checkpoint(0, 0)) << Seconds;
    EXPECT_EQ(Tracker.reason(), BudgetReason::None) << Seconds;
  }
  // A deadline within range still trips.
  BudgetPolicy Policy;
  Policy.MaxWallSeconds = 1e-9;
  BudgetTracker Tracker(Policy);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(Tracker.checkpoint(0, 0));
  EXPECT_EQ(Tracker.reason(), BudgetReason::Deadline);
}

} // namespace
