//===- Workloads.h - The four seeded benchmark workloads --------*- C++ -*-===//
//
// Every workload is a closed loop: one caller, one operation in flight,
// the next operation issued when the previous one answered. Inputs come
// from the seed alone; the program under test sees only generated inputs.
//
//  corpus-cold  the 20 paper-corpus apps on disk, one fresh `gator_cli
//               <app> --no-times` process per app, in a seeded order.
//  fleet-solve  a seeded fleet (30% deep, 30% wide, 30% aliased apps, ~5%
//               of each hostile shape), each app generated in memory just
//               before GuiAnalysis::run + collectAppStats + the clients.
//  edit-loop    seeded single-unit edits (same-signature method-body
//               grafts, layout child reorders, new-id inserts) re-solved
//               by one long-lived IncrementalAnalysis session per corpus
//               app. The traced run also replays the known-divergent
//               onCreate-graft sequence and names where it diverges.
//  corpus-warm  the same 20 app directories through `gator_cli
//               --cache-dir` with a pre-filled cache; each round edits one
//               seeded app's ALite file, so 19 runs hit and 1 stores.
//
//===----------------------------------------------------------------------===//

#ifndef GATORBENCH_WORKLOADS_H
#define GATORBENCH_WORKLOADS_H

#include "Layers.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gatorbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string Cli;      ///< path of the gator_cli binary
  std::string Exporter; ///< path of the export_corpus binary
  std::string WorkDir;  ///< scratch space for exported apps and caches
};

/// What one run measured and what its checks found.
struct RunResult {
  uint64_t Attempted = 0;
  std::vector<std::string> Failures; ///< one line per failed check
  std::vector<std::string> Notes;    ///< findings that are not failures
  uint64_t FailedOps = 0;
  /// A check outside any operation failed (set-up validation).
  bool SetupFailed = false;

  std::vector<double> OpMs;          ///< latency of every operation
  std::vector<double> SetupSeconds;  ///< one entry per set-up repetition
  uint64_t InputBytes = 0;           ///< app source bytes the ops covered

  /// A run is cut into passes of equal work; timing metrics are computed
  /// per pass, then summarized over passes (main.cpp). Each mark is the op
  /// count and input bytes when a pass ended.
  struct PassMark {
    size_t Ops;
    uint64_t Bytes;
  };
  std::vector<PassMark> Passes;
  void endPass() { Passes.push_back({OpMs.size(), InputBytes}); }

  double PeakRssMb = 0;
  double ReceiversSum = 0;
  uint64_t ReceiversCount = 0;

  // Child-process numbers of the on-disk workloads (traced run).
  double StartupMs = 0;
  uint64_t ChildRuns = 0;
  uint64_t ChildMinorFaults = 0;
  double ChildWallMs = 0;
};

/// Runs \p Cfg.Workload; \p T is non-null for the traced run. Returns
/// false for an unknown workload name.
bool runWorkload(const RunConfig &Cfg, Tracer *T, RunResult &R);

} // namespace gatorbench

#endif // GATORBENCH_WORKLOADS_H
