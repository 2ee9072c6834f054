//===- solver_alloc_test.cpp - Solver table allocations ---------*- C++ -*-===//
//
// Guards the solver's cost model (docs/MEMORY.md, "Per-node bytes"): a
// flowsTo set and an op-use list exist only for the nodes that need one,
// so the bytes Solver::solve() allocates grow with the facts, and by at
// most a 4-byte slot per graph node. Classes that hold no GUI value add
// graph nodes but no facts. A counting global operator new, armed only
// around solve(), does the counting.
//
//===----------------------------------------------------------------------===//

#include "analysis/GraphBuilder.h"
#include "analysis/Solver.h"
#include "corpus/Corpus.h"
#include "hier/ClassHierarchy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Counting{false};
std::atomic<size_t> AllocatedBytes{0};

} // namespace

void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free with the
// operator new it sees at the call site.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

namespace {

using namespace gator;

struct SolveRun {
  size_t Bytes = 0;
  size_t Nodes = 0;
  size_t Sets = 0;
  unsigned long Propagations = 0;
  analysis::Solution::PrecisionMetrics Metrics;
};

/// Generates an app with \p FillerClasses filler classes, builds its
/// constraint graph, and counts the bytes allocated by Solver::solve().
SolveRun solveGeneratedApp(unsigned FillerClasses) {
  corpus::AppSpec Spec;
  Spec.Name = "Solve";
  Spec.Seed = 5;
  Spec.Activities = 4;
  Spec.FillerClasses = FillerClasses;
  Spec.MethodsPerFillerClass = 6;
  Spec.ListenersPerActivity = 3;
  Spec.DirectFindsPerActivity = 3;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  corpus::AppBundle &B = *App.Bundle;

  analysis::AnalysisOptions Options;
  graph::ConstraintGraph G;
  analysis::Solution Sol(G, B.Android);
  hier::ClassHierarchy CH(B.Program, &B.Diags);
  analysis::GraphBuilder Builder(B.Program, *B.Layouts, B.Android, CH,
                                 B.Diags);
  EXPECT_TRUE(Builder.build(G, Sol.opSites()));

  SolveRun Run;
  Run.Nodes = G.size();
  analysis::Solver Solver(G, Sol, *B.Layouts, B.Android, Options, B.Diags);
  AllocatedBytes.store(0);
  Counting.store(true);
  analysis::SolverStats Stats = Solver.solve();
  Counting.store(false);
  Run.Bytes = AllocatedBytes.load();
  Run.Sets = Sol.flowsToSets().size();
  Run.Propagations = Stats.Propagations;
  Run.Metrics = Sol.computeMetrics(Options);
  return Run;
}

TEST(SolverAllocTest, SolveBytesGrowWithFactsNotNodes) {
  const SolveRun Small = solveGeneratedApp(40);
  const SolveRun Large = solveGeneratedApp(80);
  ASSERT_GT(Large.Nodes, Small.Nodes + 1000);
  // The filler classes add no facts: the fixed point is the same.
  EXPECT_EQ(Small.Sets, Large.Sets);
  EXPECT_EQ(Small.Propagations, Large.Propagations);
  EXPECT_EQ(Small.Metrics.AvgReceivers, Large.Metrics.AvgReceivers);
  EXPECT_EQ(Small.Metrics.AvgResults, Large.Metrics.AvgResults);

  size_t AddedNodes = Large.Nodes - Small.Nodes;
  size_t AddedBytes = Large.Bytes > Small.Bytes ? Large.Bytes - Small.Bytes : 0;
  EXPECT_LE(AddedBytes, 4 * AddedNodes)
      << Small.Bytes << " B for " << Small.Nodes << " nodes vs "
      << Large.Bytes << " B for " << Large.Nodes << " nodes";
}

} // namespace
