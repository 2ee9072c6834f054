//===- DifferentialHelpers.h - Solution-equality test helpers ---*- C++ -*-===//
//
// Shared by differential_test.cpp (fused vs. phased engines),
// unknown_sources_test.cpp and solver_test.cpp: a full comparison of two
// analysis solutions.
//
//===----------------------------------------------------------------------===//

#ifndef GATOR_TESTS_DIFFERENTIALHELPERS_H
#define GATOR_TESTS_DIFFERENTIALHELPERS_H

#include "analysis/GuiAnalysis.h"
#include "analysis/Incremental.h"

#include <gtest/gtest.h>

#include <string>

namespace gator {
namespace test {

struct EdgeCounts {
  size_t ParentChild, Flow, Nodes, ViewInfl;
};

inline EdgeCounts edgeCounts(const analysis::AnalysisResult &R) {
  return EdgeCounts{
      R.Graph->parentChildEdgeCount(), R.Graph->flowEdgeCount(),
      R.Graph->size(),
      R.Graph->nodesOfKind(graph::NodeKind::ViewInfl).size()};
}

/// Asserts that two results describe the same solution: identical
/// edge/node counts, identical solutionDigest (every flowsTo set, every
/// relationship edge, every unresolved-op marker and the fidelity, under
/// semantic keys),
/// identical Table 2 metrics. Both results must be computed over the same
/// program and layout objects: the digest names inflated views by their
/// layout node's address.
inline void expectSameSolution(const analysis::AnalysisResult &A,
                               const analysis::AnalysisResult &B,
                               const std::string &Context) {
  EdgeCounts CA = edgeCounts(A), CB = edgeCounts(B);
  EXPECT_EQ(CA.ParentChild, CB.ParentChild) << Context;
  EXPECT_EQ(CA.Nodes, CB.Nodes) << Context;
  EXPECT_EQ(CA.ViewInfl, CB.ViewInfl) << Context;
  EXPECT_EQ(CA.Flow, CB.Flow) << Context;

  EXPECT_EQ(analysis::solutionDigest(*A.Sol), analysis::solutionDigest(*B.Sol))
      << Context;

  auto MA = A.metrics();
  auto MB = B.metrics();
  EXPECT_DOUBLE_EQ(MA.AvgReceivers, MB.AvgReceivers) << Context;
  EXPECT_EQ(MA.AvgResults.has_value(), MB.AvgResults.has_value()) << Context;
  if (MA.AvgResults && MB.AvgResults) {
    EXPECT_DOUBLE_EQ(*MA.AvgResults, *MB.AvgResults) << Context;
  }
  if (MA.AvgListeners && MB.AvgListeners) {
    EXPECT_DOUBLE_EQ(*MA.AvgListeners, *MB.AvgListeners) << Context;
  }
}

} // namespace test
} // namespace gator

#endif // GATOR_TESTS_DIFFERENTIALHELPERS_H
