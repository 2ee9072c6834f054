//===- graph_test.cpp - Constraint graph unit tests -------------*- C++ -*-===//

#include "graph/ConstraintGraph.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gator;
using namespace gator::graph;
using namespace gator::ir;

namespace {

class GraphTest : public ::testing::Test {
protected:
  void SetUp() override {
    ProgramBuilder Builder(P, Diags);
    ClassBuilder A = Builder.makeClass("A");
    A.field("f", "A");
    MethodBuilder MB = A.method("m", "void");
    MB.local("x", "A");
    MB.assignNull("x");
    ASSERT_TRUE(Builder.finish());
    M = P.findClass("A")->findOwnMethod("m", 0);
    F = P.findClass("A")->findOwnField("f");
  }

  Program P;
  DiagnosticEngine Diags;
  const MethodDecl *M = nullptr;
  const FieldDecl *F = nullptr;
  ConstraintGraph G;
};

TEST_F(GraphTest, FactoriesAreMemoized) {
  NodeId V1 = G.getVarNode(M, 0);
  NodeId V2 = G.getVarNode(M, 0);
  EXPECT_EQ(V1, V2);
  EXPECT_NE(G.getVarNode(M, 1), V1);

  EXPECT_EQ(G.getFieldNode(F), G.getFieldNode(F));
  EXPECT_EQ(G.getActivityNode(P.findClass("A")),
            G.getActivityNode(P.findClass("A")));
  EXPECT_EQ(G.getLayoutIdNode(100), G.getLayoutIdNode(100));
  EXPECT_NE(G.getLayoutIdNode(100), G.getViewIdNode(100));
  EXPECT_EQ(G.getClassConstNode(P.findClass("A")),
            G.getClassConstNode(P.findClass("A")));
  EXPECT_EQ(G.getAllocNode(M, 3, P.findClass("A"), false, {}),
            G.getAllocNode(M, 3, P.findClass("A"), false, {}));
}

TEST_F(GraphTest, OpNodesAreNotMemoized) {
  NodeId Op1 = G.makeOpNode(android::OpKind::FindView1, SourceLocation());
  NodeId Op2 = G.makeOpNode(android::OpKind::FindView1, SourceLocation());
  EXPECT_NE(Op1, Op2);
}

TEST_F(GraphTest, FlowEdgesDeduplicate) {
  NodeId A = G.getVarNode(M, 0);
  NodeId B = G.getVarNode(M, 1);
  EXPECT_TRUE(G.addFlowEdge(A, B));
  EXPECT_FALSE(G.addFlowEdge(A, B));
  EXPECT_EQ(G.flowEdgeCount(), 1u);
  ASSERT_EQ(G.flowSuccessors(A).size(), 1u);
  EXPECT_EQ(G.flowSuccessors(A)[0], B);
}

TEST_F(GraphTest, RelationshipEdgesDeduplicate) {
  NodeId V1 = G.getAllocNode(M, 0, P.findClass("A"), /*IsView=*/true, {});
  NodeId V2 = G.getAllocNode(M, 1, P.findClass("A"), /*IsView=*/true, {});
  NodeId Id = G.getViewIdNode(7);
  EXPECT_TRUE(G.addParentChildEdge(V1, V2));
  EXPECT_FALSE(G.addParentChildEdge(V1, V2));
  EXPECT_EQ(G.parentChildEdgeCount(), 1u);
  EXPECT_TRUE(G.addHasIdEdge(V1, Id));
  EXPECT_FALSE(G.addHasIdEdge(V1, Id));
  ASSERT_EQ(G.viewIds(V1).size(), 1u);
  EXPECT_EQ(G.children(V2).size(), 0u);
}

TEST_F(GraphTest, DescendantsIncludeSelfAndHandleSharing) {
  auto View = [&](int I) {
    return G.getAllocNode(M, I, P.findClass("A"), /*IsView=*/true, {});
  };
  // Diamond: 0 -> {1, 2}, 1 -> 3, 2 -> 3.
  G.addParentChildEdge(View(0), View(1));
  G.addParentChildEdge(View(0), View(2));
  G.addParentChildEdge(View(1), View(3));
  G.addParentChildEdge(View(2), View(3));
  auto Desc = G.descendantsOf(View(0));
  EXPECT_EQ(Desc.size(), 4u); // each node once despite two paths to 3
  auto DescLeaf = G.descendantsOf(View(3));
  ASSERT_EQ(DescLeaf.size(), 1u);
  EXPECT_EQ(DescLeaf[0], View(3));
}

TEST_F(GraphTest, DescendantsTerminateOnCycle) {
  auto View = [&](int I) {
    return G.getAllocNode(M, I, P.findClass("A"), /*IsView=*/true, {});
  };
  G.addParentChildEdge(View(0), View(1));
  G.addParentChildEdge(View(1), View(0));
  EXPECT_EQ(G.descendantsOf(View(0)).size(), 2u);
}

TEST_F(GraphTest, DescendantsCacheCountsHitsAndMisses) {
  auto View = [&](int I) {
    return G.getAllocNode(M, I, P.findClass("A"), /*IsView=*/true, {});
  };
  // A small view tree: 0 -> {1, 2}, 1 -> {3}.
  G.addParentChildEdge(View(0), View(1));
  G.addParentChildEdge(View(0), View(2));
  G.addParentChildEdge(View(1), View(3));

  EXPECT_EQ(G.descendantsCacheMisses(), 0u);
  const std::vector<NodeId> &First = G.descendantsOf(View(0));
  EXPECT_EQ(First.size(), 4u); // root + 3 descendants
  EXPECT_EQ(G.descendantsCacheMisses(), 1u);
  EXPECT_EQ(G.descendantsCacheHits(), 0u);

  std::vector<NodeId> Snapshot = First;
  EXPECT_EQ(G.descendantsOf(View(0)), Snapshot); // warm: same list, a hit
  EXPECT_EQ(G.descendantsCacheHits(), 1u);
  EXPECT_EQ(G.descendantsCacheMisses(), 1u);

  // A structural edit bumps HierarchyRev: next query is a miss again.
  G.addParentChildEdge(View(2), View(5));
  EXPECT_EQ(G.descendantsOf(View(0)).size(), 5u);
  EXPECT_EQ(G.descendantsCacheMisses(), 2u);
}

TEST_F(GraphTest, LabelsAreInformative) {
  NodeId V = G.getVarNode(M, M->findVar("x"));
  EXPECT_EQ(G.label(V), "x@A.m/0");
  NodeId Field = G.getFieldNode(F);
  EXPECT_EQ(G.label(Field), "A.f");
  NodeId Act = G.getActivityNode(P.findClass("A"));
  EXPECT_EQ(G.label(Act), "act:A");
  NodeId Alloc = G.getAllocNode(M, 0, P.findClass("A"), true,
                                SourceLocation("t", 21, 1));
  EXPECT_EQ(G.label(Alloc), "new A_21");
  NodeId Op = G.makeOpNode(android::OpKind::SetListener,
                           SourceLocation("t", 16, 1));
  EXPECT_EQ(G.label(Op), "SetListener_16");
}

TEST_F(GraphTest, NodesOfKindFilters) {
  G.getVarNode(M, 0);
  G.getViewIdNode(1);
  G.getViewIdNode(2);
  EXPECT_EQ(G.nodesOfKind(NodeKind::ViewId).size(), 2u);
  EXPECT_EQ(G.nodesOfKind(NodeKind::Var).size(), 1u);
  EXPECT_EQ(G.nodesOfKind(NodeKind::Op).size(), 0u);
}

TEST_F(GraphTest, DotDumpContainsNodesAndEdges) {
  NodeId A = G.getVarNode(M, M->findVar("x"));
  NodeId V = G.getAllocNode(M, 0, P.findClass("A"), true, {});
  G.addFlowEdge(V, A);
  NodeId Id = G.getViewIdNode(3);
  G.addHasIdEdge(V, Id);
  std::ostringstream OS;
  G.dumpDot(OS);
  std::string Dot = OS.str();
  EXPECT_NE(Dot.find("digraph constraints"), std::string::npos);
  EXPECT_NE(Dot.find("x@A.m/0"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"id\""), std::string::npos);
  // Var nodes can be suppressed.
  std::ostringstream OS2;
  G.dumpDot(OS2, /*IncludeVarNodes=*/false);
  EXPECT_EQ(OS2.str().find("x@A.m/0"), std::string::npos);
}

TEST_F(GraphTest, ValueAndViewKindPredicates) {
  EXPECT_TRUE(isValueNodeKind(NodeKind::ViewInfl));
  EXPECT_TRUE(isValueNodeKind(NodeKind::Activity));
  EXPECT_TRUE(isValueNodeKind(NodeKind::LayoutId));
  EXPECT_FALSE(isValueNodeKind(NodeKind::Var));
  EXPECT_FALSE(isValueNodeKind(NodeKind::Op));
  EXPECT_TRUE(isViewNodeKind(NodeKind::ViewAlloc));
  EXPECT_TRUE(isViewNodeKind(NodeKind::ViewInfl));
  EXPECT_FALSE(isViewNodeKind(NodeKind::Alloc));
}

TEST_F(GraphTest, StatsLineMentionsCounts) {
  G.getVarNode(M, 0);
  G.getViewIdNode(9);
  std::ostringstream OS;
  G.dumpStats(OS);
  EXPECT_NE(OS.str().find("Var=1"), std::string::npos);
  EXPECT_NE(OS.str().find("ViewId=1"), std::string::npos);
}

} // namespace
