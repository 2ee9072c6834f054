//===- graph_test.cpp - Constraint graph unit tests -------------*- C++ -*-===//

#include "graph/ConstraintGraph.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

namespace {

// Bytes requested from operator new while Counting is set (see
// RelationshipTablesDoNotGrowWithTheGraph).
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
    Builder.makeClass("pkg.sub.Screen");
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

TEST_F(GraphTest, RelationshipTablesDoNotGrowWithTheGraph) {
  // Inflation mints views at the top of the id range. Their relationship
  // edges must cost memory per edge, not per node of the graph.
  const ClassDecl *A = P.findClass("A");
  NodeId Child = G.getAllocNode(M, 0, A, /*IsView=*/true, {});
  NodeId Root = G.getAllocNode(M, 1, A, /*IsView=*/true, {});
  NodeId Listener = G.getAllocNode(M, 2, A, /*IsView=*/false, {});
  NodeId Id = G.getViewIdNode(7);
  while (G.size() < 100000)
    G.makeOpNode(android::OpKind::FindView1, SourceLocation());
  NodeId Last = G.getAllocNode(M, 3, A, /*IsView=*/true, {});
  ASSERT_EQ(Last + 1, G.size());

  const size_t ArenaBefore = G.edgeArena().bytesAllocated();
  AllocatedBytes.store(0);
  Counting.store(true);
  const bool Added = G.addParentChildEdge(Last, Child) &&
                     G.addHasIdEdge(Last, Id) && G.addRootEdge(Last, Root) &&
                     G.addListenerEdge(Last, Listener);
  Counting.store(false);
  EXPECT_TRUE(Added);
  const size_t Bytes =
      AllocatedBytes.load() + G.edgeArena().bytesAllocated() - ArenaBefore;
  EXPECT_LT(Bytes, 64u * 1024) << Bytes << " bytes for four edges";

  EXPECT_EQ(G.children(Last).size(), 1u);
  EXPECT_EQ(G.viewsWithId(Id).size(), 1u);
  EXPECT_EQ(G.roots(Last).size(), 1u);
  EXPECT_EQ(G.listeners(Last).size(), 1u);
  EXPECT_TRUE(G.children(Last - 1).empty());
  EXPECT_TRUE(G.children(G.size() + 5).empty());
}

TEST_F(GraphTest, RelationshipOrderIsInsertionOrderPerAscendingSource) {
  const ClassDecl *A = P.findClass("A");
  std::vector<NodeId> V;
  for (int32_t I = 0; I < 6; ++I)
    V.push_back(G.getAllocNode(M, I, A, /*IsView=*/true, {}));
  NodeId Holder = G.getActivityNode(A);
  NodeId Layout = G.getLayoutIdNode(3);
  NodeId Id = G.getViewIdNode(5);
  // Sources get their first edge in descending id order.
  EXPECT_TRUE(G.addRootsLayoutEdge(V[5], Layout));
  EXPECT_TRUE(G.addParentChildEdge(V[4], V[5]));
  EXPECT_TRUE(G.addRootEdge(Holder, V[4]));
  EXPECT_TRUE(G.addRootEdge(V[1], V[3]));
  EXPECT_TRUE(G.addParentChildEdge(V[0], V[3]));
  EXPECT_TRUE(G.addParentChildEdge(V[0], V[1]));
  EXPECT_TRUE(G.addParentChildEdge(V[0], V[2]));
  EXPECT_TRUE(G.addHasIdEdge(V[2], Id));
  EXPECT_TRUE(G.addHasIdEdge(V[0], Id));

  EXPECT_EQ(std::vector<NodeId>(G.children(V[0]).begin(),
                                G.children(V[0]).end()),
            (std::vector<NodeId>{V[3], V[1], V[2]}));
  EXPECT_EQ(std::vector<NodeId>(G.viewsWithId(Id).begin(),
                                G.viewsWithId(Id).end()),
            (std::vector<NodeId>{V[2], V[0]}));
  EXPECT_TRUE(G.removeParentChildEdge(V[0], V[1]));
  EXPECT_FALSE(G.removeParentChildEdge(V[0], V[1]));
  EXPECT_EQ(std::vector<NodeId>(G.children(V[0]).begin(),
                                G.children(V[0]).end()),
            (std::vector<NodeId>{V[3], V[2]}));
  EXPECT_EQ(G.rootHolders(), (std::vector<NodeId>{V[1], Holder}));

  std::ostringstream OS;
  G.dumpDot(OS);
  std::string Dashed;
  std::istringstream Lines(OS.str());
  for (std::string Line; std::getline(Lines, Line);)
    if (Line.find("style=dashed") != std::string::npos) {
      Dashed += Line.substr(0, Line.find(" ["));
      Dashed += ' ';
      Dashed += Line.substr(Line.find("label="));
      Dashed += '\n';
    }
  std::string Expected;
  auto Edge = [&](NodeId From, NodeId To, const char *Label) {
    Expected += "  n";
    Expected += std::to_string(From);
    Expected += " -> n";
    Expected += std::to_string(To);
    Expected += " label=\"";
    Expected += Label;
    Expected += "\"];\n";
  };
  Edge(V[0], V[3], "child");
  Edge(V[0], V[2], "child");
  Edge(V[4], V[5], "child");
  Edge(V[0], Id, "id");
  Edge(V[2], Id, "id");
  Edge(V[1], V[3], "root");
  Edge(Holder, V[4], "root");
  Edge(V[5], Layout, "layout");
  EXPECT_EQ(Dashed, Expected);
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

  // Every other NodeKind and edge case, recorded before label() was
  // rewritten without streams; every printer, dump and --explain query
  // depends on these exact spellings.
  const ClassDecl *A = P.findClass("A");
  const ClassDecl *Dotted = P.findClass("pkg.sub.Screen");
  ASSERT_NE(Dotted, nullptr);

  EXPECT_EQ(G.label(G.getVarNode(M, M->thisVar())), "this@A.m/0");

  EXPECT_EQ(G.label(G.getAllocNode(M, 10, Dotted, false,
                                   SourceLocation("t", 7, 3))),
            "new Screen_7");
  EXPECT_EQ(G.label(G.getAllocNode(M, 11, A, false, {})), "new A");
  EXPECT_EQ(G.label(G.getAllocNode(M, 12, nullptr, false, {})), "new ?");
  EXPECT_EQ(G.label(G.getAllocNode(M, 13, Dotted, true,
                                   SourceLocation("t", 123456, 1))),
            "new Screen_123456");

  NodeId Site = G.makeOpNode(android::OpKind::Inflate1,
                             SourceLocation("t", 9, 1));
  EXPECT_EQ(G.label(Site), "Inflate1_9");
  layout::LayoutNode WithId("Button", "ok");
  layout::LayoutNode NoId("LinearLayout", "");
  EXPECT_EQ(G.label(G.makeViewInflNode(Dotted, &WithId, Site)),
            "Screen~infl#" + std::to_string(Site) + "[ok]");
  EXPECT_EQ(G.label(G.makeViewInflNode(Dotted, &NoId, Site)),
            "Screen~infl#" + std::to_string(Site));
  EXPECT_EQ(G.label(G.makeViewInflNode(nullptr, nullptr, InvalidNode)),
            "?~infl#4294967295");

  EXPECT_EQ(G.label(G.getActivityNode(Dotted)), "act:Screen");

  EXPECT_EQ(G.label(G.getLayoutIdNode(layout::ResourceTable::LayoutIdBase)),
            "R.layout#0");
  EXPECT_EQ(
      G.label(G.getLayoutIdNode(layout::ResourceTable::LayoutIdBase + 42)),
      "R.layout#42");
  EXPECT_EQ(G.label(G.getViewIdNode(layout::ResourceTable::ViewIdBase + 7)),
            "R.id#7");
  EXPECT_EQ(G.label(G.getViewIdNode(3)), "R.id#-2131230717");

  EXPECT_EQ(G.label(G.getClassConstNode(Dotted)), "classof Screen");
  EXPECT_EQ(G.label(G.getClassConstNode(A)), "classof A");

  EXPECT_EQ(G.label(G.makeOpNode(android::OpKind::FindView2, {})),
            "FindView2");

  EXPECT_EQ(G.label(G.makeUnknownViewNode(UnknownReason::ReflectiveNew, M,
                                          SourceLocation("t", 31, 2))),
            "unknown-view(reflective construction)@A.m/0_31");
  EXPECT_EQ(G.label(G.makeUnknownViewNode(UnknownReason::UnknownClass,
                                          nullptr, {})),
            "unknown-view(unresolved class)");
  EXPECT_EQ(G.label(G.makeUnknownViewNode(UnknownReason::MissingLayout,
                                          nullptr,
                                          SourceLocation("t", 5, 1))),
            "unknown-view(missing layout resource)_5");
  EXPECT_EQ(G.label(G.makeUnknownIdNode(UnknownReason::DynamicId, M,
                                        SourceLocation("t", 12, 4))),
            "unknown-id(non-constant id)@A.m/0_12");
  EXPECT_EQ(G.label(G.makeUnknownIdNode(UnknownReason::DynamicId, M, {})),
            "unknown-id(non-constant id)@A.m/0");
  EXPECT_EQ(G.label(G.makeUnknownIdNode(UnknownReason::MissingLayout, nullptr,
                                        {})),
            "unknown-id(missing layout resource)");

  // appendLabel appends to what the buffer already holds.
  std::string Buf = "node ";
  G.appendLabel(Buf, G.getFieldNode(F));
  G.appendLabel(Buf, G.getClassConstNode(A));
  EXPECT_EQ(Buf, "node A.fclassof A");
}

// Every kind's payload survives node-table growth. The union members of
// Node are read only for the kinds that own them, and locations come from
// the graph's side table; the expected values were first checked against
// the 96-byte node, which kept every field and the location inline.
TEST_F(GraphTest, EveryKindKeepsItsPayload) {
  auto locOf = [&](NodeId Id) -> const SourceLocation & { return G.loc(Id); };
  const ClassDecl *A = P.findClass("A");
  const ClassDecl *Dotted = P.findClass("pkg.sub.Screen");
  android::ListenerSpec Spec;
  Spec.InterfaceName = "android.view.View.OnClickListener";
  layout::LayoutNode WithId("Button", "ok");

  NodeId Var = G.getVarNode(M, M->findVar("x"));
  NodeId Field = G.getFieldNode(F);
  NodeId LayoutId =
      G.getLayoutIdNode(layout::ResourceTable::LayoutIdBase + 5);
  NodeId ViewId = G.getViewIdNode(layout::ResourceTable::ViewIdBase + 9);
  NodeId Act = G.getActivityNode(Dotted);
  NodeId Cls = G.getClassConstNode(A);
  NodeId Alloc = G.getAllocNode(M, 4, A, false, SourceLocation("a", 11, 2));
  NodeId ViewAlloc =
      G.getAllocNode(M, 7, Dotted, true, SourceLocation("b", 12, 3));
  NodeId Op = G.makeOpNode(android::OpKind::SetListener,
                           SourceLocation("c", 13, 4), &Spec,
                           /*ChildOnly=*/true);
  NodeId Infl = G.makeViewInflNode(Dotted, &WithId, Op);
  NodeId InflNoNode = G.makeViewInflNode(A, nullptr, Op);
  NodeId UView = G.makeUnknownViewNode(UnknownReason::MissingLayout, M,
                                       SourceLocation("d", 14, 5), Op);
  NodeId UId = G.makeUnknownIdNode(UnknownReason::DynamicId, M,
                                   SourceLocation("e", 15, 6));

  // Enough further nodes that the node table and the side table move.
  for (int I = 0; I < 10000; ++I)
    G.makeOpNode(android::OpKind::FindView1, SourceLocation("f", 16, 7));
  ASSERT_EQ(G.size(), 10013u);

  EXPECT_EQ(G.node(Var).Kind, NodeKind::Var);
  EXPECT_EQ(G.node(Var).Method, M);
  EXPECT_EQ(G.node(Var).Var, M->findVar("x"));
  EXPECT_FALSE(locOf(Var).isValid());

  EXPECT_EQ(G.node(Field).Kind, NodeKind::Field);
  EXPECT_EQ(G.node(Field).Field, F);
  EXPECT_EQ(G.node(Field).Method, nullptr);
  EXPECT_EQ(G.node(Field).Klass, nullptr);

  EXPECT_EQ(G.node(LayoutId).Kind, NodeKind::LayoutId);
  EXPECT_EQ(G.node(LayoutId).Res, layout::ResourceTable::LayoutIdBase + 5);
  EXPECT_EQ(G.node(ViewId).Kind, NodeKind::ViewId);
  EXPECT_EQ(G.node(ViewId).Res, layout::ResourceTable::ViewIdBase + 9);

  EXPECT_EQ(G.node(Act).Kind, NodeKind::Activity);
  EXPECT_EQ(G.node(Act).Klass, Dotted);
  EXPECT_EQ(G.node(Cls).Kind, NodeKind::ClassConst);
  EXPECT_EQ(G.node(Cls).Klass, A);

  EXPECT_EQ(G.node(Alloc).Kind, NodeKind::Alloc);
  EXPECT_EQ(G.node(Alloc).Method, M);
  EXPECT_EQ(G.node(Alloc).StmtIndex, 4);
  EXPECT_EQ(G.node(Alloc).Klass, A);
  EXPECT_EQ(locOf(Alloc), SourceLocation("a", 11, 2));
  EXPECT_EQ(G.node(ViewAlloc).Kind, NodeKind::ViewAlloc);
  EXPECT_EQ(G.node(ViewAlloc).Method, M);
  EXPECT_EQ(G.node(ViewAlloc).StmtIndex, 7);
  EXPECT_EQ(G.node(ViewAlloc).Klass, Dotted);
  EXPECT_EQ(locOf(ViewAlloc), SourceLocation("b", 12, 3));

  EXPECT_EQ(G.node(Op).Kind, NodeKind::Op);
  EXPECT_EQ(G.node(Op).Op, android::OpKind::SetListener);
  EXPECT_EQ(G.node(Op).Listener, &Spec);
  EXPECT_TRUE(G.node(Op).ChildOnly);
  EXPECT_EQ(locOf(Op), SourceLocation("c", 13, 4));
  EXPECT_EQ(G.node(10012).Op, android::OpKind::FindView1);
  EXPECT_EQ(G.node(10012).Listener, nullptr);
  EXPECT_FALSE(G.node(10012).ChildOnly);
  EXPECT_EQ(locOf(10012), SourceLocation("f", 16, 7));

  EXPECT_EQ(G.node(Infl).Kind, NodeKind::ViewInfl);
  EXPECT_EQ(G.node(Infl).Klass, Dotted);
  EXPECT_EQ(G.node(Infl).LNode, &WithId);
  EXPECT_EQ(G.node(Infl).InflateSite, Op);
  EXPECT_FALSE(locOf(Infl).isValid());
  EXPECT_EQ(G.node(InflNoNode).Klass, A);
  EXPECT_EQ(G.node(InflNoNode).LNode, nullptr);
  EXPECT_EQ(G.node(InflNoNode).InflateSite, Op);

  EXPECT_EQ(G.node(UView).Kind, NodeKind::UnknownView);
  EXPECT_EQ(G.node(UView).Unknown, UnknownReason::MissingLayout);
  EXPECT_EQ(G.node(UView).Method, M);
  EXPECT_EQ(G.node(UView).InflateSite, Op);
  EXPECT_EQ(locOf(UView), SourceLocation("d", 14, 5));
  EXPECT_EQ(G.node(UId).Kind, NodeKind::UnknownId);
  EXPECT_EQ(G.node(UId).Unknown, UnknownReason::DynamicId);
  EXPECT_EQ(G.node(UId).Method, M);
  EXPECT_EQ(locOf(UId), SourceLocation("e", 15, 6));

  for (NodeId Id : {Var, Field, LayoutId, ViewId, Act, Cls, Alloc, ViewAlloc,
                    Op, Infl, InflNoNode, UView, UId})
    EXPECT_FALSE(G.node(Id).Retired) << G.label(Id);
  G.retireNode(UView);
  EXPECT_TRUE(G.isRetired(UView));
  EXPECT_EQ(G.node(UView).InflateSite, Op);
  G.neutralizeViewInflNode(Infl);
  EXPECT_EQ(G.node(Infl).LNode, nullptr);
  EXPECT_EQ(G.node(Infl).Klass, Dotted);
  EXPECT_EQ(G.node(Infl).InflateSite, Op);

  // mintSite() reads InflateSite only for the kinds that own it.
  EXPECT_EQ(G.node(Infl).mintSite(), Op);
  EXPECT_EQ(G.node(UView).mintSite(), Op);
  for (NodeId Id : {Var, LayoutId, Alloc, Op, UId})
    EXPECT_EQ(G.node(Id).mintSite(), InvalidNode) << G.label(Id);
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
