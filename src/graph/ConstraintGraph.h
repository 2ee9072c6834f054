//===- ConstraintGraph.h - The GUI constraint graph -------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint graph of Section 4.1. Nodes represent variables, fields,
/// allocations, inflated views, activities, layout/view ids, class
/// constants, and Android operation occurrences. Two edge families exist:
///
///  - flow edges `n -> n'` constrain value flow (assignments, parameter
///    passing, returns, id-constant loads, operation outputs);
///  - relationship edges `n => n'` record structural facts computed by the
///    analysis: parent-child between views, view=>viewId, view=>listener,
///    activity=>rootView, view=>layoutId (inflation origin), and
///    view=>inflateOp (inflation site).
///
/// The graph is mutable during solving: operation rules add both edge
/// families (e.g. AddView2 adds parent-child edges; SetListener adds
/// listener associations plus callback flow edges).
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_GRAPH_CONSTRAINTGRAPH_H
#define GATOR_GRAPH_CONSTRAINTGRAPH_H

#include "android/AndroidModel.h"
#include "ir/Ir.h"
#include "layout/Layout.h"
#include "support/Arena.h"
#include "support/FlatMap.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

namespace gator {

class DiagnosticEngine;

namespace graph {

using NodeId = uint32_t;
inline constexpr NodeId InvalidNode = ~0u;

/// An adjacency list whose storage lives in the graph's arena
/// (docs/MEMORY.md): 16 bytes per source node, contiguous element
/// storage, dropped with the graph as whole slabs.
using NodeList = support::ArenaVector<NodeId>;

enum class NodeKind : uint8_t {
  Var,        ///< a local variable of one method
  Field,      ///< one FieldDecl (the analysis is field-based)
  Alloc,      ///< `new C` for a non-view class (listeners live here)
  ViewAlloc,  ///< `new C` for a view class (paper: ViewAlloc ⊆ Alloc)
  ViewInfl,   ///< a view minted by inflating one layout node at one site
  Activity,   ///< the framework-created instance(s) of an activity class
  LayoutId,   ///< an R.layout integer constant
  ViewId,     ///< an R.id integer constant
  ClassConst, ///< `classof C` (activity-transition-graph client)
  Op,         ///< one occurrence of an Android operation (Section 3.2)
  UnknownView, ///< a view from an unknown source (docs/ROBUSTNESS.md)
  UnknownId,   ///< an id constant the frontends could not resolve
};

inline constexpr size_t NumNodeKinds =
    static_cast<size_t>(NodeKind::UnknownId) + 1;

const char *nodeKindName(NodeKind Kind);

/// Why an UnknownView/UnknownId node exists: the degradation-reason
/// taxonomy of the incomplete-information layer (docs/ROBUSTNESS.md).
/// Ordering is part of the output contract (--explain, metrics labels).
enum class UnknownReason : uint8_t {
  None,          ///< not an unknown node
  ReflectiveNew, ///< view constructed reflectively (newInstance-style)
  UnknownClass,  ///< `new C` / layout class the program cannot resolve
  DynamicId,     ///< non-constant id (e.g. Resources.getIdentifier)
  MissingLayout, ///< layout/resource reference that resolves to nothing
};

inline constexpr size_t NumUnknownReasons =
    static_cast<size_t>(UnknownReason::MissingLayout) + 1;

/// Short reason phrase used in --explain output and node labels, e.g.
/// "non-constant id" for DynamicId.
const char *unknownReasonPhrase(UnknownReason Reason);
/// Stable metric-label slug, e.g. "dynamic_id".
const char *unknownReasonSlug(UnknownReason Reason);

/// Payload of one graph node (docs/MEMORY.md, "Per-node bytes"). Which
/// members are meaningful depends on Kind: the members of each anonymous
/// union below belong to disjoint kinds, and a member may be read only for
/// the kinds its comment names. A node's source location lives in the
/// graph's side table (ConstraintGraph::loc), not in the node.
struct Node {
  NodeKind Kind = NodeKind::Var;
  /// Op: operation kind.
  android::OpKind Op = android::OpKind::Inflate1;
  /// UnknownView/UnknownId: why this unknown-source node was minted.
  /// Method (when non-null) and the node's location name the hostile site.
  UnknownReason Unknown = UnknownReason::None;
  /// Op(FindView3): child-only refinement.
  bool ChildOnly : 1 = false;
  /// Retraction left this node orphaned (docs/INCREMENTAL.md): the minting
  /// site no longer exists after an edit-scale re-analysis. Node ids are
  /// never reused, so retired shells stay in the table but are skipped by
  /// value seeding, solution queries, and dumps.
  bool Retired : 1 = false;

private:
  friend class ConstraintGraph;
  /// 1 + the index of this node's relationship row in its graph, or 0 when
  /// the node is the source of no relationship edge.
  uint32_t RelSlot = 0;

public:
  /// Var: the owning method; Alloc/ViewAlloc: the allocating method;
  /// UnknownView/UnknownId: the hostile site's method, or null. Null for
  /// every other kind.
  const ir::MethodDecl *Method = nullptr;

  /// Alloc/ViewAlloc/ViewInfl/Activity/ClassConst: the class. Null for
  /// every other kind.
  const ir::ClassDecl *Klass = nullptr;

  union {
    /// Field: the field.
    const ir::FieldDecl *Field = nullptr;
    /// ViewInfl: the layout node this view was minted from; null once
    /// neutralized by a layout edit.
    const layout::LayoutNode *LNode;
    /// Op: the listener registration of a SetListener op, or null.
    const android::ListenerSpec *Listener;
  };

  union {
    /// Var: the variable index.
    ir::VarId Var = ir::InvalidVar;
    /// Alloc/ViewAlloc: index of the `new` statement within Method's body
    /// (site identity).
    int32_t StmtIndex;
    /// LayoutId/ViewId: the integer resource id.
    layout::ResourceId Res;
    /// ViewInfl/UnknownView: the Op node of the inflation site ("a fresh
    /// set of graph nodes is introduced at each inflation site", Section
    /// 4.1); InvalidNode for an UnknownView minted outside inflation.
    NodeId InflateSite;
  };

  /// InflateSite for a ViewInfl or UnknownView node, InvalidNode for every
  /// other kind: the safe read when the kind is not known.
  NodeId mintSite() const {
    return Kind == NodeKind::ViewInfl || Kind == NodeKind::UnknownView
               ? InflateSite
               : InvalidNode;
  }

private:
  /// 1 + the index of this node's location in its graph's side table, or
  /// 0 for a kind that carries none.
  uint32_t LocSlot = 0;
};

static_assert(sizeof(void *) != 8 || sizeof(Node) <= 48,
              "a graph node must stay within 48 bytes (docs/MEMORY.md)");

/// True for node kinds whose identity is a *value* propagated by flowsTo
/// (views, activities, ids, ordinary allocations, class constants).
bool isValueNodeKind(NodeKind Kind);
/// True for nodes representing views (ViewAlloc or ViewInfl).
bool isViewNodeKind(NodeKind Kind);

/// The constraint graph.
class ConstraintGraph {
public:
  //===--------------------------------------------------------------------===//
  // Node creation (memoized factories)
  //===--------------------------------------------------------------------===//

  /// Pre-sizes the node table and flow-edge dedup structures. \p NodeHint
  /// and \p EdgeHint are estimates (typically from the program's variable
  /// and statement counts); growth past them stays correct, just slower.
  /// \p MethodIdLimit sizes the per-method variable-node table once
  /// (ir::Program::methodIdLimit()), so getVarNode never grows it.
  void reserve(size_t NodeHint, size_t EdgeHint, size_t MethodIdLimit = 0);

  NodeId getVarNode(const ir::MethodDecl *M, ir::VarId V);
  /// The node getVarNode would return, or InvalidNode when none was made.
  NodeId findVarNode(const ir::MethodDecl *M, ir::VarId V) const {
    if (M->globalId() >= VarNodes.size() ||
        static_cast<size_t>(V) >= VarNodes[M->globalId()].size())
      return InvalidNode;
    return VarNodes[M->globalId()][V];
  }
  NodeId getFieldNode(const ir::FieldDecl *F);
  NodeId getAllocNode(const ir::MethodDecl *M, int32_t StmtIndex,
                      const ir::ClassDecl *Klass, bool IsView,
                      SourceLocation Loc);
  NodeId getActivityNode(const ir::ClassDecl *Klass);
  NodeId getLayoutIdNode(layout::ResourceId Res);
  NodeId getViewIdNode(layout::ResourceId Res);
  NodeId getClassConstNode(const ir::ClassDecl *Klass);

  /// Operation nodes are not memoized: one per call-site occurrence.
  NodeId makeOpNode(android::OpKind Kind, SourceLocation Loc,
                    const android::ListenerSpec *Listener = nullptr,
                    bool ChildOnly = false);

  /// Mints a fresh inflated-view node for \p LNode inflated at \p Site.
  NodeId makeViewInflNode(const ir::ClassDecl *Klass,
                          const layout::LayoutNode *LNode, NodeId Site);

  /// Mints an unknown-source node (docs/ROBUSTNESS.md): one per hostile
  /// site, unmemoized, so every node carries the site (\p Method, \p Loc)
  /// that made it approximate. \p Reason must not be UnknownReason::None.
  /// \p Site, when valid, marks the inflate Op node that minted this
  /// unknown root (mirrors ViewInfl::InflateSite for resultsOf).
  NodeId makeUnknownViewNode(UnknownReason Reason, const ir::MethodDecl *M,
                             SourceLocation Loc, NodeId Site = InvalidNode);
  NodeId makeUnknownIdNode(UnknownReason Reason, const ir::MethodDecl *M,
                           SourceLocation Loc);

  //===--------------------------------------------------------------------===//
  // Node access
  //===--------------------------------------------------------------------===//

  const Node &node(NodeId Id) const { return Nodes[Id]; }
  size_t size() const { return Nodes.size(); }

  /// The site location of an Alloc, ViewAlloc, Op, UnknownView or
  /// UnknownId node (for labels and diagnostics); an invalid location for
  /// every other kind.
  const SourceLocation &loc(NodeId Id) const {
    uint32_t Slot = Nodes[Id].LocSlot;
    return Slot ? Locs[Slot - 1] : NoLoc;
  }

  /// All node ids of a given kind, in creation order (maintained
  /// incrementally; O(1) per query).
  const NodeList &nodesOfKind(NodeKind Kind) const {
    return KindIndex[static_cast<size_t>(Kind)];
  }

  /// True when the graph holds an UnknownView or UnknownId node that is
  /// not retired: some facts approximate hostile input
  /// (docs/ROBUSTNESS.md).
  bool hasUnknownSources() const {
    for (NodeKind K : {NodeKind::UnknownView, NodeKind::UnknownId})
      for (NodeId Id : nodesOfKind(K))
        if (!Nodes[Id].Retired)
          return true;
    return false;
  }

  /// Human-readable label (e.g. "new Button_12", "FindView1_13",
  /// "TextView~infl#229[common_title]").
  std::string label(NodeId Id) const;
  /// Appends label(\p Id) to \p Out, so a printer can render many labels
  /// into one buffer without a temporary string each.
  void appendLabel(std::string &Out, NodeId Id) const;

  //===--------------------------------------------------------------------===//
  // Retraction (edit-scale incremental re-solve, docs/INCREMENTAL.md)
  //===--------------------------------------------------------------------===//

  /// Marks \p Id as retired: the minting site disappeared in an edit-scale
  /// re-analysis. Seeding, queries, and dumps skip retired nodes; the slot
  /// itself is never reused (fact and memo keys embedding the id stay
  /// unambiguous).
  void retireNode(NodeId Id) { Nodes[Id].Retired = true; }
  bool isRetired(NodeId Id) const { return Nodes[Id].Retired; }

  /// Severs a retired ViewInfl node's pointer into its layout tree. Layout
  /// edits free the old LayoutNode tree, so retired views must not keep
  /// dangling LNode pointers (label() and the XML-handler sweep both
  /// tolerate a null LNode).
  void neutralizeViewInflNode(NodeId Id) {
    assert(Nodes[Id].Kind == NodeKind::ViewInfl && "LNode is ViewInfl-only");
    Nodes[Id].LNode = nullptr;
    Nodes[Id].Retired = true;
  }

  /// Edge removal for the delete-and-rederive closure. All removers are
  /// tolerant — removing an absent edge returns false and changes nothing —
  /// so the retraction plan may over-approximate the edges to delete.
  bool removeFlowEdge(NodeId From, NodeId To);
  bool removeParentChildEdge(NodeId Parent, NodeId Child);
  bool removeHasIdEdge(NodeId View, NodeId ViewIdNode);
  bool removeRootEdge(NodeId Activity, NodeId View);
  bool removeListenerEdge(NodeId View, NodeId ListenerValue);
  bool removeRootsLayoutEdge(NodeId View, NodeId LayoutIdNode);

  //===--------------------------------------------------------------------===//
  // Recoverable invariants (docs/ROBUSTNESS.md)
  //===--------------------------------------------------------------------===//

  /// Routes recoverable-invariant reports (edge drops on dangling ids or
  /// kind mismatches) through \p D. Not owned; null silences reporting but
  /// malformed edges are still dropped and counted.
  void setDiagnostics(DiagnosticEngine *D) { Diags = D; }

  /// Edges rejected because a recoverable invariant failed.
  unsigned long droppedInvariants() const { return DroppedInvariants; }

  //===--------------------------------------------------------------------===//
  // Flow edges (->)
  //===--------------------------------------------------------------------===//

  /// Adds n -> n'; returns true if the edge is new.
  bool addFlowEdge(NodeId From, NodeId To);

  const NodeList &flowSuccessors(NodeId Id) const { return FlowSucc[Id]; }

  /// True when the flow edge \p From -> \p To is present.
  bool hasFlowEdge(NodeId From, NodeId To) const;

  /// Releases the capacity reserve() left unused: a long-lived session
  /// keeps its graph after the first solve, which reserve() sized for a
  /// one-shot build (docs/INCREMENTAL.md).
  void shrinkToFit();

  size_t flowEdgeCount() const { return NumFlowEdges; }

  //===--------------------------------------------------------------------===//
  // Relationship edges (=>)
  //===--------------------------------------------------------------------===//

  /// view1 => view2 parent-child. Returns true if new; a self edge is
  /// refused (false).
  bool addParentChildEdge(NodeId Parent, NodeId Child);
  /// view => viewId association (INFLATE, SETID). Returns true if new.
  bool addHasIdEdge(NodeId View, NodeId ViewIdNode);
  /// activity => rootView (INFLATE2, ADDVIEW1). Returns true if new.
  bool addRootEdge(NodeId Activity, NodeId View);
  /// view => listener (SETLISTENER). Returns true if new.
  bool addListenerEdge(NodeId View, NodeId ListenerValue);
  /// view => layoutId: the view is the root of an instance of this layout.
  bool addRootsLayoutEdge(NodeId View, NodeId LayoutIdNode);

  /// All nodes holding at least one hierarchy root (activity nodes plus
  /// dialog/other allocations targeted by INFLATE2/ADDVIEW1).
  std::vector<NodeId> rootHolders() const;

  const NodeList &children(NodeId View) const;
  const NodeList &viewIds(NodeId View) const;
  const NodeList &roots(NodeId Activity) const;
  const NodeList &listeners(NodeId View) const;
  const NodeList &rootsOfLayouts(NodeId View) const;

  /// Reverse of viewIds(): the views carrying \p ViewIdNode (maintained
  /// incrementally by addHasIdEdge).
  const NodeList &viewsWithId(NodeId ViewIdNode) const;

  size_t parentChildEdgeCount() const { return NumParentChild; }

  /// The arena backing every adjacency list, exposed read-only so batch
  /// drivers can account per-app memory (docs/MEMORY.md).
  const support::Arena &edgeArena() const { return EdgeArena; }

  /// All views reachable from \p View through parent-child edges,
  /// including \p View itself (the reflexive-transitive closure used by
  /// FindView rules; the receiver itself is included because
  /// findViewById(id) may match the receiver in Android).
  ///
  /// Memoized per view with generation-stamped invalidation: the cached
  /// BFS result stays valid until addParentChildEdge/addRootEdge bumps the
  /// hierarchy revision. The returned reference is stable across further
  /// descendantsOf calls, but a hierarchy mutation may invalidate its
  /// *contents* on the next query for the same view — don't hold it across
  /// structure growth.
  const std::vector<NodeId> &descendantsOf(NodeId View) const;

  /// Monotone counter bumped by every new parent-child or root edge; a
  /// cheap "has the hierarchy changed since I looked" probe.
  uint64_t hierarchyRevision() const { return HierarchyRev; }

  /// Descendants-cache telemetry (hits, recomputes).
  unsigned long descendantsCacheHits() const { return DescCacheHits; }
  unsigned long descendantsCacheMisses() const { return DescCacheMisses; }

  //===--------------------------------------------------------------------===//
  // Output
  //===--------------------------------------------------------------------===//

  /// Writes the graph in Graphviz DOT format. Flow edges solid,
  /// relationship edges dashed with labels.
  void dumpDot(std::ostream &OS, bool IncludeVarNodes = true) const;

  /// Summary statistics line (node/edge counts by kind).
  void dumpStats(std::ostream &OS) const;

private:
  NodeId push(const Node &N);
  /// push() for a kind that carries a site location: \p Loc goes to the
  /// side table.
  NodeId pushWithLoc(Node N, const SourceLocation &Loc);

  static uint64_t edgeKey(NodeId From, NodeId To) {
    return (static_cast<uint64_t>(From) << 32) | To;
  }

  /// The relationship edge families. ViewsById is the reverse of HasId:
  /// ViewId node -> the views carrying it.
  enum RelFamily : unsigned {
    RelChild,
    RelHasId,
    RelRoot,
    RelListener,
    RelRootsLayout,
    RelViewsById,
    NumRelFamilies
  };

  /// The relationship lists of one source node (docs/MEMORY.md,
  /// "Relationship tables"). Only a node that is the source of some
  /// relationship edge owns a row, found through its Node::RelSlot, so the
  /// tables grow with the edges and not with the graph: inflation mints
  /// fresh ViewInfl nodes at the top of the id range, and a table indexed
  /// by NodeId would regrow to the full graph for each of them.
  struct RelRow {
    NodeId Owner = InvalidNode;
    NodeList Lists[NumRelFamilies];
  };

  const NodeList &relList(RelFamily F, NodeId From) const {
    if (From >= Nodes.size() || Nodes[From].RelSlot == 0)
      return EmptyList;
    return RelRows[Nodes[From].RelSlot - 1].Lists[F];
  }
  /// \p From's list of family \p F, creating \p From's row if needed.
  NodeList &relListForAdd(RelFamily F, NodeId From);
  /// Dedup is hybrid like flow edges: a source's list is linear-scanned
  /// while small; past SmallFlowDegree its edges migrate into the family's
  /// RelSpill set.
  bool addRelEdge(RelFamily F, NodeId From, NodeId To);
  bool removeRelEdge(RelFamily F, NodeId From, NodeId To);

  /// Inserts \p Key into \p Set; true if it was absent. FlatIdMap used
  /// as a set (the value byte is a placeholder).
  static bool insertEdgeKey(support::FlatIdMap<uint8_t> &Set, uint64_t Key) {
    size_t Before = Set.size();
    Set.getOrInsert(Key, 1);
    return Set.size() != Before;
  }

  /// Owns all adjacency-list storage below. Declared before every
  /// NodeList member so arena slabs outlive the tables pointing at them.
  support::Arena EdgeArena;

  std::vector<Node> Nodes;
  /// Site locations of the kinds that carry one, indexed by
  /// Node::LocSlot - 1 (most nodes are variables, which have none). On
  /// EdgeArena, so growing it takes no heap allocation of its own.
  support::ArenaVector<SourceLocation> Locs;
  SourceLocation NoLoc;
  /// Node ids per NodeKind, in creation order.
  std::vector<NodeList> KindIndex = std::vector<NodeList>(NumNodeKinds);

  std::vector<NodeList> FlowSucc;
  /// Flow-edge dedup is hybrid: nodes with few successors scan their
  /// FlowSucc list; once a node's out-degree passes SmallFlowDegree its
  /// edges migrate into the FlowEdges set (high-degree sources like field
  /// nodes stay O(1) per probe without paying a hash insert per edge of
  /// every low-degree node).
  static constexpr size_t SmallFlowDegree = 8;
  support::FlatIdMap<uint8_t> FlowEdges;
  size_t NumFlowEdges = 0;

  std::vector<RelRow> RelRows;
  /// Edge keys of high-degree sources, per family. ViewsById needs none:
  /// HasId already deduplicates its edges.
  support::FlatIdMap<uint8_t> RelSpill[NumRelFamilies];
  size_t NumParentChild = 0;

  /// Per-method variable-node tables, indexed by MethodDecl::globalId()
  /// then VarId — two array indexes per lookup, no hashing (these are the
  /// hottest intern calls in graph construction). The inner vector is
  /// sized to the method's variable count on first touch, InvalidNode
  /// marking absent entries.
  std::vector<NodeList> VarNodes;
  /// Field nodes indexed by FieldDecl::globalId(); InvalidNode when absent.
  std::vector<NodeId> FieldNodes;
  /// Alloc sites keyed by packed (method globalId, stmt index).
  support::FlatIdMap<NodeId> AllocNodes;
  /// Keyed by ClassDecl::globalId().
  support::FlatIdMap<NodeId> ActivityNodes;
  /// Dense id->node tables indexed by (Res - base); resource ids are
  /// interned sequentially from ResourceTable's fixed bases. Ids outside
  /// the dense window land in the overflow maps.
  std::vector<NodeId> LayoutIdNodes;
  std::vector<NodeId> ViewIdNodes;
  support::FlatIdMap<NodeId> LayoutIdOverflow;
  support::FlatIdMap<NodeId> ViewIdOverflow;

  NodeId getIdNode(std::vector<NodeId> &Dense,
                   support::FlatIdMap<NodeId> &Overflow,
                   layout::ResourceId Base, NodeKind Kind,
                   layout::ResourceId Res);
  /// Keyed by ClassDecl::globalId().
  support::FlatIdMap<NodeId> ClassConstNodes;

  /// Memoized descendantsOf results, valid while Rev == HierarchyRev.
  /// Entries live in DescStore (a deque: descendantsOf hands out stable
  /// `const std::vector<NodeId> &` references, and deque growth never
  /// relocates existing elements); DescCacheIndex maps a view's NodeId to
  /// its slot. The index is a FlatIdMap (docs/MEMORY.md PR 6 pattern) —
  /// open-addressed, no per-node heap allocation, cheap to probe on the
  /// hot FindView path.
  struct DescCacheEntry {
    uint64_t Rev = 0; // 0 is never a live revision
    std::vector<NodeId> Views;
  };
  mutable support::FlatIdMap<uint32_t> DescCacheIndex;
  mutable std::deque<DescCacheEntry> DescStore;
  DescCacheEntry &descCacheSlot(NodeId View) const;
  /// Recomputes the descendants of \p View into \p Out (DFS order) for
  /// descendantsOf, using the DescSeenStamp scratch below.
  void computeDescendantsInto(NodeId View, std::vector<NodeId> &Out) const;
  uint64_t HierarchyRev = 1;
  mutable unsigned long DescCacheHits = 0;
  mutable unsigned long DescCacheMisses = 0;
  /// Generation-stamped visited marks for the descendantsOf walk: node N
  /// is visited in the current traversal iff its stamp equals
  /// DescSeenGen. Keyed by node id, so it holds an entry per view ever
  /// walked rather than a slot per graph node, and it is reused across
  /// recomputes like the DescWork stack.
  mutable support::FlatIdMap<uint32_t> DescSeenStamp;
  mutable uint32_t DescSeenGen = 0;
  mutable std::vector<NodeId> DescWork;

  NodeList EmptyList;

  DiagnosticEngine *Diags = nullptr;
  unsigned long DroppedInvariants = 0;
};

} // namespace graph
} // namespace gator

#endif // GATOR_GRAPH_CONSTRAINTGRAPH_H
