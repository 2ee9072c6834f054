//===- ConstraintGraph.cpp - The GUI constraint graph -----------*- C++ -*-===//

#include "graph/ConstraintGraph.h"

#include "support/Check.h"

#include <algorithm>
#include <charconv>
#include <iterator>

using namespace gator;
using namespace gator::graph;
using namespace gator::ir;

const char *gator::graph::nodeKindName(NodeKind Kind) {
  switch (Kind) {
  case NodeKind::Var:
    return "Var";
  case NodeKind::Field:
    return "Field";
  case NodeKind::Alloc:
    return "Alloc";
  case NodeKind::ViewAlloc:
    return "ViewAlloc";
  case NodeKind::ViewInfl:
    return "ViewInfl";
  case NodeKind::Activity:
    return "Activity";
  case NodeKind::LayoutId:
    return "LayoutId";
  case NodeKind::ViewId:
    return "ViewId";
  case NodeKind::ClassConst:
    return "ClassConst";
  case NodeKind::Op:
    return "Op";
  case NodeKind::UnknownView:
    return "UnknownView";
  case NodeKind::UnknownId:
    return "UnknownId";
  }
  return "unknown";
}

const char *gator::graph::unknownReasonPhrase(UnknownReason Reason) {
  switch (Reason) {
  case UnknownReason::None:
    return "none";
  case UnknownReason::ReflectiveNew:
    return "reflective construction";
  case UnknownReason::UnknownClass:
    return "unresolved class";
  case UnknownReason::DynamicId:
    return "non-constant id";
  case UnknownReason::MissingLayout:
    return "missing layout resource";
  }
  return "unknown";
}

const char *gator::graph::unknownReasonSlug(UnknownReason Reason) {
  switch (Reason) {
  case UnknownReason::None:
    return "none";
  case UnknownReason::ReflectiveNew:
    return "reflective_new";
  case UnknownReason::UnknownClass:
    return "unknown_class";
  case UnknownReason::DynamicId:
    return "dynamic_id";
  case UnknownReason::MissingLayout:
    return "missing_layout";
  }
  return "unknown";
}

bool gator::graph::isValueNodeKind(NodeKind Kind) {
  switch (Kind) {
  case NodeKind::Alloc:
  case NodeKind::ViewAlloc:
  case NodeKind::ViewInfl:
  case NodeKind::Activity:
  case NodeKind::LayoutId:
  case NodeKind::ViewId:
  case NodeKind::ClassConst:
  case NodeKind::UnknownView:
  case NodeKind::UnknownId:
    return true;
  default:
    return false;
  }
}

bool gator::graph::isViewNodeKind(NodeKind Kind) {
  return Kind == NodeKind::ViewAlloc || Kind == NodeKind::ViewInfl ||
         Kind == NodeKind::UnknownView;
}

//===----------------------------------------------------------------------===//
// Node factories
//===----------------------------------------------------------------------===//

void ConstraintGraph::reserve(size_t NodeHint, size_t EdgeHint,
                              size_t MethodIdLimit) {
  if (VarNodes.size() < MethodIdLimit)
    VarNodes.resize(MethodIdLimit);
  Nodes.reserve(NodeHint);
  FlowSucc.reserve(NodeHint);
  KindIndex[static_cast<size_t>(NodeKind::Var)].reserve(EdgeArena,
                                                        NodeHint / 2);
  FlowEdges.reserve(EdgeHint / 4); // only high-degree sources land here
}

NodeId ConstraintGraph::push(const Node &N) {
  NodeId Id = static_cast<NodeId>(Nodes.size());
  KindIndex[static_cast<size_t>(N.Kind)].push_back(EdgeArena, Id);
  Nodes.push_back(N);
  FlowSucc.emplace_back();
  return Id;
}

void ConstraintGraph::shrinkToFit() {
  // Keep an eighth as headroom: each edit mints a few nodes, and an exact
  // fit would make the first of them copy the whole table.
  const size_t Keep = Nodes.size() + Nodes.size() / 8 + 64;
  auto fit = [&](auto &Table) {
    if (Table.capacity() <= Keep)
      return;
    std::decay_t<decltype(Table)> Fitted;
    Fitted.reserve(Keep);
    std::move(Table.begin(), Table.end(), std::back_inserter(Fitted));
    Table.swap(Fitted);
  };
  fit(Nodes);
  fit(FlowSucc);
  FlowEdges.shrinkToFit();
}

NodeId ConstraintGraph::pushWithLoc(Node N, const SourceLocation &Loc) {
  Locs.push_back(EdgeArena, Loc);
  N.LocSlot = static_cast<uint32_t>(Locs.size());
  return push(N);
}

NodeId ConstraintGraph::getVarNode(const MethodDecl *M, VarId V) {
  if (VarNodes.size() <= M->globalId())
    VarNodes.resize(M->globalId() + 1);
  NodeList &PerMethod = VarNodes[M->globalId()];
  if (static_cast<size_t>(V) >= PerMethod.size())
    PerMethod.resize(EdgeArena,
                     std::max(M->vars().size(), static_cast<size_t>(V) + 1),
                     InvalidNode);
  NodeId &Slot = PerMethod[V];
  if (Slot != InvalidNode)
    return Slot;
  Node N;
  N.Kind = NodeKind::Var;
  N.Method = M;
  N.Var = V;
  Slot = push(N);
  return Slot;
}

NodeId ConstraintGraph::getFieldNode(const FieldDecl *F) {
  if (FieldNodes.size() <= F->globalId())
    FieldNodes.resize(F->globalId() + 1, InvalidNode);
  NodeId &Slot = FieldNodes[F->globalId()];
  if (Slot != InvalidNode)
    return Slot;
  Node N;
  N.Kind = NodeKind::Field;
  N.Field = F;
  Slot = push(N);
  return Slot;
}

NodeId ConstraintGraph::getAllocNode(const MethodDecl *M, int32_t StmtIndex,
                                     const ClassDecl *Klass, bool IsView,
                                     SourceLocation Loc) {
  uint64_t Key = support::packSymbolKey(M->globalId(),
                                        static_cast<uint32_t>(StmtIndex));
  NodeKind Kind = IsView ? NodeKind::ViewAlloc : NodeKind::Alloc;
  if (const NodeId *Hit = AllocNodes.get(Key)) {
    // An edit-scale rebuild (docs/INCREMENTAL.md) may re-lower this
    // statement index with a different allocated class; the class is part
    // of the allocation's identity, so a mismatched memo hit mints a
    // fresh node and the session retires the stale one.
    // A retired node (its statement was deleted, then restored) is never
    // revived either: its facts are gone, and seeding skips it.
    const Node &Existing = node(*Hit);
    if (Existing.Klass == Klass && Existing.Kind == Kind && !Existing.Retired)
      return *Hit;
  }
  Node N;
  N.Kind = Kind;
  N.Method = M;
  N.StmtIndex = StmtIndex;
  N.Klass = Klass;
  NodeId Id = pushWithLoc(N, Loc);
  AllocNodes.set(Key, Id);
  return Id;
}

NodeId ConstraintGraph::getActivityNode(const ClassDecl *Klass) {
  if (const NodeId *Hit = ActivityNodes.get(Klass->globalId()))
    return *Hit;
  Node N;
  N.Kind = NodeKind::Activity;
  N.Klass = Klass;
  NodeId Id = push(N);
  ActivityNodes.set(Klass->globalId(), Id);
  return Id;
}

NodeId ConstraintGraph::getIdNode(std::vector<NodeId> &Dense,
                                  support::FlatIdMap<NodeId> &Overflow,
                                  layout::ResourceId Base, NodeKind Kind,
                                  layout::ResourceId Res) {
  // Resource ids are interned densely from the table's fixed base; those
  // index a flat vector. Anything else (hand-rolled ids in tests, foreign
  // constants) takes the map fallback.
  constexpr int64_t DenseLimit = 1 << 20;
  int64_t Idx = static_cast<int64_t>(Res) - static_cast<int64_t>(Base);
  NodeId *Slot;
  if (Idx >= 0 && Idx < DenseLimit) {
    if (static_cast<size_t>(Idx) >= Dense.size())
      Dense.resize(Idx + 1, InvalidNode);
    Slot = &Dense[Idx];
  } else {
    Slot = &Overflow.getOrInsert(Res, InvalidNode);
  }
  if (*Slot != InvalidNode)
    return *Slot;
  Node N;
  N.Kind = Kind;
  N.Res = Res;
  *Slot = push(N);
  return *Slot;
}

NodeId ConstraintGraph::getLayoutIdNode(layout::ResourceId Res) {
  return getIdNode(LayoutIdNodes, LayoutIdOverflow,
                   layout::ResourceTable::LayoutIdBase, NodeKind::LayoutId,
                   Res);
}

NodeId ConstraintGraph::getViewIdNode(layout::ResourceId Res) {
  return getIdNode(ViewIdNodes, ViewIdOverflow,
                   layout::ResourceTable::ViewIdBase, NodeKind::ViewId, Res);
}

NodeId ConstraintGraph::getClassConstNode(const ClassDecl *Klass) {
  if (const NodeId *Hit = ClassConstNodes.get(Klass->globalId()))
    return *Hit;
  Node N;
  N.Kind = NodeKind::ClassConst;
  N.Klass = Klass;
  NodeId Id = push(N);
  ClassConstNodes.set(Klass->globalId(), Id);
  return Id;
}

NodeId ConstraintGraph::makeOpNode(android::OpKind Kind, SourceLocation Loc,
                                   const android::ListenerSpec *Listener,
                                   bool ChildOnly) {
  Node N;
  N.Kind = NodeKind::Op;
  N.Op = Kind;
  N.Listener = Listener;
  N.ChildOnly = ChildOnly;
  return pushWithLoc(N, Loc);
}

NodeId ConstraintGraph::makeViewInflNode(const ClassDecl *Klass,
                                         const layout::LayoutNode *LNode,
                                         NodeId Site) {
  Node N;
  N.Kind = NodeKind::ViewInfl;
  N.Klass = Klass;
  N.LNode = LNode;
  N.InflateSite = Site;
  return push(N);
}

NodeId ConstraintGraph::makeUnknownViewNode(UnknownReason Reason,
                                            const MethodDecl *M,
                                            SourceLocation Loc, NodeId Site) {
  assert(Reason != UnknownReason::None && "unknown node needs a reason");
  Node N;
  N.Kind = NodeKind::UnknownView;
  N.Unknown = Reason;
  N.Method = M;
  N.InflateSite = Site;
  return pushWithLoc(N, Loc);
}

NodeId ConstraintGraph::makeUnknownIdNode(UnknownReason Reason,
                                          const MethodDecl *M,
                                          SourceLocation Loc) {
  assert(Reason != UnknownReason::None && "unknown node needs a reason");
  Node N;
  N.Kind = NodeKind::UnknownId;
  N.Unknown = Reason;
  N.Method = M;
  return pushWithLoc(N, Loc);
}

//===----------------------------------------------------------------------===//
// Edges
//===----------------------------------------------------------------------===//

bool ConstraintGraph::hasFlowEdge(NodeId From, NodeId To) const {
  const NodeList &Succ = FlowSucc[From];
  if (Succ.size() <= SmallFlowDegree)
    return std::find(Succ.begin(), Succ.end(), To) != Succ.end();
  return FlowEdges.contains(edgeKey(From, To));
}

bool ConstraintGraph::addFlowEdge(NodeId From, NodeId To) {
  if (!GATOR_CHECK(From < Nodes.size() && To < Nodes.size(), Diags,
                   "dangling node id on flow edge; edge dropped")) {
    ++DroppedInvariants;
    return false;
  }
  NodeList &Succ = FlowSucc[From];
  if (Succ.size() <= SmallFlowDegree) {
    if (std::find(Succ.begin(), Succ.end(), To) != Succ.end())
      return false;
    Succ.push_back(EdgeArena, To);
    ++NumFlowEdges;
    if (Succ.size() > SmallFlowDegree)
      for (NodeId S : Succ) // degree crossed the threshold: migrate to hash
        insertEdgeKey(FlowEdges, edgeKey(From, S));
    return true;
  }
  if (!insertEdgeKey(FlowEdges, edgeKey(From, To)))
    return false;
  Succ.push_back(EdgeArena, To);
  ++NumFlowEdges;
  return true;
}

NodeList &ConstraintGraph::relListForAdd(RelFamily F, NodeId From) {
  uint32_t &Slot = Nodes[From].RelSlot;
  if (Slot == 0) {
    RelRows.emplace_back().Owner = From;
    Slot = static_cast<uint32_t>(RelRows.size());
  }
  return RelRows[Slot - 1].Lists[F];
}

bool ConstraintGraph::addRelEdge(RelFamily F, NodeId From, NodeId To) {
  if (!GATOR_CHECK(From < Nodes.size() && To < Nodes.size(), Diags,
                   "dangling node id on relationship edge; edge dropped")) {
    ++DroppedInvariants;
    return false;
  }
  NodeList &List = relListForAdd(F, From);
  if (List.size() <= SmallFlowDegree) {
    if (std::find(List.begin(), List.end(), To) != List.end())
      return false;
    List.push_back(EdgeArena, To);
    if (List.size() > SmallFlowDegree)
      for (NodeId S : List)
        insertEdgeKey(RelSpill[F], edgeKey(From, S));
    return true;
  }
  if (!insertEdgeKey(RelSpill[F], edgeKey(From, To)))
    return false;
  List.push_back(EdgeArena, To);
  return true;
}

bool ConstraintGraph::addParentChildEdge(NodeId Parent, NodeId Child) {
  // Bounds before kinds: indexing Nodes with a dangling id is UB.
  if (!GATOR_CHECK(Parent < Nodes.size() && Child < Nodes.size(), Diags,
                   "dangling node id on parent-child edge; edge dropped") ||
      !GATOR_CHECK(isViewNodeKind(Nodes[Parent].Kind) &&
                       isViewNodeKind(Nodes[Child].Kind),
                   Diags,
                   "parent-child edge endpoints must be views; edge dropped")) {
    ++DroppedInvariants;
    return false;
  }
  // A view is never its own parent. Rules reach Parent == Child on sound
  // input (`v := infl.inflate(lid, v)`), so this is no invariant failure.
  if (Parent == Child)
    return false;
  bool Added = addRelEdge(RelChild, Parent, Child);
  if (Added) {
    ++NumParentChild;
    ++HierarchyRev; // invalidates every cached descendantsOf result
  }
  return Added;
}

bool ConstraintGraph::addHasIdEdge(NodeId View, NodeId ViewIdNode) {
  if (!GATOR_CHECK(View < Nodes.size() && ViewIdNode < Nodes.size(), Diags,
                   "dangling node id on has-id edge; edge dropped") ||
      !GATOR_CHECK(isViewNodeKind(Nodes[View].Kind), Diags,
                   "has-id edge from non-view; edge dropped") ||
      !GATOR_CHECK(Nodes[ViewIdNode].Kind == NodeKind::ViewId ||
                       Nodes[ViewIdNode].Kind == NodeKind::UnknownId,
                   Diags,
                   "has-id edge target is not a ViewId; edge dropped")) {
    ++DroppedInvariants;
    return false;
  }
  bool Added = addRelEdge(RelHasId, View, ViewIdNode);
  if (Added)
    relListForAdd(RelViewsById, ViewIdNode).push_back(EdgeArena, View);
  return Added;
}

bool ConstraintGraph::addRootEdge(NodeId Activity, NodeId View) {
  if (!GATOR_CHECK(Activity < Nodes.size() && View < Nodes.size(), Diags,
                   "dangling node id on root edge; edge dropped") ||
      !GATOR_CHECK(isViewNodeKind(Nodes[View].Kind), Diags,
                   "root edge to non-view; edge dropped")) {
    ++DroppedInvariants;
    return false;
  }
  bool Added = addRelEdge(RelRoot, Activity, View);
  if (Added)
    ++HierarchyRev;
  return Added;
}

bool ConstraintGraph::addListenerEdge(NodeId View, NodeId ListenerValue) {
  if (!GATOR_CHECK(View < Nodes.size() && ListenerValue < Nodes.size(), Diags,
                   "dangling node id on listener edge; edge dropped") ||
      !GATOR_CHECK(isViewNodeKind(Nodes[View].Kind), Diags,
                   "listener edge from non-view; edge dropped")) {
    ++DroppedInvariants;
    return false;
  }
  return addRelEdge(RelListener, View, ListenerValue);
}

bool ConstraintGraph::addRootsLayoutEdge(NodeId View, NodeId LayoutIdNode) {
  if (!GATOR_CHECK(View < Nodes.size() && LayoutIdNode < Nodes.size(), Diags,
                   "dangling node id on roots-layout edge; edge dropped") ||
      !GATOR_CHECK(Nodes[LayoutIdNode].Kind == NodeKind::LayoutId ||
                       Nodes[LayoutIdNode].Kind == NodeKind::UnknownId,
                   Diags,
                   "roots-layout edge target is not a LayoutId; edge dropped")) {
    ++DroppedInvariants;
    return false;
  }
  return addRelEdge(RelRootsLayout, View, LayoutIdNode);
}

//===----------------------------------------------------------------------===//
// Edge removal (docs/INCREMENTAL.md)
//===----------------------------------------------------------------------===//

/// Removes the first occurrence of \p To from \p List, preserving the
/// relative order of the survivors (adjacency order is part of the
/// deterministic-output contract). Returns false when absent.
static bool eraseOrdered(NodeList &List, NodeId To) {
  NodeId *It = std::find(List.begin(), List.end(), To);
  if (It == List.end())
    return false;
  for (NodeId *P = It; P + 1 != List.end(); ++P)
    *P = *(P + 1);
  List.pop_back();
  return true;
}

bool ConstraintGraph::removeFlowEdge(NodeId From, NodeId To) {
  if (From >= Nodes.size() || To >= Nodes.size())
    return false;
  if (!eraseOrdered(FlowSucc[From], To))
    return false;
  // Erase the spill key unconditionally: the source may have migrated into
  // the hash at some point, and a stale key would make a future re-add of
  // this edge report "already present" once the degree crosses the
  // threshold again. erase() tolerates absent keys.
  FlowEdges.erase(edgeKey(From, To));
  --NumFlowEdges;
  return true;
}

bool ConstraintGraph::removeRelEdge(RelFamily F, NodeId From, NodeId To) {
  if (From >= Nodes.size() || Nodes[From].RelSlot == 0)
    return false;
  if (!eraseOrdered(RelRows[Nodes[From].RelSlot - 1].Lists[F], To))
    return false;
  RelSpill[F].erase(edgeKey(From, To));
  return true;
}

bool ConstraintGraph::removeParentChildEdge(NodeId Parent, NodeId Child) {
  if (!removeRelEdge(RelChild, Parent, Child))
    return false;
  --NumParentChild;
  ++HierarchyRev;
  return true;
}

bool ConstraintGraph::removeHasIdEdge(NodeId View, NodeId ViewIdNode) {
  if (!removeRelEdge(RelHasId, View, ViewIdNode))
    return false;
  removeRelEdge(RelViewsById, ViewIdNode, View);
  return true;
}

bool ConstraintGraph::removeRootEdge(NodeId Activity, NodeId View) {
  if (!removeRelEdge(RelRoot, Activity, View))
    return false;
  ++HierarchyRev;
  return true;
}

bool ConstraintGraph::removeListenerEdge(NodeId View, NodeId ListenerValue) {
  return removeRelEdge(RelListener, View, ListenerValue);
}

bool ConstraintGraph::removeRootsLayoutEdge(NodeId View, NodeId LayoutIdNode) {
  return removeRelEdge(RelRootsLayout, View, LayoutIdNode);
}

std::vector<NodeId> ConstraintGraph::rootHolders() const {
  std::vector<NodeId> Result;
  for (const RelRow &Row : RelRows)
    if (!Row.Lists[RelRoot].empty())
      Result.push_back(Row.Owner);
  std::sort(Result.begin(), Result.end());
  return Result;
}

const NodeList &ConstraintGraph::children(NodeId View) const {
  return relList(RelChild, View);
}

const NodeList &ConstraintGraph::viewIds(NodeId View) const {
  return relList(RelHasId, View);
}

const NodeList &ConstraintGraph::roots(NodeId Activity) const {
  return relList(RelRoot, Activity);
}

const NodeList &ConstraintGraph::listeners(NodeId View) const {
  return relList(RelListener, View);
}

const NodeList &ConstraintGraph::rootsOfLayouts(NodeId View) const {
  return relList(RelRootsLayout, View);
}

const NodeList &ConstraintGraph::viewsWithId(NodeId ViewIdNode) const {
  return relList(RelViewsById, ViewIdNode);
}

ConstraintGraph::DescCacheEntry &
ConstraintGraph::descCacheSlot(NodeId View) const {
  // Slots live in a deque, which never relocates elements on growth, so
  // the references descendantsOf hands out survive cache insertions for
  // other views; the FlatIdMap only stores the (trivially copyable) slot
  // number and may rehash freely.
  uint32_t Slot = DescCacheIndex.getOrInsert(
      View, static_cast<uint32_t>(DescStore.size()));
  if (Slot == DescStore.size())
    DescStore.emplace_back();
  return DescStore[Slot];
}

const std::vector<NodeId> &ConstraintGraph::descendantsOf(NodeId View) const {
  DescCacheEntry &Entry = descCacheSlot(View);
  if (Entry.Rev == HierarchyRev) {
    ++DescCacheHits;
    return Entry.Views;
  }
  ++DescCacheMisses;
  Entry.Rev = HierarchyRev;
  computeDescendantsInto(View, Entry.Views);
  return Entry.Views;
}

void ConstraintGraph::computeDescendantsInto(NodeId View,
                                             std::vector<NodeId> &Out) const {
  Out.clear();
  uint32_t Gen = ++DescSeenGen;
  if (Gen == 0) { // stamp counter wrapped: invalidate all marks
    DescSeenStamp.clear();
    Gen = ++DescSeenGen;
  }
  DescWork.assign(1, View);
  while (!DescWork.empty()) {
    NodeId Cur = DescWork.back();
    DescWork.pop_back();
    uint32_t &Stamp = DescSeenStamp.getOrInsert(Cur, 0);
    if (Stamp == Gen)
      continue;
    Stamp = Gen;
    Out.push_back(Cur);
    for (NodeId Child : children(Cur))
      DescWork.push_back(Child);
  }
}

//===----------------------------------------------------------------------===//
// Labels and dumps
//===----------------------------------------------------------------------===//

namespace {

/// Appends the decimal spelling of \p V.
template <typename IntT> void appendInt(std::string &Out, IntT V) {
  char Buf[24];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  (void)Ec; // 24 bytes hold every 64-bit integer
  Out.append(Buf, End);
}

/// The class name after its last '.', or "?" for a missing class.
std::string_view simpleClassName(const ClassDecl *C) {
  if (!C)
    return "?";
  std::string_view Name = C->name();
  size_t Pos = Name.rfind('.');
  return Pos == std::string_view::npos ? Name : Name.substr(Pos + 1);
}

/// "_<line>" when \p Loc is valid.
void appendLine(std::string &Out, const SourceLocation &Loc) {
  if (Loc.isValid()) {
    Out += '_';
    appendInt(Out, Loc.line());
  }
}

} // namespace

std::string ConstraintGraph::label(NodeId Id) const {
  std::string Out;
  appendLabel(Out, Id);
  return Out;
}

void ConstraintGraph::appendLabel(std::string &Out, NodeId Id) const {
  const Node &N = Nodes[Id];
  switch (N.Kind) {
  case NodeKind::Var:
    Out += N.Method->var(N.Var).Name.view();
    Out += '@';
    N.Method->appendQualifiedName(Out);
    break;
  case NodeKind::Field:
    Out += N.Field->owner()->name().view();
    Out += '.';
    Out += N.Field->name().view();
    break;
  case NodeKind::Alloc:
  case NodeKind::ViewAlloc:
    Out += "new ";
    Out += simpleClassName(N.Klass);
    appendLine(Out, loc(Id));
    break;
  case NodeKind::ViewInfl:
    Out += simpleClassName(N.Klass);
    Out += "~infl#";
    appendInt(Out, N.InflateSite);
    if (N.LNode && N.LNode->hasViewId()) {
      Out += '[';
      Out += N.LNode->viewIdName();
      Out += ']';
    }
    break;
  case NodeKind::Activity:
    Out += "act:";
    Out += simpleClassName(N.Klass);
    break;
  case NodeKind::LayoutId:
    Out += "R.layout#";
    appendInt(Out, N.Res - layout::ResourceTable::LayoutIdBase);
    break;
  case NodeKind::ViewId:
    Out += "R.id#";
    appendInt(Out, N.Res - layout::ResourceTable::ViewIdBase);
    break;
  case NodeKind::ClassConst:
    Out += "classof ";
    Out += simpleClassName(N.Klass);
    break;
  case NodeKind::Op:
    Out += android::opKindName(N.Op);
    appendLine(Out, loc(Id));
    break;
  case NodeKind::UnknownView:
  case NodeKind::UnknownId:
    Out += N.Kind == NodeKind::UnknownView ? "unknown-view(" : "unknown-id(";
    Out += unknownReasonPhrase(N.Unknown);
    Out += ')';
    if (N.Method) {
      Out += '@';
      N.Method->appendQualifiedName(Out);
    }
    appendLine(Out, loc(Id));
    break;
  }
}

void ConstraintGraph::dumpDot(std::ostream &OS, bool IncludeVarNodes) const {
  OS << "digraph constraints {\n  rankdir=LR;\n  node [fontsize=10];\n";
  auto include = [&](NodeId Id) {
    return IncludeVarNodes || Nodes[Id].Kind != NodeKind::Var;
  };
  std::string Label;
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    if (!include(Id))
      continue;
    const Node &N = Nodes[Id];
    const char *Shape = "ellipse";
    const char *Fill = "white";
    if (N.Kind == NodeKind::Op) {
      Shape = "box";
      Fill = "lightyellow";
    } else if (isViewNodeKind(N.Kind)) {
      Fill = "lightgray";
    } else if (N.Kind == NodeKind::Activity) {
      Fill = "lightblue";
    }
    Label.clear();
    appendLabel(Label, Id);
    OS << "  n" << Id << " [label=\"" << Label << "\", shape=" << Shape
       << ", style=filled, fillcolor=" << Fill << "];\n";
  }
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    if (!include(Id))
      continue;
    for (NodeId To : FlowSucc[Id])
      if (include(To))
        OS << "  n" << Id << " -> n" << To << ";\n";
  }
  // Rows sorted by source id, so each family lists its sources in
  // ascending order.
  std::vector<uint32_t> Order(RelRows.size());
  for (uint32_t R = 0; R < Order.size(); ++R)
    Order[R] = R;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return RelRows[A].Owner < RelRows[B].Owner;
  });
  auto dumpRel = [&](RelFamily F, const char *Label) {
    for (uint32_t R : Order) {
      const RelRow &Row = RelRows[R];
      if (!include(Row.Owner))
        continue;
      for (NodeId To : Row.Lists[F])
        if (include(To))
          OS << "  n" << Row.Owner << " -> n" << To
             << " [style=dashed, label=\"" << Label << "\"];\n";
    }
  };
  dumpRel(RelChild, "child");
  dumpRel(RelHasId, "id");
  dumpRel(RelRoot, "root");
  dumpRel(RelListener, "listener");
  dumpRel(RelRootsLayout, "layout");
  OS << "}\n";
}

void ConstraintGraph::dumpStats(std::ostream &OS) const {
  OS << "nodes=" << Nodes.size();
  static const NodeKind Kinds[] = {
      NodeKind::Var,      NodeKind::Field,    NodeKind::Alloc,
      NodeKind::ViewAlloc, NodeKind::ViewInfl, NodeKind::Activity,
      NodeKind::LayoutId, NodeKind::ViewId,   NodeKind::ClassConst,
      NodeKind::Op,       NodeKind::UnknownView, NodeKind::UnknownId};
  // Every node is in its kind's index (push() adds it and nothing removes
  // it), so the index sizes are the per-kind counts.
  for (NodeKind K : Kinds)
    OS << ' ' << nodeKindName(K) << '=' << nodesOfKind(K).size();
  OS << " flowEdges=" << NumFlowEdges
     << " parentChild=" << NumParentChild << '\n';
}
