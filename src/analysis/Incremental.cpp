//===- Incremental.cpp - Edit-scale incremental re-solve --------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"

#include "analysis/GraphBuilder.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>
#include <unordered_set>

using namespace gator;
using namespace gator::analysis;
using graph::ConstraintGraph;
using graph::InvalidNode;
using graph::Node;
using graph::NodeId;
using graph::NodeKind;
using ir::MethodDecl;
using ir::Stmt;
using ir::StmtKind;

//===----------------------------------------------------------------------===//
// Retraction closure
//===----------------------------------------------------------------------===//

namespace {

using FactId = ProvenanceRecorder::FactId;
using Fact = ProvenanceRecorder::Fact;
using Derivation = ProvenanceRecorder::Derivation;
constexpr FactId NoFact = ProvenanceRecorder::NoFact;

uint64_t edgeKey(NodeId From, NodeId To) {
  return (static_cast<uint64_t>(From) << 32) | To;
}

/// The variables \p M returns, sorted, when it is a factory method the
/// solver reads (Solver::FragmentFactory, Solver::AdapterFactory); empty
/// otherwise.
std::vector<NodeId> factoryReturns(const ConstraintGraph &G,
                                   const ir::MethodDecl &M) {
  std::vector<NodeId> Returns;
  if (M.paramCount() != 1 || (M.name() != Solver::FragmentFactory &&
                              M.name() != Solver::AdapterFactory))
    return Returns;
  for (const Stmt &St : M.body())
    if (St.Kind == StmtKind::Return && St.Lhs != ir::InvalidVar)
      if (NodeId Ret = G.findVarNode(&M, St.Lhs); Ret != InvalidNode)
        Returns.push_back(Ret);
  std::sort(Returns.begin(), Returns.end());
  Returns.erase(std::unique(Returns.begin(), Returns.end()), Returns.end());
  return Returns;
}

} // namespace

RetractionResult analysis::retractAndClose(ConstraintGraph &G, Solution &Sol,
                                           ProvenanceRecorder &Prov,
                                           const RetractionInputs &In) {
  RetractionResult Out;
  RederiveFrontier &F = Out.Frontier;

  // The worklist may hold a fact twice; the second pop finds it dead.
  std::vector<FactId> Work;
  auto kill = [&](FactId I) {
    if (!Prov.isDead(I))
      Work.push_back(I);
  };
  auto retire = [&](NodeId N) {
    G.retireNode(N);
    Out.RetiredNodes.push_back(N);
  };

  // Seed 1: facts carried across removed EDB edges.
  for (const auto &[From, To] : In.RemovedEdges)
    Prov.forEachFactAcross(From, To, kill);

  // Seed 2: every fact touching a retired node.
  for (NodeId N : In.RetireNodes)
    retire(N);
  for (NodeId N : In.RetireNodes)
    Prov.forEachFactAt(N, kill);

  // Seed 3: the over-approximate consequence set of dead ops — flow facts
  // into their Out nodes, and relationship facts whose recorded premises
  // sit at one of their role nodes. Over-deletion is fine: another op that
  // derives the same fact re-fires (below).
  for (uint32_t OpI : In.DeadOps) {
    const OpSite &Op = Sol.opSites()[OpI];
    if (Op.Out != InvalidNode)
      Prov.forEachFactAt(Op.Out, [&](FactId I) {
        const Fact &Ft = Prov.fact(I);
        if (Ft.Kind == FactKind::Flow && Ft.A == Op.Out)
          kill(I);
      });
    for (NodeId Role : {Op.Recv, Op.IdArg, Op.ValArg, Op.AttachParent}) {
      if (Role == InvalidNode)
        continue;
      Prov.forEachFactAt(Role, [&](FactId I) {
        const Fact &Ft = Prov.fact(I);
        if (Ft.Kind == FactKind::Flow && Ft.A == Role)
          Prov.forEachDependent(I, [&](FactId Dep) {
            if (Prov.fact(Dep).Kind != FactKind::Flow)
              kill(Dep);
          });
      });
    }
  }

  // The closure proper. Killing a minted view's self-seed means its whole
  // subtree is gone (all subtree seeds share the inflation's id-fact
  // premise); those nodes retire in a follow-up wave so every fact
  // touching them dies too.
  std::vector<NodeId> NewlyDead, RewireAt;
  std::vector<std::pair<NodeId, NodeId>> LostEdges, LostFragmentEdges;
  // Inputs the closure shrank of rules that cite less than they read
  // (below): nodes that lost a value, the values they lost, and the
  // children of deleted hierarchy and root edges.
  std::vector<NodeId> ShrunkRoles, LostValues, Cut;
  for (NodeId Ret : In.ChangedFactoryReturns)
    for (NodeId V : Sol.valuesAt(Ret))
      LostValues.push_back(V);
  F.FactoriesChanged = !In.ChangedFactoryReturns.empty();
  auto drain = [&] {
    while (!Work.empty()) {
      FactId I = Work.back();
      Work.pop_back();
      if (Prov.isDead(I))
        continue;
      const Fact Ft = Prov.fact(I);
      const DerivRule Rule = Prov.derivation(I).Rule;
      if (Rule == DerivRule::ListenerCallback || Rule == DerivRule::XmlOnClick)
        // A callback fact: the (view, listener) edges at its value (the
        // view or the listener) may survive it.
        RewireAt.push_back(Ft.Kind == FactKind::FlowLink ? Ft.A : Ft.B);
      if (Ft.Kind != FactKind::Flow)
        LostEdges.emplace_back(Ft.A, Ft.B);
      switch (Ft.Kind) {
      case FactKind::Flow:
        F.Lost.emplace_back(Ft.A, Ft.B);
        ShrunkRoles.push_back(Ft.A);
        LostValues.push_back(Ft.B);
        if (Ft.A == Ft.B && G.node(Ft.A).mintSite() != InvalidNode &&
            !G.isRetired(Ft.A)) {
          retire(Ft.A);
          NewlyDead.push_back(Ft.A);
        }
        break;
      case FactKind::FlowLink:
        // IDB graph structure (listener/xml/fragment/adapter wiring):
        // remove the edge and everything that crossed it.
        if (G.removeFlowEdge(Ft.A, Ft.B))
          Prov.forEachFactAcross(Ft.A, Ft.B, kill);
        break;
      case FactKind::ParentChild:
        G.removeParentChildEdge(Ft.A, Ft.B);
        F.StructureRetracted = true;
        Cut.push_back(Ft.B);
        if (Rule == DerivRule::FragmentAdd)
          LostFragmentEdges.emplace_back(Ft.A, Ft.B);
        break;
      case FactKind::HasId:
        G.removeHasIdEdge(Ft.A, Ft.B);
        F.StructureRetracted = true;
        break;
      case FactKind::Root:
        G.removeRootEdge(Ft.A, Ft.B);
        F.StructureRetracted = true;
        Cut.push_back(Ft.B);
        break;
      case FactKind::Listener:
        G.removeListenerEdge(Ft.A, Ft.B);
        break;
      case FactKind::RootsLayout:
        G.removeRootsLayoutEdge(Ft.A, Ft.B);
        F.StructureRetracted = true;
        break;
      }
      Prov.forEachDependent(I, kill);
      Prov.retract(I);
      ++Out.FactsRetracted;
    }
  };
  // Some rules cite less than they read, so the closure kills their
  // conclusions whenever an uncited input may have shrunk. Over-deletion
  // is sound: the ops re-fire from Lost, from the deleted edges' sources,
  // or from the changed ids of the deleted fragment edges (below), and the
  // structure round re-runs the android:onClick sweep.
  //  - A FindView* result cites the view and the id edge that matched, not
  //    the receiver, the id argument or the hierarchy path of its search.
  //  - An android:onClick listener edge cites only its view, not the root
  //    path of the sweep.
  //  - A FragmentAdd or SetAdapter child edge cites the container's id
  //    edge or the receiver, and the child's seed, not the id argument,
  //    the fragment or adapter argument, or the factory's return value.
  auto isSearchResult = [&](FactId I, NodeId Out) {
    const Fact &Ft = Prov.fact(I);
    const DerivRule Rule = Prov.derivation(I).Rule;
    return Ft.Kind == FactKind::Flow && Ft.A == Out && Ft.B != Out &&
           (Rule == DerivRule::FindView || Rule == DerivRule::UnknownSource);
  };
  auto isFactoryEdge = [&](FactId I) {
    const DerivRule Rule = Prov.derivation(I).Rule;
    return Prov.fact(I).Kind == FactKind::ParentChild &&
           (Rule == DerivRule::FragmentAdd || Rule == DerivRule::SetAdapter);
  };
  auto killFactoryEdgesFrom = [&](NodeId Parent) {
    Prov.forEachFactAt(Parent, [&](FactId I) {
      if (isFactoryEdge(I) && Prov.fact(I).A == Parent)
        kill(I);
    });
  };
  auto killOutputsOfOpsAt = [&](NodeId Role) {
    if (G.isRetired(Role))
      return;
    for (NodeId OpNode : G.flowSuccessors(Role)) {
      const Node &N = G.node(OpNode);
      if (N.Kind != NodeKind::Op)
        continue;
      switch (N.Op) {
      case android::OpKind::FindView1:
      case android::OpKind::FindView2:
      case android::OpKind::FindView3:
        for (NodeId Out : G.flowSuccessors(OpNode))
          Prov.forEachFactAt(Out, [&](FactId I) {
            if (isSearchResult(I, Out))
              kill(I);
          });
        break;
      case android::OpKind::FragmentAdd:
      case android::OpKind::SetAdapter:
        // The op's child edges start at its containers (views with an id
        // its id argument holds) or at its receiver's list views. The sets
        // still hold the values this closure deletes.
        for (const OpSite &Op : Sol.opSites()) {
          if (Op.OpNode != OpNode || Op.Dead)
            continue;
          if (N.Op == android::OpKind::SetAdapter) {
            for (NodeId ListView : Sol.valuesAt(Op.Recv))
              killFactoryEdgesFrom(ListView);
          } else if (Op.IdArg != InvalidNode) {
            for (NodeId Id : Sol.valuesAt(Op.IdArg))
              for (NodeId Container : G.viewsWithId(Id))
                killFactoryEdgesFrom(Container);
          }
        }
        break;
      default:
        break;
      }
    }
  };
  auto killFactoryEdgesTo = [&](NodeId Child) {
    if (G.isRetired(Child) || !isViewNodeKind(G.node(Child).Kind))
      return;
    Prov.forEachFactAt(Child, [&](FactId I) {
      if (isFactoryEdge(I) && Prov.fact(I).B == Child)
        kill(I);
    });
  };
  auto killBelow = [&](NodeId Child) {
    if (G.isRetired(Child) || !isViewNodeKind(G.node(Child).Kind))
      return;
    for (NodeId V : G.descendantsOf(Child))
      if (!G.isRetired(V))
        Prov.forEachFactAt(V, [&](FactId I) {
          const Fact &Ft = Prov.fact(I);
          if ((Ft.Kind == FactKind::Flow && Ft.B == V &&
               isSearchResult(I, Ft.A)) ||
              (Ft.Kind == FactKind::Listener && Ft.A == V &&
               Prov.derivation(I).Rule == DerivRule::XmlOnClick))
            kill(I);
        });
  };
  auto uniq = [](auto &V) {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  };
  drain();
  while (!NewlyDead.empty() || !ShrunkRoles.empty() || !LostValues.empty() ||
         !Cut.empty()) {
    std::vector<NodeId> Wave, Roles, Values, Cuts;
    Wave.swap(NewlyDead);
    Roles.swap(ShrunkRoles);
    Values.swap(LostValues);
    Cuts.swap(Cut);
    uniq(Roles);
    uniq(Values);
    uniq(Cuts);
    for (NodeId N : Wave)
      Prov.forEachFactAt(N, kill);
    for (NodeId N : Roles)
      killOutputsOfOpsAt(N);
    for (NodeId V : Values)
      killFactoryEdgesTo(V);
    for (NodeId N : Cuts)
      killBelow(N);
    drain();
  }

  // Apply: erase the lost values from surviving sets, and clear the sets
  // of retired nodes.
  FlowSetTable &Sets = Sol.flowsToSets();
  std::sort(F.Lost.begin(), F.Lost.end());
  F.Lost.erase(std::remove_if(F.Lost.begin(), F.Lost.end(),
                              [&](const std::pair<NodeId, NodeId> &L) {
                                return G.isRetired(L.first);
                              }),
               F.Lost.end());
  for (auto It = F.Lost.begin(); It != F.Lost.end();) {
    const NodeId N = It->first;
    auto End = std::find_if(It, F.Lost.end(),
                            [&](const auto &L) { return L.first != N; });
    if (FlowSet *Set = Sets.find(N))
      Set->eraseValues([&](NodeId V) {
        return std::binary_search(It, End, std::pair{N, V});
      });
    F.OpInputs.push_back(N);
    It = End;
  }
  for (NodeId R : Out.RetiredNodes) {
    if (FlowSet *Set = Sets.find(R))
      Set->eraseValues([](NodeId) { return true; });
    if (NodeId Site = G.node(R).mintSite(); Site != InvalidNode)
      F.ShrunkSites.push_back(Site);
  }
  uniq(F.ShrunkSites);

  // A deleted relationship edge (or solver-added flow edge) between two
  // surviving nodes may have a derivation other than the recorded one:
  // any op that reads a node holding the edge's source value derives it
  // (every op rule's edge starts at a value of one of its roles). Those
  // nodes join the op frontier; the recorder lists them as the value's
  // flowsTo facts.
  std::vector<NodeId> Sources;
  for (const auto &[A, B] : LostEdges)
    if (!G.isRetired(A) && !G.isRetired(B))
      Sources.push_back(A);
  uniq(Sources);
  for (NodeId V : Sources)
    Prov.forEachFactAt(V, [&](FactId I) {
      const Fact &Ft = Prov.fact(I);
      if (Ft.Kind == FactKind::Flow && Ft.B == V)
        F.OpInputs.push_back(Ft.A);
    });
  uniq(F.OpInputs);
  // A FragmentAdd op finds its containers through their id edges, not
  // through a role, so the deleted fragment edges between surviving nodes
  // name the ids their containers still carry; the structure round fires
  // the ops whose id argument holds one.
  for (const auto &[Container, Child] : LostFragmentEdges)
    if (!G.isRetired(Container) && !G.isRetired(Child))
      for (NodeId Id : G.viewIds(Container))
        F.ChangedIds.push_back(Id);
  uniq(F.ChangedIds);

  // The surviving (view, listener) edges at the nodes whose callback facts
  // died, for the re-derive to wire again.
  uniq(RewireAt);
  for (NodeId N : RewireAt)
    if (!G.isRetired(N))
      Prov.forEachFactAt(N, [&](FactId I) {
        const Fact &Ft = Prov.fact(I);
        if (Ft.Kind == FactKind::Listener)
          F.Rewire.emplace_back(Ft.A, Ft.B);
      });
  uniq(F.Rewire);
  return Out;
}

//===----------------------------------------------------------------------===//
// Solution digest
//===----------------------------------------------------------------------===//

namespace {

/// Stable name for a var/field node (role nodes and set owners).
std::string refName(const ConstraintGraph &G, NodeId Id) {
  const Node &N = G.node(Id);
  switch (N.Kind) {
  case NodeKind::Var:
    return N.Method->qualifiedName() + "#" + N.Method->var(N.Var).Name;
  case NodeKind::Field:
    return "field:" + N.Field->qualifiedName();
  default:
    return "node" + std::to_string(Id); // not expected for roles
  }
}

/// Stable identity of an op site across two graphs over the same program:
/// kind + method + role names. Two sites with identical keys are
/// semantically interchangeable, which is exactly what the digest wants.
std::string opIdentity(const ConstraintGraph &G, const OpSite &Op) {
  std::string K = android::opKindName(Op.Spec.Kind);
  K += "@";
  K += Op.Method->qualifiedName();
  K += " recv=" + refName(G, Op.Recv);
  if (Op.IdArg != InvalidNode)
    K += " id=" + refName(G, Op.IdArg);
  if (Op.ValArg != InvalidNode)
    K += " val=" + refName(G, Op.ValArg);
  if (Op.AttachParent != InvalidNode)
    K += " attach=" + refName(G, Op.AttachParent);
  if (Op.Out != InvalidNode)
    K += " out=" + refName(G, Op.Out);
  if (Op.Spec.Listener)
    K += " lis=" + Op.Spec.Listener->InterfaceName;
  if (Op.Spec.ChildOnly)
    K += " childonly";
  return K;
}

struct DigestContext {
  const ConstraintGraph &G;
  /// OpNode id -> op identity string (for inflate-site keys).
  std::unordered_map<NodeId, std::string> SiteKeys;
  std::vector<std::string> Memo; // per-node value keys

  const std::string &valueKey(NodeId Id) {
    if (Id >= Memo.size())
      Memo.resize(Id + 1);
    std::string &K = Memo[Id];
    if (!K.empty())
      return K;
    const Node &N = G.node(Id);
    std::ostringstream SS;
    switch (N.Kind) {
    case NodeKind::Alloc:
    case NodeKind::ViewAlloc:
      SS << "new " << (N.Klass ? N.Klass->name().view() : "?") << "@"
         << (N.Method ? N.Method->qualifiedName() : "?") << ":" << N.StmtIndex;
      break;
    case NodeKind::Activity:
      SS << "act " << (N.Klass ? N.Klass->name().view() : "?");
      break;
    case NodeKind::LayoutId:
      SS << "layout:" << N.Res;
      break;
    case NodeKind::ViewId:
      SS << "id:" << N.Res;
      break;
    case NodeKind::ClassConst:
      SS << "classof " << (N.Klass ? N.Klass->name().view() : "?");
      break;
    case NodeKind::ViewInfl:
      // Layout-node identity is by address: valid only for comparing two
      // solutions over the same layout registry in one process, which is
      // the digest's contract.
      SS << "infl " << (N.Klass ? N.Klass->name().view() : "?") << " ln="
         << static_cast<const void *>(N.LNode) << " @" << siteKey(N);
      break;
    case NodeKind::UnknownView:
      SS << "unkview r" << static_cast<int>(N.Unknown) << " m="
         << (N.Method ? N.Method->qualifiedName() : "") << " loc="
         << G.loc(Id).str();
      if (N.InflateSite != InvalidNode)
        SS << " @" << siteKey(N);
      break;
    case NodeKind::UnknownId:
      SS << "unkid r" << static_cast<int>(N.Unknown) << " m="
         << (N.Method ? N.Method->qualifiedName() : "") << " loc="
         << G.loc(Id).str();
      break;
    case NodeKind::Var:
    case NodeKind::Field:
      SS << refName(G, Id);
      break;
    case NodeKind::Op:
      SS << "op " << (SiteKeys.count(Id) ? SiteKeys[Id] : "?");
      break;
    }
    K = SS.str();
    return K;
  }

  std::string siteKey(const Node &N) {
    auto It = SiteKeys.find(N.InflateSite);
    return It != SiteKeys.end() ? It->second : std::string("site?");
  }
};

} // namespace

std::string analysis::solutionDigest(const Solution &Sol) {
  const ConstraintGraph &G = Sol.constraintGraph();
  DigestContext Ctx{G, {}, {}};
  Ctx.Memo.resize(G.size());

  // Op identities first: inflate-site keys feed minted-view value keys.
  for (const OpSite &Op : Sol.opSites())
    if (!Op.Dead)
      Ctx.SiteKeys.emplace(Op.OpNode, opIdentity(G, Op));

  std::vector<std::string> Lines;

  // Live op sites.
  for (const OpSite &Op : Sol.opSites())
    if (!Op.Dead)
      Lines.push_back("op " + opIdentity(G, Op));

  // Flow sets of every live node (op nodes hold no values; empty sets add
  // nothing and retired debris is skipped).
  const FlowSetTable &Sets = Sol.flowsToSets();
  for (NodeId N = 0; N < G.size(); ++N) {
    const FlowSet *Set = Sets.find(N);
    if (!Set || G.node(N).Retired || G.node(N).Kind == NodeKind::Op)
      continue;
    std::vector<std::string> Vals;
    for (NodeId V : *Set) {
      if (V < G.size() && G.node(V).Retired)
        continue;
      Vals.push_back(Ctx.valueKey(V));
    }
    if (Vals.empty())
      continue;
    std::sort(Vals.begin(), Vals.end());
    std::string L = "set " + Ctx.valueKey(N) + " = {";
    for (size_t I = 0; I < Vals.size(); ++I) {
      if (I)
        L += ", ";
      L += Vals[I];
    }
    L += "}";
    Lines.push_back(std::move(L));
  }

  // Relationship edges between live nodes.
  auto liveEdge = [&](NodeId A, NodeId B) {
    return !G.node(A).Retired && !G.node(B).Retired;
  };
  for (NodeId N = 0; N < G.size(); ++N) {
    if (G.node(N).Retired)
      continue;
    for (NodeId C : G.children(N))
      if (liveEdge(N, C))
        Lines.push_back("pc " + Ctx.valueKey(N) + " -> " + Ctx.valueKey(C));
    for (NodeId I : G.viewIds(N))
      if (liveEdge(N, I))
        Lines.push_back("hasid " + Ctx.valueKey(N) + " " + Ctx.valueKey(I));
    for (NodeId L : G.listeners(N))
      if (liveEdge(N, L))
        Lines.push_back("lis " + Ctx.valueKey(N) + " " + Ctx.valueKey(L));
    for (NodeId L : G.rootsOfLayouts(N))
      if (liveEdge(N, L))
        Lines.push_back("rootslayout " + Ctx.valueKey(N) + " " +
                        Ctx.valueKey(L));
  }
  for (NodeId H : G.rootHolders())
    if (!G.node(H).Retired)
      for (NodeId R : G.roots(H))
        if (liveEdge(H, R))
          Lines.push_back("root " + Ctx.valueKey(H) + " " + Ctx.valueKey(R));

  // Unresolved-op markers and fidelity: an incremental session re-marks
  // both from its live state after every edit.
  for (uint32_t I : Sol.unresolvedOps())
    if (I < Sol.opSites().size() && !Sol.opSites()[I].Dead)
      Lines.push_back("unresolved " + opIdentity(G, Sol.opSites()[I]));
  Lines.push_back(std::string("fidelity ") + fidelityName(Sol.fidelity()));

  std::sort(Lines.begin(), Lines.end());
  std::string Digest;
  for (const std::string &L : Lines) {
    Digest += L;
    Digest += '\n';
  }
  return Digest;
}

//===----------------------------------------------------------------------===//
// Diffing and grafting
//===----------------------------------------------------------------------===//

namespace {

bool sameStmt(const Stmt &A, const Stmt &B) {
  return A.Kind == B.Kind && A.Lhs == B.Lhs && A.Base == B.Base &&
         A.Rhs == B.Rhs &&
         (!A.hasFieldName() || A.fieldName() == B.fieldName()) &&
         (!A.hasClassName() || A.className() == B.className()) &&
         (!A.hasResourceName() || A.resourceName() == B.resourceName()) &&
         (!A.isInvoke() ||
          (A.methodName() == B.methodName() && A.args() == B.args()));
}

bool sameBody(const MethodDecl &A, const MethodDecl &B) {
  if (A.body().size() != B.body().size())
    return false;
  for (size_t I = 0; I < A.body().size(); ++I)
    if (!sameStmt(A.body()[I], B.body()[I]))
      return false;
  // Locals matter too: declared types feed the type filter, and var-id
  // equality above is only meaningful under the same declaration order.
  if (A.vars().size() != B.vars().size())
    return false;
  for (size_t I = 0; I < A.vars().size(); ++I) {
    const ir::Variable &VA = A.vars()[I];
    const ir::Variable &VB = B.vars()[I];
    if (VA.Name != VB.Name || VA.TypeName != VB.TypeName ||
        VA.IsParam != VB.IsParam || VA.IsThis != VB.IsThis)
      return false;
  }
  return true;
}

bool sameLayoutTree(const layout::LayoutNode &A, const layout::LayoutNode &B) {
  if (A.viewClassName() != B.viewClassName() ||
      A.viewIdName() != B.viewIdName() ||
      A.onClickHandlerName() != B.onClickHandlerName() ||
      A.includeLayoutName() != B.includeLayoutName() ||
      A.isMerge() != B.isMerge() || A.children().size() != B.children().size())
    return false;
  for (size_t I = 0; I < A.children().size(); ++I)
    if (!sameLayoutTree(*A.children()[I], *B.children()[I]))
      return false;
  return true;
}

std::string methodSig(const MethodDecl &M) {
  return M.name() + "/" + std::to_string(M.paramCount()) +
         (M.isStatic() ? "/s" : "");
}

} // namespace

EditDiff analysis::diffBundles(ir::Program &Base, const ir::Program &Edited,
                               const layout::LayoutRegistry &BaseLayouts,
                               const layout::LayoutRegistry &EditedLayouts) {
  EditDiff D;

  // Class sets must match exactly (by name, for non-platform classes).
  // Names compare by spelling: the two programs intern independently.
  std::unordered_map<std::string_view, ir::ClassDecl *> BaseClasses;
  for (ir::ClassDecl *C : Base.classes())
    if (!C->isPlatform())
      BaseClasses.emplace(C->name(), C);
  size_t EditedCount = 0;
  for (const ir::ClassDecl *EC : Edited.classes()) {
    if (EC->isPlatform())
      continue;
    ++EditedCount;
    auto It = BaseClasses.find(EC->name());
    if (It == BaseClasses.end()) {
      D.Unsupported.push_back("class added: " + EC->name());
      continue;
    }
    ir::ClassDecl *BC = It->second;
    if (BC->superName() != EC->superName() ||
        BC->interfaceNames() != EC->interfaceNames() ||
        BC->isInterface() != EC->isInterface()) {
      D.Unsupported.push_back("class structure changed: " + EC->name());
      continue;
    }
    if (BC->fields().size() != EC->fields().size()) {
      D.Unsupported.push_back("field set changed: " + EC->name());
      continue;
    }
    for (size_t I = 0; I < BC->fields().size(); ++I) {
      const ir::FieldDecl *BF = BC->fields()[I];
      const ir::FieldDecl *EF = EC->fields()[I];
      if (BF->name() != EF->name() || BF->typeName() != EF->typeName() ||
          BF->isStatic() != EF->isStatic()) {
        D.Unsupported.push_back("field set changed: " + EC->name());
        break;
      }
    }

    // Methods match by (name, arity, staticness); duplicates make the
    // pairing ambiguous, so bail to a full solve.
    std::unordered_map<std::string, MethodDecl *> BaseMethods;
    bool Ambiguous = false;
    for (MethodDecl *BM : BC->methods())
      if (!BaseMethods.emplace(methodSig(*BM), BM).second)
        Ambiguous = true;
    if (Ambiguous) {
      D.Unsupported.push_back("overload signature ambiguity in " + EC->name());
      continue;
    }
    size_t Matched = 0;
    for (const MethodDecl *EM : EC->methods()) {
      auto MIt = BaseMethods.find(methodSig(*EM));
      if (MIt == BaseMethods.end()) {
        D.Unsupported.push_back("method added: " + EC->name() +
                                "." + EM->name());
        continue;
      }
      ++Matched;
      MethodDecl *BM = MIt->second;
      if (BM->returnTypeName() != EM->returnTypeName() ||
          BM->isAbstract() != EM->isAbstract()) {
        D.Unsupported.push_back("method signature changed: " + EC->name() +
                                "." + EM->name());
        continue;
      }
      if (!sameBody(*BM, *EM))
        D.Methods.emplace_back(BM, EM);
    }
    if (Matched != BC->methods().size())
      D.Unsupported.push_back("method removed from " + EC->name());
  }
  if (EditedCount != BaseClasses.size())
    D.Unsupported.push_back("class removed");

  // Layouts: same name set; differing trees are edit candidates unless
  // the layout is an <include> target (splicing into includers is beyond
  // edit scale).
  std::unordered_map<std::string, const layout::LayoutDef *> EditedDefs;
  for (const auto &Def : EditedLayouts.layouts())
    EditedDefs.emplace(Def->name(), Def.get());
  for (const auto &Def : BaseLayouts.layouts()) {
    auto It = EditedDefs.find(Def->name());
    if (It == EditedDefs.end()) {
      D.Unsupported.push_back("layout removed: " + Def->name());
      continue;
    }
    if (!Def->root() || !It->second->root()) {
      if (Def->root() != It->second->root())
        D.Unsupported.push_back("layout emptied: " + Def->name());
      continue;
    }
    if (!sameLayoutTree(*Def->root(), *It->second->root())) {
      if (BaseLayouts.includedLayouts().count(Def->name()))
        D.Unsupported.push_back("included layout edited: " + Def->name());
      else
        D.Layouts.push_back(Def->name());
    }
  }
  if (EditedDefs.size() != BaseLayouts.layouts().size())
    D.Unsupported.push_back("layout added");

  return D;
}

bool analysis::graftMethodBody(MethodDecl &Dst, const MethodDecl &Src) {
  if (Dst.isStatic() != Src.isStatic() ||
      Dst.paramCount() != Src.paramCount())
    return false;

  // Src may belong to another Program (an edited copy of the app): every
  // name is re-interned into Dst's program and every argument list copied
  // onto its arena, so nothing of Src's program is referenced afterwards.
  ir::Program &P = Dst.owner()->program();

  // Variable map: this/params by position, locals by name (appending new
  // ones). Old locals linger unreferenced; the analysis never visits a
  // variable no statement names.
  std::vector<ir::VarId> Map(Src.vars().size(), ir::InvalidVar);
  for (size_t I = 0; I < Src.vars().size(); ++I) {
    const ir::Variable &V = Src.vars()[I];
    ir::VarId SrcId = static_cast<ir::VarId>(I);
    if (V.IsThis) {
      Map[I] = Dst.thisVar();
    } else if (V.IsParam) {
      // Parameters occupy the same positional slots in both methods.
      Map[I] = SrcId;
    } else {
      ir::VarId Existing = Dst.findVar(V.Name);
      Map[I] = Existing != ir::InvalidVar ? Existing
                                          : Dst.addLocal(V.Name, V.TypeName);
    }
  }
  auto remap = [&](ir::VarId Id) {
    return Id == ir::InvalidVar ? ir::InvalidVar : Map[Id];
  };

  std::vector<Stmt> NewBody;
  NewBody.reserve(Src.body().size());
  std::vector<ir::VarId> Args;
  for (const Stmt &S : Src.body()) {
    Stmt N = S;
    N.Lhs = remap(S.Lhs);
    N.Base = remap(S.Base);
    N.Rhs = remap(S.Rhs);
    if (S.hasFieldName())
      N.setFieldName(P.adopt(S.fieldName()));
    if (S.hasClassName())
      N.setClassName(P.adopt(S.className()));
    if (S.hasResourceName())
      N.setResourceName(P.adopt(S.resourceName()));
    if (S.isInvoke()) {
      N.setMethodName(P.adopt(S.methodName()));
      Args.clear();
      for (ir::VarId A : S.args())
        Args.push_back(remap(A));
      N.setArgs(P.makeArgs(Args));
    }
    NewBody.push_back(N);
  }
  Dst.setBody(NewBody);
  return true;
}

//===----------------------------------------------------------------------===//
// IncrementalAnalysis
//===----------------------------------------------------------------------===//

IncrementalAnalysis::IncrementalAnalysis(ir::Program &P,
                                         layout::LayoutRegistry &Layouts,
                                         const android::AndroidModel &AM,
                                         const AnalysisOptions &Options,
                                         DiagnosticEngine &Diags)
    : P(P), Layouts(Layouts), AM(AM), Options(Options), Diags(Diags) {
  // The closure is a provenance consumer; there is no incremental mode
  // without recording.
  this->Options.RecordProvenance = true;
}

IncrementalAnalysis::~IncrementalAnalysis() = default;

void IncrementalAnalysis::indexRetLinks(const ConstraintGraph &G,
                                        const ir::MethodDecl &M,
                                        const MethodFootprint &FP) {
  for (const auto &[From, To] : FP.Edges) {
    const Node &N = G.node(From);
    if (N.Kind == NodeKind::Var && N.Method && N.Method != &M)
      RetLinksByCallee[N.Method].emplace_back(From, To);
  }
}

void IncrementalAnalysis::unindexRetLinks(const ConstraintGraph &G,
                                          const ir::MethodDecl &M,
                                          const MethodFootprint &FP) {
  for (const auto &[From, To] : FP.Edges) {
    const Node &N = G.node(From);
    if (N.Kind != NodeKind::Var || !N.Method || N.Method == &M)
      continue;
    auto It = RetLinksByCallee.find(N.Method);
    if (It == RetLinksByCallee.end())
      continue;
    auto &Links = It->second;
    for (size_t I = 0; I < Links.size(); ++I)
      if (Links[I].first == From && Links[I].second == To) {
        Links[I] = Links.back();
        Links.pop_back();
        break;
      }
  }
}

void IncrementalAnalysis::solveInitial() {
  // The scratch run's build and fidelity path, with the journal cut into
  // one footprint per method as build() goes.
  std::vector<std::pair<NodeId, NodeId>> Journal;
  size_t OpsBefore = 0;
  auto Journaled = [&](GraphBuilder &B, AnalysisResult &R) {
    B.setEdgeJournal(&Journal);
    B.setMethodBuilt([&](const ir::MethodDecl &M) {
      MethodFootprint FP;
      FP.Edges = std::move(Journal);
      Journal.clear();
      const size_t Ops = R.Sol->opSites().size();
      for (; OpsBefore < Ops; ++OpsBefore)
        FP.OpIndices.push_back(static_cast<uint32_t>(OpsBefore));
      FP.FactoryReturns = factoryReturns(*R.Graph, M);
      indexRetLinks(*R.Graph, M, FP);
      Footprints[&M] = std::move(FP);
    });
  };
  const unsigned ErrorsBefore = Diags.errorCount();
  const unsigned CheckFailuresBefore = Diags.checkFailureCount();
  Result = GuiAnalysis::runWith(
      P, Layouts, AM, Options, Diags,
      [&](AnalysisResult &R) {
        S = std::make_unique<Solver>(*R.Graph, *R.Sol, Layouts, AM, R.Options,
                                     Diags);
        S->setProvenance(R.Provenance.get());
        R.Stats = S->solve();
      },
      Journaled);
  InputDegraded = Diags.errorCount() != ErrorsBefore ||
                  Diags.checkFailureCount() != CheckFailuresBefore;
  // The graph lives on: give back the one-shot build's pre-sizing.
  Result->Graph->shrinkToFit();
}

void IncrementalAnalysis::rederive(RetractionResult &R,
                                   unsigned CheckFailuresBefore) {
  support::TraceSpan Span(Options.Trace, "incremental.rederive");
  LastRetracted = R.FactsRetracted;
  const RederiveFrontier &F = R.Frontier;

  std::vector<NodeId> Touched;
  Touched.reserve(F.Lost.size() + F.NewEdges.size());
  for (const auto &L : F.Lost)
    Touched.push_back(L.first);
  for (const auto &E : F.NewEdges)
    Touched.push_back(E.second);
  std::sort(Touched.begin(), Touched.end());
  LastTouched = std::unique(Touched.begin(), Touched.end()) - Touched.begin();
  Span.arg("touched", LastTouched);
  Span.arg("facts_retracted", LastRetracted);

  Result->Stats = S->resolveIncremental(F);

  // Fidelity is part of the fixed point: mark it afresh from what is live
  // now, as a scratch solve of the edited app would. A budget truncation
  // stays.
  Solution &Sol = *Result->Sol;
  Sol.clearDegraded();
  if (InputDegraded || !Sol.unresolvedOps().empty())
    Sol.markDegraded();
  GuiAnalysis::markFidelity(*Result, Diags, CheckFailuresBefore);
}

namespace {

/// Sorted, deduplicated edge keys of \p Edges.
std::vector<uint64_t>
edgeKeys(const std::vector<std::pair<NodeId, NodeId>> &Edges) {
  std::vector<uint64_t> Keys;
  Keys.reserve(Edges.size());
  for (const auto &[From, To] : Edges)
    Keys.push_back(edgeKey(From, To));
  std::sort(Keys.begin(), Keys.end());
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
  return Keys;
}

bool hasKey(const std::vector<uint64_t> &Keys, uint64_t K) {
  return std::binary_search(Keys.begin(), Keys.end(), K);
}

} // namespace

bool IncrementalAnalysis::reanalyzeMethod(ir::MethodDecl &M) {
  auto FpIt = Footprints.find(&M);
  if (FpIt == Footprints.end() || !Result)
    return false;
  const unsigned CheckFailuresBefore = Diags.checkFailureCount();
  const unsigned ErrorsBefore = Diags.errorCount();
  ConstraintGraph &G = *Result->Graph;
  MethodFootprint Old = std::move(FpIt->second);
  auto &Ops = Result->Sol->opSites();

  // Tombstone the old sites; the rebuild resurrects role-identical ones.
  for (uint32_t I : Old.OpIndices)
    Ops[I].Dead = true;
  unindexRetLinks(G, M, Old);

  GraphBuilder B(P, Layouts, AM, Result->hierarchy(), Diags);
  B.setModelUnknownSources(Options.ModelUnknownSources);
  std::vector<std::pair<NodeId, NodeId>> J;
  B.setEdgeJournal(&J);
  std::vector<uint32_t> Resurrected;
  B.setOpReuse([&](const OpSite &Site) -> uint32_t {
    for (uint32_t I : Old.OpIndices) {
      const OpSite &O = Ops[I];
      if (!O.Dead || O.Spec.Kind != Site.Spec.Kind ||
          O.Spec.Listener != Site.Spec.Listener ||
          O.Spec.ChildOnly != Site.Spec.ChildOnly || O.Recv != Site.Recv ||
          O.IdArg != Site.IdArg || O.ValArg != Site.ValArg ||
          O.AttachParent != Site.AttachParent || O.Out != Site.Out)
        continue;
      Resurrected.push_back(I);
      return I;
    }
    return ~0u;
  });
  size_t OpsBefore = Ops.size();
  B.buildOneMethod(G, Ops, M);
  B.setEdgeJournal(nullptr);
  InputDegraded |= Diags.errorCount() != ErrorsBefore;

  MethodFootprint New;
  New.Edges = std::move(J);
  New.OpIndices = Resurrected;
  for (size_t I = OpsBefore; I < Ops.size(); ++I)
    New.OpIndices.push_back(static_cast<uint32_t>(I));
  New.FactoryReturns = factoryReturns(G, M);

  // Footprint diff: edges the new body no longer contributes get removed;
  // edges it newly contributes carry their source's set across (a
  // committed predecessor set never re-propagates on its own).
  const std::vector<uint64_t> NewKeys = edgeKeys(New.Edges);
  const std::vector<uint64_t> OldKeys = edgeKeys(Old.Edges);
  RetractionInputs In;
  std::vector<std::pair<NodeId, NodeId>> AddedEdges;
  for (const auto &[From, To] : Old.Edges)
    if (!hasKey(NewKeys, edgeKey(From, To)))
      In.RemovedEdges.emplace_back(From, To);
  for (const auto &[From, To] : New.Edges)
    if (!hasKey(OldKeys, edgeKey(From, To)))
      AddedEdges.emplace_back(From, To);

  // Return-link fixup for M as a *callee*: callers' result edges must
  // track M's new return statements. (Self-recursive links were already
  // rebuilt with M's own footprint.)
  if (auto RlIt = RetLinksByCallee.find(&M); RlIt != RetLinksByCallee.end()) {
    std::vector<NodeId> NewRet;
    for (const Stmt &St : M.body())
      if (St.Kind == StmtKind::Return && St.Lhs != ir::InvalidVar)
        NewRet.push_back(G.getVarNode(&M, St.Lhs));
    std::sort(NewRet.begin(), NewRet.end());
    NewRet.erase(std::unique(NewRet.begin(), NewRet.end()), NewRet.end());
    auto Links = RlIt->second; // copy: we rewrite the index below
    std::vector<std::pair<NodeId, NodeId>> Kept;
    std::vector<NodeId> CallerLhs;
    std::vector<uint64_t> Present;
    for (const auto &[From, To] : Links) {
      const Node &ToN = G.node(To);
      if (ToN.Method == &M) {
        Kept.emplace_back(From, To); // self-link, owned by M's footprint
        continue;
      }
      CallerLhs.push_back(To);
      if (std::binary_search(NewRet.begin(), NewRet.end(), From)) {
        Kept.emplace_back(From, To);
        Present.push_back(edgeKey(From, To));
        continue;
      }
      // Stale: the old return var no longer returns.
      In.RemovedEdges.emplace_back(From, To);
      auto OwnIt = Footprints.find(ToN.Method);
      if (OwnIt != Footprints.end()) {
        auto &E = OwnIt->second.Edges;
        for (size_t K = 0; K < E.size(); ++K)
          if (E[K].first == From && E[K].second == To) {
            E[K] = E.back();
            E.pop_back();
            break;
          }
      }
    }
    std::sort(CallerLhs.begin(), CallerLhs.end());
    CallerLhs.erase(std::unique(CallerLhs.begin(), CallerLhs.end()),
                    CallerLhs.end());
    std::sort(Present.begin(), Present.end());
    for (NodeId To : CallerLhs)
      for (NodeId From : NewRet)
        if (!hasKey(Present, edgeKey(From, To))) {
          if (G.addFlowEdge(From, To)) {
            Kept.emplace_back(From, To);
            AddedEdges.emplace_back(From, To);
            const Node &ToN = G.node(To);
            auto OwnIt = Footprints.find(ToN.Method);
            if (OwnIt != Footprints.end())
              OwnIt->second.Edges.emplace_back(From, To);
          }
        }
    RlIt->second = std::move(Kept);
  }

  // Physically remove the stale EDB (each journaled edge has a unique
  // contributing method, so nothing else still claims it).
  for (const auto &[From, To] : In.RemovedEdges)
    G.removeFlowEdge(From, To);

  // Unresurrected ops die; their minted view subtrees die with them.
  for (uint32_t I : Old.OpIndices)
    if (Ops[I].Dead)
      In.DeadOps.push_back(I);
  if (!In.DeadOps.empty()) {
    std::vector<NodeId> DeadSites;
    for (uint32_t I : In.DeadOps)
      DeadSites.push_back(Ops[I].OpNode);
    std::sort(DeadSites.begin(), DeadSites.end());
    for (NodeKind K : {NodeKind::ViewInfl, NodeKind::UnknownView})
      for (NodeId V : G.nodesOfKind(K)) {
        const Node &N = G.node(V);
        if (!N.Retired && N.InflateSite != InvalidNode &&
            std::binary_search(DeadSites.begin(), DeadSites.end(),
                               N.InflateSite))
          In.RetireNodes.push_back(V);
      }
  }
  // Builder-minted unknown sources of the old body are gone: the rebuild
  // minted fresh ones for surviving hostile statements. Allocation nodes
  // of the old body the rebuild no longer produces — deleted statements,
  // or a `new` re-lowered with a different class (the graph minted a
  // fresh node for it) — retire too: retiring kills the stale seed value.
  // An alloc still minted by the new body appears as a new-edge source
  // and survives.
  std::vector<NodeId> NewSources;
  for (const auto &[From, To] : New.Edges)
    NewSources.push_back(From);
  std::sort(NewSources.begin(), NewSources.end());
  const size_t Listed = In.RetireNodes.size();
  for (const auto &[From, To] : Old.Edges) {
    const Node &N = G.node(From);
    if (N.Method != &M || N.Retired)
      continue;
    bool Unknown =
        (N.Kind == NodeKind::UnknownView || N.Kind == NodeKind::UnknownId) &&
        N.mintSite() == InvalidNode && !hasKey(NewKeys, edgeKey(From, To));
    bool Alloc =
        (N.Kind == NodeKind::Alloc || N.Kind == NodeKind::ViewAlloc) &&
        !std::binary_search(NewSources.begin(), NewSources.end(), From);
    if (Unknown || Alloc)
      In.RetireNodes.push_back(From);
  }
  std::sort(In.RetireNodes.begin() + Listed, In.RetireNodes.end());
  In.RetireNodes.erase(
      std::unique(In.RetireNodes.begin() + Listed, In.RetireNodes.end()),
      In.RetireNodes.end());

  // A factory whose return statements changed: the solver reads them
  // without a graph edge, so the footprint diff does not see it.
  if (Old.FactoryReturns != New.FactoryReturns)
    std::set_union(Old.FactoryReturns.begin(), Old.FactoryReturns.end(),
                   New.FactoryReturns.begin(), New.FactoryReturns.end(),
                   std::back_inserter(In.ChangedFactoryReturns));
  indexRetLinks(G, M, New);
  Footprints[&M] = std::move(New);

  RetractionResult R;
  {
    support::TraceSpan Span(Options.Trace, "incremental.retract");
    R = retractAndClose(G, *Result->Sol, *Result->Provenance, In);
    Span.arg("facts_retracted", R.FactsRetracted);
    Span.arg("retired_nodes", R.RetiredNodes.size());
  }
  R.Frontier.NewEdges = std::move(AddedEdges);
  R.Frontier.Ops = std::move(Resurrected);
  rederive(R, CheckFailuresBefore);
  return true;
}

bool IncrementalAnalysis::reanalyzeLayout(
    const std::string &Name, std::unique_ptr<layout::LayoutNode> NewRoot) {
  if (!Result || !NewRoot)
    return false;
  layout::LayoutDef *Def = Layouts.findByName(Name);
  if (!Def || !Def->root())
    return false;
  // Splicing an edited tree into includers is beyond edit scale.
  if (Layouts.includedLayouts().count(Name))
    return false;

  // The solver's other memos validate themselves on a hit; a failed
  // inflation of the old tree (memoized as InvalidNode) may now succeed,
  // so the sites of every memo of this layout re-fire.
  const unsigned CheckFailuresBefore = Diags.checkFailureCount();
  ConstraintGraph &G = *Result->Graph;
  Solver::LayoutMemos Memos =
      S->forgetLayoutMemos(G.getLayoutIdNode(Def->id()));

  // Views minted from the old tree: the subtree of each memoized root,
  // without the views other rules attached below it.
  std::unordered_set<const layout::LayoutNode *> OldNodes;
  std::vector<const layout::LayoutNode *> Stack{Def->root()};
  while (!Stack.empty()) {
    const layout::LayoutNode *N = Stack.back();
    Stack.pop_back();
    OldNodes.insert(N);
    for (const auto &C : N->children())
      Stack.push_back(C.get());
  }
  RetractionInputs In;
  for (NodeId Root : Memos.Roots) {
    if (Root == InvalidNode || G.isRetired(Root))
      continue;
    const NodeId Site = G.node(Root).InflateSite;
    for (NodeId V : G.descendantsOf(Root)) {
      const Node &N = G.node(V);
      if (N.Kind == NodeKind::ViewInfl && !N.Retired &&
          N.InflateSite == Site && OldNodes.count(N.LNode))
        In.RetireNodes.push_back(V);
    }
  }
  std::sort(In.RetireNodes.begin(), In.RetireNodes.end());
  In.RetireNodes.erase(
      std::unique(In.RetireNodes.begin(), In.RetireNodes.end()),
      In.RetireNodes.end());

  // View ids the edited tree introduces intern into the session's table
  // (append-only, so existing ids keep their numbers), and get their value
  // nodes as a scratch build gives every interned id one, inflated or not.
  // The re-derive seeds them.
  std::vector<const layout::LayoutNode *> NewStack{NewRoot.get()};
  while (!NewStack.empty()) {
    const layout::LayoutNode *N = NewStack.back();
    NewStack.pop_back();
    if (N->hasViewId())
      G.getViewIdNode(Layouts.resources().internViewId(N->viewIdName()));
    for (const auto &C : N->children())
      NewStack.push_back(C.get());
  }

  RetractionResult R;
  {
    support::TraceSpan Span(Options.Trace, "incremental.retract");
    R = retractAndClose(G, *Result->Sol, *Result->Provenance, In);
    Span.arg("facts_retracted", R.FactsRetracted);
    Span.arg("retired_nodes", R.RetiredNodes.size());
  }

  // Null dangling layout-node pointers before the old tree is freed.
  for (NodeId V : R.RetiredNodes)
    if (G.node(V).Kind == NodeKind::ViewInfl)
      G.neutralizeViewInflNode(V);
  Def->setRoot(std::move(NewRoot));
  R.Frontier.Ops = std::move(Memos.Sites);
  rederive(R, CheckFailuresBefore);
  return true;
}
