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

} // namespace

RetractionResult analysis::retractAndClose(ConstraintGraph &G, Solution &Sol,
                                           ProvenanceRecorder &Prov,
                                           const RetractionInputs &In) {
  RetractionResult Out;
  const size_t F = Prov.factCount();

  // One pass over the fact table builds the two deletion indexes:
  //  - Dependents: premise fact -> facts whose recorded derivation cites it
  //  - EdgeUse: flow edge (From,To) -> facts derived by propagating across
  //    it (rule FlowEdge; premise 0 is the source-side flow fact).
  std::vector<std::vector<FactId>> Dependents(F);
  std::unordered_map<uint64_t, std::vector<FactId>> EdgeUse;
  for (FactId I = 0; I < F; ++I) {
    if (Prov.isDead(I))
      continue;
    const Derivation &D = Prov.derivation(I);
    for (FactId Prem : D.Premises)
      if (Prem != NoFact && Prem < F)
        Dependents[Prem].push_back(I);
    if (D.Rule == DerivRule::FlowEdge && D.Premises[0] != NoFact &&
        D.Premises[0] < F) {
      const Fact &Ft = Prov.fact(I);
      const Fact &Src = Prov.fact(D.Premises[0]);
      if (Ft.Kind == FactKind::Flow && Src.Kind == FactKind::Flow)
        EdgeUse[edgeKey(Src.A, Ft.A)].push_back(I);
    }
  }

  std::vector<FactId> Work;
  std::vector<bool> Marked(F, false);
  auto kill = [&](FactId I) {
    if (I < F && !Marked[I] && !Prov.isDead(I)) {
      Marked[I] = true;
      Work.push_back(I);
    }
  };

  // Seed 1: facts carried across removed EDB edges.
  for (const auto &[From, To] : In.RemovedEdges)
    if (auto It = EdgeUse.find(edgeKey(From, To)); It != EdgeUse.end())
      for (FactId I : It->second)
        kill(I);

  // Seed 2 and 3 need one sweep: facts touching a retired node, and the
  // over-approximate consequence set of dead ops — flow facts into their
  // Out nodes plus relationship facts whose recorded premises sit at one
  // of their role nodes. Over-deletion is fine: a live role-sharing op
  // re-derives its facts in the re-derive pass.
  std::unordered_set<NodeId> Retired(In.RetireNodes.begin(),
                                     In.RetireNodes.end());
  std::unordered_set<NodeId> DeadOuts, DeadRoles;
  for (uint32_t OpI : In.DeadOps) {
    const OpSite &Op = Sol.opSites()[OpI];
    if (Op.Out != InvalidNode)
      DeadOuts.insert(Op.Out);
    for (NodeId Role : {Op.Recv, Op.IdArg, Op.ValArg, Op.AttachParent})
      if (Role != InvalidNode)
        DeadRoles.insert(Role);
  }
  auto sweepSeeds = [&](const std::unordered_set<NodeId> &Nodes) {
    for (FactId I = 0; I < F; ++I) {
      if (Marked[I] || Prov.isDead(I))
        continue;
      const Fact &Ft = Prov.fact(I);
      if (Nodes.count(Ft.A) || Nodes.count(Ft.B)) {
        kill(I);
        continue;
      }
      if (&Nodes != &Retired)
        continue;
      if (Ft.Kind == FactKind::Flow) {
        if (DeadOuts.count(Ft.A))
          kill(I);
        continue;
      }
      if (DeadRoles.empty())
        continue;
      const Derivation &D = Prov.derivation(I);
      for (FactId Prem : D.Premises) {
        if (Prem == NoFact || Prem >= F)
          continue;
        const Fact &PF = Prov.fact(Prem);
        if (PF.Kind == FactKind::Flow && DeadRoles.count(PF.A)) {
          kill(I);
          break;
        }
      }
    }
  };
  sweepSeeds(Retired);

  // The closure proper. Killing a minted view's self-seed means its whole
  // subtree is gone (all subtree seeds share the inflation's id-fact
  // premise); those nodes retire in a follow-up wave so every fact
  // touching them dies too.
  std::unordered_map<NodeId, std::vector<NodeId>> ToErase;
  std::unordered_set<NodeId> TouchedSet;
  std::unordered_set<NodeId> NewlyDead;
  std::vector<std::pair<NodeId, NodeId>> RootsLayoutKilled;
  auto drain = [&] {
    while (!Work.empty()) {
      FactId I = Work.back();
      Work.pop_back();
      const Fact Ft = Prov.fact(I);
      Prov.retract(I);
      ++Out.FactsRetracted;
      switch (Ft.Kind) {
      case FactKind::Flow:
        ToErase[Ft.A].push_back(Ft.B);
        TouchedSet.insert(Ft.A);
        if (Ft.A == Ft.B) {
          const Node &N = G.node(Ft.A);
          if (N.mintSite() != InvalidNode && !N.Retired && !Retired.count(Ft.A))
            NewlyDead.insert(Ft.A);
        }
        break;
      case FactKind::FlowLink:
        // IDB graph structure (listener/xml/fragment/adapter wiring):
        // remove the edge and everything that crossed it.
        if (G.removeFlowEdge(Ft.A, Ft.B)) {
          Out.WiredValuesForgotten.push_back(Ft.A);
          if (auto It = EdgeUse.find(edgeKey(Ft.A, Ft.B)); It != EdgeUse.end())
            for (FactId Dep : It->second)
              kill(Dep);
        }
        break;
      case FactKind::ParentChild:
        G.removeParentChildEdge(Ft.A, Ft.B);
        break;
      case FactKind::HasId:
        G.removeHasIdEdge(Ft.A, Ft.B);
        break;
      case FactKind::Root:
        G.removeRootEdge(Ft.A, Ft.B);
        break;
      case FactKind::Listener:
        G.removeListenerEdge(Ft.A, Ft.B);
        break;
      case FactKind::RootsLayout:
        G.removeRootsLayoutEdge(Ft.A, Ft.B);
        RootsLayoutKilled.emplace_back(Ft.A, Ft.B);
        break;
      }
      for (FactId Dep : Dependents[I])
        kill(Dep);
    }
  };
  drain();
  while (!NewlyDead.empty()) {
    std::unordered_set<NodeId> Wave;
    Wave.swap(NewlyDead);
    Retired.insert(Wave.begin(), Wave.end());
    sweepSeeds(Wave);
    drain();
  }

  // Apply: erase dead values from surviving sets (marking survivors
  // all-delta), clear and retire dead nodes.
  FlowSetTable &Sets = Sol.flowsToSets();
  for (auto &[N, Vals] : ToErase) {
    FlowSet *Set = Sets.find(N);
    if (!Set || Retired.count(N))
      continue;
    std::unordered_set<NodeId> Del(Vals.begin(), Vals.end());
    if (Set->eraseValues([&](NodeId V) { return Del.count(V) != 0; }))
      Out.Touched.push_back(N);
  }
  for (NodeId R : Retired) {
    if (FlowSet *Set = Sets.find(R))
      Set->eraseValues([](NodeId) { return true; });
    G.retireNode(R);
    Out.RetiredNodes.push_back(R);
  }

  // Exact inflation-memo keys whose minted subtree died: the root's
  // retracted RootsLayout fact names the (site, layout/unknown-id) pair.
  for (const auto &[Root, Low] : RootsLayoutKilled)
    if (Retired.count(Root)) {
      NodeId Site = G.node(Root).mintSite();
      if (Site != InvalidNode)
        Out.MintsRetired.emplace_back(Site, Low);
    }

  std::sort(Out.Touched.begin(), Out.Touched.end());
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

  // Unresolved-op markers (fidelity itself is deliberately excluded: it is
  // sticky-conservative across incremental re-solves).
  for (uint32_t I : Sol.unresolvedOps())
    if (I < Sol.opSites().size() && !Sol.opSites()[I].Dead)
      Lines.push_back("unresolved " + opIdentity(G, Sol.opSites()[I]));

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
      indexRetLinks(*R.Graph, M, FP);
      Footprints[&M] = std::move(FP);
    });
  };
  Result = GuiAnalysis::runWith(
      P, Layouts, AM, Options, Diags,
      [&](AnalysisResult &R) {
        S = std::make_unique<Solver>(*R.Graph, *R.Sol, Layouts, AM, R.Options,
                                     Diags);
        S->setProvenance(R.Provenance.get());
        R.Stats = S->solve();
      },
      Journaled);
}

void IncrementalAnalysis::rederive(const RetractionResult &R,
                                   const std::vector<NodeId> &ExtraTouched,
                                   const std::vector<uint32_t> &DeadOps,
                                   const std::vector<NodeId> &DirtyLayoutNodes,
                                   unsigned CheckFailuresBefore) {
  support::TraceSpan Span(Options.Trace, "incremental.rederive");
  ConstraintGraph &G = *Result->Graph;
  Solution &Sol = *Result->Sol;
  LastRetracted = R.FactsRetracted;
  Sol.pruneUnresolvedDeadOps();

  std::vector<NodeId> Touched = R.Touched;
  Touched.insert(Touched.end(), ExtraTouched.begin(), ExtraTouched.end());
  std::sort(Touched.begin(), Touched.end());
  Touched.erase(std::unique(Touched.begin(), Touched.end()), Touched.end());
  LastTouched = Touched.size();
  Span.arg("touched", LastTouched);
  Span.arg("facts_retracted", LastRetracted);

  // Memo hygiene before re-deriving (docs/INCREMENTAL.md).
  for (uint32_t OpI : DeadOps)
    S->forgetOpMemos(OpI);
  for (NodeId L : DirtyLayoutNodes)
    S->forgetLayoutMemos(L);
  std::unordered_map<NodeId, uint32_t> OpIndexOfNode;
  for (size_t I = 0; I < Sol.opSites().size(); ++I)
    OpIndexOfNode.emplace(Sol.opSites()[I].OpNode, static_cast<uint32_t>(I));
  for (const auto &[Site, Low] : R.MintsRetired)
    if (auto It = OpIndexOfNode.find(Site); It != OpIndexOfNode.end())
      S->forgetInflation(It->second, Low);
  for (NodeId V : R.WiredValuesForgotten)
    S->forgetWiredValue(V);
  for (NodeId Dead : R.RetiredNodes)
    if (G.node(Dead).Kind == NodeKind::UnknownId)
      S->forgetLayoutMemos(Dead);
  Result->Stats = S->resolveIncremental(Touched);
  GuiAnalysis::markFidelity(*Result, Diags, CheckFailuresBefore);
}

bool IncrementalAnalysis::reanalyzeMethod(ir::MethodDecl &M) {
  auto FpIt = Footprints.find(&M);
  if (FpIt == Footprints.end() || !Result)
    return false;
  const unsigned CheckFailuresBefore = Diags.checkFailureCount();
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

  MethodFootprint New;
  New.Edges = std::move(J);
  New.OpIndices = std::move(Resurrected);
  for (size_t I = OpsBefore; I < Ops.size(); ++I)
    New.OpIndices.push_back(static_cast<uint32_t>(I));

  // Footprint diff: edges the new body no longer contributes get removed;
  // edges it newly contributes need their targets re-pulled (a committed
  // predecessor set never re-propagates on its own).
  std::unordered_set<uint64_t> NewEdges, OldEdges;
  for (const auto &[From, To] : New.Edges)
    NewEdges.insert(edgeKey(From, To));
  for (const auto &[From, To] : Old.Edges)
    OldEdges.insert(edgeKey(From, To));
  RetractionInputs In;
  std::vector<NodeId> ExtraTouched;
  for (const auto &[From, To] : Old.Edges)
    if (!NewEdges.count(edgeKey(From, To)))
      In.RemovedEdges.emplace_back(From, To);
  for (const auto &[From, To] : New.Edges)
    if (!OldEdges.count(edgeKey(From, To)))
      ExtraTouched.push_back(To);

  // Return-link fixup for M as a *callee*: callers' result edges must
  // track M's new return statements. (Self-recursive links were already
  // rebuilt with M's own footprint.)
  if (auto RlIt = RetLinksByCallee.find(&M); RlIt != RetLinksByCallee.end()) {
    std::unordered_set<NodeId> NewRet;
    for (const Stmt &St : M.body())
      if (St.Kind == StmtKind::Return && St.Lhs != ir::InvalidVar)
        NewRet.insert(G.getVarNode(&M, St.Lhs));
    auto Links = RlIt->second; // copy: we rewrite the index below
    std::vector<std::pair<NodeId, NodeId>> Kept;
    std::unordered_set<NodeId> CallerLhs;
    std::unordered_set<uint64_t> Present;
    for (const auto &[From, To] : Links) {
      const Node &ToN = G.node(To);
      if (ToN.Method == &M) {
        Kept.emplace_back(From, To); // self-link, owned by M's footprint
        continue;
      }
      CallerLhs.insert(To);
      if (NewRet.count(From)) {
        Kept.emplace_back(From, To);
        Present.insert(edgeKey(From, To));
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
    for (NodeId To : CallerLhs)
      for (NodeId From : NewRet)
        if (!Present.count(edgeKey(From, To))) {
          if (G.addFlowEdge(From, To)) {
            Kept.emplace_back(From, To);
            ExtraTouched.push_back(To);
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
    std::unordered_set<NodeId> DeadSites;
    for (uint32_t I : In.DeadOps)
      DeadSites.insert(Ops[I].OpNode);
    for (NodeKind K : {NodeKind::ViewInfl, NodeKind::UnknownView})
      for (NodeId V : G.nodesOfKind(K)) {
        const Node &N = G.node(V);
        if (!N.Retired && N.InflateSite != InvalidNode &&
            DeadSites.count(N.InflateSite))
          In.RetireNodes.push_back(V);
      }
  }
  // Builder-minted unknown sources of the old body are gone: the rebuild
  // minted fresh ones for surviving hostile statements.
  for (const auto &[From, To] : Old.Edges) {
    const Node &N = G.node(From);
    if ((N.Kind == NodeKind::UnknownView || N.Kind == NodeKind::UnknownId) &&
        N.Method == &M && !N.Retired && N.mintSite() == InvalidNode &&
        !NewEdges.count(edgeKey(From, To)))
      In.RetireNodes.push_back(From);
  }
  // Allocation nodes of the old body the rebuild no longer produces —
  // deleted statements, or a `new` re-lowered with a different class (the
  // graph minted a fresh node for it). Retiring kills the stale seed
  // value; an alloc still minted by the new body appears as a new-edge
  // source and survives.
  {
    std::unordered_set<NodeId> NewSources, Listed;
    for (const auto &[From, To] : New.Edges)
      NewSources.insert(From);
    for (NodeId V : In.RetireNodes)
      Listed.insert(V);
    for (const auto &[From, To] : Old.Edges) {
      const Node &N = G.node(From);
      if ((N.Kind == NodeKind::Alloc || N.Kind == NodeKind::ViewAlloc) &&
          N.Method == &M && !N.Retired && !NewSources.count(From) &&
          Listed.insert(From).second)
        In.RetireNodes.push_back(From);
    }
  }

  indexRetLinks(G, M, New);
  Footprints[&M] = std::move(New);

  RetractionResult R;
  {
    support::TraceSpan Span(Options.Trace, "incremental.retract");
    R = retractAndClose(G, *Result->Sol, *Result->Provenance, In);
    Span.arg("facts_retracted", R.FactsRetracted);
    Span.arg("retired_nodes", R.RetiredNodes.size());
  }
  rederive(R, ExtraTouched, In.DeadOps, {}, CheckFailuresBefore);
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

  // Views minted from the old tree: collect by layout-node membership.
  std::unordered_set<const layout::LayoutNode *> OldNodes;
  std::vector<const layout::LayoutNode *> Stack{Def->root()};
  while (!Stack.empty()) {
    const layout::LayoutNode *N = Stack.back();
    Stack.pop_back();
    OldNodes.insert(N);
    for (const auto &C : N->children())
      Stack.push_back(C.get());
  }
  const unsigned CheckFailuresBefore = Diags.checkFailureCount();
  ConstraintGraph &G = *Result->Graph;
  RetractionInputs In;
  for (NodeId V : G.nodesOfKind(NodeKind::ViewInfl)) {
    const Node &N = G.node(V);
    if (!N.Retired && N.LNode && OldNodes.count(N.LNode))
      In.RetireNodes.push_back(V);
  }

  // View ids the edited tree introduces intern into the session's table
  // (append-only, so existing ids keep their numbers).
  std::vector<const layout::LayoutNode *> NewStack{NewRoot.get()};
  while (!NewStack.empty()) {
    const layout::LayoutNode *N = NewStack.back();
    NewStack.pop_back();
    if (N->hasViewId())
      Layouts.resources().internViewId(N->viewIdName());
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

  NodeId LayoutIdNode = G.getLayoutIdNode(Def->id());
  rederive(R, {}, {}, {LayoutIdNode}, CheckFailuresBefore);
  return true;
}
