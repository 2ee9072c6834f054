//===- Provenance.cpp - Derivation recording for solver facts -------------===//

#include "analysis/Provenance.h"

#include <unordered_set>

using namespace gator;
using namespace gator::analysis;

const char *gator::analysis::derivRuleName(DerivRule Rule) {
  switch (Rule) {
  case DerivRule::Seed:
    return "Seed";
  case DerivRule::FlowEdge:
    return "FlowEdge";
  case DerivRule::Inflate:
    return "Inflate";
  case DerivRule::InflateAttach:
    return "InflateAttach";
  case DerivRule::AddView1:
    return "AddView1";
  case DerivRule::AddView2:
    return "AddView2";
  case DerivRule::SetId:
    return "SetId";
  case DerivRule::SetListener:
    return "SetListener";
  case DerivRule::ListenerCallback:
    return "ListenerCallback";
  case DerivRule::XmlOnClick:
    return "XmlOnClick";
  case DerivRule::FindView:
    return "FindView";
  case DerivRule::FragmentAdd:
    return "FragmentAdd";
  case DerivRule::SetAdapter:
    return "SetAdapter";
  case DerivRule::External:
    return "External";
  case DerivRule::UnknownSource:
    return "UnknownSource";
  }
  return "Unknown";
}

const char *gator::analysis::factKindName(FactKind Kind) {
  switch (Kind) {
  case FactKind::Flow:
    return "flowsTo";
  case FactKind::ParentChild:
    return "parentOf";
  case FactKind::HasId:
    return "hasId";
  case FactKind::Root:
    return "rootOf";
  case FactKind::Listener:
    return "listens";
  case FactKind::RootsLayout:
    return "rootsLayout";
  case FactKind::FlowLink:
    return "flowLink";
  }
  return "fact";
}

namespace {

bool isUnknownNode(const graph::ConstraintGraph *G, graph::NodeId Id) {
  if (!G || Id == graph::InvalidNode || Id >= G->size())
    return false;
  graph::NodeKind Kind = G->node(Id).Kind;
  return Kind == graph::NodeKind::UnknownView ||
         Kind == graph::NodeKind::UnknownId;
}

} // namespace

void ProvenanceRecorder::record(FactKind Kind, graph::NodeId A,
                                graph::NodeId B, DerivRule Rule, FactId P0,
                                FactId P1, FactId P2) {
  Derivation D;
  D.Rule = Rule;
  D.Premises = {P0, P1, P2};
  D.Depth = 1;
  D.Approx = Rule == DerivRule::UnknownSource || isUnknownNode(G, A) ||
             isUnknownNode(G, B);
  for (FactId P : D.Premises)
    if (P != NoFact) {
      if (Derivs[P].Depth + 1 > D.Depth)
        D.Depth = Derivs[P].Depth + 1;
      D.Approx |= Derivs[P].Approx;
    }

  auto &Map = IndexByKind[static_cast<size_t>(Kind)];
  const FactId Fresh = static_cast<FactId>(Facts.size());
  const FactId Id = Map.getOrInsert(key(A, B), Fresh);
  if (Id == Fresh) {
    Facts.push_back(Fact{Kind, A, B});
    Derivs.push_back(D);
    Dead.push_back(false);
    DepHead.push_back(NoLink);
    if (D.Approx)
      ++ApproxFacts;
    link(NodeHead.getOrInsert(A, NoLink), Id);
    if (B != A && B != graph::InvalidNode)
      link(NodeHead.getOrInsert(B, NoLink), Id);
    indexDerivation(Id);
  } else if (D.Depth < Derivs[Id].Depth) {
    // A shallower re-derivation wins: --explain reports the shortest
    // route the solve found to this fact.
    if (D.Approx && !Derivs[Id].Approx)
      ++ApproxFacts;
    else if (!D.Approx && Derivs[Id].Approx)
      --ApproxFacts;
    Derivs[Id] = D;
    indexDerivation(Id);
  }
  if (D.Depth > MaxDepth)
    MaxDepth = D.Depth;
}

void ProvenanceRecorder::link(uint32_t &Head, FactId Fact) {
  uint32_t L = FreeLinks;
  if (L != NoLink) {
    FreeLinks = Links[L].Next;
    Links[L] = {Fact, Head};
  } else {
    L = static_cast<uint32_t>(Links.size());
    Links.push_back({Fact, Head});
  }
  Head = L;
}

void ProvenanceRecorder::indexDerivation(FactId Id) {
  const Derivation &D = Derivs[Id];
  for (size_t I = 0; I < D.Premises.size(); ++I) {
    FactId P = D.Premises[I];
    // A premise cited twice needs one entry.
    if (P != NoFact && (I == 0 || P != D.Premises[I - 1]) &&
        (I < 2 || P != D.Premises[0]))
      link(DepHead[P], Id);
  }
  const Fact &F = Facts[Id];
  if (D.Rule == DerivRule::FlowEdge && F.Kind == FactKind::Flow &&
      D.Premises[0] != NoFact && Facts[D.Premises[0]].Kind == FactKind::Flow)
    link(EdgeUseHead.getOrInsert(key(Facts[D.Premises[0]].A, F.A), NoLink),
         Id);
}

void ProvenanceRecorder::retract(FactId Id) {
  if (Id >= Facts.size() || Dead[Id])
    return;
  Dead[Id] = true;
  if (Derivs[Id].Approx)
    --ApproxFacts;
  const Fact &F = Facts[Id];
  auto &Map = IndexByKind[static_cast<size_t>(F.Kind)];
  // Only unlink if the index still points at *this* fact: the key may
  // already map to a re-recorded successor.
  if (const FactId *Cur = Map.get(key(F.A, F.B)); Cur && *Cur == Id)
    Map.erase(key(F.A, F.B));
  // Nothing cites a dead fact as a live premise any more: free its chain.
  walk(DepHead[Id], [](FactId) { return false; });
}

ProvenanceRecorder::FactId ProvenanceRecorder::find(FactKind Kind,
                                                    graph::NodeId A,
                                                    graph::NodeId B) const {
  const FactId *Id = IndexByKind[static_cast<size_t>(Kind)].get(key(A, B));
  return Id ? *Id : NoFact;
}

namespace {

/// The `approx: <reason> at <site>` note for a fact resting directly on
/// an unknown-source node (docs/ROBUSTNESS.md degradation taxonomy).
void printApproxNote(std::ostream &OS, const graph::ConstraintGraph &G,
                     const ProvenanceRecorder::Fact &F) {
  for (graph::NodeId End : {F.A, F.B}) {
    if (End == graph::InvalidNode || End >= G.size())
      continue;
    const graph::Node &N = G.node(End);
    if (N.Kind != graph::NodeKind::UnknownView &&
        N.Kind != graph::NodeKind::UnknownId)
      continue;
    OS << "  approx: " << graph::unknownReasonPhrase(N.Unknown);
    if (N.Method)
      OS << " at " << N.Method->qualifiedName();
    if (G.loc(End).isValid())
      OS << ":" << G.loc(End).line();
    return;
  }
}

void printOne(std::ostream &OS, const ProvenanceRecorder &Prov,
              ProvenanceRecorder::FactId Id, const graph::ConstraintGraph &G,
              unsigned Indent, unsigned MaxPrintDepth,
              std::unordered_set<ProvenanceRecorder::FactId> &Printed) {
  const auto &F = Prov.fact(Id);
  const auto &D = Prov.derivation(Id);
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << factKindName(F.Kind) << '(' << G.label(F.A);
  if (F.B != graph::InvalidNode)
    OS << ", " << G.label(F.B);
  OS << ")  [" << derivRuleName(D.Rule) << ']';
  if (D.Approx) {
    OS << " [approx]";
    printApproxNote(OS, G, F);
  }
  bool HasPremise = false;
  for (auto P : D.Premises)
    HasPremise |= P != ProvenanceRecorder::NoFact;
  if (!HasPremise) {
    OS << '\n';
    return;
  }
  if (!Printed.insert(Id).second) {
    OS << "  (see above)\n";
    return;
  }
  if (Indent >= MaxPrintDepth) {
    OS << "  (...)\n";
    return;
  }
  OS << '\n';
  for (auto P : D.Premises)
    if (P != ProvenanceRecorder::NoFact)
      printOne(OS, Prov, P, G, Indent + 1, MaxPrintDepth, Printed);
}

} // namespace

void ProvenanceRecorder::printDerivation(std::ostream &OS, FactId Id,
                                         const graph::ConstraintGraph &G,
                                         unsigned MaxPrintDepth) const {
  if (Id == NoFact || Id >= Facts.size()) {
    OS << "(no derivation recorded)\n";
    return;
  }
  std::unordered_set<FactId> Printed;
  printOne(OS, *this, Id, G, 0, MaxPrintDepth, Printed);
}
