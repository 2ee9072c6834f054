//===- Provenance.h - Derivation recording for solver facts -----*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opt-in provenance for the fixed point (docs/OBSERVABILITY.md): when
/// AnalysisOptions::RecordProvenance is set, the fused Solver stamps
/// every committed flowsTo fact and every relationship (`=>`) edge with
/// the semantic rule that produced it plus the premise facts the rule
/// consumed. The recorded derivations form an acyclic DAG (a premise is
/// always recorded before its conclusion), which `gator_cli --explain`
/// prints as a derivation tree — the machine-checkable analogue of the
/// paper's Section 5 case study, which manually explains *why* APV's
/// Barcode views flow where they do.
///
/// Depth is maintained per fact as 1 + max(premise depths); when a later
/// rule re-derives a known fact more shallowly, the shallower derivation
/// replaces the recorded one, so printDerivation() emits the shortest
/// derivation the solve encountered.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_PROVENANCE_H
#define GATOR_ANALYSIS_PROVENANCE_H

#include "graph/ConstraintGraph.h"
#include "support/FlatMap.h"

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

namespace gator {
namespace analysis {

/// The semantic rule that produced a fact.
enum class DerivRule : uint8_t {
  Seed,             ///< a value node flows to itself (Section 4.3 seeding)
  FlowEdge,         ///< propagation along a flow edge n -> n'
  Inflate,          ///< INFLATE1/2 minted a view / its layout structure
  InflateAttach,    ///< inflate(id, parent) attached the root to a parent
  AddView1,         ///< ADDVIEW1 root association
  AddView2,         ///< ADDVIEW2 parent-child edge
  SetId,            ///< SETID id association
  SetListener,      ///< SETLISTENER listener association
  ListenerCallback, ///< callback wiring y.n(x) of a listener registration
  XmlOnClick,       ///< android:onClick layout-declared handler sweep
  FindView,         ///< FINDVIEW1/2/3 resolution into the result variable
  FragmentAdd,      ///< fragment onCreateView wiring / container attach
  SetAdapter,       ///< adapter getView wiring / item attach
  External,         ///< recorded without a known producer (defensive)
  UnknownSource,    ///< an unknown-source node seeded this fact
                    ///< (docs/ROBUSTNESS.md); the fact is approximate
};

/// Printable rule name ("FlowEdge", "FindView", ...).
const char *derivRuleName(DerivRule Rule);

/// What a recorded fact asserts.
enum class FactKind : uint8_t {
  Flow,        ///< flowsTo(A, value B)
  ParentChild, ///< A => B in the view hierarchy
  HasId,       ///< view A => view-id B
  Root,        ///< window A => root view B
  Listener,    ///< view A => listener B
  RootsLayout, ///< view A is the root of an instance of layout-id B
  FlowLink,    ///< solver-added flow edge A -> B (mid-solve wiring:
               ///< listener callbacks, xml handlers, fragment/adapter
               ///< factories) — IDB graph structure the retraction
               ///< closure must physically remove (docs/INCREMENTAL.md)
};

inline constexpr size_t NumFactKinds =
    static_cast<size_t>(FactKind::FlowLink) + 1;

const char *factKindName(FactKind Kind);

/// Records fact derivations during one solve. Thread-confined like the
/// solution it annotates.
class ProvenanceRecorder {
public:
  using FactId = uint32_t;
  static constexpr FactId NoFact = ~0u;

  struct Fact {
    FactKind Kind;
    graph::NodeId A = graph::InvalidNode;
    graph::NodeId B = graph::InvalidNode;
  };

  struct Derivation {
    DerivRule Rule = DerivRule::External;
    std::array<FactId, 3> Premises{NoFact, NoFact, NoFact};
    uint32_t Depth = 1;
    /// True when this fact rests on an unknown source: its rule is
    /// UnknownSource, either endpoint is an unknown node, or any premise
    /// is itself approximate. printDerivation flags such facts and names
    /// the degradation reason at the unknown-source leaves.
    bool Approx = false;
  };

  /// Records (or shallows) the derivation of flowsTo(\p Target, \p Value).
  /// Premise slots may be NoFact.
  void recordFlow(graph::NodeId Target, graph::NodeId Value, DerivRule Rule,
                  FactId P0 = NoFact, FactId P1 = NoFact, FactId P2 = NoFact) {
    record(FactKind::Flow, Target, Value, Rule, P0, P1, P2);
  }

  /// Records (or shallows) the derivation of a relationship edge.
  void recordEdge(FactKind Kind, graph::NodeId From, graph::NodeId To,
                  DerivRule Rule, FactId P0 = NoFact, FactId P1 = NoFact,
                  FactId P2 = NoFact) {
    record(Kind, From, To, Rule, P0, P1, P2);
  }

  /// Existing fact lookup; NoFact when the fact was never recorded (e.g.
  /// filtered inserts). Safe to pass straight into a premise slot.
  FactId flowFact(graph::NodeId Target, graph::NodeId Value) const {
    return find(FactKind::Flow, Target, Value);
  }
  FactId edgeFact(FactKind Kind, graph::NodeId From, graph::NodeId To) const {
    return find(Kind, From, To);
  }

  const Fact &fact(FactId Id) const { return Facts[Id]; }
  const Derivation &derivation(FactId Id) const { return Derivs[Id]; }
  size_t factCount() const { return Facts.size(); }

  /// Retracts \p Id (delete-and-rederive, docs/INCREMENTAL.md): the fact
  /// no longer holds, find() stops returning it, and a later record() of
  /// the same (kind, A, B) mints a fresh FactId. The Fact/Derivation slots
  /// stay readable (old premise ids embedded in live derivations must not
  /// dangle) but are flagged dead. Idempotent.
  void retract(FactId Id);

  /// True when \p Id has been retracted.
  bool isDead(FactId Id) const { return Id < Dead.size() && Dead[Id]; }

  //===--------------------------------------------------------------------===//
  // Deletion indexes (docs/INCREMENTAL.md), kept up to date by record()
  //===--------------------------------------------------------------------===//

  /// Calls \p Fn(D) for each live fact D whose current derivation cites
  /// \p Premise. A shallower re-derivation replaces a recorded one, so an
  /// entry counts only while D still cites \p Premise; stale entries are
  /// dropped as the walk meets them.
  template <typename F> void forEachDependent(FactId Premise, F Fn) {
    if (Premise >= DepHead.size())
      return;
    walk(DepHead[Premise], [&](FactId D) {
      if (Dead[D])
        return false;
      for (FactId P : Derivs[D].Premises)
        if (P == Premise) {
          Fn(D);
          return true;
        }
      return false;
    });
  }

  /// Calls \p Fn(D) for each live flow fact D derived by propagating
  /// across the flow edge \p From -> \p To (rule FlowEdge).
  template <typename F> void forEachFactAcross(graph::NodeId From,
                                               graph::NodeId To, F Fn) {
    uint32_t *Head = EdgeUseHead.find(key(From, To));
    if (!Head)
      return;
    walk(*Head, [&](FactId D) {
      if (Dead[D] || !carriedAcross(D, From))
        return false;
      Fn(D);
      return true;
    });
    if (*Head == NoLink)
      EdgeUseHead.erase(key(From, To));
  }

  /// Calls \p Fn(D) for each live fact D with \p N as either endpoint.
  template <typename F> void forEachFactAt(graph::NodeId N, F Fn) {
    uint32_t *Head = NodeHead.find(N);
    if (!Head)
      return;
    walk(*Head, [&](FactId D) {
      if (Dead[D])
        return false;
      Fn(D);
      return true;
    });
    if (*Head == NoLink)
      NodeHead.erase(N);
  }

  /// Binds the graph used to classify unknown-node endpoints when
  /// computing Derivation::Approx. Optional; without it only the rule and
  /// premise flags feed the classification.
  void bindGraph(const graph::ConstraintGraph *Graph) { G = Graph; }

  /// Number of recorded facts flagged approximate.
  size_t approxFactCount() const { return ApproxFacts; }

  /// Deepest recorded derivation (1 for axioms; 0 when empty).
  uint32_t maxDepth() const { return MaxDepth; }

  /// Prints the derivation tree rooted at \p Id, one fact per line with
  /// two-space indentation, labeling nodes through \p G. Re-derived
  /// subtrees print once; later occurrences are elided with "(see above)".
  /// Depth is capped at \p MaxPrintDepth.
  void printDerivation(std::ostream &OS, FactId Id,
                       const graph::ConstraintGraph &G,
                       unsigned MaxPrintDepth = 16) const;

private:
  void record(FactKind Kind, graph::NodeId A, graph::NodeId B, DerivRule Rule,
              FactId P0, FactId P1, FactId P2);
  FactId find(FactKind Kind, graph::NodeId A, graph::NodeId B) const;

  static uint64_t key(graph::NodeId A, graph::NodeId B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  }

  /// The deletion indexes are singly linked chains in one pool: a chain
  /// head per fact (dependents), per flow edge (facts carried across it)
  /// and per node (facts touching it). Entries are checked when walked,
  /// and freed links are reused.
  struct Link {
    FactId Fact;
    uint32_t Next;
  };
  static constexpr uint32_t NoLink = ~0u;

  void link(uint32_t &Head, FactId Fact);
  /// Indexes \p Id's current derivation: its premises' dependent chains
  /// and, for a FlowEdge derivation, the edge it crossed.
  void indexDerivation(FactId Id);
  /// True when \p Id's current derivation propagated it from \p From.
  bool carriedAcross(FactId Id, graph::NodeId From) const {
    const Derivation &D = Derivs[Id];
    return D.Rule == DerivRule::FlowEdge && D.Premises[0] != NoFact &&
           Facts[D.Premises[0]].A == From;
  }
  /// Walks the chain at \p Head, calling \p Keep(fact) per entry and
  /// unlinking (and freeing) each entry it returns false for.
  template <typename F> void walk(uint32_t &Head, F Keep) {
    for (uint32_t *L = &Head; *L != NoLink;) {
      Link &Cur = Links[*L];
      if (Keep(Cur.Fact)) {
        L = &Cur.Next;
        continue;
      }
      uint32_t Freed = *L;
      *L = Cur.Next;
      Links[Freed].Next = FreeLinks;
      FreeLinks = Freed;
    }
  }

  /// Per-kind fact index; NodeId pairs do not collide across kinds.
  std::array<support::FlatIdMap<FactId>, NumFactKinds> IndexByKind;
  std::vector<Fact> Facts;
  std::vector<Derivation> Derivs;
  /// Retracted facts, one flag per fact.
  std::vector<bool> Dead;
  std::vector<Link> Links;
  uint32_t FreeLinks = NoLink;
  /// Per fact: the chain of facts whose derivation cited it.
  std::vector<uint32_t> DepHead;
  /// Per flow edge (From, To): the chain of FlowEdge facts across it.
  support::FlatIdMap<uint32_t> EdgeUseHead;
  /// Per node: the chain of facts with the node as an endpoint.
  support::FlatIdMap<uint32_t> NodeHead;
  uint32_t MaxDepth = 0;
  size_t ApproxFacts = 0;
  const graph::ConstraintGraph *G = nullptr;
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_PROVENANCE_H
