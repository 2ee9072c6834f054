//===- Incremental.h - Edit-scale incremental re-solve ----------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delete-and-rederive (DRed) incremental re-solving (docs/INCREMENTAL.md).
/// When an edit touches one method body or one layout file, an
/// IncrementalAnalysis session retracts exactly the facts whose recorded
/// derivations lost support, re-seeds the solver, and re-derives to the
/// same least fixed point a from-scratch solve over the edited program
/// would reach — without re-parsing or re-solving the untouched 99% of
/// the app.
///
/// Three layers:
///  - retractAndClose(): the deletion closure over the provenance fact
///    table. Over-deletion is sound (the re-derive pass restores anything
///    still derivable); under-deletion is what the closure rules out.
///  - IncrementalAnalysis: a long-lived session owning an AnalysisResult
///    (graph, solution, provenance, hierarchy, options), its persistent
///    Solver, and per-method EDB footprints; supports reanalyzeMethod()
///    and reanalyzeLayout().
///  - solutionDigest() / diffBundles() / graftMethodBody(): the
///    differential-testing surface — digest two solutions for semantic
///    equality, diff two parses of an app, and graft an edited body onto
///    the base program in place.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_INCREMENTAL_H
#define GATOR_ANALYSIS_INCREMENTAL_H

#include "analysis/GuiAnalysis.h"
#include "analysis/Options.h"
#include "analysis/Provenance.h"
#include "analysis/Solution.h"
#include "analysis/Solver.h"
#include "android/AndroidModel.h"
#include "graph/ConstraintGraph.h"
#include "ir/Ir.h"
#include "layout/Layout.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gator {
namespace analysis {

//===----------------------------------------------------------------------===//
// Retraction closure
//===----------------------------------------------------------------------===//

/// What one edit invalidated, in graph terms. The session computes these
/// from footprint diffs; the closure derives everything downstream.
struct RetractionInputs {
  /// EDB flow edges the rebuild no longer contributes. Already physically
  /// removed from the graph by the caller; listed here so facts that
  /// propagated across them die.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> RemovedEdges;
  /// Tombstoned op sites the rebuild did not resurrect.
  std::vector<uint32_t> DeadOps;
  /// Nodes that no longer exist semantically (builder-minted unknown
  /// sources of the old body, view subtrees of a dead inflate site or an
  /// edited layout). The closure kills every fact touching them and
  /// retires them in the graph.
  std::vector<graph::NodeId> RetireNodes;
};

/// What the closure deleted; the inputs of the re-derive pass.
struct RetractionResult {
  /// Nodes whose flowsTo sets shrank (retired nodes excluded). The
  /// re-solve must pull their predecessors' full sets back through.
  std::vector<graph::NodeId> Touched;
  /// From-nodes of retracted FlowLink facts: Solver::forgetWiredValue
  /// targets, so fragment/adapter wiring re-fires.
  std::vector<graph::NodeId> WiredValuesForgotten;
  /// (inflate-site OpNode, layout-or-unknown-id node) pairs whose minted
  /// subtree was retired by the closure cascade; the solver must drop
  /// exactly these inflation memo entries so the site re-mints on demand
  /// (dropping more would duplicate surviving subtrees).
  std::vector<std::pair<graph::NodeId, graph::NodeId>> MintsRetired;
  /// Everything retired: the explicit RetireNodes plus minted view
  /// subtrees whose seed fact died in the cascade.
  std::vector<graph::NodeId> RetiredNodes;
  size_t FactsRetracted = 0;
};

/// Deletes the over-approximate consequence set of \p In from \p Sol's
/// flow sets, \p G's relationship edges, and \p Prov's fact table.
///
/// Soundness: a fact is kept only if its *recorded* derivation survives,
/// and recorded derivations are recursively grounded in EDB (seeds and
/// journaled edges), so every kept fact is still genuinely derivable.
/// Completeness: the subsequent re-derive pass (Solver::resolveIncremental)
/// runs the normal monotone rules to quiescence, so any over-deleted fact
/// reappears. See docs/INCREMENTAL.md for the full
/// argument.
RetractionResult retractAndClose(graph::ConstraintGraph &G, Solution &Sol,
                                 ProvenanceRecorder &Prov,
                                 const RetractionInputs &In);

//===----------------------------------------------------------------------===//
// Differential-testing surface
//===----------------------------------------------------------------------===//

/// Canonical text rendering of the externally observable solution: live
/// op sites with their role sets, every non-retired node's flowsTo set,
/// relationship edges, and unresolved-op markers, all under semantic keys
/// (method-qualified variable names, resource ids, layout-node
/// identities) rather than node ids. Two solutions over the *same*
/// program and layout objects digest equal iff they are the same fixed
/// point; node numbering, op order, and retired debris do not matter.
/// In-process comparison only (layout-node identity is by address).
std::string solutionDigest(const Solution &Sol);

/// The difference between a base program and an edited re-parse of it.
struct EditDiff {
  /// (method in base, counterpart in edited) pairs whose bodies differ.
  std::vector<std::pair<ir::MethodDecl *, const ir::MethodDecl *>> Methods;
  /// Layout names whose view trees differ.
  std::vector<std::string> Layouts;
  /// Human-readable reasons the edit is beyond edit-scale re-solving
  /// (class/method/field set changed, signature changed, resource table
  /// changed, edited layout is an <include> target). Non-empty means the
  /// caller must fall back to a full solve.
  std::vector<std::string> Unsupported;
};

/// Structurally compares two parses of one app. \p Base is mutable so the
/// result can carry mutable method pointers for grafting.
EditDiff diffBundles(ir::Program &Base, const ir::Program &Edited,
                     const layout::LayoutRegistry &BaseLayouts,
                     const layout::LayoutRegistry &EditedLayouts);

/// Replaces \p Dst's body with \p Src's, remapping variable ids:
/// parameters by position, locals by name (new locals are appended; old
/// ones linger unreferenced, which the analysis ignores). Returns false
/// when the signatures are incompatible (arity/staticness mismatch).
bool graftMethodBody(ir::MethodDecl &Dst, const ir::MethodDecl &Src);

//===----------------------------------------------------------------------===//
// The session
//===----------------------------------------------------------------------===//

/// A long-lived analysis session over one (mutable) application.
/// solveInitial() is GuiAnalysis::runWith with the session's persistent
/// Solver, journaling each method's EDB footprint as the build goes; a
/// reanalyze call then rebuilds just the edited unit against the old
/// footprint, retracts the difference, and re-derives.
class IncrementalAnalysis {
public:
  /// Provenance recording is forced on regardless of
  /// \p Options.RecordProvenance — the retraction closure is the
  /// provenance consumer.
  IncrementalAnalysis(ir::Program &P, layout::LayoutRegistry &Layouts,
                      const android::AndroidModel &AM,
                      const AnalysisOptions &Options, DiagnosticEngine &Diags);
  ~IncrementalAnalysis();

  /// Full build + solve. Call exactly once, before any reanalyze.
  void solveInitial();

  /// Re-solves after \p M's body was edited in place (via
  /// graftMethodBody). Returns false when the method is outside the
  /// session's footprints (e.g. added after solveInitial) — the caller
  /// must fall back to a full solve.
  bool reanalyzeMethod(ir::MethodDecl &M);

  /// Re-solves after the layout named \p Name changed; \p NewRoot is the
  /// edited view tree (the old tree is neutralized, then replaced).
  /// Returns false (untouched state) when the layout is unknown or is an
  /// <include> target — splicing into includers is beyond edit scale.
  bool reanalyzeLayout(const std::string &Name,
                       std::unique_ptr<layout::LayoutNode> NewRoot);

  /// The session's current state; Stats are the last solve's or
  /// re-derive's. Valid after solveInitial().
  const AnalysisResult &result() const { return *Result; }
  Solution &solution() { return *Result->Sol; }
  const Solution &solution() const { return *Result->Sol; }
  const SolverStats &lastStats() const { return Result->Stats; }
  size_t lastFactsRetracted() const { return LastRetracted; }
  size_t lastTouchedNodes() const { return LastTouched; }

private:
  using NodeId = graph::NodeId;

  struct MethodFootprint {
    std::vector<std::pair<NodeId, NodeId>> Edges;
    std::vector<uint32_t> OpIndices;
  };

  /// Removes \p M's old footprint edges from the return-link index.
  void unindexRetLinks(const graph::ConstraintGraph &G,
                       const ir::MethodDecl &M, const MethodFootprint &FP);
  void indexRetLinks(const graph::ConstraintGraph &G, const ir::MethodDecl &M,
                     const MethodFootprint &FP);
  /// Runs the re-derive pass over the closure result, then the
  /// post-solve fidelity rules against \p CheckFailuresBefore.
  void rederive(const RetractionResult &R,
                const std::vector<NodeId> &ExtraTouched,
                const std::vector<uint32_t> &DeadOps,
                const std::vector<NodeId> &DirtyLayoutNodes,
                unsigned CheckFailuresBefore);

  ir::Program &P;
  layout::LayoutRegistry &Layouts;
  const android::AndroidModel &AM;
  AnalysisOptions Options;
  DiagnosticEngine &Diags;

  std::unique_ptr<AnalysisResult> Result;
  std::unique_ptr<Solver> S; ///< persistent solver, kept across edits

  size_t LastRetracted = 0;
  size_t LastTouched = 0;

  std::unordered_map<const ir::MethodDecl *, MethodFootprint> Footprints;
  /// Callee method -> return-link edges (callee return var node, caller
  /// lhs node) living in *callers'* footprints. When the callee's return
  /// statements change, these are the cross-method edges to fix up.
  std::unordered_map<const ir::MethodDecl *,
                     std::vector<std::pair<NodeId, NodeId>>>
      RetLinksByCallee;
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_INCREMENTAL_H
