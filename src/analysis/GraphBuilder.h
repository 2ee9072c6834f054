//===- GraphBuilder.h - Constraint graph construction -----------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 1 of Section 4.3: "the analysis creates the constraint graph edges
/// that can be directly inferred from program statements". All application
/// methods are considered executable; polymorphic calls are resolved with
/// class-hierarchy information; calls to application methods contribute
/// parameter/return edges; occurrences of Android APIs become operation
/// nodes; activity lifecycle callbacks seed activity nodes into `this`
/// variables.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_GRAPHBUILDER_H
#define GATOR_ANALYSIS_GRAPHBUILDER_H

#include "analysis/Options.h"
#include "analysis/Solution.h"
#include "android/AndroidModel.h"
#include "graph/ConstraintGraph.h"
#include "hier/ClassHierarchy.h"
#include "layout/Layout.h"

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gator {
namespace support {
class TraceSink;
} // namespace support

namespace analysis {

/// Builds the statement-derived part of the constraint graph.
class GraphBuilder {
public:
  /// \p Layouts is mutable because view ids referenced only from code
  /// (e.g. used with setId on programmatic views) are interned on demand.
  GraphBuilder(const ir::Program &P, layout::LayoutRegistry &Layouts,
               const android::AndroidModel &AM,
               const hier::ClassHierarchy &CH, DiagnosticEngine &Diags)
      : P(P), Layouts(Layouts), AM(AM), CH(CH), Diags(Diags) {}

  /// Populates \p G and \p Ops. Returns false on (non-fatal) errors.
  bool build(graph::ConstraintGraph &G, std::vector<OpSite> &Ops);

  /// Attaches a span sink for build sub-phases (docs/OBSERVABILITY.md);
  /// null disables tracing. Must outlive build().
  void setTrace(support::TraceSink *Sink) { Trace = Sink; }

  /// Enables/disables unknown-source modeling (docs/ROBUSTNESS.md): when on,
  /// reflective construction, non-constant ids, and missing layout resources
  /// become tagged UnknownView/UnknownId nodes instead of dropped facts.
  void setModelUnknownSources(bool On) { ModelUnknown = On; }

  //===--------------------------------------------------------------------===//
  // Edit-scale rebuild support (docs/INCREMENTAL.md)
  //===--------------------------------------------------------------------===//

  /// Builds one method body alone: reanalyzeMethod's rebuild of an
  /// edited method against the graph of the whole app.
  void buildOneMethod(graph::ConstraintGraph &G, std::vector<OpSite> &Ops,
                      const ir::MethodDecl &M) {
    buildMethod(G, Ops, M);
  }

  /// When set, every flow edge a method body contributes is appended to
  /// \p J: the EDB footprint an edit-scale retraction later removes. The
  /// activity seeding edges belong to no method and are not journaled.
  void setEdgeJournal(std::vector<std::pair<graph::NodeId, graph::NodeId>> *J) {
    Journal = J;
  }

  /// When set, build() calls \p Fn after each method body, so a caller
  /// can cut the journal and the op table into per-method footprints.
  using MethodBuiltFn = std::function<void(const ir::MethodDecl &)>;
  void setMethodBuilt(MethodBuiltFn Fn) { MethodBuilt = std::move(Fn); }

  /// When set, buildOpSite offers each new site (roles resolved, OpNode
  /// not yet minted) to this callback, which may return the index of a
  /// resurrectable dead op with the same kind and roles; the site then
  /// reuses that slot and its OpNode, keeping op indices stable as memo
  /// keys. Return ~0u to mint fresh.
  using OpReuseFn = std::function<uint32_t(const OpSite &)>;
  void setOpReuse(OpReuseFn Fn) { OpReuse = std::move(Fn); }

private:
  void buildResourceNodes(graph::ConstraintGraph &G);
  void buildActivityNodes(graph::ConstraintGraph &G);
  void buildMethod(graph::ConstraintGraph &G, std::vector<OpSite> &Ops,
                   const ir::MethodDecl &M);
  void buildInvoke(graph::ConstraintGraph &G, std::vector<OpSite> &Ops,
                   const ir::MethodDecl &M, const ir::Stmt &S);
  void buildOpSite(graph::ConstraintGraph &G, std::vector<OpSite> &Ops,
                   const ir::MethodDecl &M, const ir::Stmt &S,
                   const android::OpSpec &Spec);
  void buildCallEdges(graph::ConstraintGraph &G, const ir::MethodDecl &M,
                      const ir::Stmt &S,
                      const std::vector<const ir::MethodDecl *> &Targets);

  /// The class a variable's declared type names, or null (untyped or
  /// unknown). One symbol probe: IR names are interned.
  const ir::ClassDecl *declaredClass(const ir::Variable &V) const {
    return V.TypeName.empty() ? nullptr : P.findClass(V.TypeName);
  }

  /// All method-body flow edges funnel through here so the edit journal
  /// sees exactly the EDB each body *contributes* — including re-adds of
  /// edges already present. An edit-scale rebuild runs against
  /// a graph that still holds the old body's edges; an identical
  /// contribution (say, the shared common-id edge into a same-named
  /// local) dedups in the graph but must still land in the footprint, or
  /// the diff would count it as removed and retract live facts.
  void addFlow(graph::ConstraintGraph &G, graph::NodeId From,
               graph::NodeId To) {
    G.addFlowEdge(From, To);
    if (Journal)
      Journal->emplace_back(From, To);
  }

  const ir::Program &P;
  layout::LayoutRegistry &Layouts;
  const android::AndroidModel &AM;
  const hier::ClassHierarchy &CH;
  DiagnosticEngine &Diags;

  support::TraceSink *Trace = nullptr;
  bool ModelUnknown = true;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> *Journal = nullptr;
  OpReuseFn OpReuse;
  MethodBuiltFn MethodBuilt;
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_GRAPHBUILDER_H
