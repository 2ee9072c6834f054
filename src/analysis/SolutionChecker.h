//===- SolutionChecker.h - A-posteriori fixed-point validation --*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates that a computed solution is actually a fixed point of the
/// inference rules of Section 4.2 — the analysis analogue of an IR
/// verifier. Checked closure properties:
///
///  1. Flow closure: for every flow edge n -> n' between value-carrying
///     nodes, flowsTo(n) ⊆ flowsTo(n') (modulo declared-type filtering
///     when enabled).
///  2. ADDVIEW2 closure: every (parent view, child view) pair reaching an
///     AddView2 node is connected by a parent-child edge.
///  3. SETID closure: every (view, id) pair reaching a SetId node has a
///     has-id edge.
///  4. SETLISTENER closure: every (view, listener) pair reaching a
///     SetListener node has a listener association edge.
///  5. FINDVIEW closure: every view the rule computes from the final
///     state is present in the operation's output variable.
///  6. INFLATE closure: every layout id reaching an Inflate node has a
///     minted view tree at that site (root with a roots-layout edge).
///  7. ADDVIEW1/INFLATE2 closure: every window value reaching the
///     receiver has a root edge to the respective root view(s).
///  8. Callback closure (under ModelListenerCallbacks): for every (view,
///     listener) pair reaching a SetListener node and every handler of
///     the op's listener spec the listener's class dispatches, the
///     listener is in the handler's `this` and the view in its view
///     parameter. Under ModelXmlOnClickHandlers the same holds for every
///     view with an `android:onClick` attribute in a window's hierarchy:
///     it has the window as listener, and the named handler receives both.
///
/// Used by the property tests across the whole corpus and on incremental
/// sessions after each edit; failures indicate solver bugs (premature
/// termination, missed re-firing). Dead op sites and retired nodes of an
/// incremental session are exempt.
///
/// Partial solutions (docs/ROBUSTNESS.md): a solution marked
/// TruncatedBudget or DegradedInput is deliberately not a fixed point, so
/// the closure properties above do not apply. Such solutions are instead
/// held to the weaker *consistency* contract — every recorded fact is
/// well-formed (valid node ids of the right kinds, in-range unresolved-op
/// indices, coherent fidelity markers, minted views self-seeded) even
/// though facts may be missing.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_SOLUTIONCHECKER_H
#define GATOR_ANALYSIS_SOLUTIONCHECKER_H

#include "analysis/GuiAnalysis.h"

#include <string>
#include <vector>

namespace gator {
namespace analysis {

/// Checks a solution against the contract its fidelity marker promises:
/// full closure (plus consistency) for Complete solutions, consistency
/// only for partial ones. Returns the list of violations (empty when the
/// solution honors its contract). An IncrementalAnalysis session is
/// checked through its result().
std::vector<std::string> checkSolutionClosure(const AnalysisResult &Result);

/// The structural-consistency half alone: valid for any solution,
/// including truncated and degraded ones.
std::vector<std::string>
checkSolutionConsistency(const AnalysisResult &Result);

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_SOLUTIONCHECKER_H
