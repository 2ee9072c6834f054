//===- PhasedSolver.h - The paper's literal 3-phase pipeline ----*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second, independently written solver that follows Section 4.3's
/// phase structure literally:
///
///   Phase R ("reachability"): "uses graph reachability to compute
///   relationships that do not depend on operation nodes" — ids,
///   activities, listeners, and other non-view values propagate along the
///   statically-built flow edges.
///
///   Phase I ("inflation"): "Inflate nodes are processed (based on
///   reaching layout ids) to create inflated view nodes and the
///   parent-child edges for them", including the INFLATE2 association
///   between activities and root views.
///
///   Phase P ("propagation"): "a fixed-point computation propagates views
///   through the constraint graph", firing the Section 4.2 rules;
///   callback modeling adds edges mid-phase exactly as the paper
///   describes ("the analysis simply adds constraint graph nodes and
///   edges to simulate the corresponding semantic effects"), so phase P
///   also re-propagates the non-view values those edges carry.
///
/// The fused Solver (Solver.h) merges the phases into one monotone
/// worklist; both must compute identical solutions. The differential
/// tests run both over the whole corpus and compare every flowsTo set and
/// every relationship edge — a two-implementation check of the fixpoint
/// engine.
///
/// This solver is the differential-testing oracle for the fused engine,
/// so its value lies in staying simple and independently convincing, not
/// fast. It only ever solves a freshly built graph from scratch: it
/// records no provenance (`--explain` and the incremental session's
/// retraction closure read the fused Solver's) and has no warm start.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_PHASEDSOLVER_H
#define GATOR_ANALYSIS_PHASEDSOLVER_H

#include "analysis/GuiAnalysis.h"
#include "analysis/Options.h"
#include "android/AndroidModel.h"
#include "layout/Layout.h"

#include <memory>

namespace gator {
namespace analysis {

/// GuiAnalysis::runWith with the 3-phase pipeline as its solver step, so
/// build and fidelity marking are GuiAnalysis::run's. Fail-soft:
/// graph-construction errors yield a result whose solution is marked
/// DegradedInput rather than a null pointer.
std::unique_ptr<AnalysisResult>
runPhasedAnalysis(const ir::Program &P, layout::LayoutRegistry &Layouts,
                  const android::AndroidModel &AM,
                  const AnalysisOptions &Options, DiagnosticEngine &Diags);

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_PHASEDSOLVER_H
