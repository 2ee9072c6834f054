//===- ContextRefinement.h - Call-site cloning of helpers -------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The context-sensitivity refinement the paper's case study motivates
/// (Section 5): the XBMC outlier's imprecision "is due to the
/// calling-context-insensitive nature of the analysis; applying existing
/// techniques for context sensitivity would lead to an even more precise
/// solution". This pass implements the lightest such technique: per
/// call-site cloning of small view-returning helper methods (the
/// `findViewById` wrapper pattern of Figure 1, lines 3-7). After cloning,
/// each call site has a private copy of the helper's variables, so views
/// flowing through one site no longer pollute the others.
///
/// The pass mutates the Program in place (adds clone methods, rewrites
/// call sites); run it before building the constraint graph.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_CONTEXTREFINEMENT_H
#define GATOR_ANALYSIS_CONTEXTREFINEMENT_H

#include "android/AndroidModel.h"
#include "ir/Ir.h"

namespace gator {
namespace analysis {

/// Maximum statement count for a method to be considered a cloneable
/// helper; the value every caller of the refinement uses.
inline constexpr unsigned DefaultHelperMaxStmts = 12;

struct ContextRefinementStats {
  unsigned HelpersCloned = 0;
  unsigned CallSitesRewritten = 0;
};

/// Clones every eligible helper per call site. A method is eligible when
/// it (1) is a concrete application method, (2) has at most
/// \p MaxHelperStmts statements, (3) returns a view type, (4) is the
/// unique CHA target at each rewritten call site, and (5) is called from
/// more than one site. Requires \p P resolved and \p AM bound;
/// re-resolves \p P before returning.
ContextRefinementStats applyContextRefinement(ir::Program &P,
                                              const android::AndroidModel &AM,
                                              unsigned MaxHelperStmts,
                                              DiagnosticEngine &Diags);

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_CONTEXTREFINEMENT_H
