//===- bench_table1.cpp - Reproduce Table 1 ---------------------*- C++ -*-===//
//
// Regenerates Table 1 of the paper: per-app application size (classes,
// methods) and the constraint-graph node inventory — layout/view id nodes,
// inflated vs. explicitly-allocated view nodes, listener allocation nodes,
// and operation nodes per category. The class/method columns are spec
// inputs (taken from the paper); the remaining columns are *measured* from
// the constraint graph the analysis builds, demonstrating the same
// structural claims the paper draws from this table: XML layouts are
// pervasive, view ids are numerous, most views are inflated but explicit
// allocation occurs in most apps, and add-child/set-listener operations
// are common.
//
//===----------------------------------------------------------------------===//

#include "analysis/AppStats.h"
#include "corpus/Corpus.h"

#include <iostream>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;

int main() {
  std::cout << "Table 1: analyzed applications and relevant constraint "
               "graph nodes\n\n";
  printAppStatsHeader(std::cout);

  unsigned AppsWithAllocViews = 0;
  unsigned AppsWithAddView = 0;

  // One app at a time: each app's bundle and solution are dropped before
  // the next app is generated.
  for (const AppSpec &Spec : paperCorpus()) {
    GeneratedApp App = generateApp(Spec);
    AppBundle &B = *App.Bundle;
    if (B.Diags.hasErrors()) {
      std::cerr << "generation failed for " << Spec.Name << "\n";
      B.Diags.print(std::cerr);
      return 1;
    }
    auto Result = GuiAnalysis::run(B.Program, *B.Layouts, B.Android,
                                   AnalysisOptions(), B.Diags);
    const AppStats Stats = collectAppStats(Spec.Name, B.Program, *Result);
    printAppStatsRow(std::cout, Stats);
    if (Stats.AllocViews > 0)
      ++AppsWithAllocViews;
    if (Stats.OpAddView > 0)
      ++AppsWithAddView;
  }

  // The paper's structural observations over this table.
  std::cout << "\npaper: \"explicitly allocated views are also present in "
               "15 out of the 20 applications\"  -> measured: "
            << AppsWithAllocViews << "/20\n";
  std::cout << "paper: \"explicit manipulation of the view hierarchy via "
               "add-child operations occurs in all but four applications\" "
               "-> measured: "
            << AppsWithAddView << "/20\n";
  return 0;
}
