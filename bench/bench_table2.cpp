//===- bench_table2.cpp - Reproduce Table 2 ---------------------*- C++ -*-===//
//
// Regenerates Table 2 of the paper: per-app analysis running time and the
// four precision averages (receivers, parameters, results, listeners) over
// the 20-app corpus. Paper-reported reference values are printed alongside
// the measured ones (parameters/results/listeners reference values beyond
// the receivers column are not all recoverable from the paper text; where
// unavailable the reference is the qualitative bound the paper states:
// "less than 2 for all but one application").
//
//===----------------------------------------------------------------------===//

#include "analysis/AppStats.h"
#include "corpus/Corpus.h"

#include <cstdio>
#include <iostream>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;

namespace {

/// Paper Table 2: analysis time (s) and avg receivers, per app in corpus
/// order. Times are from the authors' 2013-era machine; only the shape
/// (all small, growing with app size) is expected to transfer.
struct PaperRow {
  double TimeSec;
  double Receivers;
};
constexpr PaperRow PaperTable2[20] = {
    {0.39, 1.00}, {4.92, 3.09}, {0.65, 1.00}, {1.17, 1.04}, {1.21, 1.00},
    {3.28, 1.54}, {4.30, 1.15}, {2.09, 1.80}, {0.41, 2.55}, {1.55, 1.12},
    {0.87, 1.89}, {0.63, 1.00}, {0.39, 1.31}, {0.66, 1.40}, {0.88, 1.00},
    {0.31, 2.07}, {0.18, 1.15}, {1.15, 1.13}, {0.30, 1.00}, {1.74, 8.81},
};

std::string fmtOpt(const std::optional<double> &V) {
  if (!V)
    return "-";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", *V);
  return Buf;
}

} // namespace

int main() {
  std::printf("Table 2: analysis running time and average solution sizes\n");
  std::printf("(paper values in brackets; paper times are on the authors' "
              "hardware)\n\n");
  std::printf("%-16s %14s %18s %12s %10s %11s\n", "app", "time(s)[paper]",
              "receivers[paper]", "parameters", "results", "listeners");

  // One app at a time; the printed time is the analysis's own
  // build+solve clock.
  const std::vector<AppSpec> &Corpus = paperCorpus();
  std::vector<AppStats> Telemetry;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const AppSpec &Spec = Corpus[I];
    GeneratedApp App = generateApp(Spec);
    AppBundle &B = *App.Bundle;
    if (B.Diags.hasErrors()) {
      std::fprintf(stderr, "generation failed for %s\n", Spec.Name.c_str());
      B.Diags.print(std::cerr);
      return 1;
    }
    auto Result = GuiAnalysis::run(B.Program, *B.Layouts, B.Android,
                                   AnalysisOptions(), B.Diags);
    double Elapsed = Result->BuildSeconds + Result->SolveSeconds;
    const auto M = Result->metrics();
    std::printf("%-16s %6.3f [%4.2f] %8.2f [%5.2f] %12s %10s %11s\n",
                Spec.Name.c_str(), Elapsed, PaperTable2[I].TimeSec,
                M.AvgReceivers, PaperTable2[I].Receivers,
                fmtOpt(M.AvgParameters).c_str(), fmtOpt(M.AvgResults).c_str(),
                fmtOpt(M.AvgListeners).c_str());
    Telemetry.push_back(collectAppStats(Spec.Name, B.Program, *Result));
  }

  std::printf("\nSolver telemetry (difference propagation; "
              "docs/DELTA_SOLVER.md)\n");
  printSolverStatsHeader(std::cout);
  for (const AppStats &S : Telemetry)
    printSolverStatsRow(std::cout, S);
  return 0;
}
