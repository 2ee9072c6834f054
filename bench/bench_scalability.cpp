//===- bench_scalability.cpp - Cost scaling ---------------------*- C++ -*-===//
//
// Measures how analysis cost scales with application size, supporting the
// paper's claim that "even for the larger programs, the analysis time is
// very practical" (Section 5). Sweeps the number of activities (each
// adding a layout, find-view, listener, and programmatic-view traffic) and
// the filler-code volume, fits each sweep to cost = slope * N by least
// squares, and reports the RMS residual of the fit relative to the mean
// cost. Then times app generation, the fused against the phased solver,
// and parsing the ConnectBot example.
//
// Every point is the median of a fixed number of repetitions; the bench
// takes no flags.
//
//===----------------------------------------------------------------------===//

#include "analysis/GuiAnalysis.h"
#include "analysis/PhasedSolver.h"
#include "corpus/ConnectBot.h"
#include "corpus/Corpus.h"
#include "parser/Parser.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using namespace gator::corpus;

namespace {

constexpr unsigned Repetitions = 20;

AppSpec sweepSpec(unsigned Activities, unsigned FillerClasses) {
  AppSpec Spec;
  Spec.Name = "Sweep";
  Spec.Seed = 7;
  Spec.Activities = Activities;
  Spec.FillerClasses = FillerClasses;
  Spec.MethodsPerFillerClass = 5;
  Spec.ViewsPerLayout = 12;
  Spec.IdsPerLayout = 7;
  Spec.DirectFindsPerActivity = 3;
  Spec.ListenersPerActivity = 2;
  Spec.ProgViewsPerActivity = 1;
  Spec.InflateItemsPerActivity = 1;
  return Spec;
}

GeneratedApp generateOrDie(const AppSpec &Spec) {
  GeneratedApp App = generateApp(Spec);
  if (App.Bundle->Diags.hasErrors()) {
    std::fprintf(stderr, "generation failed\n");
    std::exit(1);
  }
  return App;
}

double median(std::vector<double> Micros) {
  std::sort(Micros.begin(), Micros.end());
  return Micros[Micros.size() / 2];
}

/// Median wall time of Body over the fixed repetitions, in microseconds.
template <typename Fn> double medianMicros(Fn &&Body) {
  std::vector<double> Micros;
  for (unsigned I = 0; I < Repetitions; ++I) {
    Timer T;
    Body();
    Micros.push_back(T.seconds() * 1e6);
  }
  return median(std::move(Micros));
}

/// Full pipeline (generation excluded), result teardown included.
void analyze(const GeneratedApp &App) {
  DiagnosticEngine Diags;
  GuiAnalysis::run(App.Bundle->Program, *App.Bundle->Layouts,
                   App.Bundle->Android, AnalysisOptions(), Diags);
}

/// Times the full pipeline at each point of one sweep and prints the
/// points, the least-squares slope of cost = slope * N, and the RMS
/// residual of that fit as a share of the mean cost.
template <typename SpecFn>
void sweep(const char *Title, const char *Unit,
           const std::vector<unsigned> &Points, SpecFn &&Spec) {
  std::printf("%s\n", Title);
  std::vector<double> Micros;
  for (unsigned N : Points) {
    const GeneratedApp App = generateOrDie(Spec(N));
    Micros.push_back(medianMicros([&] { analyze(App); }));
    std::printf("  %6u  %10.1f us\n", N, Micros.back());
  }
  double NT = 0, NN = 0, Mean = 0;
  for (size_t I = 0; I < Points.size(); ++I) {
    NT += Points[I] * Micros[I];
    NN += double(Points[I]) * Points[I];
    Mean += Micros[I] / Points.size();
  }
  const double Slope = NT / NN;
  double Squares = 0;
  for (size_t I = 0; I < Points.size(); ++I) {
    const double Residual = Micros[I] - Slope * Points[I];
    Squares += Residual * Residual / Points.size();
  }
  std::printf("  fit: %.1f us per %s, RMS residual %.0f%% of the mean\n\n",
              Slope, Unit, 100.0 * std::sqrt(Squares) / Mean);
}

} // namespace

int main() {
  std::printf("Scalability: analysis cost vs. application size (median of "
              "%u runs per point)\n\n",
              Repetitions);

  sweep("activities (50 filler classes)", "activity", {2, 4, 8, 16, 32, 64},
        [](unsigned N) { return sweepSpec(N, 50); });
  // The analysis should be barely sensitive to non-GUI code: op-free
  // code only contributes propagation edges.
  sweep("filler classes (6 activities)", "filler class", {16, 64, 256, 1024},
        [](unsigned N) { return sweepSpec(6, N); });

  // App generation is corpus infrastructure, not the analysis.
  std::printf("app generation (100 filler classes)\n");
  for (unsigned N : {4u, 16u}) {
    const AppSpec Spec = sweepSpec(N, 100);
    std::printf("  %6u activities  %10.1f us\n", N,
                medianMicros([&] { generateApp(Spec); }));
  }

  // Fused worklist solver vs. the literal phased pipeline: the same
  // solution (differential tests prove it) from different engines. The
  // runs alternate so both engines see the same machine state.
  const GeneratedApp Solver = generateOrDie(sweepSpec(16, 200));
  std::vector<double> FusedRuns, PhasedRuns;
  for (unsigned I = 0; I < Repetitions; ++I) {
    Timer T;
    analyze(Solver);
    FusedRuns.push_back(T.seconds() * 1e6);
    T.reset();
    DiagnosticEngine Diags;
    runPhasedAnalysis(Solver.Bundle->Program, *Solver.Bundle->Layouts,
                      Solver.Bundle->Android, AnalysisOptions(), Diags);
    PhasedRuns.push_back(T.seconds() * 1e6);
  }
  const double Fused = median(std::move(FusedRuns));
  const double Phased = median(std::move(PhasedRuns));
  std::printf("\nsolver engines (16 activities, 200 filler classes)\n");
  std::printf("  fused   %10.1f us\n  phased  %10.1f us\n", Fused, Phased);
  std::printf("  phased/fused cost ratio %.2f\n", Phased / Fused);

  // Frontend: lex + parse + lower the ConnectBot example.
  const char *Source = connectBotAliteSource();
  bool Parsed = true;
  const double Parse = medianMicros([&] {
    ir::Program P;
    DiagnosticEngine Diags;
    android::AndroidModel AM;
    AM.install(P);
    Parsed &= parser::parseAlite(Source, "connectbot.alite", P, Diags);
  });
  if (!Parsed) {
    std::fprintf(stderr, "ConnectBot failed to parse\n");
    return 1;
  }
  std::printf("\nparse ConnectBot  %10.1f us\n", Parse);
  return 0;
}
