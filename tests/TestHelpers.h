//===- TestHelpers.h - Shared fixtures for gator tests ----------*- C++ -*-===//

#ifndef GATOR_TESTS_TESTHELPERS_H
#define GATOR_TESTS_TESTHELPERS_H

#include "analysis/AppStats.h"
#include "analysis/GuiAnalysis.h"
#include "corpus/AppBundle.h"
#include "layout/Layout.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gator {
namespace test {

/// Builds a finalized AppBundle from ALite source text plus named layout
/// XML documents. Fails the current test on any diagnostic error.
inline std::unique_ptr<corpus::AppBundle>
makeBundle(const std::string &Source,
           const std::vector<std::pair<std::string, std::string>> &Layouts =
               {}) {
  auto App = std::make_unique<corpus::AppBundle>();
  App->Android.install(App->Program);
  bool Ok = parser::parseAlite(Source, "test.alite", App->Program, App->Diags);
  for (const auto &[Name, Xml] : Layouts)
    Ok &= layout::readLayoutXml(*App->Layouts, Name, Xml, App->Diags) !=
          nullptr;
  Ok &= App->finalize();
  if (!Ok || App->Diags.hasErrors()) {
    std::ostringstream OS;
    App->Diags.print(OS);
    ADD_FAILURE() << "bundle build failed:\n" << OS.str();
  }
  return App;
}

/// Runs the GUI analysis over a bundle.
inline std::unique_ptr<analysis::AnalysisResult>
runAnalysis(corpus::AppBundle &App,
            const analysis::AnalysisOptions &Options = {}) {
  auto Result = analysis::GuiAnalysis::run(App.Program, *App.Layouts,
                                           App.Android, Options, App.Diags);
  if (!Result)
    ADD_FAILURE() << "analysis failed";
  return Result;
}

/// Variable node lookup by (class, method/arity, var).
inline graph::NodeId varNode(corpus::AppBundle &App,
                             analysis::AnalysisResult &Result,
                             const std::string &ClassName,
                             const std::string &Method, unsigned Arity,
                             const std::string &Var) {
  const ir::ClassDecl *C = App.Program.findClass(ClassName);
  EXPECT_NE(C, nullptr) << ClassName;
  const ir::MethodDecl *M = C->findOwnMethod(Method, Arity);
  EXPECT_NE(M, nullptr) << Method;
  ir::VarId V = M->findVar(Var);
  EXPECT_NE(V, ir::InvalidVar) << Var;
  return Result.Graph->getVarNode(M, V);
}

/// Class names of the views reaching a node, sorted.
inline std::vector<std::string> viewClassesAt(analysis::AnalysisResult &Result,
                                              graph::NodeId N) {
  std::vector<std::string> Names;
  for (graph::NodeId V : Result.Sol->viewsAt(N))
    Names.push_back(Result.Graph->node(V).Klass->name().str());
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// A record in which every field of GATOR_APP_STATS_FIELDS, each array
/// slot included, holds a distinct nonzero value: the N-th number is
/// Scale * N (plus Scale / 2.0 for a double), the fidelity DegradedInput
/// for Scale 1 and TruncatedBudget otherwise. Slot 0 of the reason
/// breakdown (UnknownReason::None) stays zero, as in a collected record.
/// An encoding that drops a field reads it back as zero.
inline analysis::AppStats distinctAppStats(unsigned Scale = 1) {
  using namespace analysis;
  AppStats S;
  S.Name = "Distinct" + std::to_string(Scale);
  unsigned long N = 0;
  auto Number = [&](auto &V) {
    using T = std::remove_reference_t<decltype(V)>;
    if constexpr (std::is_same_v<T, double>)
      V = Scale * ++N + Scale / 2.0;
    else
      V = static_cast<T>(Scale * ++N);
  };
  forEachAppStatsField(
      [&](const AppStatsField &, auto &V) {
        using T = std::remove_reference_t<decltype(V)>;
        if constexpr (std::is_same_v<T, Fidelity>) {
          V = Scale == 1 ? Fidelity::DegradedInput : Fidelity::TruncatedBudget;
        } else if constexpr (std::is_array_v<T>) {
          for (size_t I = std::is_same_v<T, ReasonCounts> ? 1 : 0;
               I < std::extent_v<T>; ++I)
            Number(V[I]);
        } else {
          Number(V);
        }
      },
      S);
  return S;
}

/// The keys of the fields in which \p A and \p B differ ("key[slot]" for
/// an array slot), in list order; the names are not compared.
inline std::vector<std::string> differingFields(const analysis::AppStats &A,
                                                const analysis::AppStats &B) {
  using namespace analysis;
  std::vector<std::string> Keys;
  forEachAppStatsField(
      [&](const AppStatsField &F, const auto &X, const auto &Y) {
        if constexpr (std::is_array_v<std::remove_reference_t<decltype(X)>>) {
          for (size_t I = 0; I < std::size(X); ++I)
            if (X[I] != Y[I])
              Keys.push_back(std::string(F.Key) + "[" + std::to_string(I) +
                             "]");
        } else if (X != Y) {
          Keys.push_back(F.Key);
        }
      },
      A, B);
  return Keys;
}

} // namespace test
} // namespace gator

#endif // GATOR_TESTS_TESTHELPERS_H
