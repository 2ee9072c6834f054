//===- TestHelpers.h - Shared fixtures for gator tests ----------*- C++ -*-===//

#ifndef GATOR_TESTS_TESTHELPERS_H
#define GATOR_TESTS_TESTHELPERS_H

#include "analysis/GuiAnalysis.h"
#include "corpus/AppBundle.h"
#include "layout/Layout.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
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

} // namespace test
} // namespace gator

#endif // GATOR_TESTS_TESTHELPERS_H
