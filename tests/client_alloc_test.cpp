//===- client_alloc_test.cpp - Event-sequence client allocations *- C++ -*-===//
//
// Guards the cost model of the default client (docs/MEMORY.md, "Clients
// and rendering"): enumerating and printing launcher event sequences
// resolves only the calls its handlers reach, so the number of heap
// allocations it makes follows what it prints, not the size of the
// program. A counting global operator new, armed only around the
// measured calls, does the counting.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "guimodel/GuiModel.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

namespace {

std::atomic<bool> Counting{false};
std::atomic<size_t> Allocations{0};

} // namespace

void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free with the
// operator new it sees at the call site.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

namespace {

using namespace gator;

struct ClientRun {
  size_t Allocations = 0;
  std::string Text;
  size_t Classes = 0;
};

/// Generates and analyzes an app with \p FillerClasses filler classes,
/// then counts the allocations of the CLI's default client: the launcher
/// event sequences, enumerated and printed.
ClientRun runDefaultClient(unsigned FillerClasses) {
  corpus::AppSpec Spec;
  Spec.Name = "Alloc";
  Spec.Seed = 3;
  Spec.Activities = 4;
  Spec.FillerClasses = FillerClasses;
  Spec.MethodsPerFillerClass = 6;
  Spec.ListenersPerActivity = 3;
  Spec.DirectFindsPerActivity = 3;
  Spec.EmitTransitions = true;
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  auto Result = test::runAnalysis(*App.Bundle);
  const ir::ClassDecl *Start = App.Bundle->Program.findClass("AllocActivity0");
  EXPECT_NE(Start, nullptr);

  ClientRun Run;
  Run.Classes = App.Bundle->Program.classes().size();
  std::ostringstream OS;
  OS << ""; // the stream's first write may set up its buffer
  Allocations.store(0);
  Counting.store(true);
  guimodel::printEventSequences(
      OS, *Result, guimodel::enumerateEventSequences(*Result, Start, 5, 64));
  Counting.store(false);
  Run.Allocations = Allocations.load();
  Run.Text = OS.str();
  return Run;
}

TEST(ClientAllocTest, EventSequenceAllocationsDoNotGrowWithTheProgram) {
  const ClientRun Small = runDefaultClient(40);
  const ClientRun Large = runDefaultClient(80);
  ASSERT_GT(Large.Classes, Small.Classes + 35);
  // The filler bulk does not change the GUI, so the output is the same.
  ASSERT_FALSE(Small.Text.empty());
  EXPECT_EQ(Small.Text, Large.Text);
  EXPECT_EQ(Small.Allocations, Large.Allocations)
      << Small.Classes << " vs " << Large.Classes << " classes";
}

} // namespace
