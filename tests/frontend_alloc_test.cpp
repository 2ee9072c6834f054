//===- frontend_alloc_test.cpp - Frontend heap allocations -----*- C++ -*-===//
//
// Guards the allocation budget of the ALite frontend (docs/MEMORY.md,
// "Frontend"): lexAll makes a fixed number of heap allocations per file,
// none per token, and under 3 bytes per token; parseAlite allocates per
// table growth, not per statement. A counting global operator new, armed
// only around the measured call, does the counting.
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

namespace {

std::atomic<bool> Counting{false};
std::atomic<size_t> Allocations{0};
std::atomic<size_t> AllocatedBytes{0};

} // namespace

void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed)) {
    Allocations.fetch_add(1, std::memory_order_relaxed);
    AllocatedBytes.fetch_add(Size, std::memory_order_relaxed);
  }
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
using namespace gator::parser;

/// Heap allocations made while \p Fn runs.
template <typename FnT> size_t countAllocations(FnT Fn) {
  Allocations.store(0);
  AllocatedBytes.store(0);
  Counting.store(true);
  Fn();
  Counting.store(false);
  return Allocations.load();
}

/// ALite text of at least \p Bytes bytes in the shape of the exported
/// corpus: qualified names, every statement form, resource references and
/// both comment styles.
std::string generateAlite(size_t Bytes) {
  std::string Out;
  for (unsigned I = 0; Out.size() < Bytes; ++I) {
    const std::string N = std::to_string(I);
    Out += "// generated class " + N + "\n";
    Out += "class corpus.app.Screen" + N +
           " extends android.app.Activity implements "
           "android.view.View.OnClickListener {\n"
           "  field static counter: int;\n"
           "  field title" + N + ": android.widget.TextView;\n"
           "  method onCreate(b: android.os.Bundle) {\n"
           "    var v: android.view.View;\n"
           "    var id: int;\n"
           "    /* inflate the main layout */\n"
           "    id := @layout/main_" + N + ";\n"
           "    this.setContentView(id);\n"
           "    id := @id/button_" + N + ";\n"
           "    v := this.findViewById(id);\n"
           "    v.setOnClickListener(this);\n"
           "    v := new android.widget.Button(v);\n"
           "    this.title" + N + " := v;\n"
           "    static corpus.app.Globals.last := v;\n"
           "    return;\n"
           "  }\n"
           "  method onClick(v: android.view.View) {\n"
           "    var c: java.lang.Class;\n"
           "    c := classof corpus.app.Screen" + N + ";\n"
           "    return;\n"
           "  }\n"
           "}\n";
  }
  return Out;
}

size_t lexAllocations(const std::string &Input, size_t &Tokens) {
  DiagnosticEngine Diags;
  Lexer L(Input, "corpus/Generated/app.alite", Diags);
  TokenBuffer Result;
  size_t Count = countAllocations([&] { Result = L.lexAll(); });
  EXPECT_FALSE(Diags.hasErrors());
  Tokens = Result.size();
  return Count;
}

TEST(FrontendAllocTest, LexAllocationsDoNotGrowWithTokens) {
  const std::string Small = generateAlite(10 * 1024);
  const std::string Large = generateAlite(200 * 1024);
  size_t SmallTokens = 0, LargeTokens = 0;
  size_t SmallAllocs = lexAllocations(Small, SmallTokens);
  size_t LargeAllocs = lexAllocations(Large, LargeTokens);
  EXPECT_GT(LargeTokens, 15 * SmallTokens);
  EXPECT_LE(SmallAllocs, 4u) << SmallTokens << " tokens";
  EXPECT_LE(LargeAllocs, 4u) << LargeTokens << " tokens";
  EXPECT_EQ(SmallAllocs, LargeAllocs);
}

TEST(FrontendAllocTest, LexBytesPerTokenStayCompact) {
  // The token stream's reservation of half the input (1.7 bytes per token
  // here), plus 4 bytes per line for the line starts (1.1 per token): at
  // most 2.85 bytes per token. 8-byte token records took 13.
  const std::string Large = generateAlite(200 * 1024);
  size_t Tokens = 0;
  lexAllocations(Large, Tokens);
  const size_t Bytes = AllocatedBytes.load();
  EXPECT_LE(100 * Bytes, 285 * Tokens)
      << Bytes << " bytes for " << Tokens << " tokens";
}

TEST(FrontendAllocTest, LineStartsAreReservedExactly) {
  // Newlines at every alignment, next to bytes that differ from '\n' only
  // in the high bit or one low bit (comments may hold any byte).
  std::string Input;
  for (unsigned I = 0; I < 300; ++I) {
    Input += 'a';
    Input.append(I % 11, ' ');
    Input += "// \x8a\x0b\x0e\xff\x00";
    Input.append(I % 3 + 1, '\n');
  }
  size_t Tokens = 0;
  EXPECT_EQ(lexAllocations(Input, Tokens), 2u);
  const size_t Lines = std::count(Input.begin(), Input.end(), '\n') + 1;
  EXPECT_EQ(AllocatedBytes.load(),
            TokenBuffer::reservationFor(Input.size()) + Lines * 4);
}

TEST(FrontendAllocTest, ParseAllocationsAreFarFewerThanStatements) {
  // Names are interned straight from the token text and bodies, variable
  // tables and argument lists land on the program's arena, so parsing
  // allocates per table growth, not per statement or name.
  const std::string Large = generateAlite(200 * 1024);
  ir::Program P;
  DiagnosticEngine Diags;
  bool Ok = false;
  size_t Allocs = countAllocations(
      [&] { Ok = parseAlite(Large, "corpus/Generated/app.alite", P, Diags); });
  ASSERT_TRUE(Ok);
  size_t Stmts = 0;
  for (const ir::ClassDecl *C : P.classes())
    for (const ir::MethodDecl *M : C->methods())
      Stmts += M->body().size();
  EXPECT_GT(Stmts, 3000u);
  EXPECT_LT(Allocs, Stmts / 10) << Stmts << " statements";
}

TEST(FrontendAllocTest, InternedFileNameCostsNothingTwice) {
  DiagnosticEngine Diags;
  const std::string Name = "corpus/SomeLongAppName/app.alite";
  Lexer First("a", Name, Diags);
  size_t Count = countAllocations([&] { Lexer Second("b", Name, Diags); });
  EXPECT_EQ(Count, 0u);
}

} // namespace
