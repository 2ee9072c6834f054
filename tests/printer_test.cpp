//===- printer_test.cpp - ALite printer and round-trip ----------*- C++ -*-===//

#include "corpus/ConnectBot.h"
#include "corpus/Corpus.h"
#include "parser/Parser.h"
#include "parser/Printer.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gator;
using namespace gator::ir;
using namespace gator::parser;

namespace {

std::unique_ptr<Program> parse(const std::string &Source) {
  auto P = std::make_unique<Program>();
  DiagnosticEngine Diags;
  EXPECT_TRUE(parseAlite(Source, "t.alite", *P, Diags));
  EXPECT_FALSE(Diags.hasErrors());
  return P;
}

/// Structural equality: the application classes of \p A against all
/// classes of \p B (names, members, statement shapes).
void expectSameStructure(const Program &A, const Program &B) {
  std::vector<const ClassDecl *> AppClasses;
  for (const auto &C : A.classes())
    if (!C->isPlatform())
      AppClasses.push_back(C);
  ASSERT_EQ(AppClasses.size(), B.classes().size());
  for (size_t I = 0; I < AppClasses.size(); ++I) {
    const ClassDecl &CA = *AppClasses[I];
    const ClassDecl &CB = *B.classes()[I];
    EXPECT_EQ(CA.name(), CB.name());
    EXPECT_EQ(CA.isInterface(), CB.isInterface());
    EXPECT_EQ(CA.superName(), CB.superName());
    EXPECT_EQ(CA.interfaceNames(), CB.interfaceNames());
    ASSERT_EQ(CA.fields().size(), CB.fields().size());
    for (size_t J = 0; J < CA.fields().size(); ++J) {
      EXPECT_EQ(CA.fields()[J]->name(), CB.fields()[J]->name());
      EXPECT_EQ(CA.fields()[J]->typeName(), CB.fields()[J]->typeName());
      EXPECT_EQ(CA.fields()[J]->isStatic(), CB.fields()[J]->isStatic());
    }
    ASSERT_EQ(CA.methods().size(), CB.methods().size());
    for (size_t J = 0; J < CA.methods().size(); ++J) {
      const MethodDecl &MA = *CA.methods()[J];
      const MethodDecl &MB = *CB.methods()[J];
      EXPECT_EQ(MA.name(), MB.name());
      EXPECT_EQ(MA.paramCount(), MB.paramCount());
      EXPECT_EQ(MA.returnTypeName(), MB.returnTypeName());
      EXPECT_EQ(MA.isAbstract(), MB.isAbstract());
      ASSERT_EQ(MA.body().size(), MB.body().size())
          << MA.qualifiedName();
      for (size_t K = 0; K < MA.body().size(); ++K) {
        const Stmt &SA = MA.body()[K];
        const Stmt &SB = MB.body()[K];
        ASSERT_EQ(SA.Kind, SB.Kind) << MA.qualifiedName() << " stmt " << K;
        EXPECT_EQ(SA.Lhs, SB.Lhs);
        EXPECT_EQ(SA.Base, SB.Base);
        EXPECT_EQ(SA.Rhs, SB.Rhs);
        if (SA.hasFieldName()) {
          EXPECT_EQ(SA.fieldName(), SB.fieldName());
        }
        if (SA.hasClassName()) {
          EXPECT_EQ(SA.className(), SB.className());
        }
        if (SA.hasResourceName()) {
          EXPECT_EQ(SA.resourceName(), SB.resourceName());
        }
        if (SA.isInvoke()) {
          EXPECT_EQ(SA.methodName(), SB.methodName());
          EXPECT_EQ(SA.args(), SB.args());
        }
      }
    }
  }
}

void expectRoundTrip(const Program &P) {
  std::string Text = programToString(P);
  Program P2;
  DiagnosticEngine Diags;
  ASSERT_TRUE(parseAlite(Text, "roundtrip.alite", P2, Diags))
      << "printed program failed to re-parse:\n"
      << Text;
  // The printer skips platform classes by default, so P2 contains exactly
  // the application classes.
  expectSameStructure(P, P2);
  std::string Text2 = programToString(P2);
  EXPECT_EQ(Text, Text2) << "print -> parse -> print not a fixed point";
}

TEST(PrinterTest, PrintsSimpleClass) {
  auto P = parse("class A extends B.C implements I { field f: A; }");
  std::string Text = programToString(*P);
  EXPECT_NE(Text.find("class A extends B.C implements I {"),
            std::string::npos);
  EXPECT_NE(Text.find("field f: A;"), std::string::npos);
}

TEST(PrinterTest, PrintsAllStatementForms) {
  auto P = parse(R"(
class A {
  field f: A;
  field static s: A;
  method m(p: A): A {
    var x: A;
    var i: int;
    x := p;
    x := new A;
    x := null;
    x := this.f;
    this.f := x;
    x := static A.s;
    static A.s := x;
    i := @layout/main;
    i := @id/button;
    x := classof A;
    x := p.m(x);
    return x;
  }
}
)");
  std::string Text = programToString(*P);
  EXPECT_NE(Text.find("x := new A;"), std::string::npos);
  EXPECT_NE(Text.find("x := null;"), std::string::npos);
  EXPECT_NE(Text.find("x := this.f;"), std::string::npos);
  EXPECT_NE(Text.find("this.f := x;"), std::string::npos);
  EXPECT_NE(Text.find("x := static A.s;"), std::string::npos);
  EXPECT_NE(Text.find("static A.s := x;"), std::string::npos);
  EXPECT_NE(Text.find("i := @layout/main;"), std::string::npos);
  EXPECT_NE(Text.find("i := @id/button;"), std::string::npos);
  EXPECT_NE(Text.find("x := classof A;"), std::string::npos);
  EXPECT_NE(Text.find("x := p.m(x);"), std::string::npos);
  EXPECT_NE(Text.find("return x;"), std::string::npos);
}

TEST(PrinterTest, RoundTripSimple) {
  auto P = parse(R"(
interface I { method h(v: I); }
class A implements I {
  field f: A;
  method h(v: I) { }
  method m(p: A): A {
    var x: A;
    x := p;
    return x;
  }
}
)");
  expectRoundTrip(*P);
}

TEST(PrinterTest, RoundTripConnectBot) {
  auto App = corpus::buildConnectBotExample();
  ASSERT_TRUE(App && !App->Diags.hasErrors());
  expectRoundTrip(App->Program);
}

TEST(PrinterTest, PlatformClassesSkippedByDefault) {
  auto App = corpus::buildConnectBotExample();
  std::string Text = programToString(App->Program);
  EXPECT_EQ(Text.find("platform "), std::string::npos);
  PrintOptions WithPlatform;
  WithPlatform.IncludePlatformClasses = true;
  std::string Full = programToString(App->Program, WithPlatform);
  EXPECT_NE(Full.find("platform class android.app.Activity"),
            std::string::npos);
}

/// Property: every generated corpus app survives print -> parse -> print
/// as a fixed point (exercises printer/parser against thousands of
/// statements of machine-generated code).
class CorpusRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(CorpusRoundTrip, PrintParsePrintFixedPoint) {
  const corpus::AppSpec &Spec = corpus::paperCorpus()[GetParam()];
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  ASSERT_FALSE(App.Bundle->Diags.hasErrors());
  expectRoundTrip(App.Bundle->Program);
}

INSTANTIATE_TEST_SUITE_P(AllCorpusApps, CorpusRoundTrip,
                         ::testing::Range<size_t>(0, 20),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return corpus::paperCorpus()[Info.param].Name;
                         });

} // namespace
