//===- parser_test.cpp - ALite parser unit tests ----------------*- C++ -*-===//

#include "ir/Ir.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gator;
using namespace gator::ir;
using namespace gator::parser;

namespace {

/// Parses source expecting success; returns the Program.
std::unique_ptr<Program> parseOk(const std::string &Source) {
  auto P = std::make_unique<Program>();
  DiagnosticEngine Diags;
  bool Ok = parseAlite(Source, "t.alite", *P, Diags);
  if (!Ok || Diags.hasErrors()) {
    std::ostringstream OS;
    Diags.print(OS);
    ADD_FAILURE() << "parse failed:\n" << OS.str();
  }
  return P;
}

/// Parses source expecting at least one error.
void parseBad(const std::string &Source) {
  Program P;
  DiagnosticEngine Diags;
  bool Ok = parseAlite(Source, "t.alite", P, Diags);
  EXPECT_TRUE(!Ok || Diags.hasErrors()) << "expected parse error";
}

TEST(ParserTest, EmptyClass) {
  auto P = parseOk("class A { }");
  ASSERT_NE(P->findClass("A"), nullptr);
  EXPECT_FALSE(P->findClass("A")->isInterface());
}

TEST(ParserTest, QualifiedClassNamesAndHeritage) {
  auto P = parseOk("interface pkg.I { }\n"
                   "class pkg.sub.A extends pkg.B implements pkg.I, pkg.J "
                   "{ }");
  ClassDecl *A = P->findClass("pkg.sub.A");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->superName(), "pkg.B");
  ASSERT_EQ(A->interfaceNames().size(), 2u);
  EXPECT_EQ(A->interfaceNames()[0], "pkg.I");
  EXPECT_EQ(A->interfaceNames()[1], "pkg.J");
  EXPECT_TRUE(P->findClass("pkg.I")->isInterface());
}

TEST(ParserTest, QualifiedNamesSplitByTriviaJoinWithDots) {
  // Trivia between the parts of a dotted name is not part of it: both
  // spellings intern as "pkg.sub.A", whether the tokens touch or not.
  auto P = parseOk("class pkg . sub /* c */ .A { }\n"
                   "class B extends pkg.sub\n  .A { }");
  ClassDecl *A = P->findClass("pkg.sub.A");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->name(), "pkg.sub.A");
  EXPECT_EQ(P->findClass("B")->superName().symbol(), A->name().symbol());
}

TEST(ParserTest, PlatformModifier) {
  auto P = parseOk("platform class android.x.Y { }");
  EXPECT_TRUE(P->findClass("android.x.Y")->isPlatform());
}

TEST(ParserTest, FieldsStaticAndInstance) {
  auto P = parseOk("class A { field f: A; field static g: int; }");
  ClassDecl *A = P->findClass("A");
  ASSERT_NE(A->findOwnField("f"), nullptr);
  EXPECT_FALSE(A->findOwnField("f")->isStatic());
  ASSERT_NE(A->findOwnField("g"), nullptr);
  EXPECT_TRUE(A->findOwnField("g")->isStatic());
  EXPECT_EQ(A->findOwnField("g")->typeName(), "int");
}

TEST(ParserTest, AbstractMethodViaSemicolon) {
  auto P = parseOk("interface I { method h(v: I): I; }");
  const MethodDecl *H = P->findClass("I")->findOwnMethod("h", 1);
  ASSERT_NE(H, nullptr);
  EXPECT_TRUE(H->isAbstract());
  EXPECT_EQ(H->returnTypeName(), "I");
}

TEST(ParserTest, AllStatementForms) {
  auto P = parseOk(R"(
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
    p.m(x);
    return x;
  }
}
)");
  const MethodDecl *M = P->findClass("A")->findOwnMethod("m", 1);
  ASSERT_NE(M, nullptr);
  const auto &Body = M->body();
  ASSERT_EQ(Body.size(), 13u);
  EXPECT_EQ(Body[0].Kind, StmtKind::AssignVar);
  EXPECT_EQ(Body[1].Kind, StmtKind::AssignNew);
  EXPECT_EQ(Body[2].Kind, StmtKind::AssignNull);
  EXPECT_EQ(Body[3].Kind, StmtKind::LoadField);
  EXPECT_EQ(Body[3].FieldName, "f");
  EXPECT_EQ(Body[4].Kind, StmtKind::StoreField);
  EXPECT_EQ(Body[5].Kind, StmtKind::LoadStaticField);
  EXPECT_EQ(Body[5].ClassName, "A");
  EXPECT_EQ(Body[5].FieldName, "s");
  EXPECT_EQ(Body[6].Kind, StmtKind::StoreStaticField);
  EXPECT_EQ(Body[7].Kind, StmtKind::AssignLayoutId);
  EXPECT_EQ(Body[7].ResourceName, "main");
  EXPECT_EQ(Body[8].Kind, StmtKind::AssignViewId);
  EXPECT_EQ(Body[8].ResourceName, "button");
  EXPECT_EQ(Body[9].Kind, StmtKind::AssignClassConst);
  EXPECT_EQ(Body[10].Kind, StmtKind::Invoke);
  EXPECT_NE(Body[10].Lhs, InvalidVar);
  EXPECT_EQ(Body[11].Kind, StmtKind::Invoke);
  EXPECT_EQ(Body[11].Lhs, InvalidVar);
  EXPECT_EQ(Body[12].Kind, StmtKind::Return);
}

TEST(ParserTest, QualifiedStaticAccessSplitsAtLastDot) {
  auto P = parseOk(R"(
class a.b.C { field static s: a.b.C; }
class D {
  method m() {
    var x: a.b.C;
    x := static a.b.C.s;
    static a.b.C.s := x;
  }
}
)");
  const MethodDecl *M = P->findClass("D")->findOwnMethod("m", 0);
  const auto &Body = M->body();
  ASSERT_EQ(Body.size(), 2u);
  EXPECT_EQ(Body[0].ClassName, "a.b.C");
  EXPECT_EQ(Body[0].FieldName, "s");
  EXPECT_EQ(Body[1].ClassName, "a.b.C");
}

TEST(ParserTest, ConstructorArgumentsLowerToInitCall) {
  auto P = parseOk(R"(
class A {
  method init(q: A) { }
  method m() {
    var x: A;
    x := new A(this);
  }
}
)");
  const MethodDecl *M = P->findClass("A")->findOwnMethod("m", 0);
  const auto &Body = M->body();
  ASSERT_EQ(Body.size(), 2u);
  EXPECT_EQ(Body[0].Kind, StmtKind::AssignNew);
  EXPECT_EQ(Body[1].Kind, StmtKind::Invoke);
  EXPECT_EQ(Body[1].MethodName, "init");
  ASSERT_EQ(Body[1].Args.size(), 1u);
}

TEST(ParserTest, EmptyConstructorParensNoInitCall) {
  auto P = parseOk(R"(
class A {
  method m() {
    var x: A;
    x := new A();
  }
}
)");
  EXPECT_EQ(P->findClass("A")->findOwnMethod("m", 0)->body().size(), 1u);
}

TEST(ParserTest, UseOfUndeclaredVariableIsError) {
  parseBad("class A { method m() { x := null; } }");
}

TEST(ParserTest, RedeclarationIsError) {
  parseBad("class A { method m() { var x: A; var x: A; } }");
}

TEST(ParserTest, DuplicateClassIsError) {
  parseBad("class A { } class A { }");
}

TEST(ParserTest, MissingSemicolonIsError) {
  parseBad("class A { method m() { var x: A } }");
}

TEST(ParserTest, RecoversAndReportsMultipleErrors) {
  Program P;
  DiagnosticEngine Diags;
  parseAlite(R"(
class A { method m() { x := null; y := null; } }
class B { }
)",
             "t.alite", P, Diags);
  EXPECT_GE(Diags.errorCount(), 2u); // both bad statements reported
  EXPECT_NE(P.findClass("B"), nullptr); // recovery reached class B
}

TEST(ParserTest, MultipleBuffersAccumulateIntoOneProgram) {
  Program P;
  DiagnosticEngine Diags;
  ASSERT_TRUE(parseAlite("class A { }", "a.alite", P, Diags));
  ASSERT_TRUE(parseAlite("class B extends A { }", "b.alite", P, Diags));
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(P.findClass("B")->superClass(), P.findClass("A"));
}

TEST(ParserTest, ParametersAreTyped) {
  auto P = parseOk("class A { method m(a: int, b: x.Y) { } }");
  const MethodDecl *M = P->findClass("A")->findOwnMethod("m", 2);
  EXPECT_EQ(M->var(M->paramVar(0)).TypeName, "int");
  EXPECT_EQ(M->var(M->paramVar(1)).TypeName, "x.Y");
}

// The lex-before-parse contract: parseAlite lexes the whole buffer first
// and touches the Program only when the engine holds no error by then.
TEST(ParserTest, LexErrorLeavesProgramUntouched) {
  Program P;
  DiagnosticEngine Diags;
  const size_t Before = P.classes().size();
  // Both a lex error ('#') and a grammar error ('extends {') that the
  // parser would report if it ran.
  EXPECT_FALSE(parseAlite("class A { method m() { var x: T; x := # ; } }\n"
                          "class B extends { }\n",
                          "bad.alite", P, Diags));
  EXPECT_EQ(P.classes().size(), Before);
  EXPECT_EQ(P.findClass("A"), nullptr);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Message, "unexpected character '#'");
  EXPECT_EQ(Diags.diagnostics()[0].Loc, SourceLocation("bad.alite", 1, 39));
}

TEST(ParserTest, BufferAfterAnotherBuffersErrorIsParsed) {
  // One engine collects the diagnostics of every file of an app. A lex or
  // parse error in one file must not drop the files parsed after it.
  Program P;
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseAlite("class A { } @", "first.alite", P, Diags));
  EXPECT_FALSE(parseAlite("class Broken extends { }", "second.alite", P,
                          Diags));
  const size_t Errors = Diags.errorCount();
  ASSERT_EQ(Errors, 2u);
  EXPECT_TRUE(parseAlite("class C { field f: D; }", "third.alite", P, Diags));
  EXPECT_NE(P.findClass("C"), nullptr);
  EXPECT_EQ(Diags.errorCount(), Errors);
}

} // namespace
