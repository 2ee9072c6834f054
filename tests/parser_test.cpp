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
  EXPECT_EQ(Body[3].fieldName(), "f");
  EXPECT_EQ(Body[4].Kind, StmtKind::StoreField);
  EXPECT_EQ(Body[5].Kind, StmtKind::LoadStaticField);
  EXPECT_EQ(Body[5].className(), "A");
  EXPECT_EQ(Body[5].fieldName(), "s");
  EXPECT_EQ(Body[6].Kind, StmtKind::StoreStaticField);
  EXPECT_EQ(Body[7].Kind, StmtKind::AssignLayoutId);
  EXPECT_EQ(Body[7].resourceName(), "main");
  EXPECT_EQ(Body[8].Kind, StmtKind::AssignViewId);
  EXPECT_EQ(Body[8].resourceName(), "button");
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
  EXPECT_EQ(Body[0].className(), "a.b.C");
  EXPECT_EQ(Body[0].fieldName(), "s");
  EXPECT_EQ(Body[1].className(), "a.b.C");
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
  EXPECT_EQ(Body[1].methodName(), "init");
  ASSERT_EQ(Body[1].args().size(), 1u);
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


/// One diagnostic site of Parser.cpp and the exact diagnostics it
/// produces, recovery included. Every input spans several lines, so a
/// location computed from the wrong token or with a stale line shows.
struct DiagCase {
  const char *Site;
  std::string Source;
  const char *Expected; ///< DiagnosticEngine::print output
};

/// Wraps \p Body in a method that declares `x: T`; the body starts on
/// line 4, column 1.
std::string inMethod(const std::string &Body) {
  return "class A {\n  method m() {\n    var x: T;\n" + Body + "\n  }\n}\n";
}

// "to open argument list" has no case: parseArgs is only called with the
// current token already known to be '('.
const DiagCase DiagCases[] = {
    // Declarations.
    {"expected 'class' or 'interface'",
     "class A { }\n  field f: T;\n",
     "diag.alite:2:3: error: expected 'class' or 'interface'\n"},
    {"expected name after 'class'/'interface'",
     "class\n  { }\n",
     "diag.alite:2:3: error: expected name after 'class'/'interface'\n"},
    {"expected name after 'extends'",
     "class A\n  extends { }\n",
     "diag.alite:2:11: error: expected name after 'extends'\n"},
    {"expected name after 'implements'",
     "class A implements B,\n  { }\n",
     "diag.alite:2:3: error: expected name after 'implements'\n"},
    {"expect '{' to open class body",
     "class A\n  extends B\n  field\n",
     "diag.alite:3:3: error: expected '{' to open class body, found 'field'\n"},
    {"expect '}' to close class body",
     "class A {\n  field f: T;\n",
     "diag.alite:3:1: error: expected '}' to close class body, found end of "
     "file\n"},
    {"expected 'field' or 'method'",
     "class A {\n  var x: T;\n}\n",
     "diag.alite:2:3: error: expected 'field' or 'method' in class body\n"},
    {"expected field name",
     "class A {\n  field static\n  ;\n}\n",
     "diag.alite:3:3: error: expected field name\n"},
    {"expect ':' after field name",
     "class A {\n  field f\n  T;\n}\n",
     "diag.alite:3:3: error: expected ':' after field name, found "
     "identifier\n"},
    {"expected name as field type",
     "class A {\n  field f:\n  ;\n}\n",
     "diag.alite:3:3: error: expected name as field type\n"},
    {"expect ';' after field declaration",
     "class A {\n  field f: T\n  field g: T;\n}\n",
     "diag.alite:3:3: error: expected ';' after field declaration, found "
     "'field'\n"},
    {"expected method name",
     "class A {\n  method\n  ();\n}\n",
     "diag.alite:3:3: error: expected method name\n"},
    {"expect '(' after method name",
     "class A {\n  method m\n  ;\n}\n",
     "diag.alite:3:3: error: expected '(' after method name, found ';'\n"},
    {"expected parameter name",
     "class A {\n  method m(\n    : T);\n}\n",
     "diag.alite:3:5: error: expected parameter name\n"},
    {"expect ':' after parameter name",
     "class A {\n  method m(a\n    T);\n}\n",
     "diag.alite:3:5: error: expected ':' after parameter name, found "
     "identifier\n"},
    {"expected name as parameter type",
     "class A {\n  method m(a:\n    );\n}\n",
     "diag.alite:3:5: error: expected name as parameter type\n"},
    {"expect ')' to close parameter list",
     "class A {\n  method m(a: T\n    ;\n}\n",
     "diag.alite:3:5: error: expected ')' to close parameter list, found "
     "';'\n"},
    {"expected name as return type",
     "class A {\n  method m():\n    ;\n}\n",
     "diag.alite:3:5: error: expected name as return type\n"},
    {"expect '{' to open method body",
     "class A {\n  method m()\n    var;\n}\n",
     "diag.alite:3:5: error: expected '{' to open method body, found 'var'\n"},
    {"expect '}' to close method body",
     "class A {\n  method m() {\n",
     "diag.alite:3:1: error: expected '}' to close method body, found end of "
     "file\ndiag.alite:3:1: error: expected '}' to close class body, found "
     "end of file\n"},
    // Variable declarations and returns.
    {"expected variable name after 'var'",
     inMethod("    var\n      : T;"),
     "diag.alite:5:7: error: expected variable name after 'var'\n"},
    {"redeclaration of variable",
     inMethod("    var y: T;\n    var\n  x: T;"),
     "diag.alite:6:3: error: redeclaration of variable 'x'\n"},
    {"expect ':' after variable name",
     inMethod("    var y\n      T;"),
     "diag.alite:5:7: error: expected ':' after variable name, found "
     "identifier\n"},
    {"expected name as variable type",
     inMethod("    var y:\n      ;"),
     "diag.alite:5:7: error: expected name as variable type\n"},
    {"expect ';' after variable declaration",
     inMethod("    var y: T\n    x := null;"),
     "diag.alite:5:5: error: expected ';' after variable declaration, found "
     "identifier\n"},
    {"expect ';' after return",
     inMethod("    return x\n    x := null;"),
     "diag.alite:5:5: error: expected ';' after return, found identifier\n"},
    {"use of undeclared variable (return)",
     inMethod("    return\n      y;"),
     "diag.alite:5:7: error: use of undeclared variable 'y'\n"},
    // Static stores.
    {"expected name after 'static' (store)",
     inMethod("    static\n  := x;"),
     "diag.alite:5:3: error: expected name after 'static'\n"},
    {"static store needs a qualified name",
     inMethod("    static f\n  := x;"),
     "diag.alite:5:3: error: static field access needs a qualified "
     "'Class.field' name\n"},
    {"expect ':=' in static field store",
     inMethod("    static C.f\n  x;"),
     "diag.alite:5:3: error: expected ':=' in static field store, found "
     "identifier\n"},
    {"expected variable on right-hand side of static store",
     inMethod("    static C.f :=\n  ;"),
     "diag.alite:5:3: error: expected variable on right-hand side of static "
     "store\n"},
    {"expect ';' after static store",
     inMethod("    static C.f := x\n"),
     "diag.alite:6:3: error: expected ';' after static store, found '}'\n"},
    {"use of undeclared variable (static store)",
     inMethod("    static C.f :=\n      y;"),
     "diag.alite:5:7: error: use of undeclared variable 'y'\n"},
    // Statements that start with a name.
    {"expected statement",
     inMethod("    x := null;\n    ;"),
     "diag.alite:5:5: error: expected statement\n"},
    {"expected member name after '.' (statement)",
     inMethod("    x.\n      ;"),
     "diag.alite:5:7: error: expected member name after '.'\n"},
    {"use of undeclared variable (base)",
     inMethod("    x := null;\n  y.m();"),
     "diag.alite:5:3: error: use of undeclared variable 'y'\n"},
    {"expected argument variable",
     inMethod("    x.m(x,\n      );"),
     "diag.alite:5:7: error: expected argument variable\n"},
    {"use of undeclared variable (argument)",
     inMethod("    x.m(x,\n      y);"),
     "diag.alite:5:7: error: use of undeclared variable 'y'\n"},
    {"expect ')' to close argument list",
     inMethod("    x.m(x\n      ;"),
     "diag.alite:5:7: error: expected ')' to close argument list, found ';'\n"},
    {"expect ';' after call",
     inMethod("    x.m(x)\n    x := null;"),
     "diag.alite:5:5: error: expected ';' after call, found identifier\n"},
    {"expect ':=' in field store",
     inMethod("    x.f\n      x;"),
     "diag.alite:5:7: error: expected ':=' in field store, found identifier\n"},
    {"expected variable on right-hand side of field store",
     inMethod("    x.f :=\n      ;"),
     "diag.alite:5:7: error: expected variable on right-hand side of field "
     "store\n"},
    {"use of undeclared variable (field store)",
     inMethod("    x.f :=\n      y;"),
     "diag.alite:5:7: error: use of undeclared variable 'y'\n"},
    {"expect ';' after field store",
     inMethod("    x.f := x\n"),
     "diag.alite:6:3: error: expected ';' after field store, found '}'\n"},
    {"use of undeclared variable (assignment)",
     inMethod("    x := x;\n  y := x;"),
     "diag.alite:5:3: error: use of undeclared variable 'y'\n"},
    {"expect ':=' in assignment",
     inMethod("    x\n      null;"),
     "diag.alite:5:7: error: expected ':=' in assignment, found 'null'\n"},
    {"expect ';' after assignment",
     inMethod("    x := null\n    x := x;"),
     "diag.alite:5:5: error: expected ';' after assignment, found "
     "identifier\n"},
    // Right-hand sides.
    {"expected name after 'new'",
     inMethod("    x := new\n      ;"),
     "diag.alite:5:7: error: expected name after 'new'\n"},
    {"expected name after 'classof'",
     inMethod("    x := classof\n      ;"),
     "diag.alite:5:7: error: expected name after 'classof'\n"},
    {"expected name after 'static' (load)",
     inMethod("    x := static\n  ;"),
     "diag.alite:5:3: error: expected name after 'static'\n"},
    {"static load needs a qualified name",
     inMethod("    x := static f\n  ;"),
     "diag.alite:5:3: error: static field access needs a qualified "
     "'Class.field' name\n"},
    {"expected right-hand side expression",
     inMethod("    x :=\n      ;"),
     "diag.alite:5:7: error: expected right-hand side expression\n"},
    {"use of undeclared variable (right-hand side)",
     inMethod("    x :=\n      y;"),
     "diag.alite:5:7: error: use of undeclared variable 'y'\n"},
    {"expected member name after '.' (right-hand side)",
     inMethod("    x := x.\n      ;"),
     "diag.alite:5:7: error: expected member name after '.'\n"},
    {"use of undeclared variable (constructor argument)",
     inMethod("    x := new C(x,\n      y);"),
     "diag.alite:5:7: error: use of undeclared variable 'y'\n"},
};

TEST(ParserTest, EveryDiagnosticPointsAtItsToken) {
  for (const DiagCase &C : DiagCases) {
    Program P;
    DiagnosticEngine Diags;
    EXPECT_FALSE(parseAlite(C.Source, "diag.alite", P, Diags)) << C.Site;
    std::ostringstream OS;
    Diags.print(OS);
    EXPECT_EQ(OS.str(), C.Expected) << C.Site;
  }
}

TEST(ParserTest, StatementLocationsAreTheirFirstToken) {
  auto P = parseOk("class A {\n"
                   "  method m(p: A) {\n"
                   "    var x: A;\n"
                   "    x :=\n"
                   "      new A(p);  p.m(\n"
                   "  x);\n"
                   "\n"
                   "\tx := @id/v; return\n"
                   "    x;\n"
                   "  }\n"
                   "}\n");
  const MethodDecl *M = P->findClass("A")->findOwnMethod("m", 1);
  ASSERT_NE(M, nullptr);
  std::vector<std::string> Locs;
  for (const Stmt &S : M->body())
    Locs.push_back(S.Loc.str());
  // The lowered `init` call of `new A(p)` shares its statement's location.
  EXPECT_EQ(Locs, (std::vector<std::string>{"t.alite:4:5", "t.alite:4:5",
                                            "t.alite:5:18", "t.alite:8:2",
                                            "t.alite:8:14"}));
}

} // namespace
