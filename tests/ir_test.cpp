//===- ir_test.cpp - ALite IR unit tests ------------------------*- C++ -*-===//

#include "ir/Ir.h"
#include "ir/ProgramBuilder.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "parser/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

using namespace gator;
using namespace gator::ir;

namespace {

TEST(IrTest, AddAndFindClass) {
  Program P;
  ClassDecl *C = P.addClass("com.example.Foo");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(P.findClass("com.example.Foo"), C);
  EXPECT_EQ(P.findClass("com.example.Bar"), nullptr);
}

TEST(IrTest, DuplicateClassRejected) {
  Program P;
  DiagnosticEngine Diags;
  EXPECT_NE(P.addClass("A", false, false, &Diags), nullptr);
  EXPECT_EQ(P.addClass("A", false, false, &Diags), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(IrTest, ResolveLinksSuperAndInterfaces) {
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *I = P.addClass("I", /*IsInterface=*/true);
  ClassDecl *A = P.addClass("A");
  ClassDecl *B = P.addClass("B");
  B->setSuperName("A");
  B->addInterfaceName("I");
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(B->superClass(), A);
  ASSERT_EQ(B->interfaces().size(), 1u);
  EXPECT_EQ(B->interfaces()[0], I);
  EXPECT_TRUE(P.isSubtypeOf(B, A));
  EXPECT_TRUE(P.isSubtypeOf(B, I));
  EXPECT_FALSE(P.isSubtypeOf(A, B));
}

TEST(IrTest, ImplicitObjectSuperclass) {
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *Obj = P.addClass(ObjectClassName);
  ClassDecl *A = P.addClass("A");
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(A->superClass(), Obj);
  EXPECT_EQ(Obj->superClass(), nullptr);
}

TEST(IrTest, UnknownSuperclassIsError) {
  Program P;
  DiagnosticEngine Diags;
  P.addClass("A")->setSuperName("Missing");
  EXPECT_FALSE(P.resolve(Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(IrTest, ImplementsNonInterfaceIsError) {
  Program P;
  DiagnosticEngine Diags;
  P.addClass("NotIface");
  P.addClass("A")->addInterfaceName("NotIface");
  EXPECT_FALSE(P.resolve(Diags));
}

TEST(IrTest, InheritanceCycleIsError) {
  Program P;
  DiagnosticEngine Diags;
  P.addClass("A")->setSuperName("B");
  P.addClass("B")->setSuperName("A");
  EXPECT_FALSE(P.resolve(Diags));
}

TEST(IrTest, FieldLookupWalksSupers) {
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *A = P.addClass("A");
  A->addField("f", "A");
  ClassDecl *B = P.addClass("B");
  B->setSuperName("A");
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(B->findOwnField("f"), nullptr);
  ASSERT_NE(B->findField("f"), nullptr);
  EXPECT_EQ(B->findField("f")->owner(), A);
  EXPECT_EQ(B->findField("f")->qualifiedName(), "A.f");
}

TEST(IrTest, MethodLookupRespectsArityAndOverride) {
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *A = P.addClass("A");
  MethodDecl *M1 = A->addMethod("m", "void");
  M1->addParam("x", "A");
  ClassDecl *B = P.addClass("B");
  B->setSuperName("A");
  MethodDecl *M2 = B->addMethod("m", "void"); // m/0 overload on B
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(B->findMethod("m", 1), M1); // inherited m/1
  EXPECT_EQ(B->findMethod("m", 0), M2);
  EXPECT_EQ(A->findMethod("m", 0), nullptr);
}

TEST(IrTest, MethodLookupThroughInterfaces) {
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *I = P.addClass("I", /*IsInterface=*/true);
  MethodDecl *Decl = I->addMethod("h", "void");
  Decl->addParam("v", "I");
  ClassDecl *A = P.addClass("A");
  A->addInterfaceName("I");
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(A->findMethod("h", 1), Decl);
  EXPECT_TRUE(Decl->isAbstract()); // interface methods are abstract
}

TEST(IrTest, MethodLookupThroughInterfacesOfAnySuperclass) {
  // C extends B extends A implements I: I is two superclasses up.
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *I = P.addClass("I", /*IsInterface=*/true);
  MethodDecl *Decl = I->addMethod("h", "void");
  P.addClass("A")->addInterfaceName("I");
  P.addClass("B")->setSuperName("A");
  ClassDecl *C = P.addClass("C");
  C->setSuperName("B");
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(P.findClass("B")->findMethod("h", 0), Decl);
  EXPECT_EQ(C->findMethod("h", 0), Decl);
  EXPECT_EQ(C->findMethod("h", 1), nullptr);
}

TEST(IrTest, StmtAndVariableAreFlatArenaRecords) {
  // Bodies and variable tables are arrays on the program's arena, released
  // as slabs: their elements must hold no owning member.
  static_assert(std::is_trivially_destructible_v<Stmt>);
  static_assert(std::is_trivially_destructible_v<Variable>);
  static_assert(std::is_trivially_copyable_v<Stmt>);
  static_assert(sizeof(Stmt) <= 112);
  static_assert(sizeof(Name) == 16);
  EXPECT_TRUE(std::is_trivially_destructible_v<MethodDecl>);
}

TEST(IrTest, NamesAreInternedPerProgram) {
  Program P, Q;
  Name A = P.intern("android.view.View");
  Name B = P.intern(std::string("android.view.") + "View");
  EXPECT_EQ(A.symbol(), B.symbol());
  EXPECT_EQ(A.data(), B.data()); // one spelling, shared
  EXPECT_TRUE(P.owns(A));
  EXPECT_FALSE(Q.owns(A));
  // Another program's name compares equal by spelling and is re-interned
  // when adopted.
  Name C = Q.adopt(A);
  EXPECT_EQ(C, A);
  EXPECT_TRUE(Q.owns(C));
  EXPECT_NE(C.data(), A.data());
  EXPECT_EQ(P.lookup("never.Seen").symbol().isValid(), false);
  EXPECT_TRUE(Name().empty());
  EXPECT_EQ("x." + P.intern("y") + ".z", "x.y.z");
}

TEST(IrTest, ForeignNamesAreAdoptedByDeclarations) {
  Program P, Q;
  ClassDecl *A = P.addClass(Q.intern("A"));
  MethodDecl *M = A->addMethod(Q.intern("m"), Q.intern("void"));
  VarId V = M->addLocal(Q.intern("x"), Q.intern("A"));
  A->setSuperName(Q.intern("java.lang.Object"));
  EXPECT_TRUE(P.owns(A->name()));
  EXPECT_TRUE(P.owns(M->name()));
  EXPECT_TRUE(P.owns(M->var(V).Name));
  EXPECT_TRUE(P.owns(M->var(V).TypeName));
  EXPECT_TRUE(P.owns(A->superName()));
  EXPECT_EQ(P.findClass(Q.intern("A")), A);
  EXPECT_EQ(A->findOwnMethod(Q.intern("m"), 0), M);
}

TEST(IrTest, ThisAndParamVariableLayout) {
  Program P;
  ClassDecl *A = P.addClass("A");
  MethodDecl *M = A->addMethod("m", "void");
  VarId Px = M->addParam("x", "int");
  VarId Py = M->addParam("y", "A");
  VarId L = M->addLocal("tmp", "A");
  EXPECT_EQ(M->thisVar(), 0);
  EXPECT_EQ(M->paramVar(0), Px);
  EXPECT_EQ(M->paramVar(1), Py);
  EXPECT_EQ(M->paramCount(), 2u);
  EXPECT_EQ(M->var(M->thisVar()).TypeName, "A");
  EXPECT_TRUE(M->var(M->thisVar()).IsThis);
  EXPECT_TRUE(M->var(Px).IsParam);
  EXPECT_FALSE(M->var(L).IsParam);
  EXPECT_EQ(M->findVar("tmp"), L);
  EXPECT_EQ(M->findVar("nope"), InvalidVar);
  EXPECT_EQ(M->qualifiedName(), "A.m/2");
}

TEST(IrTest, StaticMethodHasNoThis) {
  Program P;
  ClassDecl *A = P.addClass("A");
  MethodDecl *M = A->addMethod("s", "void", /*IsStatic=*/true);
  VarId Px = M->addParam("x", "int");
  EXPECT_EQ(Px, 0); // parameters start at 0 without `this`
  EXPECT_TRUE(M->isStatic());
}

TEST(IrTest, AppCountsExcludePlatform) {
  Program P;
  DiagnosticEngine Diags;
  P.addClass("android.x.Y", false, /*IsPlatform=*/true)
      ->addMethod("stub", "void")
      ->setAbstract(true);
  ClassDecl *A = P.addClass("A");
  A->addMethod("m", "void");
  A->addMethod("n", "void");
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_EQ(P.appClassCount(), 1u);
  EXPECT_EQ(P.appMethodCount(), 2u);
}

TEST(IrTest, PrimitiveTypeNames) {
  EXPECT_TRUE(isPrimitiveTypeName("int"));
  EXPECT_TRUE(isPrimitiveTypeName("void"));
  EXPECT_FALSE(isPrimitiveTypeName("java.lang.Object"));
}

//===----------------------------------------------------------------------===//
// Statement payloads
//===----------------------------------------------------------------------===//

static_assert(sizeof(void *) != 8 || sizeof(Stmt) <= 64,
              "a statement must stay within 64 bytes (docs/MEMORY.md)");

/// One method with a statement of every StmtKind, in the exact text
/// printProgram writes, so a print/parse round trip must reproduce it.
constexpr const char *EveryKindText = R"(class pkg.A {
  field f: pkg.A;
  field static s: pkg.A;
  method m(p: pkg.A, q: int): pkg.A {
    var x: pkg.A;
    var y: pkg.A;
    var i: int;
    var c: java.lang.Class;
    x := y;
    x := new pkg.A;
    x := null;
    x := y.f;
    y.f := x;
    x := static pkg.A.s;
    static pkg.A.s := x;
    i := @layout/main;
    i := @id/button;
    c := classof pkg.A;
    x := y.m(p, i);
    y.m(x, q);
    return x;
    return;
  }
}
)";
/// The line of the first statement in EveryKindText.
constexpr unsigned FirstStmtLine = 9;

/// What one statement of EveryKindText carries: its variables by name
/// ("" for none) and its names ("" for a kind without that name).
struct StmtPayload {
  StmtKind Kind;
  const char *Lhs, *Base, *Rhs;
  const char *Field, *Class, *Resource, *Method;
  std::vector<const char *> Args;
};

const std::vector<StmtPayload> &everyKindPayloads() {
  static const std::vector<StmtPayload> Payloads = {
      {StmtKind::AssignVar, "x", "y", "", "", "", "", "", {}},
      {StmtKind::AssignNew, "x", "", "", "", "pkg.A", "", "", {}},
      {StmtKind::AssignNull, "x", "", "", "", "", "", "", {}},
      {StmtKind::LoadField, "x", "y", "", "f", "", "", "", {}},
      {StmtKind::StoreField, "", "y", "x", "f", "", "", "", {}},
      {StmtKind::LoadStaticField, "x", "", "", "s", "pkg.A", "", "", {}},
      {StmtKind::StoreStaticField, "", "", "x", "s", "pkg.A", "", "", {}},
      {StmtKind::AssignLayoutId, "i", "", "", "", "", "main", "", {}},
      {StmtKind::AssignViewId, "i", "", "", "", "", "button", "", {}},
      {StmtKind::AssignClassConst, "c", "", "", "", "pkg.A", "", "", {}},
      {StmtKind::Invoke, "x", "y", "", "", "", "", "m", {"p", "i"}},
      {StmtKind::Invoke, "", "y", "", "", "", "", "m", {"x", "q"}},
      {StmtKind::Return, "x", "", "", "", "", "", "", {}},
      {StmtKind::Return, "", "", "", "", "", "", "", {}},
  };
  return Payloads;
}

/// Builds EveryKindText's method through ProgramBuilder, the statement at
/// index I tagged with line 100 + I.
void buildEveryKind(Program &P, DiagnosticEngine &Diags) {
  ProgramBuilder B(P, Diags);
  ClassBuilder A = B.makeClass("pkg.A");
  A.field("f", "pkg.A").field("s", "pkg.A", /*IsStatic=*/true);
  MethodBuilder M = A.method("m", "pkg.A");
  M.param("p", "pkg.A").param("q", "int");
  M.local("x", "pkg.A");
  M.local("y", "pkg.A");
  M.local("i", "int");
  M.local("c", "java.lang.Class");
  unsigned Line = 100;
  M.atLine(Line++).assign("x", "y");
  M.atLine(Line++).assignNew("x", "pkg.A");
  M.atLine(Line++).assignNull("x");
  M.atLine(Line++).loadField("x", "y", "f");
  M.atLine(Line++).storeField("y", "f", "x");
  M.atLine(Line++).loadStatic("x", "pkg.A", "s");
  M.atLine(Line++).storeStatic("pkg.A", "s", "x");
  M.atLine(Line++).layoutId("i", "main");
  M.atLine(Line++).viewId("i", "button");
  M.atLine(Line++).classConst("c", "pkg.A");
  M.atLine(Line++).invoke("x", "y", "m", {"p", "i"});
  M.atLine(Line++).call("y", "m", {"x", "q"});
  M.atLine(Line++).ret("x");
  M.atLine(Line++).ret();
}

std::string_view varNameOrEmpty(const MethodDecl &M, VarId Id) {
  return Id == InvalidVar ? std::string_view() : M.var(Id).Name.view();
}

/// Reads every accessor of every statement of \p M back against
/// everyKindPayloads(); \p LocOf gives the location statement I must have.
template <typename LocFnT>
void expectEveryPayload(const MethodDecl &M, LocFnT LocOf) {
  const auto &Want = everyKindPayloads();
  ASSERT_EQ(M.body().size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    const Stmt &S = M.body()[I];
    const StmtPayload &W = Want[I];
    SCOPED_TRACE("statement " + std::to_string(I));
    ASSERT_EQ(S.Kind, W.Kind);
    EXPECT_EQ(S.Loc, LocOf(I));
    EXPECT_EQ(varNameOrEmpty(M, S.Lhs), W.Lhs);
    EXPECT_EQ(varNameOrEmpty(M, S.Base), W.Base);
    EXPECT_EQ(varNameOrEmpty(M, S.Rhs), W.Rhs);
    ASSERT_EQ(S.hasFieldName(), *W.Field != 0);
    if (S.hasFieldName()) {
      EXPECT_EQ(S.fieldName(), W.Field);
    }
    ASSERT_EQ(S.hasClassName(), *W.Class != 0);
    if (S.hasClassName()) {
      EXPECT_EQ(S.className(), W.Class);
    }
    ASSERT_EQ(S.hasResourceName(), *W.Resource != 0);
    if (S.hasResourceName()) {
      EXPECT_EQ(S.resourceName(), W.Resource);
    }
    ASSERT_EQ(S.isInvoke(), *W.Method != 0);
    if (S.isInvoke()) {
      EXPECT_EQ(S.methodName(), W.Method);
      ASSERT_EQ(S.args().size(), W.Args.size());
      for (size_t J = 0; J < W.Args.size(); ++J)
        EXPECT_EQ(varNameOrEmpty(M, S.args()[J]), W.Args[J]);
    }
  }
}

TEST(IrTest, EveryStmtKindKeepsItsPayload) {
  // Every kind once, through ProgramBuilder and through the parser; both
  // programs print as the source text, and the printed text parses back
  // to the same text.
  std::vector<StmtKind> Kinds;
  for (const StmtPayload &W : everyKindPayloads())
    if (std::find(Kinds.begin(), Kinds.end(), W.Kind) == Kinds.end())
      Kinds.push_back(W.Kind);
  EXPECT_EQ(Kinds.size(), 12u);

  Program Built;
  DiagnosticEngine BuiltDiags;
  buildEveryKind(Built, BuiltDiags);
  ASSERT_FALSE(BuiltDiags.hasErrors());
  const MethodDecl *BuiltM = Built.findClass("pkg.A")->findOwnMethod("m", 2);
  ASSERT_NE(BuiltM, nullptr);
  expectEveryPayload(*BuiltM, [](size_t I) {
    return SourceLocation("pkg.A", 100 + static_cast<unsigned>(I), 1);
  });

  Program Parsed;
  DiagnosticEngine ParsedDiags;
  ASSERT_TRUE(
      parser::parseAlite(EveryKindText, "every.alite", Parsed, ParsedDiags));
  const MethodDecl *ParsedM =
      Parsed.findClass("pkg.A")->findOwnMethod("m", 2);
  ASSERT_NE(ParsedM, nullptr);
  expectEveryPayload(*ParsedM, [](size_t I) {
    return SourceLocation("every.alite",
                          FirstStmtLine + static_cast<unsigned>(I), 5);
  });

  EXPECT_EQ(parser::programToString(Built), EveryKindText);
  const std::string Printed = parser::programToString(Parsed);
  EXPECT_EQ(Printed, EveryKindText);
  Program Reparsed;
  DiagnosticEngine ReparsedDiags;
  ASSERT_TRUE(
      parser::parseAlite(Printed, "printed.alite", Reparsed, ReparsedDiags));
  EXPECT_EQ(parser::programToString(Reparsed), Printed);
}

//===----------------------------------------------------------------------===//
// ProgramBuilder
//===----------------------------------------------------------------------===//

TEST(ProgramBuilderTest, BuildsStatements) {
  Program P;
  DiagnosticEngine Diags;
  ProgramBuilder B(P, Diags);
  ClassBuilder CB = B.makeClass("A");
  CB.field("f", "A");
  MethodBuilder MB = CB.method("m", "A");
  MB.param("p", "A");
  MB.local("x", "A");
  MB.assign("x", "p");
  MB.assignNew("x", "A");
  MB.loadField("x", "this", "f");
  MB.storeField("this", "f", "x");
  MB.ret(std::string("x"));
  ASSERT_TRUE(B.finish());

  const MethodDecl *M = P.findClass("A")->findOwnMethod("m", 1);
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(M->body().size(), 5u);
  EXPECT_EQ(M->body()[0].Kind, StmtKind::AssignVar);
  EXPECT_EQ(M->body()[1].Kind, StmtKind::AssignNew);
  EXPECT_EQ(M->body()[1].className(), "A");
  EXPECT_EQ(M->body()[2].Kind, StmtKind::LoadField);
  EXPECT_EQ(M->body()[3].Kind, StmtKind::StoreField);
  EXPECT_EQ(M->body()[4].Kind, StmtKind::Return);
}

TEST(ProgramBuilderTest, LocalIsIdempotent) {
  Program P;
  DiagnosticEngine Diags;
  ProgramBuilder B(P, Diags);
  MethodBuilder MB = B.makeClass("A").method("m");
  VarId X1 = MB.local("x", "A");
  VarId X2 = MB.local("x", "A");
  EXPECT_EQ(X1, X2);
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(VerifierTest, AcceptsWellFormedProgram) {
  Program P;
  DiagnosticEngine Diags;
  ProgramBuilder B(P, Diags);
  MethodBuilder MB = B.makeClass("A").method("m");
  MB.local("x", "A");
  MB.assignNew("x", "A");
  ASSERT_TRUE(B.finish());
  EXPECT_TRUE(verifyProgram(P, Diags));
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(VerifierTest, RejectsNewOfUnknownClass) {
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *A = P.addClass("A");
  MethodDecl *M = A->addMethod("m", "void");
  VarId X = M->addLocal("x", "A");
  Stmt S(StmtKind::AssignNew);
  S.Lhs = X;
  S.setClassName(P.intern("Ghost"));
  M->appendStmt(S);
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_FALSE(verifyProgram(P, Diags));
}

TEST(VerifierTest, RejectsNewOfInterface) {
  Program P;
  DiagnosticEngine Diags;
  P.addClass("I", /*IsInterface=*/true);
  ClassDecl *A = P.addClass("A");
  MethodDecl *M = A->addMethod("m", "void");
  VarId X = M->addLocal("x", "I");
  Stmt S(StmtKind::AssignNew);
  S.Lhs = X;
  S.setClassName(P.intern("I"));
  M->appendStmt(S);
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_FALSE(verifyProgram(P, Diags));
}

TEST(VerifierTest, RejectsDanglingVarIndex) {
  Program P;
  DiagnosticEngine Diags;
  ClassDecl *A = P.addClass("A");
  MethodDecl *M = A->addMethod("m", "void");
  Stmt S(StmtKind::AssignNull);
  S.Lhs = 99;
  M->appendStmt(S);
  ASSERT_TRUE(P.resolve(Diags));
  EXPECT_FALSE(verifyProgram(P, Diags));
}

TEST(VerifierTest, WarnsOnUnknownFieldAndMethod) {
  Program P;
  DiagnosticEngine Diags;
  ProgramBuilder B(P, Diags);
  MethodBuilder MB = B.makeClass("A").method("m");
  MB.local("x", "A");
  MB.assignNew("x", "A");
  MB.loadField("x", "x", "ghostField");
  MB.call("x", "ghostMethod", {});
  ASSERT_TRUE(B.finish());
  EXPECT_TRUE(verifyProgram(P, Diags)); // warnings, not errors
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Diags.warningCount(), 2u);
}

TEST(VerifierTest, WarnsOnReturnValueInVoidMethod) {
  Program P;
  DiagnosticEngine Diags;
  ProgramBuilder B(P, Diags);
  MethodBuilder MB = B.makeClass("A").method("m", VoidTypeName);
  MB.local("x", "A");
  MB.assignNew("x", "A");
  MB.ret(std::string("x"));
  ASSERT_TRUE(B.finish());
  EXPECT_TRUE(verifyProgram(P, Diags));
  EXPECT_EQ(Diags.warningCount(), 1u);
}

} // namespace
