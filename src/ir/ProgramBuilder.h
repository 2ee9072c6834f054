//===- ProgramBuilder.h - Fluent ALite construction -------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience builders for constructing ALite programs in C++, used by the
/// synthetic corpus generator, the hand-written ConnectBot example, and the
/// unit tests. The ALite parser builds the same IR from text.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_IR_PROGRAMBUILDER_H
#define GATOR_IR_PROGRAMBUILDER_H

#include "ir/Ir.h"

#include <optional>
#include <string>
#include <vector>

namespace gator {
namespace ir {

/// Builds the body of one method statement by statement. Statement helpers
/// take variable *names*; locals must be declared (via param()/local())
/// before use.
class MethodBuilder {
public:
  explicit MethodBuilder(MethodDecl *Method) : M(Method) {
    assert(Method && "null method");
  }

  MethodDecl *method() { return M; }

  MethodBuilder &param(const std::string &Name, const std::string &TypeName) {
    M->addParam(Name, TypeName);
    return *this;
  }

  /// Declares a local, or returns the existing variable with this name.
  VarId local(const std::string &Name, const std::string &TypeName) {
    VarId Existing = M->findVar(Name);
    if (Existing != InvalidVar)
      return Existing;
    return M->addLocal(Name, TypeName);
  }

  /// Looks up a declared variable; asserts that it exists.
  VarId var(const std::string &Name) const {
    VarId Id = M->findVar(Name);
    assert(Id != InvalidVar && "use of undeclared variable in builder");
    return Id;
  }

  // Statement emitters. Each appends one Stmt to the body.

  /// x := y
  MethodBuilder &assign(const std::string &X, const std::string &Y) {
    Stmt S = make(StmtKind::AssignVar);
    S.Lhs = var(X);
    S.Base = var(Y);
    return push(S);
  }

  /// x := new C
  MethodBuilder &assignNew(const std::string &X, const std::string &Klass) {
    Stmt S = make(StmtKind::AssignNew);
    S.Lhs = var(X);
    S.setClassName(name(Klass));
    return push(S);
  }

  /// x := null
  MethodBuilder &assignNull(const std::string &X) {
    Stmt S = make(StmtKind::AssignNull);
    S.Lhs = var(X);
    return push(S);
  }

  /// x := y.f
  MethodBuilder &loadField(const std::string &X, const std::string &Y,
                           const std::string &Field) {
    Stmt S = make(StmtKind::LoadField);
    S.Lhs = var(X);
    S.Base = var(Y);
    S.setFieldName(name(Field));
    return push(S);
  }

  /// x.f := y
  MethodBuilder &storeField(const std::string &X, const std::string &Field,
                            const std::string &Y) {
    Stmt S = make(StmtKind::StoreField);
    S.Base = var(X);
    S.setFieldName(name(Field));
    S.Rhs = var(Y);
    return push(S);
  }

  /// x := C.f
  MethodBuilder &loadStatic(const std::string &X, const std::string &Klass,
                            const std::string &Field) {
    Stmt S = make(StmtKind::LoadStaticField);
    S.Lhs = var(X);
    S.setClassName(name(Klass));
    S.setFieldName(name(Field));
    return push(S);
  }

  /// C.f := y
  MethodBuilder &storeStatic(const std::string &Klass,
                             const std::string &Field, const std::string &Y) {
    Stmt S = make(StmtKind::StoreStaticField);
    S.setClassName(name(Klass));
    S.setFieldName(name(Field));
    S.Rhs = var(Y);
    return push(S);
  }

  /// x := @layout/name
  MethodBuilder &layoutId(const std::string &X, const std::string &Name) {
    Stmt S = make(StmtKind::AssignLayoutId);
    S.Lhs = var(X);
    S.setResourceName(name(Name));
    return push(S);
  }

  /// x := @id/name
  MethodBuilder &viewId(const std::string &X, const std::string &Name) {
    Stmt S = make(StmtKind::AssignViewId);
    S.Lhs = var(X);
    S.setResourceName(name(Name));
    return push(S);
  }

  /// x := classof C
  MethodBuilder &classConst(const std::string &X, const std::string &Klass) {
    Stmt S = make(StmtKind::AssignClassConst);
    S.Lhs = var(X);
    S.setClassName(name(Klass));
    return push(S);
  }

  /// [z :=] base.m(args)
  MethodBuilder &invoke(std::optional<std::string> Lhs,
                        const std::string &Base, const std::string &Method,
                        const std::vector<std::string> &Args = {}) {
    return emitInvoke(Lhs ? &*Lhs : nullptr, Base, Method, Args);
  }

  /// base.m(args) with no result.
  MethodBuilder &call(const std::string &Base, const std::string &Method,
                      const std::vector<std::string> &Args = {}) {
    return emitInvoke(nullptr, Base, Method, Args);
  }

  /// return [x]
  MethodBuilder &ret(std::optional<std::string> X = std::nullopt) {
    Stmt S = make(StmtKind::Return);
    if (X)
      S.Lhs = var(*X);
    return push(S);
  }

  /// Sets the source location attached to subsequently emitted statements.
  MethodBuilder &at(SourceLocation Loc) {
    CurLoc = std::move(Loc);
    return *this;
  }

  /// Shorthand for at(): tags statements with a synthetic line number,
  /// mirroring the line subscripts used in the paper's Figures 3 and 4.
  MethodBuilder &atLine(unsigned Line) {
    return at(SourceLocation(M->owner()->name(), Line, 1));
  }

private:
  Stmt make(StmtKind Kind) const { return Stmt(Kind, CurLoc); }

  /// invoke() and call() share this; \p Lhs is null for no result. (A
  /// std::nullopt passed on from call() draws a false GCC 12
  /// -Wmaybe-uninitialized in sanitizer builds.)
  MethodBuilder &emitInvoke(const std::string *Lhs, const std::string &Base,
                            const std::string &Method,
                            const std::vector<std::string> &Args) {
    Stmt S = make(StmtKind::Invoke);
    if (Lhs)
      S.Lhs = var(*Lhs);
    S.Base = var(Base);
    S.setMethodName(name(Method));
    std::vector<VarId> Ids;
    for (const std::string &A : Args)
      Ids.push_back(var(A));
    S.setArgs(M->owner()->program().makeArgs(Ids));
    return push(S);
  }

  /// Interns \p Text into the program that owns the method.
  ir::Name name(std::string_view Text) const {
    return M->owner()->program().intern(Text);
  }

  MethodBuilder &push(const Stmt &S) {
    M->appendStmt(S);
    return *this;
  }

  MethodDecl *M;
  SourceLocation CurLoc;
};

/// Builds one class.
class ClassBuilder {
public:
  ClassBuilder(Program &P, ClassDecl *Klass) : P(P), Klass(Klass) {
    assert(Klass && "null class");
  }

  ClassDecl *decl() { return Klass; }

  ClassBuilder &extends(const std::string &SuperName) {
    Klass->setSuperName(SuperName);
    return *this;
  }

  ClassBuilder &implements(const std::string &InterfaceName) {
    Klass->addInterfaceName(InterfaceName);
    return *this;
  }

  ClassBuilder &field(const std::string &Name, const std::string &TypeName,
                      bool IsStatic = false) {
    Klass->addField(Name, TypeName, IsStatic);
    return *this;
  }

  MethodBuilder method(const std::string &Name,
                       const std::string &ReturnTypeName = VoidTypeName,
                       bool IsStatic = false) {
    return MethodBuilder(Klass->addMethod(Name, ReturnTypeName, IsStatic));
  }

private:
  Program &P;
  ClassDecl *Klass;
};

/// Top-level builder over a Program.
class ProgramBuilder {
public:
  explicit ProgramBuilder(Program &P, DiagnosticEngine &Diags)
      : P(P), Diags(Diags) {}

  ClassBuilder makeClass(const std::string &Name) {
    return ClassBuilder(P, P.addClass(Name, /*IsInterface=*/false,
                                      /*IsPlatform=*/false, &Diags));
  }

  ClassBuilder makeInterface(const std::string &Name) {
    return ClassBuilder(P, P.addClass(Name, /*IsInterface=*/true,
                                      /*IsPlatform=*/false, &Diags));
  }

  /// Resolves cross-references; returns false on error.
  bool finish() { return P.resolve(Diags); }

  Program &program() { return P; }

private:
  Program &P;
  DiagnosticEngine &Diags;
};

} // namespace ir
} // namespace gator

#endif // GATOR_IR_PROGRAMBUILDER_H
