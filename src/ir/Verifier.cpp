//===- Verifier.cpp - ALite IR well-formedness checks ----------*- C++ -*-===//

#include "ir/Verifier.h"

using namespace gator;
using namespace gator::ir;

namespace {

class MethodVerifier {
public:
  MethodVerifier(const Program &P, const MethodDecl &M, DiagnosticEngine &Diags)
      : P(P), M(M), Diags(Diags) {}

  bool run() {
    for (const Stmt &S : M.body())
      verifyStmt(S);
    return Ok;
  }

private:
  void error(const Stmt &S, const std::string &Message) {
    Diags.error(S.Loc, "in " + M.qualifiedName() + ": " + Message);
    Ok = false;
  }

  void warn(const Stmt &S, const std::string &Message) {
    Diags.warning(S.Loc, "in " + M.qualifiedName() + ": " + Message);
  }

  bool checkVar(const Stmt &S, VarId Id, const char *Role) {
    if (Id >= 0 && static_cast<size_t>(Id) < M.vars().size())
      return true;
    error(S, std::string("dangling ") + Role + " variable index");
    return false;
  }

  const ClassDecl *declaredClass(VarId Id) const {
    ir::Name TypeName = M.var(Id).TypeName;
    if (TypeName.empty() || isPrimitiveTypeName(TypeName))
      return nullptr;
    return P.findClass(TypeName);
  }

  void verifyStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::AssignVar:
      checkVar(S, S.Lhs, "destination");
      checkVar(S, S.Base, "source");
      break;
    case StmtKind::AssignNew: {
      checkVar(S, S.Lhs, "destination");
      const ClassDecl *C = P.findClass(S.className());
      if (!C)
        error(S, "new of unknown class '" + S.className() + "'");
      else if (C->isInterface())
        error(S, "new of interface '" + S.className() + "'");
      break;
    }
    case StmtKind::AssignNull:
      checkVar(S, S.Lhs, "destination");
      break;
    case StmtKind::LoadField: {
      if (!checkVar(S, S.Lhs, "destination") ||
          !checkVar(S, S.Base, "base"))
        break;
      const ClassDecl *C = declaredClass(S.Base);
      if (C && !C->findField(S.fieldName()))
        warn(S, "field '" + S.fieldName() + "' not found on type '" +
                    C->name() + "'");
      break;
    }
    case StmtKind::StoreField: {
      if (!checkVar(S, S.Base, "base") || !checkVar(S, S.Rhs, "value"))
        break;
      const ClassDecl *C = declaredClass(S.Base);
      if (C && !C->findField(S.fieldName()))
        warn(S, "field '" + S.fieldName() + "' not found on type '" +
                    C->name() + "'");
      break;
    }
    case StmtKind::LoadStaticField:
    case StmtKind::StoreStaticField: {
      if (S.Kind == StmtKind::LoadStaticField)
        checkVar(S, S.Lhs, "destination");
      else
        checkVar(S, S.Rhs, "value");
      const ClassDecl *C = P.findClass(S.className());
      if (!C) {
        error(S, "static field access on unknown class '" + S.className() + "'");
        break;
      }
      if (!C->findField(S.fieldName()))
        warn(S, "static field '" + S.fieldName() + "' not found on class '" +
                    C->name() + "'");
      break;
    }
    case StmtKind::AssignLayoutId:
    case StmtKind::AssignViewId:
      checkVar(S, S.Lhs, "destination");
      if (S.resourceName().empty())
        error(S, "empty resource name");
      break;
    case StmtKind::AssignClassConst: {
      checkVar(S, S.Lhs, "destination");
      if (!P.findClass(S.className()))
        error(S, "classof unknown class '" + S.className() + "'");
      break;
    }
    case StmtKind::Invoke: {
      if (S.Lhs != InvalidVar)
        checkVar(S, S.Lhs, "destination");
      if (!checkVar(S, S.Base, "receiver"))
        break;
      for (VarId Arg : S.args())
        checkVar(S, Arg, "argument");
      const ClassDecl *C = declaredClass(S.Base);
      if (C && !C->findMethod(S.methodName(),
                              static_cast<unsigned>(S.args().size())))
        warn(S, "method '" + S.methodName() + "/" +
                    std::to_string(S.args().size()) + "' not found on type '" +
                    C->name() + "'");
      break;
    }
    case StmtKind::Return:
      if (S.Lhs != InvalidVar) {
        checkVar(S, S.Lhs, "return value");
        if (M.returnTypeName() == VoidTypeName)
          warn(S, "return with value in void method");
      }
      break;
    }
  }

  const Program &P;
  const MethodDecl &M;
  DiagnosticEngine &Diags;
  bool Ok = true;
};

} // namespace

bool gator::ir::verifyMethod(const Program &P, const MethodDecl &M,
                             DiagnosticEngine &Diags) {
  return MethodVerifier(P, M, Diags).run();
}

bool gator::ir::verifyProgram(const Program &P, DiagnosticEngine &Diags) {
  if (!P.isResolved()) {
    Diags.error("program must be resolved before verification");
    return false;
  }
  bool Ok = true;
  for (const auto &C : P.classes())
    for (const auto &M : C->methods())
      if (!M->isAbstract())
        Ok &= verifyMethod(P, *M, Diags);
  return Ok;
}
