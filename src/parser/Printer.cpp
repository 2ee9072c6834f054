//===- Printer.cpp - ALite serializer ---------------------------*- C++ -*-===//

#include "parser/Printer.h"

#include <sstream>

using namespace gator;
using namespace gator::parser;
using namespace gator::ir;

static std::string_view varName(const MethodDecl &M, VarId Id) {
  return M.var(Id).Name;
}

/// A declared type as printed: the empty type prints as java.lang.Object.
static std::string_view typeOrObject(ir::Name Type) {
  return Type.empty() ? std::string_view(ObjectClassName) : Type.view();
}

void gator::parser::printStmt(const MethodDecl &M, const Stmt &S,
                              std::ostream &OS) {
  switch (S.Kind) {
  case StmtKind::AssignVar:
    OS << varName(M, S.Lhs) << " := " << varName(M, S.Base) << ";";
    break;
  case StmtKind::AssignNew:
    OS << varName(M, S.Lhs) << " := new " << S.className() << ";";
    break;
  case StmtKind::AssignNull:
    OS << varName(M, S.Lhs) << " := null;";
    break;
  case StmtKind::LoadField:
    OS << varName(M, S.Lhs) << " := " << varName(M, S.Base) << "."
       << S.fieldName() << ";";
    break;
  case StmtKind::StoreField:
    OS << varName(M, S.Base) << "." << S.fieldName() << " := "
       << varName(M, S.Rhs) << ";";
    break;
  case StmtKind::LoadStaticField:
    OS << varName(M, S.Lhs) << " := static " << S.className() << "."
       << S.fieldName() << ";";
    break;
  case StmtKind::StoreStaticField:
    OS << "static " << S.className() << "." << S.fieldName() << " := "
       << varName(M, S.Rhs) << ";";
    break;
  case StmtKind::AssignLayoutId:
    OS << varName(M, S.Lhs) << " := @layout/" << S.resourceName() << ";";
    break;
  case StmtKind::AssignViewId:
    OS << varName(M, S.Lhs) << " := @id/" << S.resourceName() << ";";
    break;
  case StmtKind::AssignClassConst:
    OS << varName(M, S.Lhs) << " := classof " << S.className() << ";";
    break;
  case StmtKind::Invoke: {
    if (S.Lhs != InvalidVar)
      OS << varName(M, S.Lhs) << " := ";
    OS << varName(M, S.Base) << "." << S.methodName() << "(";
    for (size_t I = 0; I < S.args().size(); ++I) {
      if (I)
        OS << ", ";
      OS << varName(M, S.args()[I]);
    }
    OS << ");";
    break;
  }
  case StmtKind::Return:
    OS << "return";
    if (S.Lhs != InvalidVar)
      OS << ' ' << varName(M, S.Lhs);
    OS << ";";
    break;
  }
}

static void printMethod(const MethodDecl &M, std::ostream &OS) {
  OS << "  method ";
  if (M.isStatic())
    OS << "static ";
  OS << M.name() << "(";
  for (unsigned I = 0; I < M.paramCount(); ++I) {
    if (I)
      OS << ", ";
    const Variable &Prm = M.var(M.paramVar(I));
    OS << Prm.Name << ": "
       << typeOrObject(Prm.TypeName);
  }
  OS << ")";
  if (M.returnTypeName() != VoidTypeName)
    OS << ": " << M.returnTypeName();

  if (M.isAbstract()) {
    OS << ";\n";
    return;
  }
  OS << " {\n";
  // Declare locals (everything that is neither `this` nor a parameter).
  for (const Variable &V : M.vars()) {
    if (V.IsThis || V.IsParam)
      continue;
    OS << "    var " << V.Name << ": "
       << typeOrObject(V.TypeName) << ";\n";
  }
  for (const Stmt &S : M.body()) {
    OS << "    ";
    printStmt(M, S, OS);
    OS << '\n';
  }
  OS << "  }\n";
}

void gator::parser::printClass(const ClassDecl &C, std::ostream &OS) {
  if (C.isPlatform())
    OS << "platform ";
  OS << (C.isInterface() ? "interface " : "class ") << C.name();
  if (!C.superName().empty())
    OS << " extends " << C.superName();
  if (!C.interfaceNames().empty()) {
    OS << " implements ";
    for (size_t I = 0; I < C.interfaceNames().size(); ++I) {
      if (I)
        OS << ", ";
      OS << C.interfaceNames()[I];
    }
  }
  OS << " {\n";
  for (const auto &F : C.fields()) {
    OS << "  field ";
    if (F->isStatic())
      OS << "static ";
    OS << F->name() << ": "
       << typeOrObject(F->typeName())
       << ";\n";
  }
  for (const auto &M : C.methods())
    printMethod(*M, OS);
  OS << "}\n";
}

void gator::parser::printProgram(const Program &P, std::ostream &OS,
                                 const PrintOptions &Options) {
  bool First = true;
  for (const auto &C : P.classes()) {
    if (C->isPlatform() && !Options.IncludePlatformClasses)
      continue;
    if (!First)
      OS << '\n';
    First = false;
    printClass(*C, OS);
  }
}

std::string gator::parser::programToString(const Program &P,
                                           const PrintOptions &Options) {
  std::ostringstream OS;
  printProgram(P, OS, Options);
  return OS.str();
}
