//===- Ir.cpp - ALite IR implementation -----------------------*- C++ -*-===//

#include "ir/Ir.h"

#include <algorithm>
#include <sstream>

using namespace gator;
using namespace gator::ir;

bool gator::ir::isPrimitiveTypeName(const std::string &Name) {
  return Name == IntTypeName || Name == VoidTypeName;
}

//===----------------------------------------------------------------------===//
// FieldDecl
//===----------------------------------------------------------------------===//

std::string FieldDecl::qualifiedName() const {
  return Owner->name() + "." + Name;
}

//===----------------------------------------------------------------------===//
// MethodDecl
//===----------------------------------------------------------------------===//

std::string MethodDecl::qualifiedName() const {
  std::ostringstream OS;
  OS << Owner->name() << '.' << Name << '/' << NumParams;
  return OS.str();
}

VarId MethodDecl::addParam(std::string Name, std::string TypeName) {
  assert(Vars.size() == (IsStatic ? 0u : 1u) + NumParams &&
         "parameters must be added before locals");
  Variable Param;
  Param.Name = std::move(Name);
  Param.TypeName = std::move(TypeName);
  Param.IsParam = true;
  Vars.push_back(std::move(Param));
  ++NumParams;
  return static_cast<VarId>(Vars.size() - 1);
}

VarId MethodDecl::addLocal(std::string Name, std::string TypeName) {
  Variable Local;
  Local.Name = std::move(Name);
  Local.TypeName = std::move(TypeName);
  Vars.push_back(std::move(Local));
  return static_cast<VarId>(Vars.size() - 1);
}

VarId MethodDecl::findVar(std::string_view Name) const {
  for (size_t I = 0; I < Vars.size(); ++I)
    if (Vars[I].Name == Name)
      return static_cast<VarId>(I);
  return InvalidVar;
}

//===----------------------------------------------------------------------===//
// ClassDecl
//===----------------------------------------------------------------------===//

FieldDecl *ClassDecl::addField(std::string Name, std::string TypeName,
                               bool IsStatic) {
  support::Arena &A = OwnerProgram->DeclArena;
  FieldDecl *F =
      A.create<FieldDecl>(std::move(Name), std::move(TypeName), IsStatic,
                          this, OwnerProgram->NextFieldId++);
  OwnerProgram->Names.intern(F->name());
  Fields.push_back(A, F);
  return F;
}

MethodDecl *ClassDecl::addMethod(std::string Name, std::string ReturnTypeName,
                                 bool IsStatic) {
  ++OwnerProgram->StructureEpoch;
  support::Arena &A = OwnerProgram->DeclArena;
  MethodDecl *M =
      A.create<MethodDecl>(std::move(Name), std::move(ReturnTypeName),
                           IsStatic, this, OwnerProgram->NextMethodId++);
  OwnerProgram->Names.intern(M->name());
  Methods.push_back(A, M);
  if (!IsStatic)
    M->Vars[0].TypeName = this->Name; // `this` has the declaring class type.
  if (IsInterface)
    M->setAbstract(true);
  return M;
}

FieldDecl *ClassDecl::findOwnField(const std::string &Name) const {
  for (FieldDecl *F : Fields)
    if (F->name() == Name)
      return F;
  return nullptr;
}

FieldDecl *ClassDecl::findField(const std::string &Name) const {
  for (const ClassDecl *C = this; C; C = C->Super)
    if (FieldDecl *F = C->findOwnField(Name))
      return F;
  return nullptr;
}

MethodDecl *ClassDecl::findOwnMethod(const std::string &Name,
                                     unsigned Arity) const {
  for (MethodDecl *M : Methods)
    if (M->paramCount() == Arity && M->name() == Name)
      return M;
  return nullptr;
}

MethodDecl *ClassDecl::findMethod(const std::string &Name,
                                  unsigned Arity) const {
  // Every declared method name is interned at addMethod() time, so a name
  // the interner has never seen cannot resolve anywhere in the program —
  // the miss costs one read-only hash probe and touches no class.
  Symbol Sym = OwnerProgram->Names.lookup(Name);
  if (!Sym.isValid())
    return nullptr;
  if (MethodLookupEpoch != OwnerProgram->structureEpoch()) {
    MethodLookupCache.clear();
    MethodLookupEpoch = OwnerProgram->structureEpoch();
  }
  uint64_t Key = support::packSymbolKey(Sym.rawIndex(), Arity);
  if (MethodDecl *const *Hit = MethodLookupCache.get(Key))
    return *Hit;
  MethodDecl *M = findMethodUncached(Name, Arity);
  MethodLookupCache.set(Key, M);
  return M;
}

MethodDecl *ClassDecl::findMethodUncached(const std::string &Name,
                                          unsigned Arity) const {
  for (const ClassDecl *C = this; C; C = C->Super)
    if (MethodDecl *M = C->findOwnMethod(Name, Arity))
      return M;
  // Interface default/abstract declarations: search implemented interfaces
  // transitively so dispatch through an interface-typed receiver works.
  for (const ClassDecl *I : Interfaces)
    if (MethodDecl *M = I->findMethod(Name, Arity))
      return M;
  if (Super)
    for (const ClassDecl *I : Super->Interfaces)
      if (MethodDecl *M = I->findMethod(Name, Arity))
        return M;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

ClassDecl *Program::addClass(std::string Name, bool IsInterface,
                             bool IsPlatform, DiagnosticEngine *Diags) {
  Symbol Sym = Names.intern(Name);
  if (ByName.contains(Sym.rawIndex())) {
    if (Diags)
      Diags->error("duplicate class name '" + Name + "'");
    return nullptr;
  }
  ClassDecl *C = DeclArena.create<ClassDecl>(std::move(Name), IsInterface,
                                             IsPlatform, this, NextClassId++);
  Classes.push_back(DeclArena, C);
  ByName.set(Sym.rawIndex(), C);
  Resolved = false;
  return C;
}

ClassDecl *Program::findClass(const std::string &Name) const {
  Symbol Sym = Names.lookup(Name);
  if (!Sym.isValid())
    return nullptr;
  ClassDecl *const *Hit = ByName.get(Sym.rawIndex());
  return Hit ? *Hit : nullptr;
}

bool Program::resolve(DiagnosticEngine &Diags) {
  ++StructureEpoch; // Super/interface links are about to change.
  bool Ok = true;
  for (ClassDecl *C : Classes) {
    C->Super = nullptr;
    C->Interfaces.clear();

    if (!C->SuperName.empty()) {
      ClassDecl *Super = findClass(C->SuperName);
      if (!Super) {
        Diags.error("class '" + C->name() + "' extends unknown class '" +
                    C->SuperName + "'");
        Ok = false;
      } else {
        C->Super = Super;
      }
    } else if (!C->isInterface() && C->name() != ObjectClassName) {
      // Implicit java.lang.Object superclass when present in the program.
      C->Super = findClass(ObjectClassName);
    }

    for (const std::string &IName : C->InterfaceNames) {
      ClassDecl *Iface = findClass(IName);
      if (!Iface) {
        Diags.error("class '" + C->name() + "' implements unknown interface '" +
                    IName + "'");
        Ok = false;
        continue;
      }
      if (!Iface->isInterface()) {
        Diags.error("class '" + C->name() + "' implements non-interface '" +
                    IName + "'");
        Ok = false;
        continue;
      }
      C->Interfaces.push_back(Iface);
    }
  }

  // Reject inheritance cycles: walk each chain with a step bound.
  for (const ClassDecl *C : Classes) {
    const ClassDecl *Walk = C;
    size_t Steps = 0;
    while (Walk && Steps <= Classes.size()) {
      Walk = Walk->Super;
      ++Steps;
    }
    if (Walk) {
      Diags.error("inheritance cycle involving class '" + C->name() + "'");
      Ok = false;
      break;
    }
  }

  Resolved = Ok;
  return Ok;
}

bool Program::isSubtypeOf(const ClassDecl *Klass,
                          const ClassDecl *Ancestor) const {
  assert(Resolved && "Program::resolve() must run first");
  if (!Klass || !Ancestor)
    return false;
  for (const ClassDecl *C = Klass; C; C = C->superClass()) {
    if (C == Ancestor)
      return true;
    for (const ClassDecl *I : C->interfaces())
      if (isSubtypeOf(I, Ancestor))
        return true;
  }
  return false;
}

unsigned Program::appClassCount() const {
  unsigned Count = 0;
  for (const ClassDecl *C : Classes)
    if (!C->isPlatform())
      ++Count;
  return Count;
}

unsigned Program::appMethodCount() const {
  unsigned Count = 0;
  for (const ClassDecl *C : Classes) {
    if (C->isPlatform())
      continue;
    for (const MethodDecl *M : C->methods())
      if (!M->isAbstract())
        ++Count;
  }
  return Count;
}
