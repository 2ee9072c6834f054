//===- Ir.cpp - ALite IR implementation -----------------------*- C++ -*-===//

#include "ir/Ir.h"

#include <algorithm>
#include <charconv>

using namespace gator;
using namespace gator::ir;

bool gator::ir::isPrimitiveTypeName(std::string_view Name) {
  return Name == IntTypeName || Name == VoidTypeName;
}

//===----------------------------------------------------------------------===//
// FieldDecl
//===----------------------------------------------------------------------===//

std::string FieldDecl::qualifiedName() const {
  return Owner->name() + "." + DeclName;
}

//===----------------------------------------------------------------------===//
// MethodDecl
//===----------------------------------------------------------------------===//

std::string MethodDecl::qualifiedName() const {
  std::string S;
  appendQualifiedName(S);
  return S;
}

void MethodDecl::appendQualifiedName(std::string &Out) const {
  // One resize and plain copies: this spelling keys the incremental
  // engine's node maps, so it is built often.
  char Digits[16];
  const std::string_view Arity(
      Digits, std::to_chars(Digits, Digits + sizeof(Digits), NumParams).ptr -
                  Digits);
  const std::string_view OwnerName = Owner->name();
  const size_t At = Out.size();
  Out.resize(At + OwnerName.size() + DeclName.size() + Arity.size() + 2);
  char *P = std::copy(OwnerName.begin(), OwnerName.end(), Out.data() + At);
  *P++ = '.';
  P = std::copy(DeclName.data(), DeclName.data() + DeclName.size(), P);
  *P++ = '/';
  std::copy(Arity.begin(), Arity.end(), P);
}

support::Arena &MethodDecl::arena() const {
  return Owner->program().DeclArena;
}

VarId MethodDecl::addParam(ir::Name Name, ir::Name TypeName) {
  assert(Vars.size() == (IsStatic ? 0u : 1u) + NumParams &&
         "parameters must be added before locals");
  Program &P = Owner->program();
  Variable Param;
  Param.Name = P.adopt(Name);
  Param.TypeName = P.adopt(TypeName);
  Param.IsParam = true;
  Vars.push_back(arena(), Param);
  ++NumParams;
  return static_cast<VarId>(Vars.size() - 1);
}

VarId MethodDecl::addParam(std::string_view Name, std::string_view TypeName) {
  Program &P = Owner->program();
  return addParam(P.intern(Name), P.intern(TypeName));
}

VarId MethodDecl::addLocal(ir::Name Name, ir::Name TypeName) {
  Program &P = Owner->program();
  Variable Local;
  Local.Name = P.adopt(Name);
  Local.TypeName = P.adopt(TypeName);
  Vars.push_back(arena(), Local);
  return static_cast<VarId>(Vars.size() - 1);
}

VarId MethodDecl::addLocal(std::string_view Name, std::string_view TypeName) {
  Program &P = Owner->program();
  return addLocal(P.intern(Name), P.intern(TypeName));
}

VarId MethodDecl::findVar(std::string_view Name) const {
  for (size_t I = 0; I < Vars.size(); ++I)
    if (Vars[I].Name == Name)
      return static_cast<VarId>(I);
  return InvalidVar;
}

void MethodDecl::appendStmt(const Stmt &S) { Body.push_back(arena(), S); }

void MethodDecl::setBody(std::span<const Stmt> Stmts) {
  Body.assign(arena(), Stmts.data(), Stmts.size());
}

//===----------------------------------------------------------------------===//
// ClassDecl
//===----------------------------------------------------------------------===//

void ClassDecl::setSuperName(ir::Name Name) {
  SuperName = OwnerProgram->adopt(Name);
}

void ClassDecl::setSuperName(std::string_view Name) {
  setSuperName(OwnerProgram->intern(Name));
}

void ClassDecl::addInterfaceName(ir::Name Name) {
  InterfaceNames.push_back(OwnerProgram->DeclArena,
                           OwnerProgram->adopt(Name));
}

void ClassDecl::addInterfaceName(std::string_view Name) {
  addInterfaceName(OwnerProgram->intern(Name));
}

FieldDecl *ClassDecl::addField(ir::Name Name, ir::Name TypeName,
                               bool IsStatic) {
  support::Arena &A = OwnerProgram->DeclArena;
  FieldDecl *F = A.create<FieldDecl>(
      OwnerProgram->adopt(Name), OwnerProgram->adopt(TypeName), IsStatic,
      this, OwnerProgram->NextFieldId++);
  Fields.push_back(A, F);
  return F;
}

FieldDecl *ClassDecl::addField(std::string_view Name,
                               std::string_view TypeName, bool IsStatic) {
  return addField(OwnerProgram->intern(Name), OwnerProgram->intern(TypeName),
                  IsStatic);
}

MethodDecl *ClassDecl::addMethod(ir::Name Name, ir::Name ReturnTypeName,
                                 bool IsStatic) {
  ++OwnerProgram->StructureEpoch;
  support::Arena &A = OwnerProgram->DeclArena;
  MethodDecl *M = A.create<MethodDecl>(
      OwnerProgram->adopt(Name), OwnerProgram->adopt(ReturnTypeName),
      IsStatic, this, OwnerProgram->NextMethodId++);
  Methods.push_back(A, M);
  if (!IsStatic) {
    // `this` has the declaring class type.
    Variable This;
    This.Name = OwnerProgram->intern("this");
    This.TypeName = DeclName;
    This.IsThis = true;
    M->Vars.push_back(A, This);
  }
  if (IsInterface)
    M->setAbstract(true);
  return M;
}

MethodDecl *ClassDecl::addMethod(std::string_view Name,
                                 std::string_view ReturnTypeName,
                                 bool IsStatic) {
  return addMethod(OwnerProgram->intern(Name),
                   OwnerProgram->intern(ReturnTypeName), IsStatic);
}

FieldDecl *ClassDecl::findOwnField(Symbol Sym) const {
  for (FieldDecl *F : Fields)
    if (F->name().symbol() == Sym)
      return F;
  return nullptr;
}

FieldDecl *ClassDecl::findOwnField(ir::Name Name) const {
  Symbol Sym = OwnerProgram->symbolOf(Name);
  return Sym.isValid() ? findOwnField(Sym) : nullptr;
}

FieldDecl *ClassDecl::findOwnField(std::string_view Name) const {
  return findOwnField(OwnerProgram->lookup(Name));
}

FieldDecl *ClassDecl::findField(ir::Name Name) const {
  Symbol Sym = OwnerProgram->symbolOf(Name);
  if (!Sym.isValid())
    return nullptr;
  for (const ClassDecl *C = this; C; C = C->Super)
    if (FieldDecl *F = C->findOwnField(Sym))
      return F;
  return nullptr;
}

FieldDecl *ClassDecl::findField(std::string_view Name) const {
  return findField(OwnerProgram->lookup(Name));
}

MethodDecl *ClassDecl::findOwnMethod(Symbol Sym, unsigned Arity) const {
  for (MethodDecl *M : Methods)
    if (M->paramCount() == Arity && M->name().symbol() == Sym)
      return M;
  return nullptr;
}

MethodDecl *ClassDecl::findOwnMethod(ir::Name Name, unsigned Arity) const {
  Symbol Sym = OwnerProgram->symbolOf(Name);
  return Sym.isValid() ? findOwnMethod(Sym, Arity) : nullptr;
}

MethodDecl *ClassDecl::findOwnMethod(std::string_view Name,
                                     unsigned Arity) const {
  return findOwnMethod(OwnerProgram->lookup(Name), Arity);
}

MethodDecl *ClassDecl::findMethod(ir::Name Name, unsigned Arity) const {
  // Every declared method name is interned at addMethod() time, so a name
  // the interner has never seen cannot resolve anywhere in the program.
  Symbol Sym = OwnerProgram->symbolOf(Name);
  return Sym.isValid() ? findMethod(Sym, Arity) : nullptr;
}

MethodDecl *ClassDecl::findMethod(std::string_view Name,
                                  unsigned Arity) const {
  return findMethod(OwnerProgram->lookup(Name), Arity);
}

MethodDecl *ClassDecl::findMethod(Symbol Sym, unsigned Arity) const {
  if (MethodLookupEpoch != OwnerProgram->structureEpoch()) {
    MethodLookupCache.clear();
    MethodLookupEpoch = OwnerProgram->structureEpoch();
  }
  uint64_t Key = support::packSymbolKey(Sym.rawIndex(), Arity);
  if (MethodDecl *const *Hit = MethodLookupCache.get(Key))
    return *Hit;
  MethodDecl *M = findMethodUncached(Sym, Arity);
  MethodLookupCache.set(Key, M);
  return M;
}

MethodDecl *ClassDecl::findMethodUncached(Symbol Sym, unsigned Arity) const {
  for (const ClassDecl *C = this; C; C = C->Super)
    if (MethodDecl *M = C->findOwnMethod(Sym, Arity))
      return M;
  // Interface default/abstract declarations: search the interfaces of
  // every class on the superclass chain, each transitively, so dispatch
  // through an interface-typed receiver works however deep the class that
  // names the interface sits.
  for (const ClassDecl *C = this; C; C = C->Super)
    for (const ClassDecl *I : C->Interfaces)
      if (MethodDecl *M = I->findMethod(Sym, Arity))
        return M;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

ir::Name Program::intern(std::string_view Text) {
  Symbol Sym = Names.intern(Text);
  return ir::Name(Names.text(Sym), Sym);
}

ir::Name Program::lookup(std::string_view Text) const {
  Symbol Sym = Names.lookup(Text);
  return Sym.isValid() ? ir::Name(Names.text(Sym), Sym) : ir::Name();
}

ClassDecl *Program::addClass(ir::Name Name, bool IsInterface,
                             bool IsPlatform, DiagnosticEngine *Diags) {
  Name = adopt(Name);
  if (ByName.contains(Name.symbol().rawIndex())) {
    if (Diags)
      Diags->error("duplicate class name '" + Name + "'");
    return nullptr;
  }
  ClassDecl *C = DeclArena.create<ClassDecl>(Name, IsInterface, IsPlatform,
                                             this, NextClassId++);
  Classes.push_back(DeclArena, C);
  ByName.set(Name.symbol().rawIndex(), C);
  Resolved = false;
  return C;
}

ClassDecl *Program::addClass(std::string_view Name, bool IsInterface,
                             bool IsPlatform, DiagnosticEngine *Diags) {
  return addClass(intern(Name), IsInterface, IsPlatform, Diags);
}

ClassDecl *Program::findClass(Symbol Sym) const {
  if (!Sym.isValid())
    return nullptr;
  ClassDecl *const *Hit = ByName.get(Sym.rawIndex());
  return Hit ? *Hit : nullptr;
}

ClassDecl *Program::findClass(ir::Name Name) const {
  return findClass(symbolOf(Name));
}

ClassDecl *Program::findClass(std::string_view Name) const {
  return findClass(Names.lookup(Name));
}

bool Program::resolve(DiagnosticEngine &Diags) {
  ++StructureEpoch; // Super/interface links are about to change.
  bool Ok = true;
  ClassDecl *Object = findClass(ObjectClassName);
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
    } else if (!C->isInterface() && C != Object) {
      // Implicit java.lang.Object superclass when present in the program.
      C->Super = Object;
    }

    for (ir::Name IName : C->InterfaceNames) {
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
      C->Interfaces.push_back(DeclArena, Iface);
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
