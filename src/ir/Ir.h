//===- Ir.h - The ALite intermediate representation -------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ALite IR. ALite is the abstract language defined in Section 3 of the
/// paper: a Java-like core (classes, fields, virtual methods, assignments,
/// field accesses, calls, returns) extended with the Android-specific
/// constructs `x := R.layout.f` and `x := R.id.f`. The original system
/// obtained equivalent facts from Soot's Jimple; here ALite is a first-class
/// IR with its own textual syntax (see parser/) and a programmatic builder
/// (ProgramBuilder.h).
///
/// Ownership: a Program owns its ClassDecls; a ClassDecl owns its FieldDecls
/// and MethodDecls; a MethodDecl owns its Variables and Stmts. All
/// cross-references are stable raw pointers resolved by Program::resolve().
///
/// Allocation (docs/MEMORY.md): declarations are bump-allocated from the
/// Program's Arena in creation order, so one app's whole IR is a handful
/// of contiguous slabs released together with the Program. Class, method,
/// and field names are interned into the Program's StringInterner at
/// declaration time; name lookups (findClass, the findMethod memo) are
/// interned-id probes of flat tables — no per-query string hashing.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_IR_IR_H
#define GATOR_IR_IR_H

#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/FlatMap.h"
#include "support/SourceLocation.h"
#include "support/StringInterner.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace gator {
namespace ir {

class ClassDecl;
class MethodDecl;
class Program;

/// Index of a local variable within its enclosing method. For instance
/// methods, variable 0 is the implicit `this`, followed by the formal
/// parameters, followed by the declared locals.
using VarId = int32_t;
inline constexpr VarId InvalidVar = -1;

/// Well-known type names. ALite types are identified by name; "int" and
/// "void" are primitive, everything else names a class or interface.
inline constexpr const char *IntTypeName = "int";
inline constexpr const char *VoidTypeName = "void";
inline constexpr const char *ObjectClassName = "java.lang.Object";

/// Returns true if \p Name is a primitive (non-reference) type name.
bool isPrimitiveTypeName(const std::string &Name);

class Program;

/// A local variable or formal parameter.
struct Variable {
  std::string Name;
  /// Declared type name; a class name, "int", or empty (treated as
  /// java.lang.Object).
  std::string TypeName;
  bool IsParam = false;
  bool IsThis = false;
};

/// A field declaration. The analysis is field-based (Section 4): one
/// constraint-graph node per FieldDecl, independent of the base object.
class FieldDecl {
public:
  FieldDecl(std::string Name, std::string TypeName, bool IsStatic,
            const ClassDecl *Owner, uint32_t GlobalId)
      : Name(std::move(Name)), TypeName(std::move(TypeName)),
        IsStatic(IsStatic), Owner(Owner), GlobalId(GlobalId) {}

  const std::string &name() const { return Name; }
  const std::string &typeName() const { return TypeName; }
  bool isStatic() const { return IsStatic; }
  const ClassDecl *owner() const { return Owner; }

  /// Per-program dense id (creation order); see MethodDecl::globalId().
  uint32_t globalId() const { return GlobalId; }

  /// Qualified "Class.field" spelling for diagnostics and dumps.
  std::string qualifiedName() const;

private:
  std::string Name;
  std::string TypeName;
  bool IsStatic;
  const ClassDecl *Owner;
  uint32_t GlobalId;
};

/// Statement kinds, mirroring the grammar of ALite in Section 3 plus the
/// Android id-constant extensions of Section 3.2.1 and a class-constant
/// form used by the activity-transition-graph client.
enum class StmtKind {
  AssignVar,        ///< x := y
  AssignNew,        ///< x := new C (constructor call lowered separately)
  AssignNull,       ///< x := null
  LoadField,        ///< x := y.f
  StoreField,       ///< x.f := y
  LoadStaticField,  ///< x := C.f
  StoreStaticField, ///< C.f := x
  AssignLayoutId,   ///< x := R.layout.name  (written `x := @layout/name`)
  AssignViewId,     ///< x := R.id.name      (written `x := @id/name`)
  AssignClassConst, ///< x := classof C
  Invoke,           ///< [z :=] x.m(a1, ..., an), virtual dispatch
  Return,           ///< return [x]
};

/// One ALite statement. A tagged aggregate: the meaningful members depend
/// on Kind (see the per-kind accessors for the exact contract).
struct Stmt {
  StmtKind Kind;
  SourceLocation Loc;

  /// Destination variable (AssignXxx, LoadXxx, Invoke-with-result, Return
  /// operand). InvalidVar when absent.
  VarId Lhs = InvalidVar;
  /// Source/receiver variable (AssignVar rhs, StoreField rhs is Rhs,
  /// LoadField/Invoke base).
  VarId Base = InvalidVar;
  /// StoreField/StoreStaticField value operand.
  VarId Rhs = InvalidVar;

  /// Field name for Load/StoreField (resolved during analysis against the
  /// base's declared type) and Load/StoreStaticField.
  std::string FieldName;
  /// Class name for AssignNew, AssignClassConst, and static field access.
  std::string ClassName;
  /// Resource name for AssignLayoutId / AssignViewId.
  std::string ResourceName;
  /// Invoked method name for Invoke.
  std::string MethodName;
  /// Argument variables for Invoke.
  std::vector<VarId> Args;
};

/// A method declaration with its body.
class MethodDecl {
public:
  MethodDecl(std::string Name, std::string ReturnTypeName, bool IsStatic,
             ClassDecl *Owner, uint32_t GlobalId)
      : Name(std::move(Name)), ReturnTypeName(std::move(ReturnTypeName)),
        IsStatic(IsStatic), Owner(Owner), GlobalId(GlobalId) {
    if (!IsStatic) {
      Variable This;
      This.Name = "this";
      This.IsThis = true;
      Vars.push_back(std::move(This)); // TypeName patched by ClassDecl.
    }
  }

  const std::string &name() const { return Name; }
  const std::string &returnTypeName() const { return ReturnTypeName; }
  bool isStatic() const { return IsStatic; }
  ClassDecl *owner() { return Owner; }
  const ClassDecl *owner() const { return Owner; }

  /// "Class.method/arity" spelling for diagnostics and dumps.
  std::string qualifiedName() const;

  /// Number of formal parameters (excluding `this`).
  unsigned paramCount() const { return NumParams; }

  /// VarId of the i-th formal parameter (0-based, excluding `this`).
  VarId paramVar(unsigned I) const {
    assert(I < NumParams && "parameter index out of range");
    return static_cast<VarId>((IsStatic ? 0 : 1) + I);
  }

  /// VarId of `this`; only valid for instance methods.
  VarId thisVar() const {
    assert(!IsStatic && "static method has no this");
    return 0;
  }

  /// Appends a formal parameter. Must precede any addLocal() call.
  VarId addParam(std::string Name, std::string TypeName);

  /// Appends a local variable, returning its VarId.
  VarId addLocal(std::string Name, std::string TypeName);

  /// Finds a variable by name, or InvalidVar.
  VarId findVar(std::string_view Name) const;

  const std::vector<Variable> &vars() const { return Vars; }
  const Variable &var(VarId Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Vars.size() && "bad VarId");
    return Vars[Id];
  }

  std::vector<Stmt> &body() { return Body; }
  const std::vector<Stmt> &body() const { return Body; }

  /// True for bodiless declarations (interface methods, abstract methods,
  /// platform API stubs).
  bool isAbstract() const { return Abstract; }
  void setAbstract(bool Value) { Abstract = Value; }

  /// Per-program dense id (creation order within the owning Program).
  /// Lets consumers key per-method side tables with flat vectors instead
  /// of pointer-keyed hash maps on hot paths, and keeps one program's id
  /// space independent of any other analyses in the process — a
  /// prerequisite for analyzing many apps concurrently (docs/PARALLEL.md).
  uint32_t globalId() const { return GlobalId; }

private:
  friend class ClassDecl;

  std::string Name;
  std::string ReturnTypeName;
  bool IsStatic;
  bool Abstract = false;
  ClassDecl *Owner;
  uint32_t GlobalId = 0;
  unsigned NumParams = 0;
  std::vector<Variable> Vars;
  std::vector<Stmt> Body;
};

/// A class or interface declaration.
class ClassDecl {
public:
  ClassDecl(std::string Name, bool IsInterface, bool IsPlatform,
            Program *Owner, uint32_t GlobalId)
      : Name(std::move(Name)), IsInterface(IsInterface),
        IsPlatform(IsPlatform), OwnerProgram(Owner), GlobalId(GlobalId) {}

  const std::string &name() const { return Name; }
  bool isInterface() const { return IsInterface; }

  /// Per-program dense id (creation order); see MethodDecl::globalId().
  uint32_t globalId() const { return GlobalId; }

  /// Platform classes model the Android framework; their method bodies are
  /// not part of the analyzed program (Section 3.1: "the bodies of methods
  /// in platform classes are not included in the input program").
  bool isPlatform() const { return IsPlatform; }

  const std::string &superName() const { return SuperName; }
  void setSuperName(std::string Name) { SuperName = std::move(Name); }

  const std::vector<std::string> &interfaceNames() const {
    return InterfaceNames;
  }
  void addInterfaceName(std::string Name) {
    InterfaceNames.push_back(std::move(Name));
  }

  /// Resolved superclass; null for java.lang.Object and for interfaces
  /// without an extended interface. Populated by Program::resolve().
  const ClassDecl *superClass() const { return Super; }
  const std::vector<const ClassDecl *> &interfaces() const {
    return Interfaces;
  }

  FieldDecl *addField(std::string Name, std::string TypeName,
                      bool IsStatic = false);
  MethodDecl *addMethod(std::string Name, std::string ReturnTypeName,
                        bool IsStatic = false);

  /// Declaration lists in creation order. The decls themselves live in the
  /// owning Program's arena; these are flat pointer arrays on the same
  /// arena (docs/MEMORY.md).
  const support::ArenaVector<FieldDecl *> &fields() const { return Fields; }
  const support::ArenaVector<MethodDecl *> &methods() const { return Methods; }

  /// Finds a field declared on this class (no inheritance walk).
  FieldDecl *findOwnField(const std::string &Name) const;
  /// Finds a field on this class or a superclass.
  FieldDecl *findField(const std::string &Name) const;

  /// Finds a method with the given name and parameter count declared on
  /// this class (no inheritance walk).
  MethodDecl *findOwnMethod(const std::string &Name, unsigned Arity) const;
  /// Finds a method on this class, superclasses, or implemented interfaces.
  /// Memoized per class; the cache is dropped whenever any class in the
  /// owning program gains a method or the program is (re-)resolved (see
  /// Program::structureEpoch()).
  MethodDecl *findMethod(const std::string &Name, unsigned Arity) const;

private:
  friend class Program;

  /// Uncached inheritance/interface walk backing findMethod().
  MethodDecl *findMethodUncached(const std::string &Name,
                                 unsigned Arity) const;

  std::string Name;
  bool IsInterface;
  bool IsPlatform;
  Program *OwnerProgram;
  uint32_t GlobalId;
  std::string SuperName;
  std::vector<std::string> InterfaceNames;

  const ClassDecl *Super = nullptr;
  std::vector<const ClassDecl *> Interfaces;

  support::ArenaVector<FieldDecl *> Fields;
  support::ArenaVector<MethodDecl *> Methods;

  /// Lazy name/arity -> resolved method memo for findMethod(). Keyed by
  /// the packed (interned name symbol, arity) id — one integer probe per
  /// hit, no key-string construction. A lookup result depends on this
  /// class, its supertype chain, and its interfaces, so staleness is
  /// tracked against the owning Program's structureEpoch() rather than
  /// per-class state.
  mutable support::FlatIdMap<MethodDecl *> MethodLookupCache;
  mutable uint64_t MethodLookupEpoch = 0;
};

/// A whole ALite program: the set Class of Section 3.1, comprising both
/// application classes and (bodiless) platform classes.
class Program {
public:
  Program() = default;
  /// Non-copyable and non-movable: ClassDecls hold a back-pointer to
  /// their owning Program (for id allocation and the structure epoch), so
  /// the Program must stay at one address for its whole lifetime. Hold it
  /// directly or behind a unique_ptr (as corpus::AppBundle does).
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// Creates and registers a class. Returns null and reports a diagnostic
  /// if the name is already taken.
  ClassDecl *addClass(std::string Name, bool IsInterface = false,
                      bool IsPlatform = false,
                      DiagnosticEngine *Diags = nullptr);

  /// Finds a class by qualified name, or null. An interned-id probe: a
  /// name that was never interned misses without hashing a single bucket
  /// chain of strings.
  ClassDecl *findClass(const std::string &Name) const;

  /// Classes in creation order (arena pointer array, see docs/MEMORY.md).
  const support::ArenaVector<ClassDecl *> &classes() const { return Classes; }

  /// Links superclass/interface pointers and reports unresolved names.
  /// Returns false if any error was reported.
  bool resolve(DiagnosticEngine &Diags);

  /// True if resolve() has completed successfully.
  bool isResolved() const { return Resolved; }

  /// Walks `Klass` and its supertypes; true if `Ancestor` is reached.
  /// Requires resolve(). Interfaces are included in the walk.
  bool isSubtypeOf(const ClassDecl *Klass, const ClassDecl *Ancestor) const;

  /// Number of application (non-platform) classes.
  unsigned appClassCount() const;
  /// Number of methods with bodies in application classes.
  unsigned appMethodCount() const;

  /// Monotone counter bumped whenever this program's method/supertype
  /// structure changes (ClassDecl::addMethod, resolve()). Per-class
  /// lookup memos compare against it to detect staleness, which lets the
  /// memos survive across analysis runs over an unchanged program.
  /// Per-program (not process-global) so that independent programs being
  /// analyzed on different threads never touch shared mutable state
  /// (docs/PARALLEL.md).
  uint64_t structureEpoch() const { return StructureEpoch; }

  /// The interner backing all declaration-name lookups. Exposed so
  /// clients keying their own side tables by name can reuse the symbols.
  StringInterner &names() { return Names; }
  const StringInterner &names() const { return Names; }

  /// The arena owning every declaration of this program. Exposed for
  /// footprint accounting (AppStats::ArenaBytes).
  const support::Arena &declArena() const { return DeclArena; }

private:
  friend class ClassDecl; // addMethod/addField allocate ids + bump epoch.

  /// Owns all ClassDecl/MethodDecl/FieldDecl storage; declared first so
  /// it is destroyed last (decl destructors run inside ~Arena, after the
  /// pointer tables below are gone — they never dereference them).
  support::Arena DeclArena;
  StringInterner Names;
  support::ArenaVector<ClassDecl *> Classes;
  /// Interned class-name symbol -> declaration.
  support::FlatIdMap<ClassDecl *> ByName;
  bool Resolved = false;

  /// See structureEpoch(). Starts at 1 so a fresh ClassDecl (epoch 0)
  /// always takes the rebuild path on its first lookup.
  uint64_t StructureEpoch = 1;
  /// Next dense per-kind declaration ids (see MethodDecl::globalId()).
  uint32_t NextClassId = 0;
  uint32_t NextMethodId = 0;
  uint32_t NextFieldId = 0;
};

} // namespace ir
} // namespace gator

#endif // GATOR_IR_IR_H
