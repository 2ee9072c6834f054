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
/// Allocation (docs/MEMORY.md): declarations, method bodies, variable
/// tables, and call argument lists are bump-allocated from the Program's
/// DeclArena, so one app's whole IR is a handful of contiguous slabs
/// released together with the Program. Every name in the IR (class,
/// method, field, variable, type, resource) is an ir::Name interned into
/// the Program's StringInterner; name lookups (findClass, findField, the
/// findMethod memo) compare or probe integer symbols, never strings.
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
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

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
bool isPrimitiveTypeName(std::string_view Name);

/// An interned IR name: a view of the spelling held by one Program's
/// StringInterner plus its Symbol there. 16 bytes, trivially copyable and
/// destructible. Only a Program makes non-empty Names (intern(),
/// lookup()), so within one program equal spellings have equal symbols
/// and lookups key on symbol(). Comparison uses the spelling, which keeps
/// it meaningful across programs; concatenation and streaming render the
/// spelling exactly as a std::string would.
class Name {
public:
  /// The empty name (no symbol).
  Name() = default;

  std::string_view view() const { return std::string_view(Ptr, Len); }
  operator std::string_view() const { return view(); }
  std::string str() const { return std::string(view()); }

  Symbol symbol() const { return Sym; }
  const char *data() const { return Ptr; }
  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }

private:
  friend class Program;
  Name(std::string_view Text, Symbol Sym)
      : Ptr(Text.data()), Len(static_cast<uint32_t>(Text.size())), Sym(Sym) {}

  const char *Ptr = "";
  uint32_t Len = 0;
  Symbol Sym;
};

static_assert(sizeof(Name) == 16 && std::is_trivially_copyable_v<Name>,
              "ir::Name must stay a 16-byte trivially copyable handle");

inline bool operator==(Name A, Name B) {
  return (A.data() == B.data() && A.size() == B.size()) ||
         A.view() == B.view();
}
inline bool operator==(Name A, std::string_view B) { return A.view() == B; }

inline std::string operator+(std::string L, Name R) {
  L.append(R.view());
  return L;
}
inline std::string operator+(const char *L, Name R) {
  return std::string(L) + R;
}
inline std::string operator+(Name L, std::string_view R) {
  std::string S(L.view());
  S.append(R);
  return S;
}
inline std::string operator+(Name L, const char *R) {
  return L + std::string_view(R);
}
inline std::string operator+(Name L, char R) {
  std::string S(L.view());
  S += R;
  return S;
}

inline std::ostream &operator<<(std::ostream &OS, Name N) {
  return OS << N.view();
}

/// A local variable or formal parameter.
struct Variable {
  ir::Name Name;
  /// Declared type name; a class name, "int", or empty (treated as
  /// java.lang.Object).
  ir::Name TypeName;
  bool IsParam = false;
  bool IsThis = false;
};

/// A field declaration. The analysis is field-based (Section 4): one
/// constraint-graph node per FieldDecl, independent of the base object.
class FieldDecl {
public:
  FieldDecl(ir::Name Name, ir::Name TypeName, bool IsStatic,
            const ClassDecl *Owner, uint32_t GlobalId)
      : DeclName(Name), TypeName(TypeName), IsStatic(IsStatic), Owner(Owner),
        GlobalId(GlobalId) {}

  ir::Name name() const { return DeclName; }
  ir::Name typeName() const { return TypeName; }
  bool isStatic() const { return IsStatic; }
  const ClassDecl *owner() const { return Owner; }

  /// Per-program dense id (creation order); see MethodDecl::globalId().
  uint32_t globalId() const { return GlobalId; }

  /// Qualified "Class.field" spelling for diagnostics and dumps.
  std::string qualifiedName() const;

private:
  ir::Name DeclName;
  ir::Name TypeName;
  bool IsStatic;
  const ClassDecl *Owner;
  uint32_t GlobalId;
};

/// Statement kinds, mirroring the grammar of ALite in Section 3 plus the
/// Android id-constant extensions of Section 3.2.1 and a class-constant
/// form used by the activity-transition-graph client.
enum class StmtKind : uint8_t {
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

/// The argument list of an Invoke: VarIds copied onto the owning
/// Program's DeclArena (Program::makeArgs()).
using ArgList = support::ArenaSpan<VarId>;

/// One ALite statement, 64 bytes (docs/MEMORY.md, "Statements"). A tagged
/// aggregate: the variables are plain members, InvalidVar where a kind has
/// none, and the names and arguments sit in one primary Name plus a union
/// of a second Name (the class of a static field access) with the
/// ArgList. Read and write those only through the per-kind accessors
/// below, which assert the kind; the has*() predicates say which a kind
/// carries. Trivially copyable and destructible: names are interned and
/// the arguments live on the arena, so a method body is one flat array of
/// these.
struct Stmt {
  SourceLocation Loc;

  /// Destination variable (AssignXxx, LoadXxx, Invoke-with-result, Return
  /// operand). InvalidVar when absent.
  VarId Lhs = InvalidVar;
  /// Source/receiver variable (AssignVar rhs, StoreField rhs is Rhs,
  /// LoadField/Invoke base).
  VarId Base = InvalidVar;
  /// StoreField/StoreStaticField value operand.
  VarId Rhs = InvalidVar;

  StmtKind Kind = StmtKind::AssignVar;

  Stmt() : StaticClass() {}
  /// A statement of \p Kind at \p Loc, with no operands yet.
  explicit Stmt(StmtKind Kind, SourceLocation Loc = {})
      : Loc(Loc), Kind(Kind), StaticClass() {
    if (Kind == StmtKind::Invoke)
      CallArgs = ArgList();
  }

  /// Load/StoreField and Load/StoreStaticField name a field (resolved
  /// during analysis against the base's declared type, or the class).
  bool hasFieldName() const {
    return Kind == StmtKind::LoadField || Kind == StmtKind::StoreField ||
           isStaticFieldAccess();
  }
  /// AssignNew, AssignClassConst and static field accesses name a class.
  bool hasClassName() const {
    return Kind == StmtKind::AssignNew || Kind == StmtKind::AssignClassConst ||
           isStaticFieldAccess();
  }
  /// AssignLayoutId and AssignViewId name a resource.
  bool hasResourceName() const {
    return Kind == StmtKind::AssignLayoutId || Kind == StmtKind::AssignViewId;
  }
  /// Only an Invoke has a method name and arguments.
  bool isInvoke() const { return Kind == StmtKind::Invoke; }

  Name fieldName() const {
    assert(hasFieldName() && "statement kind names no field");
    return Primary;
  }
  Name className() const {
    assert(hasClassName() && "statement kind names no class");
    return isStaticFieldAccess() ? StaticClass : Primary;
  }
  Name resourceName() const {
    assert(hasResourceName() && "statement kind names no resource");
    return Primary;
  }
  Name methodName() const {
    assert(isInvoke() && "only an Invoke names a method");
    return Primary;
  }
  const ArgList &args() const {
    assert(isInvoke() && "only an Invoke has arguments");
    return CallArgs;
  }

  // The writers, with the readers' contracts. Set Kind first.
  void setFieldName(Name N) {
    assert(hasFieldName() && "statement kind names no field");
    Primary = N;
  }
  void setClassName(Name N) {
    assert(hasClassName() && "statement kind names no class");
    (isStaticFieldAccess() ? StaticClass : Primary) = N;
  }
  void setResourceName(Name N) {
    assert(hasResourceName() && "statement kind names no resource");
    Primary = N;
  }
  void setMethodName(Name N) {
    assert(isInvoke() && "only an Invoke names a method");
    Primary = N;
  }
  void setArgs(ArgList Args) {
    assert(isInvoke() && "only an Invoke has arguments");
    CallArgs = Args;
  }

private:
  bool isStaticFieldAccess() const {
    return Kind == StmtKind::LoadStaticField ||
           Kind == StmtKind::StoreStaticField;
  }

  /// The field, the class of AssignNew/AssignClassConst, the resource or
  /// the method: whichever one name the kind carries first.
  Name Primary;
  union {
    /// Load/StoreStaticField: the class.
    Name StaticClass;
    /// Invoke: the argument variables.
    ArgList CallArgs;
  };
};

static_assert(sizeof(void *) != 8 || sizeof(Stmt) <= 64,
              "a statement must stay within 64 bytes (docs/MEMORY.md)");
static_assert(std::is_trivially_copyable_v<Stmt>,
              "method bodies are copied as flat arrays");

/// A method declaration with its body.
class MethodDecl {
public:
  MethodDecl(ir::Name Name, ir::Name ReturnTypeName, bool IsStatic,
             ClassDecl *Owner, uint32_t GlobalId)
      : DeclName(Name), ReturnTypeName(ReturnTypeName), IsStatic(IsStatic),
        Owner(Owner), GlobalId(GlobalId) {}

  ir::Name name() const { return DeclName; }
  ir::Name returnTypeName() const { return ReturnTypeName; }
  bool isStatic() const { return IsStatic; }
  ClassDecl *owner() { return Owner; }
  const ClassDecl *owner() const { return Owner; }

  /// "Class.method/arity" spelling for diagnostics and dumps.
  std::string qualifiedName() const;
  /// Appends qualifiedName() to \p Out without a temporary string.
  void appendQualifiedName(std::string &Out) const;

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

  /// Appends a formal parameter. Must precede any addLocal() call. The
  /// string forms intern through the owning Program.
  VarId addParam(ir::Name Name, ir::Name TypeName);
  VarId addParam(std::string_view Name, std::string_view TypeName);

  /// Appends a local variable, returning its VarId.
  VarId addLocal(ir::Name Name, ir::Name TypeName);
  VarId addLocal(std::string_view Name, std::string_view TypeName);

  /// Finds a variable by name, or InvalidVar.
  VarId findVar(std::string_view Name) const;

  const support::ArenaVector<Variable> &vars() const { return Vars; }
  const Variable &var(VarId Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Vars.size() && "bad VarId");
    return Vars[Id];
  }

  /// The statements, in order. Mutable in place; appendStmt()/setBody()
  /// change the length.
  support::ArenaVector<Stmt> &body() { return Body; }
  const support::ArenaVector<Stmt> &body() const { return Body; }

  /// Appends one statement. Its names and Args must belong to the owning
  /// Program.
  void appendStmt(const Stmt &S);
  /// Replaces the body with a copy of \p Stmts (one exact-size block).
  void setBody(std::span<const Stmt> Stmts);

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

  support::Arena &arena() const;

  ir::Name DeclName;
  ir::Name ReturnTypeName;
  bool IsStatic;
  bool Abstract = false;
  ClassDecl *Owner;
  uint32_t GlobalId = 0;
  unsigned NumParams = 0;
  support::ArenaVector<Variable> Vars;
  support::ArenaVector<Stmt> Body;
};

/// A class or interface declaration.
class ClassDecl {
public:
  ClassDecl(ir::Name Name, bool IsInterface, bool IsPlatform, Program *Owner,
            uint32_t GlobalId)
      : DeclName(Name), IsInterface(IsInterface), IsPlatform(IsPlatform),
        OwnerProgram(Owner), GlobalId(GlobalId) {}

  ir::Name name() const { return DeclName; }
  bool isInterface() const { return IsInterface; }

  /// The Program this class belongs to.
  Program &program() const { return *OwnerProgram; }

  /// Per-program dense id (creation order); see MethodDecl::globalId().
  uint32_t globalId() const { return GlobalId; }

  /// Platform classes model the Android framework; their method bodies are
  /// not part of the analyzed program (Section 3.1: "the bodies of methods
  /// in platform classes are not included in the input program").
  bool isPlatform() const { return IsPlatform; }

  ir::Name superName() const { return SuperName; }
  void setSuperName(ir::Name Name);
  void setSuperName(std::string_view Name);

  const support::ArenaVector<ir::Name> &interfaceNames() const {
    return InterfaceNames;
  }
  void addInterfaceName(ir::Name Name);
  void addInterfaceName(std::string_view Name);

  /// Resolved superclass; null for java.lang.Object and for interfaces
  /// without an extended interface. Populated by Program::resolve().
  const ClassDecl *superClass() const { return Super; }
  const support::ArenaVector<const ClassDecl *> &interfaces() const {
    return Interfaces;
  }

  FieldDecl *addField(ir::Name Name, ir::Name TypeName, bool IsStatic = false);
  FieldDecl *addField(std::string_view Name, std::string_view TypeName,
                      bool IsStatic = false);
  MethodDecl *addMethod(ir::Name Name, ir::Name ReturnTypeName,
                        bool IsStatic = false);
  MethodDecl *addMethod(std::string_view Name, std::string_view ReturnTypeName,
                        bool IsStatic = false);

  /// Declaration lists in creation order. The decls themselves live in the
  /// owning Program's arena; these are flat pointer arrays on the same
  /// arena (docs/MEMORY.md).
  const support::ArenaVector<FieldDecl *> &fields() const { return Fields; }
  const support::ArenaVector<MethodDecl *> &methods() const { return Methods; }

  /// Finds a field declared on this class (no inheritance walk).
  FieldDecl *findOwnField(ir::Name Name) const;
  FieldDecl *findOwnField(std::string_view Name) const;
  /// Finds a field on this class or a superclass.
  FieldDecl *findField(ir::Name Name) const;
  FieldDecl *findField(std::string_view Name) const;

  /// Finds a method with the given name and parameter count declared on
  /// this class (no inheritance walk).
  MethodDecl *findOwnMethod(ir::Name Name, unsigned Arity) const;
  MethodDecl *findOwnMethod(std::string_view Name, unsigned Arity) const;
  /// Finds a method on this class, superclasses, or the interfaces any of
  /// them implements. Memoized per class; the cache is dropped whenever
  /// any class in the owning program gains a method or the program is
  /// (re-)resolved (see Program::structureEpoch()).
  MethodDecl *findMethod(ir::Name Name, unsigned Arity) const;
  MethodDecl *findMethod(std::string_view Name, unsigned Arity) const;

  /// Symbol forms of the lookups above; \p Sym must be a valid symbol of
  /// the owning Program (Program::symbolOf()).
  MethodDecl *findOwnMethod(Symbol Sym, unsigned Arity) const;
  FieldDecl *findOwnField(Symbol Sym) const;
  MethodDecl *findMethod(Symbol Sym, unsigned Arity) const;

private:
  friend class Program;

  /// Uncached inheritance/interface walk backing findMethod().
  MethodDecl *findMethodUncached(Symbol Sym, unsigned Arity) const;

  ir::Name DeclName;
  bool IsInterface;
  bool IsPlatform;
  Program *OwnerProgram;
  uint32_t GlobalId;
  ir::Name SuperName;
  support::ArenaVector<ir::Name> InterfaceNames;

  const ClassDecl *Super = nullptr;
  support::ArenaVector<const ClassDecl *> Interfaces;

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

  /// Interns \p Text into this program's name table. Every Name stored in
  /// this program's IR comes from here; a Name from another Program is
  /// re-interned by passing it back through this function.
  ir::Name intern(std::string_view Text);

  /// The Name for \p Text if it was ever interned here, else the empty
  /// Name. Never grows the table.
  ir::Name lookup(std::string_view Text) const;

  /// True if \p N was interned by this program (its view points into this
  /// program's name table).
  bool owns(ir::Name N) const {
    return N.symbol().isValid() && N.symbol().rawIndex() < Names.size() &&
           Names.text(N.symbol()).data() == N.data();
  }

  /// \p N itself when this program owns it, else its spelling interned
  /// here (the empty name stays the empty Name). Every declaration mutator
  /// that takes an ir::Name stores the adopted name, so a Name from
  /// another program never lands in this one's IR.
  ir::Name adopt(ir::Name N) {
    if (owns(N))
      return N;
    return N.empty() ? ir::Name() : intern(N.view());
  }

  /// Copies \p Args onto the DeclArena for a Stmt::Args field.
  ArgList makeArgs(std::span<const VarId> Args) {
    return ArgList(DeclArena, Args.data(), Args.size());
  }

  /// Creates and registers a class. Returns null and reports a diagnostic
  /// if the name is already taken.
  ClassDecl *addClass(ir::Name Name, bool IsInterface = false,
                      bool IsPlatform = false,
                      DiagnosticEngine *Diags = nullptr);
  ClassDecl *addClass(std::string_view Name, bool IsInterface = false,
                      bool IsPlatform = false,
                      DiagnosticEngine *Diags = nullptr);

  /// Finds a class by qualified name, or null. A Name of this program is
  /// one symbol probe; a string is looked up in the interner first, and a
  /// name that was never interned misses without touching the class table.
  ClassDecl *findClass(ir::Name Name) const;
  ClassDecl *findClass(std::string_view Name) const;

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
  /// Number of methods ever declared (platform and application); every
  /// MethodDecl::globalId() is below it.
  uint32_t methodIdLimit() const { return NextMethodId; }

  /// Monotone counter bumped whenever this program's method/supertype
  /// structure changes (ClassDecl::addMethod, resolve()). Per-class
  /// lookup memos compare against it to detect staleness, which lets the
  /// memos survive across analysis runs over an unchanged program.
  /// Per-program (not process-global) so that independent programs being
  /// analyzed on different threads never touch shared mutable state
  /// (docs/PARALLEL.md).
  uint64_t structureEpoch() const { return StructureEpoch; }

  /// The interner backing every Name of this program. Exposed so clients
  /// keying their own side tables by name can reuse the symbols.
  const StringInterner &names() const { return Names; }

  /// The arena owning every declaration, body, and variable table of this
  /// program. Exposed for footprint accounting (AppStats::ArenaBytes).
  const support::Arena &declArena() const { return DeclArena; }

  /// The symbol \p N has in this program: its own for a Name of this
  /// program, else the interner's answer for the spelling (invalid when
  /// never interned here).
  Symbol symbolOf(ir::Name N) const {
    return owns(N) ? N.symbol() : Names.lookup(N.view());
  }

private:
  friend class ClassDecl; // addMethod/addField allocate ids + bump epoch.
  friend class MethodDecl; // bodies and variable tables live on DeclArena.

  ClassDecl *findClass(Symbol Sym) const;

  /// Owns all ClassDecl/MethodDecl/FieldDecl storage, the bodies and
  /// variable tables, and the per-class lists; declared first so it is
  /// destroyed last (ClassDecl destructors run inside ~Arena, after the
  /// pointer tables below are gone — they never dereference them).
  /// Everything but ClassDecl is trivially destructible, so tearing a
  /// program down frees slabs, not objects.
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

static_assert(std::is_trivially_destructible_v<Stmt> &&
                  std::is_trivially_destructible_v<Variable> &&
                  std::is_trivially_destructible_v<MethodDecl> &&
                  std::is_trivially_destructible_v<FieldDecl>,
              "IR bodies and decls are released as arena slabs");

} // namespace ir
} // namespace gator

#endif // GATOR_IR_IR_H
