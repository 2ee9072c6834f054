//===- DexLite.cpp - Dalvik-style bytecode frontend -------------*- C++ -*-===//

#include "dex/DexLite.h"

#include "support/Check.h"
#include "support/CharClass.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace gator;
using namespace gator::dex;
using namespace gator::ir;

namespace {

/// The register name "p<Index>" of a method parameter. Built by append:
/// GCC 12 at -O3 raises a false -Wrestrict on `"p" + std::to_string(..)`.
std::string paramReg(size_t Index) {
  std::string Name = "p";
  Name += std::to_string(Index);
  return Name;
}

//===----------------------------------------------------------------------===//
// Raw (unresolved) representation
//===----------------------------------------------------------------------===//

enum class InstrKind {
  Move,
  ConstNull,
  ConstLayout,
  ConstId,
  ConstClass,
  NewInstance,
  IGet,
  IPut,
  SGet,
  SPut,
  Invoke,
  MoveResult,
  ReturnVoid,
  Return,
};

struct RawInstr {
  InstrKind Kind;
  SourceLocation Loc;
  std::string A;                 ///< first register / name operand
  std::string B;                 ///< second register operand
  std::string Name;              ///< field / method / class / resource name
  std::vector<std::string> Regs; ///< invoke register list (Regs[0] = recv)
};

struct RawMethod {
  std::string Name;
  std::vector<std::string> ParamTypes;
  std::string RetType;
  bool IsStatic = false;
  SourceLocation Loc;
  std::vector<RawInstr> Instrs;
  /// Count from a '.registers N' directive; -1 when not declared.
  long DeclaredRegs = -1;
};

/// The dex format caps both the '.registers' count and register indexes
/// at 16 bits; anything larger in the text is a corrupt/oversized length
/// field and is rejected rather than trusted.
constexpr long MaxRegisterCount = 65535;

struct RawField {
  std::string Name;
  std::string Type;
  bool IsStatic = false;
};

struct RawClass {
  std::string Name;
  std::string Super;
  std::vector<std::string> Interfaces;
  bool IsInterface = false;
  SourceLocation Loc;
  std::vector<RawField> Fields;
  std::vector<RawMethod> Methods;
};

//===----------------------------------------------------------------------===//
// Line tokenizer
//===----------------------------------------------------------------------===//

/// Splits one line into tokens: names (letters/digits/._$<>), and the
/// punctuation ( ) { } , treated as single-character tokens. `#` starts a
/// comment.
std::vector<std::string> tokenizeLine(std::string_view Line) {
  std::vector<std::string> Tokens;
  size_t I = 0;
  while (I < Line.size()) {
    char C = Line[I];
    if (C == '#')
      break;
    if (charclass::isSpace(C)) {
      ++I;
      continue;
    }
    if (C == '(' || C == ')' || C == '{' || C == '}' || C == ',') {
      Tokens.push_back(std::string(1, C));
      ++I;
      continue;
    }
    std::string Tok;
    while (I < Line.size()) {
      char D = Line[I];
      if (charclass::isAlnum(D) || D == '.' || D == '_' || D == '$' ||
          D == '<' || D == '>' || D == '-') {
        Tok.push_back(D);
        ++I;
      } else {
        break;
      }
    }
    if (Tok.empty()) {
      // Unknown character: emit it so the parser reports a clean error.
      Tok.push_back(C);
      ++I;
    }
    Tokens.push_back(std::move(Tok));
  }
  return Tokens;
}

bool splitLastDot(const std::string &QName, std::string &Prefix,
                  std::string &Last) {
  size_t Pos = QName.rfind('.');
  if (Pos == std::string::npos || Pos + 1 >= QName.size())
    return false;
  Prefix = QName.substr(0, Pos);
  Last = QName.substr(Pos + 1);
  return true;
}

//===----------------------------------------------------------------------===//
// Parser: text -> RawClass list
//===----------------------------------------------------------------------===//

class DexParser {
public:
  DexParser(std::string_view Input, std::string_view FileName,
            DiagnosticEngine &Diags)
      : Input(Input), File(SourceLocation::internFile(FileName)),
        Diags(Diags), ErrorsBefore(Diags.errorCount()) {}

  bool run(std::vector<RawClass> &Out) {
    // Lines split as std::getline would: on '\n', with no empty line after
    // a final newline.
    unsigned LineNo = 0;
    for (size_t Pos = 0; Pos < Input.size();) {
      size_t End = Input.find('\n', Pos);
      if (End == std::string_view::npos)
        End = Input.size();
      std::string_view Line = Input.substr(Pos, End - Pos);
      Pos = End + 1;
      ++LineNo;
      Loc = SourceLocation(File, LineNo, 1);
      std::vector<std::string> Tokens = tokenizeLine(Line);
      if (Tokens.empty())
        continue;
      parseLine(Tokens, Out);
    }
    if (CurMethod)
      error("missing '.end method' at end of input");
    else if (CurClass)
      error("missing '.end class' at end of input");
    if (CurClass && !hasOwnErrors())
      Out.push_back(std::move(*CurClass));
    return Ok && !hasOwnErrors();
  }

private:
  void error(const std::string &Message) {
    Diags.error(Loc, Message);
    Ok = false;
  }

  /// True once this buffer reported an error. Diags also holds the errors
  /// of the app's other files, which must not drop this one.
  bool hasOwnErrors() const { return Diags.errorCount() != ErrorsBefore; }

  bool isRegister(const std::string &Tok) const {
    return Tok.size() >= 2 && (Tok[0] == 'v' || Tok[0] == 'p') &&
           std::all_of(Tok.begin() + 1, Tok.end(), [](char C) {
             return charclass::isDigit(C);
           });
  }

  /// Expects Tokens[I] to be a register; reports otherwise. The index must
  /// fit the 16-bit dex limit and, when the method declared '.registers N',
  /// a vX index must lie below N.
  bool takeReg(const std::vector<std::string> &Tokens, size_t &I,
               std::string &Out) {
    if (I >= Tokens.size() || !isRegister(Tokens[I])) {
      error("expected register operand");
      return false;
    }
    const std::string &Tok = Tokens[I];
    // isRegister guarantees all digits after the v/p prefix; the length
    // guard keeps stol well away from overflow.
    long Index = Tok.size() - 1 > 6 ? MaxRegisterCount + 1
                                    : std::stol(Tok.substr(1));
    if (Index > MaxRegisterCount) {
      error("register '" + Tok + "' exceeds the dex index limit of " +
            std::to_string(MaxRegisterCount));
      return false;
    }
    if (CurMethod && CurMethod->DeclaredRegs >= 0 && Tok[0] == 'v' &&
        Index >= CurMethod->DeclaredRegs) {
      error("register '" + Tok + "' outside the declared '.registers " +
            std::to_string(CurMethod->DeclaredRegs) + "' range");
      return false;
    }
    Out = Tokens[I++];
    return true;
  }

  bool takeComma(const std::vector<std::string> &Tokens, size_t &I) {
    if (I >= Tokens.size() || Tokens[I] != ",") {
      error("expected ','");
      return false;
    }
    ++I;
    return true;
  }

  static bool isNameToken(const std::string &Tok) {
    if (Tok.empty())
      return false;
    char C = Tok[0];
    return charclass::isAlpha(C) || C == '_' || C == '$' || C == '<';
  }

  bool takeName(const std::vector<std::string> &Tokens, size_t &I,
                std::string &Out) {
    if (I >= Tokens.size() || isRegister(Tokens[I]) ||
        !isNameToken(Tokens[I])) {
      error("expected name operand");
      return false;
    }
    Out = Tokens[I++];
    return true;
  }

  void parseLine(const std::vector<std::string> &Tokens,
                 std::vector<RawClass> &Out) {
    const std::string &Head = Tokens[0];

    if (Head == ".class" || Head == ".interface") {
      if (CurClass) {
        error("'.class' inside another class (missing '.end class'?)");
        return;
      }
      CurClass.emplace();
      CurClass->IsInterface = Head == ".interface";
      CurClass->Loc = Loc;
      size_t I = 1;
      if (!takeName(Tokens, I, CurClass->Name))
        return;
      if (I < Tokens.size() && Tokens[I] == "extends") {
        ++I;
        if (!takeName(Tokens, I, CurClass->Super))
          return;
      }
      if (I < Tokens.size() && Tokens[I] == "implements") {
        ++I;
        std::string Iface;
        if (!takeName(Tokens, I, Iface))
          return;
        CurClass->Interfaces.push_back(Iface);
        while (I < Tokens.size() && Tokens[I] == ",") {
          ++I;
          if (!takeName(Tokens, I, Iface))
            return;
          CurClass->Interfaces.push_back(Iface);
        }
      }
      return;
    }

    if (Head == ".end") {
      if (Tokens.size() < 2) {
        error("expected 'method' or 'class' after '.end'");
        return;
      }
      if (Tokens[1] == "method") {
        if (!CurMethod) {
          error("'.end method' outside a method");
          return;
        }
        CurClass->Methods.push_back(std::move(*CurMethod));
        CurMethod.reset();
        return;
      }
      if (Tokens[1] == "class") {
        if (CurMethod) {
          error("'.end class' inside a method");
          return;
        }
        if (!CurClass) {
          error("'.end class' outside a class");
          return;
        }
        Out.push_back(std::move(*CurClass));
        CurClass.reset();
        return;
      }
      error("unknown '.end' directive");
      return;
    }

    if (!CurClass) {
      error("'" + Head + "' outside a class");
      return;
    }

    if (Head == ".field") {
      RawField Field;
      size_t I = 1;
      if (I < Tokens.size() && Tokens[I] == "static") {
        Field.IsStatic = true;
        ++I;
      }
      if (!takeName(Tokens, I, Field.Name) ||
          !takeName(Tokens, I, Field.Type))
        return;
      CurClass->Fields.push_back(std::move(Field));
      return;
    }

    if (Head == ".method") {
      if (CurMethod) {
        error("'.method' inside another method");
        return;
      }
      CurMethod.emplace();
      CurMethod->Loc = Loc;
      size_t I = 1;
      if (I < Tokens.size() && Tokens[I] == "static") {
        CurMethod->IsStatic = true;
        ++I;
      }
      if (!takeName(Tokens, I, CurMethod->Name))
        return;
      if (I >= Tokens.size() || Tokens[I] != "(") {
        error("expected '(' after method name");
        return;
      }
      ++I;
      if (I < Tokens.size() && Tokens[I] != ")") {
        std::string Ty;
        if (!takeName(Tokens, I, Ty))
          return;
        CurMethod->ParamTypes.push_back(Ty);
        while (I < Tokens.size() && Tokens[I] == ",") {
          ++I;
          if (!takeName(Tokens, I, Ty))
            return;
          CurMethod->ParamTypes.push_back(Ty);
        }
      }
      if (I >= Tokens.size() || Tokens[I] != ")") {
        error("expected ')' in method signature");
        return;
      }
      ++I;
      if (I < Tokens.size())
        CurMethod->RetType = Tokens[I];
      else
        CurMethod->RetType = VoidTypeName;
      return;
    }

    if (Head == ".registers") {
      if (!CurMethod) {
        error("'.registers' outside a method");
        return;
      }
      if (Tokens.size() < 2) {
        error("'.registers' missing a count");
        return;
      }
      const std::string &Count = Tokens[1];
      bool Numeric = !Count.empty() &&
                     std::all_of(Count.begin(), Count.end(), [](char C) {
                       return charclass::isDigit(C);
                     });
      if (!Numeric) {
        error("'.registers' count '" + Count + "' is not a number");
        return;
      }
      long N = Count.size() > 6 ? MaxRegisterCount + 1 : std::stol(Count);
      if (N > MaxRegisterCount) {
        error("'.registers' count '" + Count +
              "' exceeds the dex limit of " +
              std::to_string(MaxRegisterCount));
        return;
      }
      if (CurMethod->DeclaredRegs >= 0) {
        error("duplicate '.registers' directive");
        return;
      }
      CurMethod->DeclaredRegs = N;
      return;
    }

    if (!CurMethod) {
      error("instruction outside a method");
      return;
    }
    parseInstruction(Tokens);
  }

  void parseInstruction(const std::vector<std::string> &Tokens) {
    RawInstr Instr;
    Instr.Loc = Loc;
    const std::string &Mnemonic = Tokens[0];
    size_t I = 1;

    auto push = [&] { CurMethod->Instrs.push_back(std::move(Instr)); };

    if (Mnemonic == "move") {
      Instr.Kind = InstrKind::Move;
      if (takeReg(Tokens, I, Instr.A) && takeComma(Tokens, I) &&
          takeReg(Tokens, I, Instr.B))
        push();
      return;
    }
    if (Mnemonic == "const-null") {
      Instr.Kind = InstrKind::ConstNull;
      if (takeReg(Tokens, I, Instr.A))
        push();
      return;
    }
    if (Mnemonic == "const-layout" || Mnemonic == "const-id" ||
        Mnemonic == "const-class" || Mnemonic == "new-instance") {
      Instr.Kind = Mnemonic == "const-layout" ? InstrKind::ConstLayout
                   : Mnemonic == "const-id"   ? InstrKind::ConstId
                   : Mnemonic == "const-class" ? InstrKind::ConstClass
                                               : InstrKind::NewInstance;
      if (takeReg(Tokens, I, Instr.A) && takeComma(Tokens, I) &&
          takeName(Tokens, I, Instr.Name))
        push();
      return;
    }
    if (Mnemonic == "iget" || Mnemonic == "iput") {
      Instr.Kind = Mnemonic == "iget" ? InstrKind::IGet : InstrKind::IPut;
      if (takeReg(Tokens, I, Instr.A) && takeComma(Tokens, I) &&
          takeReg(Tokens, I, Instr.B) && takeComma(Tokens, I) &&
          takeName(Tokens, I, Instr.Name))
        push();
      return;
    }
    if (Mnemonic == "sget" || Mnemonic == "sput") {
      Instr.Kind = Mnemonic == "sget" ? InstrKind::SGet : InstrKind::SPut;
      if (takeReg(Tokens, I, Instr.A) && takeComma(Tokens, I) &&
          takeName(Tokens, I, Instr.Name))
        push();
      return;
    }
    if (Mnemonic == "invoke") {
      Instr.Kind = InstrKind::Invoke;
      if (I >= Tokens.size() || Tokens[I] != "{") {
        error("expected '{' after 'invoke'");
        return;
      }
      ++I;
      std::string Reg;
      if (!takeReg(Tokens, I, Reg))
        return;
      Instr.Regs.push_back(Reg);
      while (I < Tokens.size() && Tokens[I] == ",") {
        ++I;
        if (!takeReg(Tokens, I, Reg))
          return;
        Instr.Regs.push_back(Reg);
      }
      if (I >= Tokens.size() || Tokens[I] != "}") {
        error("expected '}' in invoke register list");
        return;
      }
      ++I;
      if (!takeComma(Tokens, I) || !takeName(Tokens, I, Instr.Name))
        return;
      push();
      return;
    }
    if (Mnemonic == "move-result") {
      Instr.Kind = InstrKind::MoveResult;
      if (takeReg(Tokens, I, Instr.A))
        push();
      return;
    }
    if (Mnemonic == "return-void") {
      Instr.Kind = InstrKind::ReturnVoid;
      push();
      return;
    }
    if (Mnemonic == "return") {
      Instr.Kind = InstrKind::Return;
      if (takeReg(Tokens, I, Instr.A))
        push();
      return;
    }
    error("unknown instruction '" + Mnemonic + "'");
  }

  std::string_view Input;
  SourceLocation::FileRef File;
  DiagnosticEngine &Diags;
  const unsigned ErrorsBefore;
  SourceLocation Loc;
  std::optional<RawClass> CurClass;
  std::optional<RawMethod> CurMethod;
  bool Ok = true;
};

//===----------------------------------------------------------------------===//
// Lowering: RawClass -> IR with register type inference
//===----------------------------------------------------------------------===//

class Lowerer {
public:
  Lowerer(Program &P, DiagnosticEngine &Diags)
      : P(P), Diags(Diags), ErrorsBefore(Diags.errorCount()) {}

  bool run(const std::vector<RawClass> &Classes) {
    // Phase A: declare every class with fields and method signatures so
    // lowering can resolve cross references (including forward ones).
    std::vector<std::pair<const RawClass *, ClassDecl *>> Declared;
    for (const RawClass &RC : Classes) {
      ClassDecl *C = P.addClass(RC.Name, RC.IsInterface,
                                /*IsPlatform=*/false, &Diags);
      if (!C) {
        Ok = false;
        continue;
      }
      if (!RC.Super.empty())
        C->setSuperName(RC.Super);
      for (const std::string &Iface : RC.Interfaces)
        C->addInterfaceName(Iface);
      for (const RawField &F : RC.Fields)
        C->addField(F.Name, F.Type, F.IsStatic);
      for (const RawMethod &RM : RC.Methods) {
        MethodDecl *M = C->addMethod(RM.Name, RM.RetType, RM.IsStatic);
        for (size_t I = 0; I < RM.ParamTypes.size(); ++I)
          M->addParam(paramReg(I + (RM.IsStatic ? 0 : 1)), RM.ParamTypes[I]);
      }
      Declared.push_back({&RC, C});
    }

    // Type inference needs supertype walks (field/method lookup through
    // `extends`), so link the hierarchy before lowering bodies. This means
    // a DexLite buffer must not reference classes of a buffer parsed
    // later; platform classes and earlier buffers are fine.
    if (!P.resolve(Diags))
      return false;

    // Phase B: lower method bodies with register typing.
    for (auto &[RC, C] : Declared)
      for (const RawMethod &RM : RC->Methods)
        lowerMethod(*C, RM);
    return Ok && Diags.errorCount() == ErrorsBefore;
  }

private:
  void error(const SourceLocation &Loc, const std::string &Message) {
    Diags.error(Loc, Message);
    Ok = false;
  }

  const ClassDecl *classOf(const std::string &TypeName) const {
    if (TypeName.empty() || isPrimitiveTypeName(TypeName))
      return nullptr;
    return P.findClass(TypeName);
  }

  /// One register binding: the inferred type and the IR variable holding
  /// the register's current value.
  struct Binding {
    std::string TypeName;
    VarId Var = InvalidVar;
  };

  void lowerMethod(ClassDecl &C, const RawMethod &RM) {
    MethodDecl *M = C.findOwnMethod(
        RM.Name, static_cast<unsigned>(RM.ParamTypes.size()));
    if (!GATOR_CHECK(M != nullptr, &Diags,
                     "method vanished between declaration and lowering; "
                     "body skipped")) {
      Ok = false;
      return;
    }
    if (RM.Instrs.empty()) {
      M->setAbstract(true);
      return;
    }

    std::unordered_map<std::string, Binding> Regs;
    std::unordered_map<std::string, unsigned> SplitCount;

    // Parameter registers: p0 = this (instance), then the formals.
    if (!RM.IsStatic)
      Regs["p0"] = Binding{C.name().str(), M->thisVar()};
    for (size_t I = 0; I < RM.ParamTypes.size(); ++I) {
      std::string Reg = paramReg(I + (RM.IsStatic ? 0 : 1));
      Regs[Reg] =
          Binding{RM.ParamTypes[I], M->paramVar(static_cast<unsigned>(I))};
    }

    // Binds (or re-binds) a register at a type, splitting into a fresh IR
    // variable when the type changes.
    auto define = [&](const std::string &Reg,
                      const std::string &TypeName) -> VarId {
      auto It = Regs.find(Reg);
      if (It != Regs.end() && It->second.TypeName == TypeName)
        return It->second.Var;
      std::string VarName = Reg;
      unsigned &Count = SplitCount[Reg];
      if (Count > 0 || It != Regs.end()) {
        VarName += '$';
        VarName += std::to_string(++Count);
      }
      VarId V = M->addLocal(VarName, TypeName);
      Regs[Reg] = Binding{TypeName, V};
      return V;
    };

    auto use = [&](const std::string &Reg,
                   const SourceLocation &Loc) -> std::optional<Binding> {
      auto It = Regs.find(Reg);
      if (It == Regs.end()) {
        error(Loc, "use of unassigned register " + Reg + " in " +
                       M->qualifiedName());
        return std::nullopt;
      }
      return It->second;
    };

    // The invoke whose result the next move-result binds.
    struct PendingResult {
      size_t StmtIndex;
      std::string RetType;
    };
    std::optional<PendingResult> Pending;

    for (const RawInstr &Instr : RM.Instrs) {
      if (Instr.Kind != InstrKind::MoveResult)
        Pending.reset();

      switch (Instr.Kind) {
      case InstrKind::Move: {
        auto Src = use(Instr.B, Instr.Loc);
        if (!Src)
          break;
        Stmt S(StmtKind::AssignVar, Instr.Loc);
        S.Lhs = define(Instr.A, Src->TypeName);
        S.Base = Src->Var;
        M->appendStmt(S);
        break;
      }
      case InstrKind::ConstNull: {
        // Keep the existing binding's type when present (null is
        // assignable to anything); otherwise bind as Object.
        auto It = Regs.find(Instr.A);
        std::string Ty =
            It != Regs.end() ? It->second.TypeName : ObjectClassName;
        Stmt S(StmtKind::AssignNull, Instr.Loc);
        S.Lhs = define(Instr.A, Ty);
        M->appendStmt(S);
        break;
      }
      case InstrKind::ConstLayout:
      case InstrKind::ConstId: {
        Stmt S(Instr.Kind == InstrKind::ConstLayout ? StmtKind::AssignLayoutId
                                                    : StmtKind::AssignViewId,
               Instr.Loc);
        S.Lhs = define(Instr.A, IntTypeName);
        S.setResourceName(P.intern(Instr.Name));
        M->appendStmt(S);
        break;
      }
      case InstrKind::ConstClass: {
        Stmt S(StmtKind::AssignClassConst, Instr.Loc);
        S.Lhs = define(Instr.A, "java.lang.Class");
        S.setClassName(P.intern(Instr.Name));
        M->appendStmt(S);
        break;
      }
      case InstrKind::NewInstance: {
        Stmt S(StmtKind::AssignNew, Instr.Loc);
        S.Lhs = define(Instr.A, Instr.Name);
        S.setClassName(P.intern(Instr.Name));
        M->appendStmt(S);
        break;
      }
      case InstrKind::IGet: {
        auto Base = use(Instr.B, Instr.Loc);
        if (!Base)
          break;
        std::string FieldType = ObjectClassName;
        if (const ClassDecl *BC = classOf(Base->TypeName)) {
          if (const FieldDecl *F = BC->findField(Instr.Name))
            FieldType = F->typeName();
          else
            Diags.warning(Instr.Loc, "unknown field '" + Instr.Name +
                                         "' on type '" + Base->TypeName +
                                         "'; inferring java.lang.Object");
        }
        Stmt S(StmtKind::LoadField, Instr.Loc);
        S.Lhs = define(Instr.A, FieldType);
        S.Base = Base->Var;
        S.setFieldName(P.intern(Instr.Name));
        M->appendStmt(S);
        break;
      }
      case InstrKind::IPut: {
        auto Val = use(Instr.A, Instr.Loc);
        auto Base = use(Instr.B, Instr.Loc);
        if (!Val || !Base)
          break;
        Stmt S(StmtKind::StoreField, Instr.Loc);
        S.Base = Base->Var;
        S.setFieldName(P.intern(Instr.Name));
        S.Rhs = Val->Var;
        M->appendStmt(S);
        break;
      }
      case InstrKind::SGet:
      case InstrKind::SPut: {
        std::string ClassName, FieldName;
        if (!splitLastDot(Instr.Name, ClassName, FieldName)) {
          error(Instr.Loc, "static access needs 'Class.field'");
          break;
        }
        if (Instr.Kind == InstrKind::SGet) {
          std::string FieldType = ObjectClassName;
          if (const ClassDecl *SC = P.findClass(ClassName))
            if (const FieldDecl *F = SC->findField(FieldName))
              FieldType = F->typeName();
          Stmt S(StmtKind::LoadStaticField, Instr.Loc);
          S.Lhs = define(Instr.A, FieldType);
          S.setClassName(P.intern(ClassName));
          S.setFieldName(P.intern(FieldName));
          M->appendStmt(S);
        } else {
          auto Val = use(Instr.A, Instr.Loc);
          if (!Val)
            break;
          Stmt S(StmtKind::StoreStaticField, Instr.Loc);
          S.setClassName(P.intern(ClassName));
          S.setFieldName(P.intern(FieldName));
          S.Rhs = Val->Var;
          M->appendStmt(S);
        }
        break;
      }
      case InstrKind::Invoke: {
        auto Recv = use(Instr.Regs[0], Instr.Loc);
        if (!Recv)
          break;
        Stmt S(StmtKind::Invoke, Instr.Loc);
        S.Base = Recv->Var;
        S.setMethodName(P.intern(Instr.Name));
        bool ArgsOk = true;
        std::vector<VarId> Args;
        for (size_t I = 1; I < Instr.Regs.size(); ++I) {
          auto Arg = use(Instr.Regs[I], Instr.Loc);
          if (!Arg) {
            ArgsOk = false;
            break;
          }
          Args.push_back(Arg->Var);
        }
        if (!ArgsOk)
          break;
        S.setArgs(P.makeArgs(Args));

        // Infer the result type for a following move-result.
        std::string RetType = ObjectClassName;
        if (const ClassDecl *RC = classOf(Recv->TypeName))
          if (const MethodDecl *Callee = RC->findMethod(
                  Instr.Name, static_cast<unsigned>(S.args().size())))
            RetType = Callee->returnTypeName();

        M->appendStmt(S);
        Pending = PendingResult{M->body().size() - 1, RetType};
        break;
      }
      case InstrKind::MoveResult: {
        if (!Pending) {
          error(Instr.Loc, "move-result without preceding invoke");
          break;
        }
        VarId Dst = define(Instr.A, Pending->RetType);
        M->body()[Pending->StmtIndex].Lhs = Dst;
        Pending.reset();
        break;
      }
      case InstrKind::ReturnVoid: {
        Stmt S(StmtKind::Return, Instr.Loc);
        M->appendStmt(S);
        break;
      }
      case InstrKind::Return: {
        auto Val = use(Instr.A, Instr.Loc);
        if (!Val)
          break;
        Stmt S(StmtKind::Return, Instr.Loc);
        S.Lhs = Val->Var;
        M->appendStmt(S);
        break;
      }
      }
    }
  }

  Program &P;
  DiagnosticEngine &Diags;
  /// Errors already reported by the app's other files.
  const unsigned ErrorsBefore;
  bool Ok = true;
};

} // namespace

bool gator::dex::parseDexLite(std::string_view Input,
                              const std::string &FileName,
                              ir::Program &Program,
                              DiagnosticEngine &Diags) {
  std::vector<RawClass> Classes;
  DexParser Parser(Input, FileName, Diags);
  if (!Parser.run(Classes))
    return false;
  return Lowerer(Program, Diags).run(Classes);
}
