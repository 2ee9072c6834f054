//===- Parser.cpp - ALite textual frontend ----------------------*- C++ -*-===//

#include "parser/Parser.h"

using namespace gator;
using namespace gator::parser;
using namespace gator::ir;

namespace {

class AliteParser {
public:
  AliteParser(std::vector<Token> Tokens, Program &P, DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), P(P), Diags(Diags) {}

  bool run() {
    while (!at(TokenKind::EndOfFile)) {
      if (!parseDecl())
        syncToDeclEnd();
    }
    return Ok;
  }

private:
  //===--------------------------------------------------------------------===//
  // Token helpers
  //===--------------------------------------------------------------------===//

  const Token &cur() const { return Tokens[Index]; }
  const Token &lookahead(size_t N = 1) const {
    size_t I = Index + N;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  bool at(TokenKind Kind) const { return cur().is(Kind); }

  /// Consumes the current token. The reference stays valid for the
  /// parser's lifetime (the token vector never changes).
  const Token &take() {
    const Token &T = cur();
    if (!at(TokenKind::EndOfFile))
      ++Index;
    return T;
  }

  bool accept(TokenKind Kind) {
    if (!at(Kind))
      return false;
    take();
    return true;
  }

  bool expect(TokenKind Kind, const char *Context) {
    if (accept(Kind))
      return true;
    error(std::string("expected ") + tokenKindName(Kind) + " " + Context +
          ", found " + tokenKindName(cur().Kind));
    return false;
  }

  void error(const std::string &Message) {
    Diags.error(cur().Loc, Message);
    Ok = false;
  }

  /// Panic-mode recovery: skip to the end of the current brace-balanced
  /// declaration.
  void syncToDeclEnd() {
    int Depth = 0;
    while (!at(TokenKind::EndOfFile)) {
      if (at(TokenKind::LBrace))
        ++Depth;
      if (at(TokenKind::RBrace)) {
        --Depth;
        take();
        if (Depth <= 0)
          return;
        continue;
      }
      take();
      if (Depth == 0 && (at(TokenKind::KwClass) || at(TokenKind::KwInterface) ||
                         at(TokenKind::KwPlatform)))
        return;
    }
  }

  /// Skip to just past the next ';' (or stop before '}').
  void syncToStmtEnd() {
    while (!at(TokenKind::EndOfFile) && !at(TokenKind::RBrace)) {
      if (accept(TokenKind::Semicolon))
        return;
      take();
    }
  }

  //===--------------------------------------------------------------------===//
  // Names and types
  //===--------------------------------------------------------------------===//

  /// qname := ident ("." ident)*
  bool parseQName(std::string &Out, const char *Context) {
    if (!at(TokenKind::Identifier)) {
      error(std::string("expected name ") + Context);
      return false;
    }
    Out = take().Text;
    while (at(TokenKind::Dot) && lookahead().is(TokenKind::Identifier)) {
      take(); // '.'
      Out += '.';
      Out += take().Text;
    }
    return true;
  }

  /// Splits "a.b.C.f" into class "a.b.C" and member "f".
  static bool splitLastComponent(const std::string &QName, std::string &Prefix,
                                 std::string &Last) {
    size_t Pos = QName.rfind('.');
    if (Pos == std::string::npos || Pos + 1 >= QName.size())
      return false;
    Prefix = QName.substr(0, Pos);
    Last = QName.substr(Pos + 1);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  bool parseDecl() {
    bool IsPlatform = accept(TokenKind::KwPlatform);
    bool IsInterface;
    if (accept(TokenKind::KwClass)) {
      IsInterface = false;
    } else if (accept(TokenKind::KwInterface)) {
      IsInterface = true;
    } else {
      error("expected 'class' or 'interface'");
      return false;
    }

    std::string Name;
    if (!parseQName(Name, "after 'class'/'interface'"))
      return false;

    ClassDecl *C = P.addClass(Name, IsInterface, IsPlatform, &Diags);
    if (!C) {
      Ok = false;
      return false;
    }

    if (accept(TokenKind::KwExtends)) {
      std::string Super;
      if (!parseQName(Super, "after 'extends'"))
        return false;
      C->setSuperName(Super);
    }
    if (accept(TokenKind::KwImplements)) {
      do {
        std::string Iface;
        if (!parseQName(Iface, "after 'implements'"))
          return false;
        C->addInterfaceName(Iface);
      } while (accept(TokenKind::Comma));
    }

    if (!expect(TokenKind::LBrace, "to open class body"))
      return false;
    while (!at(TokenKind::RBrace) && !at(TokenKind::EndOfFile)) {
      if (!parseMember(*C))
        syncToStmtEnd();
    }
    return expect(TokenKind::RBrace, "to close class body");
  }

  bool parseMember(ClassDecl &C) {
    if (accept(TokenKind::KwField))
      return parseField(C);
    if (accept(TokenKind::KwMethod))
      return parseMethod(C);
    error("expected 'field' or 'method' in class body");
    return false;
  }

  bool parseField(ClassDecl &C) {
    bool IsStatic = accept(TokenKind::KwStatic);
    if (!at(TokenKind::Identifier)) {
      error("expected field name");
      return false;
    }
    std::string Name(take().Text);
    if (!expect(TokenKind::Colon, "after field name"))
      return false;
    std::string TypeName;
    if (!parseQName(TypeName, "as field type"))
      return false;
    if (!expect(TokenKind::Semicolon, "after field declaration"))
      return false;
    C.addField(std::move(Name), std::move(TypeName), IsStatic);
    return true;
  }

  bool parseMethod(ClassDecl &C) {
    bool IsStatic = accept(TokenKind::KwStatic);
    if (!at(TokenKind::Identifier)) {
      error("expected method name");
      return false;
    }
    std::string Name(take().Text);
    if (!expect(TokenKind::LParen, "after method name"))
      return false;

    struct Param {
      std::string Name, TypeName;
    };
    std::vector<Param> Params;
    if (!at(TokenKind::RParen)) {
      do {
        if (!at(TokenKind::Identifier)) {
          error("expected parameter name");
          return false;
        }
        Param Prm;
        Prm.Name = take().Text;
        if (!expect(TokenKind::Colon, "after parameter name"))
          return false;
        if (!parseQName(Prm.TypeName, "as parameter type"))
          return false;
        Params.push_back(std::move(Prm));
      } while (accept(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "to close parameter list"))
      return false;

    std::string RetType = VoidTypeName;
    if (accept(TokenKind::Colon)) {
      if (!parseQName(RetType, "as return type"))
        return false;
    }

    MethodDecl *M = C.addMethod(std::move(Name), std::move(RetType), IsStatic);
    for (Param &Prm : Params)
      M->addParam(std::move(Prm.Name), std::move(Prm.TypeName));

    if (accept(TokenKind::Semicolon)) {
      M->setAbstract(true);
      return true;
    }
    if (!expect(TokenKind::LBrace, "to open method body"))
      return false;
    while (!at(TokenKind::RBrace) && !at(TokenKind::EndOfFile)) {
      if (!parseStmt(*M))
        syncToStmtEnd();
    }
    return expect(TokenKind::RBrace, "to close method body");
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  VarId useVar(MethodDecl &M, const Token &NameTok) {
    VarId Id = M.findVar(NameTok.Text);
    if (Id == InvalidVar) {
      Diags.error(NameTok.Loc, "use of undeclared variable '" +
                                   std::string(NameTok.Text) + "'");
      Ok = false;
    }
    return Id;
  }

  bool parseArgs(MethodDecl &M, std::vector<VarId> &Args) {
    if (!expect(TokenKind::LParen, "to open argument list"))
      return false;
    if (!at(TokenKind::RParen)) {
      do {
        if (!at(TokenKind::Identifier)) {
          error("expected argument variable");
          return false;
        }
        VarId Arg = useVar(M, take());
        if (Arg == InvalidVar)
          return false;
        Args.push_back(Arg);
      } while (accept(TokenKind::Comma));
    }
    return expect(TokenKind::RParen, "to close argument list");
  }

  bool parseStmt(MethodDecl &M) {
    SourceLocation Loc = cur().Loc;

    // var x: T;
    if (accept(TokenKind::KwVar)) {
      if (!at(TokenKind::Identifier)) {
        error("expected variable name after 'var'");
        return false;
      }
      const Token &NameTok = take();
      if (M.findVar(NameTok.Text) != InvalidVar) {
        Diags.error(NameTok.Loc, "redeclaration of variable '" +
                                     std::string(NameTok.Text) + "'");
        Ok = false;
        return false;
      }
      if (!expect(TokenKind::Colon, "after variable name"))
        return false;
      std::string TypeName;
      if (!parseQName(TypeName, "as variable type"))
        return false;
      if (!expect(TokenKind::Semicolon, "after variable declaration"))
        return false;
      M.addLocal(std::string(NameTok.Text), std::move(TypeName));
      return true;
    }

    // return [x];
    if (accept(TokenKind::KwReturn)) {
      Stmt S;
      S.Kind = StmtKind::Return;
      S.Loc = Loc;
      if (at(TokenKind::Identifier)) {
        S.Lhs = useVar(M, take());
        if (S.Lhs == InvalidVar)
          return false;
      }
      if (!expect(TokenKind::Semicolon, "after return"))
        return false;
      M.body().push_back(std::move(S));
      return true;
    }

    // static C.f := y;
    if (accept(TokenKind::KwStatic)) {
      std::string QName;
      if (!parseQName(QName, "after 'static'"))
        return false;
      std::string ClassName, FieldName;
      if (!splitLastComponent(QName, ClassName, FieldName)) {
        error("static field access needs a qualified 'Class.field' name");
        return false;
      }
      if (!expect(TokenKind::Assign, "in static field store"))
        return false;
      if (!at(TokenKind::Identifier)) {
        error("expected variable on right-hand side of static store");
        return false;
      }
      VarId Rhs = useVar(M, take());
      if (Rhs == InvalidVar)
        return false;
      if (!expect(TokenKind::Semicolon, "after static store"))
        return false;
      Stmt S;
      S.Kind = StmtKind::StoreStaticField;
      S.Loc = Loc;
      S.ClassName = std::move(ClassName);
      S.FieldName = std::move(FieldName);
      S.Rhs = Rhs;
      M.body().push_back(std::move(S));
      return true;
    }

    // Remaining forms start with an identifier.
    if (!at(TokenKind::Identifier)) {
      error("expected statement");
      return false;
    }
    const Token &FirstTok = take();

    // x.f := y;   x.m(args);
    if (accept(TokenKind::Dot)) {
      if (!at(TokenKind::Identifier)) {
        error("expected member name after '.'");
        return false;
      }
      const Token &MemberTok = take();
      VarId Base = useVar(M, FirstTok);
      if (Base == InvalidVar)
        return false;

      if (at(TokenKind::LParen)) {
        Stmt S;
        S.Kind = StmtKind::Invoke;
        S.Loc = Loc;
        S.Base = Base;
        S.MethodName = MemberTok.Text;
        if (!parseArgs(M, S.Args))
          return false;
        if (!expect(TokenKind::Semicolon, "after call"))
          return false;
        M.body().push_back(std::move(S));
        return true;
      }

      if (!expect(TokenKind::Assign, "in field store"))
        return false;
      if (!at(TokenKind::Identifier)) {
        error("expected variable on right-hand side of field store");
        return false;
      }
      VarId Rhs = useVar(M, take());
      if (Rhs == InvalidVar)
        return false;
      if (!expect(TokenKind::Semicolon, "after field store"))
        return false;
      Stmt S;
      S.Kind = StmtKind::StoreField;
      S.Loc = Loc;
      S.Base = Base;
      S.FieldName = MemberTok.Text;
      S.Rhs = Rhs;
      M.body().push_back(std::move(S));
      return true;
    }

    // x := rhs;
    VarId Lhs = useVar(M, FirstTok);
    if (Lhs == InvalidVar)
      return false;
    if (!expect(TokenKind::Assign, "in assignment"))
      return false;
    if (!parseRhs(M, Lhs, Loc))
      return false;
    return expect(TokenKind::Semicolon, "after assignment");
  }

  bool parseRhs(MethodDecl &M, VarId Lhs, const SourceLocation &Loc) {
    // new C [(args)]
    if (accept(TokenKind::KwNew)) {
      std::string ClassName;
      if (!parseQName(ClassName, "after 'new'"))
        return false;
      Stmt S;
      S.Kind = StmtKind::AssignNew;
      S.Loc = Loc;
      S.Lhs = Lhs;
      S.ClassName = std::move(ClassName);
      M.body().push_back(std::move(S));

      if (at(TokenKind::LParen)) {
        std::vector<VarId> Args;
        if (!parseArgs(M, Args))
          return false;
        // Non-empty constructor argument lists lower to an `init` call on
        // the fresh object; `new C()` behaves like plain `new C`.
        if (!Args.empty()) {
          Stmt Init;
          Init.Kind = StmtKind::Invoke;
          Init.Loc = Loc;
          Init.Base = Lhs;
          Init.MethodName = "init";
          Init.Args = std::move(Args);
          M.body().push_back(std::move(Init));
        }
      }
      return true;
    }

    // null
    if (accept(TokenKind::KwNull)) {
      Stmt S;
      S.Kind = StmtKind::AssignNull;
      S.Loc = Loc;
      S.Lhs = Lhs;
      M.body().push_back(std::move(S));
      return true;
    }

    // @layout/name, @id/name
    if (at(TokenKind::LayoutRef) || at(TokenKind::IdRef)) {
      const Token &ResTok = take();
      Stmt S;
      S.Kind = ResTok.is(TokenKind::LayoutRef) ? StmtKind::AssignLayoutId
                                               : StmtKind::AssignViewId;
      S.Loc = Loc;
      S.Lhs = Lhs;
      S.ResourceName = ResTok.Text;
      M.body().push_back(std::move(S));
      return true;
    }

    // classof C
    if (accept(TokenKind::KwClassof)) {
      std::string ClassName;
      if (!parseQName(ClassName, "after 'classof'"))
        return false;
      Stmt S;
      S.Kind = StmtKind::AssignClassConst;
      S.Loc = Loc;
      S.Lhs = Lhs;
      S.ClassName = std::move(ClassName);
      M.body().push_back(std::move(S));
      return true;
    }

    // static C.f
    if (accept(TokenKind::KwStatic)) {
      std::string QName;
      if (!parseQName(QName, "after 'static'"))
        return false;
      std::string ClassName, FieldName;
      if (!splitLastComponent(QName, ClassName, FieldName)) {
        error("static field access needs a qualified 'Class.field' name");
        return false;
      }
      Stmt S;
      S.Kind = StmtKind::LoadStaticField;
      S.Loc = Loc;
      S.Lhs = Lhs;
      S.ClassName = std::move(ClassName);
      S.FieldName = std::move(FieldName);
      M.body().push_back(std::move(S));
      return true;
    }

    // y | y.f | y.m(args)
    if (!at(TokenKind::Identifier)) {
      error("expected right-hand side expression");
      return false;
    }
    VarId Base = useVar(M, take());
    if (Base == InvalidVar)
      return false;

    if (!accept(TokenKind::Dot)) {
      Stmt S;
      S.Kind = StmtKind::AssignVar;
      S.Loc = Loc;
      S.Lhs = Lhs;
      S.Base = Base;
      M.body().push_back(std::move(S));
      return true;
    }

    if (!at(TokenKind::Identifier)) {
      error("expected member name after '.'");
      return false;
    }
    const Token &MemberTok = take();

    if (at(TokenKind::LParen)) {
      Stmt S;
      S.Kind = StmtKind::Invoke;
      S.Loc = Loc;
      S.Lhs = Lhs;
      S.Base = Base;
      S.MethodName = MemberTok.Text;
      if (!parseArgs(M, S.Args))
        return false;
      M.body().push_back(std::move(S));
      return true;
    }

    Stmt S;
    S.Kind = StmtKind::LoadField;
    S.Loc = Loc;
    S.Lhs = Lhs;
    S.Base = Base;
    S.FieldName = MemberTok.Text;
    M.body().push_back(std::move(S));
    return true;
  }

  std::vector<Token> Tokens;
  Program &P;
  DiagnosticEngine &Diags;
  size_t Index = 0;
  bool Ok = true;
};

} // namespace

bool gator::parser::parseAlite(std::string_view Input,
                               const std::string &FileName,
                               ir::Program &Program,
                               DiagnosticEngine &Diags) {
  Lexer Lex(Input, FileName, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Diags.hasErrors())
    return false;
  return AliteParser(std::move(Tokens), Program, Diags).run();
}
