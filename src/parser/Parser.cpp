//===- Parser.cpp - ALite textual frontend ----------------------*- C++ -*-===//

#include "parser/Parser.h"

using namespace gator;
using namespace gator::parser;
using namespace gator::ir;

namespace {

class AliteParser {
public:
  AliteParser(TokenBuffer Buffer, Program &P, DiagnosticEngine &Diags)
      : Tokens(std::move(Buffer)), Cur(Tokens), P(P), Diags(Diags),
        VoidName(P.intern(VoidTypeName)) {}

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

  /// A token as the parser reads it: its kind, its spelling and the input
  /// offset it starts at, but no location. Only a statement's start and a
  /// diagnostic need one, and locOf computes it from the offset then.
  struct TokenRef {
    TokenKind Kind;
    std::string_view Text;
    uint32_t Offset;

    bool is(TokenKind K) const { return Kind == K; }
  };

  TokenRef cur() const { return {Cur.kind(), Cur.text(), Cur.offset()}; }
  TokenKind nextKind() const { return Cur.nextKind(); }
  bool at(TokenKind Kind) const { return Cur.kind() == Kind; }

  /// Consumes and returns the current token.
  TokenRef take() {
    TokenRef T = cur();
    Cur.advance();
    return T;
  }

  /// The location of the token starting at input byte \p Offset.
  /// Locations are asked for in token order, so the line of the last one
  /// is the hint for the next.
  SourceLocation locOf(uint32_t Offset) {
    const SourceLocation Loc = Tokens.locAt(Offset, Line);
    Line = Loc.line();
    return Loc;
  }

  bool accept(TokenKind Kind) {
    if (!at(Kind))
      return false;
    take();
    return true;
  }

  bool expect(TokenKind Kind, const char *Context) {
    return accept(Kind) || expectFailed(Kind, Context);
  }

  /// expect's error path, kept out of line so expect inlines.
  [[gnu::cold, gnu::noinline]] bool expectFailed(TokenKind Kind,
                                                 const char *Context) {
    error(std::string("expected ") + tokenKindName(Kind) + " " + Context +
          ", found " + tokenKindName(Cur.kind()));
    return false;
  }

  void error(const std::string &Message) {
    Diags.error(locOf(Cur.offset()), Message);
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

  /// Interns a token's spelling (it views the input buffer).
  ir::Name intern(const TokenRef &T) { return P.intern(T.Text); }

  /// qname := ident ("." ident)*
  ///
  /// The spelling is the identifiers joined by '.'. When no trivia sits
  /// between the tokens it is one contiguous span of the input and is
  /// interned straight from there; only a split spelling is assembled in
  /// the reused scratch buffer.
  bool parseQName(ir::Name &Out, const char *Context) {
    if (!at(TokenKind::Identifier)) {
      error(std::string("expected name ") + Context);
      return false;
    }
    std::string_view First = take().Text;
    const char *End = First.data() + First.size();
    bool Contiguous = true;
    Scratch.clear();
    while (at(TokenKind::Dot) && nextKind() == TokenKind::Identifier) {
      std::string_view Dot = take().Text;
      std::string_view Part = take().Text;
      if (Contiguous && Dot.data() == End && Part.data() == End + 1) {
        End = Part.data() + Part.size();
        continue;
      }
      if (Contiguous) {
        Scratch.assign(First.data(), End);
        Contiguous = false;
      }
      Scratch += '.';
      Scratch += Part;
    }
    Out = P.intern(Contiguous ? std::string_view(First.data(),
                                                 End - First.data())
                              : std::string_view(Scratch));
    return true;
  }

  /// Splits "a.b.C.f" into class "a.b.C" and member "f".
  bool splitLastComponent(ir::Name QName, ir::Name &Prefix, ir::Name &Last) {
    std::string_view Text = QName.view();
    size_t Pos = Text.rfind('.');
    if (Pos == std::string_view::npos || Pos + 1 >= Text.size())
      return false;
    Prefix = P.intern(Text.substr(0, Pos));
    Last = P.intern(Text.substr(Pos + 1));
    return true;
  }

  /// Appends a statement to the body of the method being parsed.
  void emit(const Stmt &S) { Body.push_back(S); }

  /// Copies the argument scratch list onto the program's arena.
  ir::ArgList takeArgs() { return P.makeArgs(Args); }

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

    ir::Name Name;
    if (!parseQName(Name, "after 'class'/'interface'"))
      return false;

    ClassDecl *C = P.addClass(Name, IsInterface, IsPlatform, &Diags);
    if (!C) {
      Ok = false;
      return false;
    }

    if (accept(TokenKind::KwExtends)) {
      ir::Name Super;
      if (!parseQName(Super, "after 'extends'"))
        return false;
      C->setSuperName(Super);
    }
    if (accept(TokenKind::KwImplements)) {
      do {
        ir::Name Iface;
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
    ir::Name Name = intern(take());
    if (!expect(TokenKind::Colon, "after field name"))
      return false;
    ir::Name TypeName;
    if (!parseQName(TypeName, "as field type"))
      return false;
    if (!expect(TokenKind::Semicolon, "after field declaration"))
      return false;
    C.addField(Name, TypeName, IsStatic);
    return true;
  }

  bool parseMethod(ClassDecl &C) {
    bool IsStatic = accept(TokenKind::KwStatic);
    if (!at(TokenKind::Identifier)) {
      error("expected method name");
      return false;
    }
    ir::Name Name = intern(take());
    if (!expect(TokenKind::LParen, "after method name"))
      return false;

    Params.clear();
    if (!at(TokenKind::RParen)) {
      do {
        if (!at(TokenKind::Identifier)) {
          error("expected parameter name");
          return false;
        }
        Param Prm;
        Prm.Name = intern(take());
        if (!expect(TokenKind::Colon, "after parameter name"))
          return false;
        if (!parseQName(Prm.TypeName, "as parameter type"))
          return false;
        Params.push_back(Prm);
      } while (accept(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "to close parameter list"))
      return false;

    ir::Name RetType;
    if (accept(TokenKind::Colon)) {
      if (!parseQName(RetType, "as return type"))
        return false;
    } else {
      RetType = VoidName;
    }

    MethodDecl *M = C.addMethod(Name, RetType, IsStatic);
    for (const Param &Prm : Params)
      M->addParam(Prm.Name, Prm.TypeName);

    if (accept(TokenKind::Semicolon)) {
      M->setAbstract(true);
      return true;
    }
    if (!expect(TokenKind::LBrace, "to open method body"))
      return false;
    // Statements collect in the reused Body scratch and land on the arena
    // as one exact-size block.
    Body.clear();
    while (!at(TokenKind::RBrace) && !at(TokenKind::EndOfFile)) {
      if (!parseStmt(*M))
        syncToStmtEnd();
    }
    M->setBody(Body);
    return expect(TokenKind::RBrace, "to close method body");
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  VarId useVar(MethodDecl &M, const TokenRef &NameTok) {
    VarId Id = M.findVar(NameTok.Text);
    if (Id == InvalidVar) {
      Diags.error(locOf(NameTok.Offset), "use of undeclared variable '" +
                                             std::string(NameTok.Text) + "'");
      Ok = false;
    }
    return Id;
  }

  /// Parses `(a, b, ...)` into the Args scratch list.
  bool parseArgs(MethodDecl &M) {
    Args.clear();
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
    const uint32_t Start = Cur.offset();

    // var x: T;
    if (accept(TokenKind::KwVar)) {
      if (!at(TokenKind::Identifier)) {
        error("expected variable name after 'var'");
        return false;
      }
      const TokenRef NameTok = take();
      if (M.findVar(NameTok.Text) != InvalidVar) {
        Diags.error(locOf(NameTok.Offset), "redeclaration of variable '" +
                                               std::string(NameTok.Text) + "'");
        Ok = false;
        return false;
      }
      if (!expect(TokenKind::Colon, "after variable name"))
        return false;
      ir::Name TypeName;
      if (!parseQName(TypeName, "as variable type"))
        return false;
      if (!expect(TokenKind::Semicolon, "after variable declaration"))
        return false;
      M.addLocal(intern(NameTok), TypeName);
      return true;
    }

    // The other statements are emitted at the location of their first
    // token; a `var` declaration needs none.
    const SourceLocation Loc = locOf(Start);

    // return [x];
    if (accept(TokenKind::KwReturn)) {
      Stmt S(StmtKind::Return, Loc);
      if (at(TokenKind::Identifier)) {
        S.Lhs = useVar(M, take());
        if (S.Lhs == InvalidVar)
          return false;
      }
      if (!expect(TokenKind::Semicolon, "after return"))
        return false;
      emit(S);
      return true;
    }

    // static C.f := y;
    if (accept(TokenKind::KwStatic)) {
      ir::Name QName;
      if (!parseQName(QName, "after 'static'"))
        return false;
      ir::Name ClassName, FieldName;
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
      Stmt S(StmtKind::StoreStaticField, Loc);
      S.setClassName(ClassName);
      S.setFieldName(FieldName);
      S.Rhs = Rhs;
      emit(S);
      return true;
    }

    // Remaining forms start with an identifier.
    if (!at(TokenKind::Identifier)) {
      error("expected statement");
      return false;
    }
    const TokenRef FirstTok = take();

    // x.f := y;   x.m(args);
    if (accept(TokenKind::Dot)) {
      if (!at(TokenKind::Identifier)) {
        error("expected member name after '.'");
        return false;
      }
      const TokenRef MemberTok = take();
      VarId Base = useVar(M, FirstTok);
      if (Base == InvalidVar)
        return false;

      if (at(TokenKind::LParen)) {
        Stmt S(StmtKind::Invoke, Loc);
        S.Base = Base;
        S.setMethodName(intern(MemberTok));
        if (!parseArgs(M))
          return false;
        S.setArgs(takeArgs());
        if (!expect(TokenKind::Semicolon, "after call"))
          return false;
        emit(S);
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
      Stmt S(StmtKind::StoreField, Loc);
      S.Base = Base;
      S.setFieldName(intern(MemberTok));
      S.Rhs = Rhs;
      emit(S);
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
      ir::Name ClassName;
      if (!parseQName(ClassName, "after 'new'"))
        return false;
      Stmt S(StmtKind::AssignNew, Loc);
      S.Lhs = Lhs;
      S.setClassName(ClassName);
      emit(S);

      if (at(TokenKind::LParen)) {
        if (!parseArgs(M))
          return false;
        // Non-empty constructor argument lists lower to an `init` call on
        // the fresh object; `new C()` behaves like plain `new C`.
        if (!Args.empty()) {
          Stmt Init(StmtKind::Invoke, Loc);
          Init.Base = Lhs;
          Init.setMethodName(P.intern("init"));
          Init.setArgs(takeArgs());
          emit(Init);
        }
      }
      return true;
    }

    // null
    if (accept(TokenKind::KwNull)) {
      Stmt S(StmtKind::AssignNull, Loc);
      S.Lhs = Lhs;
      emit(S);
      return true;
    }

    // @layout/name, @id/name
    if (at(TokenKind::LayoutRef) || at(TokenKind::IdRef)) {
      const TokenRef ResTok = take();
      Stmt S(ResTok.is(TokenKind::LayoutRef) ? StmtKind::AssignLayoutId
                                             : StmtKind::AssignViewId,
             Loc);
      S.Lhs = Lhs;
      S.setResourceName(intern(ResTok));
      emit(S);
      return true;
    }

    // classof C
    if (accept(TokenKind::KwClassof)) {
      ir::Name ClassName;
      if (!parseQName(ClassName, "after 'classof'"))
        return false;
      Stmt S(StmtKind::AssignClassConst, Loc);
      S.Lhs = Lhs;
      S.setClassName(ClassName);
      emit(S);
      return true;
    }

    // static C.f
    if (accept(TokenKind::KwStatic)) {
      ir::Name QName;
      if (!parseQName(QName, "after 'static'"))
        return false;
      ir::Name ClassName, FieldName;
      if (!splitLastComponent(QName, ClassName, FieldName)) {
        error("static field access needs a qualified 'Class.field' name");
        return false;
      }
      Stmt S(StmtKind::LoadStaticField, Loc);
      S.Lhs = Lhs;
      S.setClassName(ClassName);
      S.setFieldName(FieldName);
      emit(S);
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
      Stmt S(StmtKind::AssignVar, Loc);
      S.Lhs = Lhs;
      S.Base = Base;
      emit(S);
      return true;
    }

    if (!at(TokenKind::Identifier)) {
      error("expected member name after '.'");
      return false;
    }
    const TokenRef MemberTok = take();

    if (at(TokenKind::LParen)) {
      Stmt S(StmtKind::Invoke, Loc);
      S.Lhs = Lhs;
      S.Base = Base;
      S.setMethodName(intern(MemberTok));
      if (!parseArgs(M))
        return false;
      S.setArgs(takeArgs());
      emit(S);
      return true;
    }

    Stmt S(StmtKind::LoadField, Loc);
    S.Lhs = Lhs;
    S.Base = Base;
    S.setFieldName(intern(MemberTok));
    emit(S);
    return true;
  }

  struct Param {
    ir::Name Name, TypeName;
  };

  TokenBuffer Tokens;
  TokenBuffer::Cursor Cur; ///< the current token; reads Tokens in order
  Program &P;
  DiagnosticEngine &Diags;
  unsigned Line = 1; ///< line of the last location computed
  bool Ok = true;
  ir::Name VoidName;

  // Scratch reused across declarations, so parsing allocates per file,
  // not per method or statement.
  std::string Scratch;        ///< a dotted name split by trivia
  std::vector<Param> Params;  ///< the current method's parameters
  std::vector<Stmt> Body;     ///< the current method's statements
  std::vector<VarId> Args;    ///< the current call's arguments
};

} // namespace

bool gator::parser::parseAlite(std::string_view Input,
                               const std::string &FileName,
                               ir::Program &Program,
                               DiagnosticEngine &Diags) {
  // Only this file's lex errors stop it: Diags also holds the errors of
  // the app's earlier files, which must not drop this one.
  const unsigned ErrorsBefore = Diags.errorCount();
  Lexer Lex(Input, FileName, Diags);
  TokenBuffer Tokens = Lex.lexAll();
  if (Diags.errorCount() != ErrorsBefore)
    return false;
  return AliteParser(std::move(Tokens), Program, Diags).run();
}
