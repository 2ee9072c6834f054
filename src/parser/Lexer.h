//===- Lexer.h - ALite token stream -----------------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the textual ALite syntax. See parser/Parser.h for the
/// grammar. Resource references are lexed as single tokens:
/// `@layout/name` and `@id/name` (the concrete spellings of the paper's
/// `x := R.layout.f` / `x := R.id.f` statement forms).
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_PARSER_LEXER_H
#define GATOR_PARSER_LEXER_H

#include "support/Diagnostics.h"
#include "support/SourceLocation.h"

#include <string>
#include <string_view>
#include <vector>

namespace gator {
namespace parser {

enum class TokenKind {
  // Literals and names.
  Identifier,   ///< e.g. `flip`, `ConsoleActivity`
  LayoutRef,    ///< `@layout/name` (text() is the name)
  IdRef,        ///< `@id/name` (text() is the name)

  // Keywords.
  KwClass,
  KwInterface,
  KwExtends,
  KwImplements,
  KwField,
  KwMethod,
  KwVar,
  KwReturn,
  KwNew,
  KwNull,
  KwStatic,
  KwClassof,
  KwPlatform,

  // Punctuation.
  LBrace,       ///< {
  RBrace,       ///< }
  LParen,       ///< (
  RParen,       ///< )
  Colon,        ///< :
  Semicolon,    ///< ;
  Comma,        ///< ,
  Dot,          ///< .
  Assign,       ///< :=

  EndOfFile,
  Error,
};

/// Returns a printable name for \p Kind (for diagnostics).
const char *tokenKindName(TokenKind Kind);

/// One lexed token: 40 bytes, trivially copyable, never owning memory.
///
/// Lifetime: `Text` views the buffer passed to the Lexer, so a Token (and
/// every vector returned by lexAll) is only valid while that buffer is
/// alive and unmodified. Copy the spelling into a std::string before the
/// buffer goes away. `Loc` holds an interned file name and stays valid for
/// the life of the process.
struct Token {
  TokenKind Kind = TokenKind::Error;
  std::string_view Text; ///< The token's spelling; for resource
                         ///< references, just the name after the '/'.
  SourceLocation Loc;

  bool is(TokenKind K) const { return Kind == K; }
};

/// Produces the token stream for one ALite source buffer. `//` comments
/// run to end of line; `/* */` comments do not nest. The lexer makes no
/// heap allocation per token: lexAll() reserves the token vector once,
/// sized from the input length, and tokens view the input.
class Lexer {
public:
  /// \p Input must outlive the tokens lexAll() returns. \p FileName is
  /// interned here, once.
  Lexer(std::string_view Input, std::string_view FileName,
        DiagnosticEngine &Diags);

  /// Lexes the whole input. The final token is always EndOfFile.
  std::vector<Token> lexAll();

private:
  Token next();
  void skipTrivia();
  /// Moves Pos to \p End, updating Line and LineStart for the skipped
  /// text.
  void advanceTo(size_t End);
  /// End of the run of identifier characters starting at \p From.
  size_t identEnd(size_t From) const;
  SourceLocation here() const {
    return SourceLocation(File, Line,
                          static_cast<unsigned>(Pos - LineStart + 1));
  }

  std::string_view Input;
  SourceLocation::FileRef File;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  /// Offset of the first byte of the current line; the column is
  /// derived from it, so scanning within a line only moves Pos.
  size_t LineStart = 0;
};

} // namespace parser
} // namespace gator

#endif // GATOR_PARSER_LEXER_H
