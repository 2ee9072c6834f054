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

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gator {
namespace parser {

enum class TokenKind : uint8_t {
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

/// One token as the parser sees it: kind, spelling and location, built by
/// value from a TokenBuffer record and never stored.
///
/// Lifetime: `Text` views the buffer passed to the Lexer, so a Token is
/// only valid while that buffer is alive and unmodified. Copy the spelling
/// into a std::string before the buffer goes away. `Loc` holds an interned
/// file name and stays valid for the life of the process.
struct Token {
  TokenKind Kind = TokenKind::Error;
  std::string_view Text; ///< The token's spelling; for resource
                         ///< references, just the name after the '/'.
  SourceLocation Loc;

  bool is(TokenKind K) const { return Kind == K; }
};

/// The tokens of one ALite buffer (docs/MEMORY.md, "Token records"). Each
/// token is an 8-byte record, `{offset, length << 8 | kind}`, and the
/// buffer keeps one 4-byte line start per source line; a token's line and
/// column are recovered from the line starts when a Token is built. The
/// records take one allocation sized from the input (ALite averages more
/// than three bytes per token) and the line starts one exact allocation,
/// so lexing allocates no memory per token.
///
/// The buffer views the lexer's input, with the same lifetime rule as
/// Token::Text.
class TokenBuffer {
public:
  /// Longest token a record can hold, in bytes.
  static constexpr uint32_t MaxTokenLength = (1u << 24) - 1;

  size_t size() const { return Records.size(); }
  TokenKind kind(size_t I) const {
    return static_cast<TokenKind>(Records[I].LengthKind & 0xff);
  }

  /// The token at \p I. Its line is found by binary search; a reader
  /// walking the tokens in order passes the previous token's line as
  /// \p LineHint instead, which makes each lookup a short forward scan.
  Token get(size_t I, unsigned LineHint = 0) const {
    const Record &R = Records[I];
    const TokenKind Kind = static_cast<TokenKind>(R.LengthKind & 0xff);
    const uint32_t Length = R.LengthKind >> 8;
    const unsigned Line = lineOf(R.Offset, LineHint);
    // A resource reference's text is the name after "@layout/" or "@id/".
    const uint32_t Skip = Kind == TokenKind::LayoutRef ? 8
                          : Kind == TokenKind::IdRef   ? 4
                                                       : 0;
    return {Kind,
            std::string_view(Input.data() + R.Offset + Skip, Length - Skip),
            SourceLocation(File, Line, R.Offset - LineStarts[Line - 1] + 1)};
  }
  Token operator[](size_t I) const { return get(I); }

private:
  friend class Lexer;

  struct Record {
    uint32_t Offset;     ///< first byte of the token's full spelling
    uint32_t LengthKind; ///< spelling length << 8 | TokenKind
  };
  static_assert(sizeof(Record) == 8, "see docs/MEMORY.md, \"Token records\"");

  /// The 1-based line holding byte \p Offset.
  unsigned lineOf(uint32_t Offset, unsigned LineHint) const {
    if (LineHint == 0 || LineHint > LineStarts.size() ||
        LineStarts[LineHint - 1] > Offset)
      return searchLine(Offset);
    while (LineHint < LineStarts.size() && LineStarts[LineHint] <= Offset)
      ++LineHint;
    return LineHint;
  }
  /// lineOf without a usable hint: a binary search, kept out of line so
  /// get() stays small enough to inline into the parser.
  unsigned searchLine(uint32_t Offset) const;

  std::string_view Input;
  SourceLocation::FileRef File = nullptr;
  std::vector<Record> Records;
  /// Offset of the first byte of each line; LineStarts[0] is 0.
  std::vector<uint32_t> LineStarts;
};

/// Produces the tokens of one ALite source buffer. `//` comments run to
/// end of line; `/* */` comments do not nest. An input of 4 GiB or more,
/// or a token longer than TokenBuffer::MaxTokenLength, is reported as an
/// error rather than stored in a record that cannot hold it.
class Lexer {
public:
  /// \p Input must outlive the tokens lexAll() returns. \p FileName is
  /// interned here, once.
  Lexer(std::string_view Input, std::string_view FileName,
        DiagnosticEngine &Diags);

  /// Lexes the whole input. The final token is always EndOfFile.
  TokenBuffer lexAll();

private:
  /// Lexes the token at Pos (trivia already skipped) into \p Out.
  void lexToken(TokenBuffer &Out);
  /// Appends a record for the spelling [Start, Pos) of kind \p Kind.
  void push(TokenBuffer &Out, TokenKind Kind, size_t Start);
  void skipTrivia(TokenBuffer &Out);
  /// Starts line Line + 1 at offset \p Next (just past a newline).
  void newLine(TokenBuffer &Out, size_t Next) {
    ++Line;
    LineStart = Next;
    Out.LineStarts.push_back(static_cast<uint32_t>(Next));
  }
  /// End of the run of identifier characters starting at \p From.
  size_t identEnd(size_t From) const;
  SourceLocation locAt(size_t Offset) const {
    return SourceLocation(File, Line,
                          static_cast<unsigned>(Offset - LineStart + 1));
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
