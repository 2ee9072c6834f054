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

  /// The spelling of the token at \p I (Token::Text), without computing
  /// its location.
  std::string_view text(size_t I) const {
    const Record &R = Records[I];
    const TokenKind Kind = static_cast<TokenKind>(R.LengthKind & 0xff);
    // A resource reference's text is the name after "@layout/" or "@id/".
    const uint32_t Skip = Kind == TokenKind::LayoutRef ? 8
                          : Kind == TokenKind::IdRef   ? 4
                                                       : 0;
    return std::string_view(Input.data() + R.Offset + Skip,
                            (R.LengthKind >> 8) - Skip);
  }

  /// The token at \p I. Its line is found by binary search; a reader
  /// walking the tokens in order passes the previous token's line as
  /// \p LineHint instead, which makes each lookup a short forward scan.
  Token get(size_t I, unsigned LineHint = 0) const {
    const uint32_t Offset = Records[I].Offset;
    const unsigned Line = lineOf(Offset, LineHint);
    return {kind(I), text(I),
            SourceLocation(File, Line, Offset - LineStarts[Line - 1] + 1)};
  }
  Token operator[](size_t I) const { return get(I); }

private:
  friend class Lexer;

  struct Record {
    uint32_t Offset;     ///< first byte of the token's full spelling
    uint32_t LengthKind; ///< spelling length << 8 | TokenKind
  };
  static_assert(sizeof(Record) == 8, "see docs/MEMORY.md, \"Token records\"");

  void push(size_t Offset, size_t Length, TokenKind Kind) {
    Records.push_back({static_cast<uint32_t>(Offset),
                       static_cast<uint32_t>(Length) << 8 |
                           static_cast<uint32_t>(Kind)});
  }

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
///
/// lexAll is one loop that dispatches once per byte on a class table
/// (docs/MEMORY.md, "Token records"). Whitespace, names, keywords,
/// punctuation, `:=`, resource references and line comments are handled
/// in the loop; block comments, errors and the two size limits go to the
/// out-of-line helpers below, which return to it. The input is read only
/// within its view: no terminator is assumed.
class Lexer {
public:
  /// \p Input must outlive the tokens lexAll() returns. \p FileName is
  /// interned here, once.
  Lexer(std::string_view Input, std::string_view FileName,
        DiagnosticEngine &Diags);

  /// Lexes the whole input. The final token is always EndOfFile.
  TokenBuffer lexAll();

private:
  /// The location of \p P, on the line Out's line starts have reached.
  SourceLocation locAt(const TokenBuffer &Out, const char *P) const;
  /// Appends a record for [Start, End), or reports a spelling longer than
  /// a record can hold and appends an Error record in its place.
  void pushChecked(TokenBuffer &Out, TokenKind Kind, const char *Start,
                   const char *End) {
    const size_t Length = static_cast<size_t>(End - Start);
    if (Length > TokenBuffer::MaxTokenLength) [[unlikely]]
      return overlong(Out, Start, Length);
    Out.push(static_cast<size_t>(Start - Input.data()), Length, Kind);
  }

  // The rare paths, kept out of lexAll's loop. Those that consume input
  // return the position lexing resumes at.
  [[gnu::cold, gnu::noinline]] const char *
  blockComment(TokenBuffer &Out, const char *P);
  [[gnu::cold, gnu::noinline]] const char *
  badResource(TokenBuffer &Out, const char *Start);
  [[gnu::cold, gnu::noinline]] const char *
  unexpectedChar(TokenBuffer &Out, const char *P);
  [[gnu::cold, gnu::noinline]] void overlong(TokenBuffer &Out,
                                             const char *Start,
                                             size_t Length);
  [[gnu::cold, gnu::noinline]] void tooLarge(TokenBuffer &Out);

  std::string_view Input;
  SourceLocation::FileRef File;
  DiagnosticEngine &Diags;
};

} // namespace parser
} // namespace gator

#endif // GATOR_PARSER_LEXER_H
