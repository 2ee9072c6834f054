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
#include <memory>
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

/// One token with its kind, spelling and location, built by value from a
/// TokenBuffer and never stored.
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

/// The tokens of one ALite buffer as a compact byte stream
/// (docs/MEMORY.md, "Token stream"). A token is one byte holding its kind
/// and the gap, in input bytes, since the end of the previous token; a
/// gap too large for the byte follows as a varint. Identifiers, resource
/// references and Error tokens then carry their length as a varint; every
/// other kind has a fixed length. On the corpus a token takes 1.44 bytes.
/// The buffer also keeps one 4-byte line start per source line; a
/// token's line and column are recovered from the line starts when a
/// Token is built. The stream takes one allocation sized from the input
/// and the line starts one exact allocation, so lexing allocates no
/// memory per token.
///
/// The parser reads the stream in order through a Cursor. size(), kind(),
/// text() and get() index it at random for tests and tools: the first
/// such call records a checkpoint every 64 tokens, and each call decodes
/// forward from the nearest one (or from the token read last, so reading
/// in order stays linear). Those caches make the const readers unsafe to
/// call from two threads at once.
///
/// The buffer views the lexer's input, with the same lifetime rule as
/// Token::Text.
class TokenBuffer {
  /// One token as decoded from the stream.
  struct Decoded {
    uint32_t Offset; ///< first byte of the token's full spelling
    uint32_t Length; ///< length of the full spelling
    TokenKind Kind;

    std::string_view text(std::string_view Input) const {
      // A resource reference's text is the name after "@layout/" or
      // "@id/".
      const uint32_t Skip = Kind == TokenKind::LayoutRef ? 8
                            : Kind == TokenKind::IdRef   ? 4
                                                         : 0;
      return std::string_view(Input.data() + Offset + Skip, Length - Skip);
    }
  };

public:
  /// Longest token the lexer stores, in bytes; a longer one is an error.
  static constexpr uint32_t MaxTokenLength = (1u << 24) - 1;

  size_t size() const { return Count; }
  TokenKind kind(size_t I) const { return seek(I).Kind; }
  /// The spelling of the token at \p I (Token::Text), without computing
  /// its location.
  std::string_view text(size_t I) const { return seek(I).text(Input); }

  /// The token at \p I. Its line is found by binary search; a reader
  /// walking the tokens in order passes the previous token's line as
  /// \p LineHint instead, which makes each lookup a short forward scan.
  Token get(size_t I, unsigned LineHint = 0) const {
    const Decoded &D = seek(I);
    return {D.Kind, D.text(Input), locAt(D.Offset, LineHint)};
  }
  Token operator[](size_t I) const { return get(I); }

  /// The location of input byte \p Offset; \p LineHint as for get().
  SourceLocation locAt(uint32_t Offset, unsigned LineHint = 0) const {
    const unsigned Line = lineOf(Offset, LineHint);
    return SourceLocation(File, Line, Offset - LineStarts[Line - 1] + 1);
  }

  /// Bytes the encoded tokens take (not the reservation).
  size_t streamBytes() const { return Used; }
  /// The stream bytes lexAll reserves for an input of \p InputBytes. A
  /// corpus token takes about 1.44 bytes of stream for 3.4 of input, so
  /// half the input covers real inputs; denser text falls back to
  /// doubling.
  static constexpr size_t reservationFor(size_t InputBytes) {
    return InputBytes / 2 + MaxEncodedBytes;
  }

  /// A forward reader over the stream with one token of lookahead: the
  /// parser's view of the tokens. Valid while the buffer is alive. Past
  /// the end it stays on the EndOfFile token.
  class Cursor {
  public:
    explicit Cursor(const TokenBuffer &Buf)
        : Input(Buf.Input), Next(Buf.Data.get()) {
      advance();
    }

    TokenKind kind() const { return Cur.Kind; }
    /// The first byte of the current token's full spelling (for a resource
    /// reference, its '@'): what locAt takes.
    uint32_t offset() const { return Cur.Offset; }
    std::string_view text() const { return Cur.text(Input); }
    /// The kind of the token after the current one.
    TokenKind nextKind() const {
      return Cur.Kind == TokenKind::EndOfFile ? TokenKind::EndOfFile
                                              : kindOf(*Next);
    }
    /// Moves to the next token; does nothing on EndOfFile.
    void advance() {
      if (Cur.Kind != TokenKind::EndOfFile)
        Next = decode(Next, Cur);
    }

  private:
    std::string_view Input;
    const uint8_t *Next; ///< the encoding of the token after Cur
    Decoded Cur{0, 0, TokenKind::Identifier};
  };

private:
  friend class Lexer;

  // The first byte of a token: kind in the low bits, gap in the high ones.
  static constexpr unsigned KindBits = 5;
  static constexpr uint8_t KindMask = (1u << KindBits) - 1;
  /// The gap field's escape value: a varint gap follows.
  static constexpr uint32_t GapEscape = (1u << (8 - KindBits)) - 1;
  /// The kinds whose length follows as a varint.
  static constexpr uint32_t VarLengthKinds =
      1u << static_cast<unsigned>(TokenKind::Identifier) |
      1u << static_cast<unsigned>(TokenKind::LayoutRef) |
      1u << static_cast<unsigned>(TokenKind::IdRef) |
      1u << static_cast<unsigned>(TokenKind::Error);
  /// The most bytes one token's encoding takes: the kind byte and two
  /// five-byte varints.
  static constexpr size_t MaxEncodedBytes = 11;
  /// Tokens between two random-access checkpoints.
  static constexpr size_t CheckpointEvery = 64;
  static_assert(static_cast<unsigned>(TokenKind::Error) <= KindMask,
                "every kind fits the kind bits");

  static constexpr TokenKind kindOf(uint8_t Byte) {
    return static_cast<TokenKind>(Byte & KindMask);
  }
  static constexpr bool hasVarLength(TokenKind Kind) {
    return VarLengthKinds >> static_cast<unsigned>(Kind) & 1;
  }
  /// The length of a token of a fixed-length kind, by kind: keywords,
  /// punctuation, ':=' and EndOfFile
  /// (LexerDifferentialTest.EncodingEscapesMatchTheReference lexes each).
  static constexpr uint8_t FixedLengths[KindMask + 1] = {
      0, 0, 0,                            // names and references
      5, 9, 7, 10, 5, 6, 3, 6, 3, 4, 6, 7, 8, // keywords, in enum order
      1, 1, 1, 1, 1, 1, 1, 1,             // punctuation
      2,                                  // :=
      0, 0};                              // EndOfFile, Error
  static constexpr uint32_t fixedLength(TokenKind Kind) {
    return FixedLengths[static_cast<unsigned>(Kind)];
  }

  static uint32_t readVarint(const uint8_t *&P) {
    uint32_t V = *P & 0x7f;
    for (unsigned Shift = 7; *P++ & 0x80; Shift += 7)
      V |= static_cast<uint32_t>(*P & 0x7f) << Shift;
    return V;
  }
  static uint8_t *writeVarint(uint8_t *W, uint32_t V) {
    while (V >= 0x80) {
      *W++ = static_cast<uint8_t>(V | 0x80);
      V >>= 7;
    }
    *W++ = static_cast<uint8_t>(V);
    return W;
  }

  /// Decodes the token encoded at \p P, which follows \p Prev, into
  /// \p Prev; returns the encoding of the token after it.
  static const uint8_t *decode(const uint8_t *P, Decoded &Prev) {
    const uint8_t Byte = *P++;
    uint32_t Gap = Byte >> KindBits;
    if (Gap == GapEscape) [[unlikely]]
      Gap = readVarint(P);
    Prev.Offset += Prev.Length + Gap;
    Prev.Kind = kindOf(Byte);
    Prev.Length =
        hasVarLength(Prev.Kind) ? readVarint(P) : fixedLength(Prev.Kind);
    return P;
  }

  /// Appends a token of \p Kind spanning [Offset, Offset + Length).
  void push(size_t Offset, size_t Length, TokenKind Kind) {
    if (Capacity - Used < MaxEncodedBytes) [[unlikely]]
      grow();
    uint8_t *W = Data.get() + Used;
    const uint32_t Gap = static_cast<uint32_t>(Offset) - End;
    if (Gap < GapEscape) {
      *W++ = static_cast<uint8_t>(static_cast<uint8_t>(Kind) |
                                  Gap << KindBits);
    } else {
      *W++ = static_cast<uint8_t>(static_cast<uint8_t>(Kind) |
                                  GapEscape << KindBits);
      W = writeVarint(W, Gap);
    }
    if (hasVarLength(Kind))
      W = writeVarint(W, static_cast<uint32_t>(Length));
    Used = static_cast<size_t>(W - Data.get());
    End = static_cast<uint32_t>(Offset + Length);
    ++Count;
  }
  /// Reserves \p Bytes of stream.
  void reserve(size_t Bytes);
  /// Doubles the stream's reservation (input denser than the estimate).
  [[gnu::cold, gnu::noinline]] void grow();

  /// The token at \p I, decoded from the last token read or the nearest
  /// checkpoint.
  const Decoded &seek(size_t I) const;
  /// Records the checkpoints seek() starts from.
  void indexCheckpoints() const;

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
  /// locAt() stays small enough to inline into the parser.
  unsigned searchLine(uint32_t Offset) const;

  std::string_view Input;
  SourceLocation::FileRef File = nullptr;
  /// Frees the stream with the operator new that allocated it.
  struct FreeStream {
    void operator()(uint8_t *P) const { ::operator delete(P); }
  };
  /// The encoded tokens: Used bytes written of Capacity reserved, never
  /// initialized, so untouched reservation costs no pages.
  std::unique_ptr<uint8_t, FreeStream> Data;
  size_t Used = 0;
  size_t Capacity = 0;
  size_t Count = 0;
  /// End offset of the last token pushed; the next token's gap starts here.
  uint32_t End = 0;
  /// Offset of the first byte of each line; LineStarts[0] is 0.
  std::vector<uint32_t> LineStarts;

  /// Random-access state (seek()): where token I * CheckpointEvery's
  /// encoding starts and the end of the token before it, then the token
  /// read last.
  struct Checkpoint {
    size_t Byte;
    uint32_t PrevEnd;
  };
  mutable std::vector<Checkpoint> Checkpoints;
  mutable size_t LastIndex = SIZE_MAX;
  mutable size_t LastNext = 0; ///< stream byte after the token read last
  mutable Decoded Last{0, 0, TokenKind::EndOfFile};
};

/// Produces the tokens of one ALite source buffer. `//` comments run to
/// end of line; `/* */` comments do not nest. An input of 4 GiB or more,
/// or a token longer than TokenBuffer::MaxTokenLength, is reported as an
/// error rather than stored.
///
/// lexAll is one loop that dispatches once per byte on a class table
/// (docs/MEMORY.md, "Token stream"). Whitespace, names, keywords,
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
  /// Appends a token for [Start, End), or reports a spelling longer than
  /// MaxTokenLength and appends an Error token of that length in its
  /// place.
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
