//===- Lexer.cpp - ALite token stream --------------------------*- C++ -*-===//

#include "parser/Lexer.h"

#include "support/CharClass.h"
#include "support/Hash.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <limits>
#include <new>
#include <string>

using namespace gator;
using namespace gator::parser;

const char *gator::parser::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::LayoutRef:
    return "@layout reference";
  case TokenKind::IdRef:
    return "@id reference";
  case TokenKind::KwClass:
    return "'class'";
  case TokenKind::KwInterface:
    return "'interface'";
  case TokenKind::KwExtends:
    return "'extends'";
  case TokenKind::KwImplements:
    return "'implements'";
  case TokenKind::KwField:
    return "'field'";
  case TokenKind::KwMethod:
    return "'method'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwStatic:
    return "'static'";
  case TokenKind::KwClassof:
    return "'classof'";
  case TokenKind::KwPlatform:
    return "'platform'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Assign:
    return "':='";
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Error:
    return "invalid token";
  }
  return "unknown";
}

namespace {

enum : uint8_t { IdentStart = 1, IdentChar = 2 };

/// Identifier classes: a letter, '_', '$' or '<' starts a name (allowing
/// `<init>`-style names), and digits and '>' may follow.
constexpr std::array<uint8_t, 256> IdentTable = [] {
  std::array<uint8_t, 256> T{};
  for (unsigned C = 0; C < 256; ++C) {
    if (charclass::Table[C] & charclass::Alpha)
      T[C] |= IdentStart | IdentChar;
    if (charclass::Table[C] & charclass::Digit)
      T[C] |= IdentChar;
  }
  for (unsigned C : {'_', '$', '<'})
    T[C] |= IdentStart | IdentChar;
  T['>'] |= IdentChar;
  return T;
}();

/// The end of the run of identifier characters starting at \p P.
const char *scanIdent(const char *P, const char *End) {
  while (P != End && (IdentTable[static_cast<unsigned char>(*P)] & IdentChar))
    ++P;
  return P;
}

/// What lexAll's loop does with a byte: the one switch of the lexer.
enum ByteClass : uint8_t {
  Other,     ///< an error: no token starts with this byte
  Blank,     ///< whitespace other than '\n'
  Newline,   ///< '\n': a new line starts after it, often indented
  NameStart, ///< an identifier or keyword
  Punct,     ///< a one-byte token; PunctKinds gives its kind
  ColonByte, ///< ':' or ':='
  AtByte,    ///< '@layout/name' or '@id/name'
  SlashByte, ///< '//' or '/*'; a lone '/' is an error
};

constexpr std::array<uint8_t, 256> ByteClasses = [] {
  std::array<uint8_t, 256> T{};
  for (unsigned C = 0; C < 256; ++C) {
    if (charclass::Table[C] & charclass::Space)
      T[C] = Blank;
    if (IdentTable[C] & IdentStart)
      T[C] = NameStart;
  }
  T['\n'] = Newline;
  for (unsigned C : {'{', '}', '(', ')', ';', ',', '.'})
    T[C] = Punct;
  T[':'] = ColonByte;
  T['@'] = AtByte;
  T['/'] = SlashByte;
  return T;
}();

constexpr std::array<TokenKind, 256> PunctKinds = [] {
  std::array<TokenKind, 256> T{};
  T['{'] = TokenKind::LBrace;
  T['}'] = TokenKind::RBrace;
  T['('] = TokenKind::LParen;
  T[')'] = TokenKind::RParen;
  T[';'] = TokenKind::Semicolon;
  T[','] = TokenKind::Comma;
  T['.'] = TokenKind::Dot;
  return T;
}();

/// Keyword lookup without hashing: dispatch on length, then compare.
TokenKind keywordOrIdentifier(std::string_view S) {
  switch (S.size()) {
  case 3:
    if (S == "var")
      return TokenKind::KwVar;
    if (S == "new")
      return TokenKind::KwNew;
    break;
  case 4:
    if (S == "null")
      return TokenKind::KwNull;
    break;
  case 5:
    if (S == "class")
      return TokenKind::KwClass;
    if (S == "field")
      return TokenKind::KwField;
    break;
  case 6:
    if (S == "method")
      return TokenKind::KwMethod;
    if (S == "return")
      return TokenKind::KwReturn;
    if (S == "static")
      return TokenKind::KwStatic;
    break;
  case 7:
    if (S == "extends")
      return TokenKind::KwExtends;
    if (S == "classof")
      return TokenKind::KwClassof;
    break;
  case 8:
    if (S == "platform")
      return TokenKind::KwPlatform;
    break;
  case 9:
    if (S == "interface")
      return TokenKind::KwInterface;
    break;
  case 10:
    if (S == "implements")
      return TokenKind::KwImplements;
    break;
  }
  return TokenKind::Identifier;
}

/// The number of '\n' bytes in \p S, counted eight bytes at a time: it
/// sizes the line-start table before lexing, and a byte-wise count would
/// cost a tenth of the lexer's time.
size_t countNewlines(std::string_view S) {
  constexpr uint64_t Ones = 0x0101010101010101ull;
  constexpr uint64_t Low7 = 0x7f7f7f7f7f7f7f7full;
  size_t Count = 0, I = 0;
  for (; I + 8 <= S.size(); I += 8) {
    uint64_t Word;
    std::memcpy(&Word, S.data() + I, 8);
    Word ^= Ones * '\n'; // newline bytes become zero
    // Bit 7 of each byte is set exactly when the byte is zero; the
    // multiply sums those bits into the top byte.
    const uint64_t Zero = ~(((Word & Low7) + Low7) | Word | Low7);
    Count += ((Zero >> 7) * Ones) >> 56;
  }
  for (; I < S.size(); ++I)
    Count += S[I] == '\n';
  return Count;
}

} // namespace

void TokenBuffer::reserve(size_t Bytes) {
  // Raw storage from the scalar operator new (which allocation counters
  // replace): the pages the stream never reaches are never touched.
  std::unique_ptr<uint8_t, FreeStream> Grown(
      static_cast<uint8_t *>(::operator new(Bytes)));
  if (Used)
    std::memcpy(Grown.get(), Data.get(), Used);
  Data = std::move(Grown);
  Capacity = Bytes;
}

void TokenBuffer::grow() {
  reserve(std::max<size_t>(2 * Capacity, 4 * MaxEncodedBytes));
}

void TokenBuffer::indexCheckpoints() const {
  Checkpoints.reserve((Count + CheckpointEvery - 1) / CheckpointEvery);
  const uint8_t *P = Data.get();
  Decoded D{0, 0, TokenKind::Identifier};
  for (size_t I = 0; I < Count; ++I) {
    if (I % CheckpointEvery == 0)
      Checkpoints.push_back(
          {static_cast<size_t>(P - Data.get()), D.Offset + D.Length});
    P = decode(P, D);
  }
}

const TokenBuffer::Decoded &TokenBuffer::seek(size_t I) const {
  assert(I < Count && "token index out of range");
  if (I == LastIndex)
    return Last;
  size_t Steps;
  const uint8_t *P;
  if (LastIndex < I && I - LastIndex <= CheckpointEvery) {
    Steps = I - LastIndex;
    P = Data.get() + LastNext;
  } else {
    if (Checkpoints.empty())
      indexCheckpoints();
    const Checkpoint &C = Checkpoints[I / CheckpointEvery];
    Steps = I % CheckpointEvery + 1;
    P = Data.get() + C.Byte;
    Last = {C.PrevEnd, 0, TokenKind::Identifier};
  }
  while (Steps--)
    P = decode(P, Last);
  LastIndex = I;
  LastNext = static_cast<size_t>(P - Data.get());
  return Last;
}

unsigned TokenBuffer::searchLine(uint32_t Offset) const {
  return static_cast<unsigned>(
      std::upper_bound(LineStarts.begin(), LineStarts.end(), Offset) -
      LineStarts.begin());
}

Lexer::Lexer(std::string_view Input, std::string_view FileName,
             DiagnosticEngine &Diags)
    : Input(Input), File(SourceLocation::internFile(FileName)), Diags(Diags) {}

SourceLocation Lexer::locAt(const TokenBuffer &Out, const char *P) const {
  const size_t Offset = static_cast<size_t>(P - Input.data());
  return SourceLocation(
      File, static_cast<unsigned>(Out.LineStarts.size()),
      static_cast<unsigned>(Offset - Out.LineStarts.back() + 1));
}

const char *Lexer::blockComment(TokenBuffer &Out, const char *P) {
  const SourceLocation Start = locAt(Out, P);
  const size_t Open = static_cast<size_t>(P - Input.data());
  const size_t Close = Input.find("*/", Open + 2);
  const size_t End = Close == std::string_view::npos ? Input.size() : Close + 2;
  for (size_t NL = Input.find('\n', Open); NL < End;
       NL = Input.find('\n', NL + 1))
    Out.LineStarts.push_back(static_cast<uint32_t>(NL + 1));
  if (Close == std::string_view::npos)
    Diags.error(Start, "unterminated block comment");
  return Input.data() + End;
}

const char *Lexer::badResource(TokenBuffer &Out, const char *Start) {
  // The loop has already taken every well-formed `@layout/name` and
  // `@id/name`, so whatever reaches here is an error. Its token spans
  // what was scanned, as an Error token.
  const char *const End = Input.data() + Input.size();
  const char *P = scanIdent(Start + 1, End);
  const std::string_view Kind(Start + 1, static_cast<size_t>(P - Start - 1));
  if (P == End || *P != '/') {
    Diags.error(locAt(Out, Start), "expected '/' in resource reference '@" +
                                       std::string(Kind) + "'");
  } else {
    const char *NameStart = P + 1;
    P = scanIdent(NameStart, End);
    if (P == NameStart)
      Diags.error(locAt(Out, Start),
                  "empty resource name in '@" + std::string(Kind) + "/'");
    else
      Diags.error(locAt(Out, Start),
                  "unknown resource kind '@" + std::string(Kind) + "/'");
  }
  pushChecked(Out, TokenKind::Error, Start, P);
  return P;
}

const char *Lexer::unexpectedChar(TokenBuffer &Out, const char *P) {
  Diags.error(locAt(Out, P),
              std::string("unexpected character '") + *P + "'");
  Out.push(static_cast<size_t>(P - Input.data()), 1, TokenKind::Error);
  return P + 1;
}

void Lexer::overlong(TokenBuffer &Out, const char *Start, size_t Length) {
  Diags.error(locAt(Out, Start),
              "token of " + std::to_string(Length) +
                  " bytes is longer than the limit of " +
                  std::to_string(TokenBuffer::MaxTokenLength) + " bytes");
  Out.push(static_cast<size_t>(Start - Input.data()),
           TokenBuffer::MaxTokenLength, TokenKind::Error);
}

void Lexer::tooLarge(TokenBuffer &Out) {
  Out.LineStarts.push_back(0);
  Diags.error(locAt(Out, Input.data()),
              "input of " + std::to_string(Input.size()) +
                  " bytes is too large; ALite inputs must be under 4 GiB");
  Out.push(0, 0, TokenKind::EndOfFile);
}

TokenBuffer Lexer::lexAll() {
  TokenBuffer Out;
  Out.Input = Input;
  Out.File = File;
  // Token offsets are 32-bit, so the input must stay under 4 GiB; a
  // larger one is rejected before any of it is read.
  if (Input.size() > std::numeric_limits<uint32_t>::max()) {
    tooLarge(Out);
    return Out;
  }
  // One reservation sized from the input covers real inputs; the line
  // starts are counted first and reserved exactly.
  Out.reserve(TokenBuffer::reservationFor(Input.size()));
  Out.LineStarts.reserve(countNewlines(Input) + 1);
  Out.LineStarts.push_back(0);

  const char *const Begin = Input.data();
  const char *const End = Begin + Input.size();
  // Every case below moves P forward, and never past End.
  const char *P = Begin;
  while (P != End) {
    const unsigned char C = static_cast<unsigned char>(*P);
    switch (ByteClasses[C]) {
    case Blank:
      // Take the whole run without going round the switch per byte.
      do
        ++P;
      while (P != End && ByteClasses[static_cast<unsigned char>(*P)] == Blank);
      break;
    case Newline:
      ++P;
      Out.LineStarts.push_back(static_cast<uint32_t>(P - Begin));
      // Most lines are indented with spaces: skip up to eight with one
      // load instead of one trip round the switch each. Byte K of the
      // little-endian word is P[K]; a longer run goes on as Blank.
      if (End - P >= 8) {
        const uint64_t NotSpace =
            support::detail::readLe64(
                reinterpret_cast<const unsigned char *>(P)) ^
            0x2020202020202020ull;
        P += NotSpace ? __builtin_ctzll(NotSpace) / 8 : 8;
      }
      break;
    case NameStart: {
      const char *Start = P;
      P = scanIdent(P + 1, End);
      const std::string_view Name(Start, static_cast<size_t>(P - Start));
      pushChecked(Out, keywordOrIdentifier(Name), Start, P);
      break;
    }
    case Punct:
      Out.push(static_cast<size_t>(P - Begin), 1, PunctKinds[C]);
      ++P;
      break;
    case ColonByte:
      if (End - P >= 2 && P[1] == '=') {
        Out.push(static_cast<size_t>(P - Begin), 2, TokenKind::Assign);
        P += 2;
      } else {
        Out.push(static_cast<size_t>(P - Begin), 1, TokenKind::Colon);
        ++P;
      }
      break;
    case AtByte: {
      // The token spans the whole reference; TokenBuffer::text drops
      // the prefix.
      const char *Start = P;
      TokenKind Kind;
      const char *Name;
      if (End - P > 8 && std::memcmp(P + 1, "layout/", 7) == 0) {
        Kind = TokenKind::LayoutRef;
        Name = P + 8;
      } else if (End - P > 4 && std::memcmp(P + 1, "id/", 3) == 0) {
        Kind = TokenKind::IdRef;
        Name = P + 4;
      } else {
        P = badResource(Out, Start);
        break;
      }
      P = scanIdent(Name, End);
      if (P == Name)
        P = badResource(Out, Start);
      else
        pushChecked(Out, Kind, Start, P);
      break;
    }
    case SlashByte:
      if (End - P >= 2 && P[1] == '/') {
        const void *NL = std::memchr(P, '\n', static_cast<size_t>(End - P));
        P = NL ? static_cast<const char *>(NL) : End;
        break;
      }
      if (End - P >= 2 && P[1] == '*') {
        P = blockComment(Out, P);
        break;
      }
      P = unexpectedChar(Out, P); // a lone '/'
      break;
    default:
      P = unexpectedChar(Out, P);
      break;
    }
  }
  Out.push(Input.size(), 0, TokenKind::EndOfFile);
  return Out;
}
