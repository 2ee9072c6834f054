//===- Lexer.cpp - ALite token stream --------------------------*- C++ -*-===//

#include "parser/Lexer.h"

#include "support/CharClass.h"

#include <algorithm>
#include <cstring>
#include <limits>
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

bool isIdentStart(char C) {
  return IdentTable[static_cast<unsigned char>(C)] & IdentStart;
}
bool isIdentChar(char C) {
  return IdentTable[static_cast<unsigned char>(C)] & IdentChar;
}

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

unsigned TokenBuffer::searchLine(uint32_t Offset) const {
  return static_cast<unsigned>(
      std::upper_bound(LineStarts.begin(), LineStarts.end(), Offset) -
      LineStarts.begin());
}

Lexer::Lexer(std::string_view Input, std::string_view FileName,
             DiagnosticEngine &Diags)
    : Input(Input), File(SourceLocation::internFile(FileName)), Diags(Diags) {}

size_t Lexer::identEnd(size_t From) const {
  while (From < Input.size() && isIdentChar(Input[From]))
    ++From;
  return From;
}

void Lexer::skipTrivia(TokenBuffer &Out) {
  const size_t Size = Input.size();
  for (;;) {
    while (Pos < Size && charclass::isSpace(Input[Pos])) {
      if (Input[Pos] == '\n')
        newLine(Out, Pos + 1);
      ++Pos;
    }
    if (Pos + 1 >= Size || Input[Pos] != '/')
      return;
    if (Input[Pos + 1] == '/') {
      size_t End = Input.find('\n', Pos);
      Pos = End == std::string_view::npos ? Size : End;
      continue;
    }
    if (Input[Pos + 1] == '*') {
      const SourceLocation Start = locAt(Pos);
      const size_t Close = Input.find("*/", Pos + 2);
      const size_t End = Close == std::string_view::npos ? Size : Close + 2;
      for (size_t NL = Input.find('\n', Pos); NL < End;
           NL = Input.find('\n', NL + 1))
        newLine(Out, NL + 1);
      Pos = End;
      if (Close == std::string_view::npos) {
        Diags.error(Start, "unterminated block comment");
        return;
      }
      continue;
    }
    return;
  }
}

void Lexer::push(TokenBuffer &Out, TokenKind Kind, size_t Start) {
  size_t Length = Pos - Start;
  if (Length > TokenBuffer::MaxTokenLength) {
    Diags.error(locAt(Start),
                "token of " + std::to_string(Length) +
                    " bytes is longer than the limit of " +
                    std::to_string(TokenBuffer::MaxTokenLength) + " bytes");
    Kind = TokenKind::Error;
    Length = TokenBuffer::MaxTokenLength;
  }
  Out.Records.push_back(
      {static_cast<uint32_t>(Start),
       static_cast<uint32_t>(Length) << 8 | static_cast<uint32_t>(Kind)});
}

void Lexer::lexToken(TokenBuffer &Out) {
  const size_t Start = Pos;
  const char C = Input[Start];

  // Resource references: @layout/NAME and @id/NAME. The record spans the
  // whole reference; TokenBuffer::get drops the prefix from the text.
  if (C == '@') {
    Pos = identEnd(Start + 1);
    std::string_view Kind = Input.substr(Start + 1, Pos - Start - 1);
    if (Pos >= Input.size() || Input[Pos] != '/') {
      Diags.error(locAt(Start), "expected '/' in resource reference '@" +
                                    std::string(Kind) + "'");
      return push(Out, TokenKind::Error, Start);
    }
    const size_t NameStart = Pos + 1;
    Pos = identEnd(NameStart);
    if (Pos == NameStart) {
      Diags.error(locAt(Start),
                  "empty resource name in '@" + std::string(Kind) + "/'");
      return push(Out, TokenKind::Error, Start);
    }
    if (Kind == "layout")
      return push(Out, TokenKind::LayoutRef, Start);
    if (Kind == "id")
      return push(Out, TokenKind::IdRef, Start);
    Diags.error(locAt(Start),
                "unknown resource kind '@" + std::string(Kind) + "/'");
    return push(Out, TokenKind::Error, Start);
  }

  if (isIdentStart(C)) {
    Pos = identEnd(Start + 1);
    return push(Out, keywordOrIdentifier(Input.substr(Start, Pos - Start)),
                Start);
  }

  // Every remaining token is one character, except ':='.
  ++Pos;
  TokenKind Kind;
  switch (C) {
  case '{':
    Kind = TokenKind::LBrace;
    break;
  case '}':
    Kind = TokenKind::RBrace;
    break;
  case '(':
    Kind = TokenKind::LParen;
    break;
  case ')':
    Kind = TokenKind::RParen;
    break;
  case ';':
    Kind = TokenKind::Semicolon;
    break;
  case ',':
    Kind = TokenKind::Comma;
    break;
  case '.':
    Kind = TokenKind::Dot;
    break;
  case ':':
    Kind = TokenKind::Colon;
    if (Pos < Input.size() && Input[Pos] == '=') {
      ++Pos;
      Kind = TokenKind::Assign;
    }
    break;
  default:
    Diags.error(locAt(Start), std::string("unexpected character '") + C + "'");
    Kind = TokenKind::Error;
  }
  push(Out, Kind, Start);
}

TokenBuffer Lexer::lexAll() {
  TokenBuffer Out;
  Out.Input = Input;
  Out.File = File;
  // Records hold 32-bit offsets, so the input must stay under 4 GiB; a
  // larger one is rejected before any of it is read.
  if (Input.size() > std::numeric_limits<uint32_t>::max()) {
    Diags.error(locAt(0), "input of " + std::to_string(Input.size()) +
                              " bytes is too large; ALite inputs must be "
                              "under 4 GiB");
    Out.LineStarts.push_back(0);
    Out.Records.push_back({0, static_cast<uint32_t>(TokenKind::EndOfFile)});
    return Out;
  }
  // ALite averages more than three bytes per token, so one reservation
  // covers real inputs; denser text falls back to geometric growth. The
  // line starts are counted first and reserved exactly.
  Out.Records.reserve(Input.size() / 3 + 1);
  Out.LineStarts.reserve(countNewlines(Input) + 1);
  Out.LineStarts.push_back(0);
  for (;;) {
    skipTrivia(Out);
    if (Pos >= Input.size()) {
      push(Out, TokenKind::EndOfFile, Pos);
      return Out;
    }
    lexToken(Out);
  }
}
