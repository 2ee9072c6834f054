//===- Lexer.cpp - ALite token stream --------------------------*- C++ -*-===//

#include "parser/Lexer.h"

#include "support/CharClass.h"

#include <algorithm>
#include <type_traits>

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

static_assert(sizeof(Token) <= 40 && std::is_trivially_copyable_v<Token>,
              "tokens are compact views; see docs/MEMORY.md, \"Frontend\"");

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

} // namespace

Lexer::Lexer(std::string_view Input, std::string_view FileName,
             DiagnosticEngine &Diags)
    : Input(Input), File(SourceLocation::internFile(FileName)), Diags(Diags) {}

void Lexer::advanceTo(size_t End) {
  std::string_view Skipped = Input.substr(Pos, End - Pos);
  size_t LastNewline = Skipped.rfind('\n');
  if (LastNewline != std::string_view::npos) {
    Line += static_cast<unsigned>(
        std::count(Skipped.begin(), Skipped.end(), '\n'));
    LineStart = Pos + LastNewline + 1;
  }
  Pos = End;
}

size_t Lexer::identEnd(size_t From) const {
  while (From < Input.size() && isIdentChar(Input[From]))
    ++From;
  return From;
}

void Lexer::skipTrivia() {
  const size_t Size = Input.size();
  for (;;) {
    while (Pos < Size && charclass::isSpace(Input[Pos])) {
      if (Input[Pos] == '\n') {
        ++Line;
        LineStart = Pos + 1;
      }
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
      SourceLocation Start = here();
      size_t Close = Input.find("*/", Pos + 2);
      if (Close == std::string_view::npos) {
        advanceTo(Size);
        Diags.error(Start, "unterminated block comment");
        return;
      }
      advanceTo(Close + 2);
      continue;
    }
    return;
  }
}

Token Lexer::next() {
  skipTrivia();
  const SourceLocation Loc = here();
  const size_t Start = Pos;
  if (Start >= Input.size())
    return {TokenKind::EndOfFile, Input.substr(Start), Loc};

  const char C = Input[Start];

  // Resource references: @layout/NAME and @id/NAME.
  if (C == '@') {
    Pos = identEnd(Start + 1);
    std::string_view Kind = Input.substr(Start + 1, Pos - Start - 1);
    if (Pos >= Input.size() || Input[Pos] != '/') {
      Diags.error(Loc, "expected '/' in resource reference '@" +
                           std::string(Kind) + "'");
      return {TokenKind::Error, Kind, Loc};
    }
    const size_t NameStart = Pos + 1;
    Pos = identEnd(NameStart);
    std::string_view Name = Input.substr(NameStart, Pos - NameStart);
    if (Name.empty()) {
      Diags.error(Loc, "empty resource name in '@" + std::string(Kind) + "/'");
      return {TokenKind::Error, Name, Loc};
    }
    if (Kind == "layout")
      return {TokenKind::LayoutRef, Name, Loc};
    if (Kind == "id")
      return {TokenKind::IdRef, Name, Loc};
    Diags.error(Loc, "unknown resource kind '@" + std::string(Kind) + "/'");
    return {TokenKind::Error, Name, Loc};
  }

  if (isIdentStart(C)) {
    Pos = identEnd(Start + 1);
    std::string_view Text = Input.substr(Start, Pos - Start);
    return {keywordOrIdentifier(Text), Text, Loc};
  }

  // Every remaining token is one character, except ':='.
  ++Pos;
  std::string_view One = Input.substr(Start, 1);
  switch (C) {
  case '{':
    return {TokenKind::LBrace, One, Loc};
  case '}':
    return {TokenKind::RBrace, One, Loc};
  case '(':
    return {TokenKind::LParen, One, Loc};
  case ')':
    return {TokenKind::RParen, One, Loc};
  case ';':
    return {TokenKind::Semicolon, One, Loc};
  case ',':
    return {TokenKind::Comma, One, Loc};
  case '.':
    return {TokenKind::Dot, One, Loc};
  case ':':
    if (Pos < Input.size() && Input[Pos] == '=') {
      ++Pos;
      return {TokenKind::Assign, Input.substr(Start, 2), Loc};
    }
    return {TokenKind::Colon, One, Loc};
  default:
    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    return {TokenKind::Error, One, Loc};
  }
}

std::vector<Token> Lexer::lexAll() {
  // ALite averages more than three bytes per token, so one reservation
  // covers real inputs; denser text falls back to geometric growth.
  std::vector<Token> Tokens;
  Tokens.reserve(Input.size() / 3 + 1);
  for (;;) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokenKind::EndOfFile))
      return Tokens;
  }
}
