//===- lexer_test.cpp - ALite lexer unit tests ------------------*- C++ -*-===//

#include "parser/Lexer.h"

#include "corpus/Corpus.h"
#include "parser/Printer.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <vector>

using namespace gator;
using namespace gator::parser;

namespace {

/// Tokens view their input, so \p Input must outlive the result: pass a
/// string literal or a string that lives for the rest of the test.
TokenBuffer lex(std::string_view Input, DiagnosticEngine &Diags,
                std::string_view FileName = "test.alite") {
  Lexer L(Input, FileName, Diags);
  return L.lexAll();
}

std::vector<TokenKind> kinds(const TokenBuffer &Tokens) {
  std::vector<TokenKind> Result;
  for (size_t I = 0; I < Tokens.size(); ++I)
    Result.push_back(Tokens.kind(I));
  return Result;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  DiagnosticEngine Diags;
  auto Tokens = lex("", Diags);
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::EndOfFile);
}

TEST(LexerTest, KeywordsAndIdentifiers) {
  DiagnosticEngine Diags;
  auto Tokens = lex("class interface extends implements field method var "
                    "return new null static classof platform myName",
                    Diags);
  EXPECT_EQ(kinds(Tokens),
            (std::vector<TokenKind>{
                TokenKind::KwClass, TokenKind::KwInterface,
                TokenKind::KwExtends, TokenKind::KwImplements,
                TokenKind::KwField, TokenKind::KwMethod, TokenKind::KwVar,
                TokenKind::KwReturn, TokenKind::KwNew, TokenKind::KwNull,
                TokenKind::KwStatic, TokenKind::KwClassof,
                TokenKind::KwPlatform, TokenKind::Identifier,
                TokenKind::EndOfFile}));
  EXPECT_EQ(Tokens[13].Text, "myName");
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, PunctuationAndAssign) {
  DiagnosticEngine Diags;
  auto Tokens = lex("{ } ( ) : ; , . :=", Diags);
  EXPECT_EQ(kinds(Tokens),
            (std::vector<TokenKind>{
                TokenKind::LBrace, TokenKind::RBrace, TokenKind::LParen,
                TokenKind::RParen, TokenKind::Colon, TokenKind::Semicolon,
                TokenKind::Comma, TokenKind::Dot, TokenKind::Assign,
                TokenKind::EndOfFile}));
}

TEST(LexerTest, ColonVersusAssign) {
  DiagnosticEngine Diags;
  auto Tokens = lex("x := y; v: T", Diags);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Assign);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::Colon);
}

TEST(LexerTest, ResourceReferences) {
  DiagnosticEngine Diags;
  auto Tokens = lex("@layout/act_console @id/button_esc", Diags);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::LayoutRef);
  EXPECT_EQ(Tokens[0].Text, "act_console");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::IdRef);
  EXPECT_EQ(Tokens[1].Text, "button_esc");
}

TEST(LexerTest, BadResourceKindIsError) {
  DiagnosticEngine Diags;
  auto Tokens = lex("@drawable/icon", Diags);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Error);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, MissingSlashInResourceIsError) {
  DiagnosticEngine Diags;
  lex("@layout act", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, LineCommentsSkipped) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a // comment to end of line\nb", Diags);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
}

TEST(LexerTest, BlockCommentsSkipped) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a /* multi\nline\ncomment */ b", Diags);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[1].Text, "b");
}

TEST(LexerTest, UnterminatedBlockCommentIsError) {
  DiagnosticEngine Diags;
  lex("a /* never closed", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, TracksLineAndColumn) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a\n  b", Diags);
  EXPECT_EQ(Tokens[0].Loc.line(), 1u);
  EXPECT_EQ(Tokens[0].Loc.column(), 1u);
  EXPECT_EQ(Tokens[1].Loc.line(), 2u);
  EXPECT_EQ(Tokens[1].Loc.column(), 3u);
}

TEST(LexerTest, QualifiedNamePiecesAreSeparateTokens) {
  DiagnosticEngine Diags;
  auto Tokens = lex("android.app.Activity", Diags);
  ASSERT_EQ(Tokens.size(), 6u); // id . id . id EOF
  EXPECT_EQ(Tokens[0].Text, "android");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Dot);
  EXPECT_EQ(Tokens[4].Text, "Activity");
}

TEST(LexerTest, DollarAndAngleIdentifiers) {
  DiagnosticEngine Diags;
  auto Tokens = lex("lookup$cs1 <init>", Diags);
  EXPECT_EQ(Tokens[0].Text, "lookup$cs1");
  EXPECT_EQ(Tokens[1].Text, "<init>");
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a # b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Error);
}

TEST(LexerTest, LongFileNameInTokensAndDiagnostics) {
  // Longer than the 15 characters a std::string keeps inline.
  const std::string Path = "apps/some/deeply/nested/dir/app.alite";
  DiagnosticEngine Diags;
  auto Tokens = lex("class A\n  # x", Diags, Path);
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[0].Loc.file(), Path);
  EXPECT_EQ(Tokens[4].Loc.file(), Path);
  EXPECT_EQ(Tokens[0].Loc, SourceLocation(Path, 1, 1));
  EXPECT_EQ(Tokens[2].Loc.str(), Path + ":2:3");

  std::ostringstream Text, Json;
  Diags.print(Text);
  Diags.printJson(Json);
  EXPECT_EQ(Text.str(), Path + ":2:3: error: unexpected character '#'\n");
  EXPECT_EQ(Json.str(),
            "{\"diagnostics\":[{\"severity\":\"error\",\"file\":\"" + Path +
                "\",\"line\":2,\"column\":3,\"message\":"
                "\"unexpected character '#'\"}],\"errors\":1,"
                "\"warnings\":0}\n");
}

TEST(LexerTest, IdentifiersMayStartWithKeywords) {
  DiagnosticEngine Diags;
  auto Tokens = lex("classy newX returnValue nulls var_ static$ platforms "
                    "interfaces implementsX",
                    Diags);
  ASSERT_EQ(Tokens.size(), 10u);
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier) << Tokens[I].Text;
  EXPECT_EQ(Tokens[0].Text, "classy");
  EXPECT_EQ(Tokens[1].Text, "newX");
  EXPECT_EQ(Tokens[2].Text, "returnValue");
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, AngleBracketNames) {
  DiagnosticEngine Diags;
  auto Tokens = lex("method <init>(); x.<clinit>(); <init>2", Diags);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[1].Text, "<init>");
  EXPECT_EQ(Tokens[7].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[7].Text, "<clinit>");
  EXPECT_EQ(Tokens[11].Text, "<init>2");
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, HighByteIsUnexpectedCharacter) {
  // A UTF-8 'e' with acute accent: two bytes >= 0x80, neither a letter in
  // the C locale, each reported with the raw byte in the message.
  DiagnosticEngine Diags;
  auto Tokens = lex("a \xc3\xa9 b", Diags);
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Error);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Error);
  EXPECT_EQ(Tokens[3].Text, "b");
  EXPECT_EQ(Tokens[3].Loc.column(), 6u);
  ASSERT_EQ(Diags.diagnostics().size(), 2u);
  EXPECT_EQ(Diags.diagnostics()[0].Message,
            std::string("unexpected character '") + '\xc3' + "'");
  EXPECT_EQ(Diags.diagnostics()[0].Loc.column(), 3u);
  EXPECT_EQ(Diags.diagnostics()[1].Message,
            std::string("unexpected character '") + '\xa9' + "'");
  EXPECT_EQ(Diags.diagnostics()[1].Loc.column(), 4u);
}

TEST(LexerTest, LineAndColumnAfterCrlf) {
  // '\r' counts as a column, as every other non-newline byte does.
  DiagnosticEngine Diags;
  auto Tokens = lex("a\r\n  b\r\n\r\nc", Diags);
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[1].Loc.line(), 2u);
  EXPECT_EQ(Tokens[1].Loc.column(), 3u);
  EXPECT_EQ(Tokens[2].Loc.line(), 4u);
  EXPECT_EQ(Tokens[2].Loc.column(), 1u);
  EXPECT_EQ(Tokens[3].Loc.line(), 4u);
  EXPECT_EQ(Tokens[3].Loc.column(), 2u);
}

TEST(LexerTest, LineAndColumnAfterComments) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a /* one\r\n two\n three */ b /**/c // x\n  d /* */ e",
                    Diags);
  ASSERT_EQ(Tokens.size(), 6u);
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_EQ(Tokens[1].Loc.line(), 3u);
  EXPECT_EQ(Tokens[1].Loc.column(), 11u);
  EXPECT_EQ(Tokens[2].Text, "c");
  EXPECT_EQ(Tokens[2].Loc.line(), 3u);
  EXPECT_EQ(Tokens[2].Loc.column(), 17u);
  EXPECT_EQ(Tokens[3].Loc.line(), 4u);
  EXPECT_EQ(Tokens[3].Loc.column(), 3u);
  EXPECT_EQ(Tokens[4].Loc.line(), 4u);
  EXPECT_EQ(Tokens[4].Loc.column(), 11u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, UnterminatedBlockCommentReportsItsStart) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a\n  /* x\n y", Diags);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Loc.line(), 2u);
  EXPECT_EQ(Diags.diagnostics()[0].Loc.column(), 3u);
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[1].Loc.line(), 3u);
  EXPECT_EQ(Tokens[1].Loc.column(), 3u);
}

TEST(LexerTest, TokensViewTheInput) {
  const std::string Input = "x := @layout/main;";
  DiagnosticEngine Diags;
  auto Tokens = lex(Input, Diags);
  ASSERT_EQ(Tokens.size(), 5u);
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token T = Tokens[I];
    EXPECT_GE(T.Text.data(), Input.data());
    EXPECT_LE(T.Text.data() + T.Text.size(), Input.data() + Input.size());
  }
  EXPECT_EQ(Tokens[1].Text, ":=");
  EXPECT_EQ(Tokens[2].Text, "main");
  EXPECT_TRUE(Tokens[4].Text.empty());
}

TEST(LexerTest, LineHintsGiveTheSameLocations) {
  const std::string Input = "a\n\n  b c\r\n/* x\ny */ d\n@id/e\n";
  DiagnosticEngine Diags;
  auto Tokens = lex(Input, Diags);
  ASSERT_EQ(Tokens.size(), 6u);
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token Plain = Tokens[I];
    // Hints before, at and after the token's own line.
    for (unsigned Hint = 1; Hint <= 7; ++Hint) {
      const Token Hinted = Tokens.get(I, Hint);
      EXPECT_EQ(Hinted.Loc, Plain.Loc) << "token " << I << " hint " << Hint;
      EXPECT_EQ(Hinted.Text, Plain.Text);
    }
  }
  EXPECT_EQ(Tokens[3].Loc.str(), "test.alite:5:6");
  EXPECT_EQ(Tokens[4].Text, "e");
  EXPECT_EQ(Tokens[4].Loc.str(), "test.alite:6:1");
  EXPECT_EQ(Tokens[5].Loc.str(), "test.alite:7:1");
}

TEST(LexerTest, LongestTokenFitsItsRecord) {
  std::string Input(TokenBuffer::MaxTokenLength, 'a');
  Input += " b";
  DiagnosticEngine Diags;
  auto Tokens = lex(Input, Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].Text.size(), TokenBuffer::MaxTokenLength);
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_EQ(Tokens[1].Loc.column(), TokenBuffer::MaxTokenLength + 2);
}

TEST(LexerTest, OverlongIdentifierIsAnErrorAtItsStart) {
  // One byte past what the record's 24-bit length can hold: reported, and
  // never stored with a wrapped length.
  std::string Input = "x\n  ";
  Input.append(TokenBuffer::MaxTokenLength + 1, 'a');
  Input += " b";
  DiagnosticEngine Diags;
  auto Tokens = lex(Input, Diags);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Loc.str(), "test.alite:2:3");
  EXPECT_EQ(Diags.diagnostics()[0].Message,
            "token of 16777216 bytes is longer than the limit of 16777215 "
            "bytes");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Error);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Text, "b");
  EXPECT_EQ(Tokens[2].Loc.column(), TokenBuffer::MaxTokenLength + 5);
}

TEST(LexerTest, OverlongResourceReferenceIsAnError) {
  std::string Input = "@layout/";
  Input.append(TokenBuffer::MaxTokenLength, 'n');
  DiagnosticEngine Diags;
  auto Tokens = lex(Input, Diags);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Loc.str(), "test.alite:1:1");
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Error);
}

TEST(LexerTest, InputOfFourGibibytesIsRejectedUnread) {
  // Records hold 32-bit offsets. The mapping is never touched: the lexer
  // rejects the input from its size alone.
  const size_t Size = size_t(1) << 32;
  void *Map = mmap(nullptr, Size, PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Map == MAP_FAILED)
    GTEST_SKIP() << "cannot map 4 GiB of address space";
  DiagnosticEngine Diags;
  auto Tokens = lex(std::string_view(static_cast<const char *>(Map), Size),
                    Diags, "huge.alite");
  munmap(Map, Size);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Loc.str(), "huge.alite:1:1");
  EXPECT_EQ(Diags.diagnostics()[0].Message,
            "input of 4294967296 bytes is too large; ALite inputs must be "
            "under 4 GiB");
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens.kind(0), TokenKind::EndOfFile);
}

TEST(LexerTest, TokenKindNamesAreStable) {
  EXPECT_STREQ(tokenKindName(TokenKind::Assign), "':='");
  EXPECT_STREQ(tokenKindName(TokenKind::Identifier), "identifier");
  EXPECT_STREQ(tokenKindName(TokenKind::EndOfFile), "end of file");
}


//===----------------------------------------------------------------------===//
// Differential check against a byte-at-a-time reference lexer
//===----------------------------------------------------------------------===//

/// One token or diagnostic as both lexers report it. Offset and length
/// are those of Token::Text (for a resource reference, the name).
struct LexedToken {
  TokenKind Kind;
  size_t Offset, Length;
  unsigned Line, Column;
  bool operator==(const LexedToken &) const = default;
};
struct LexedDiag {
  std::string Message;
  unsigned Line, Column;
  bool operator==(const LexedDiag &) const = default;
};
struct Lexed {
  std::vector<LexedToken> Tokens;
  std::vector<LexedDiag> Diags;
};

/// The ALite token rules, one byte at a time, written for clarity rather
/// than speed: it tracks the line and column as it goes and shares no code
/// with the Lexer. It models the token length limit (a longer name or
/// reference is an Error token of TokenBuffer::MaxTokenLength bytes, and
/// lexing resumes after the whole spelling), but not the 4 GiB input
/// limit.
Lexed referenceLex(std::string_view In) {
  Lexed R;
  const size_t N = In.size();
  size_t I = 0, LineStart = 0;
  unsigned Line = 1;
  auto Column = [&](size_t At) { return unsigned(At - LineStart + 1); };
  auto IsLetter = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
           C == '$' || C == '<';
  };
  auto IsNameChar = [&](char C) {
    return IsLetter(C) || (C >= '0' && C <= '9') || C == '>';
  };
  auto NameEnd = [&](size_t J) {
    while (J < N && IsNameChar(In[J]))
      ++J;
    return J;
  };
  auto Add = [&](TokenKind Kind, size_t Start, size_t TextStart, size_t End) {
    R.Tokens.push_back(
        {Kind, TextStart, End - TextStart, Line, Column(Start)});
  };
  auto Error = [&](size_t At, std::string Message) {
    R.Diags.push_back({std::move(Message), Line, Column(At)});
  };
  // A spelling [Start, End) longer than the limit: reports it and adds the
  // Error token that stands for it.
  constexpr size_t Limit = TokenBuffer::MaxTokenLength;
  auto Overlong = [&](size_t Start, size_t End) {
    if (End - Start <= Limit)
      return false;
    Error(Start, "token of " + std::to_string(End - Start) +
                     " bytes is longer than the limit of " +
                     std::to_string(Limit) + " bytes");
    Add(TokenKind::Error, Start, Start, Start + Limit);
    return true;
  };
  const std::pair<const char *, TokenKind> Keywords[] = {
      {"class", TokenKind::KwClass},
      {"interface", TokenKind::KwInterface},
      {"extends", TokenKind::KwExtends},
      {"implements", TokenKind::KwImplements},
      {"field", TokenKind::KwField},
      {"method", TokenKind::KwMethod},
      {"var", TokenKind::KwVar},
      {"return", TokenKind::KwReturn},
      {"new", TokenKind::KwNew},
      {"null", TokenKind::KwNull},
      {"static", TokenKind::KwStatic},
      {"classof", TokenKind::KwClassof},
      {"platform", TokenKind::KwPlatform}};
  const std::string_view Punct = "{}();,.";
  const TokenKind PunctKinds[] = {TokenKind::LBrace,    TokenKind::RBrace,
                                  TokenKind::LParen,    TokenKind::RParen,
                                  TokenKind::Semicolon, TokenKind::Comma,
                                  TokenKind::Dot};

  while (I < N) {
    const char C = In[I];
    const bool HasNext = I + 1 < N;
    if (C == '\n') {
      ++Line;
      LineStart = ++I;
    } else if (C == ' ' || C == '\t' || C == '\v' || C == '\f' ||
               C == '\r') {
      ++I;
    } else if (C == '/' && HasNext && In[I + 1] == '/') {
      while (I < N && In[I] != '\n')
        ++I;
    } else if (C == '/' && HasNext && In[I + 1] == '*') {
      const unsigned StartLine = Line, StartColumn = Column(I);
      bool Closed = false;
      for (I += 2; I < N && !Closed; ++I) {
        if (In[I] == '*' && I + 1 < N && In[I + 1] == '/') {
          Closed = true;
          ++I;
        } else if (In[I] == '\n') {
          ++Line;
          LineStart = I + 1;
        }
      }
      if (!Closed)
        R.Diags.push_back({"unterminated block comment", StartLine,
                           StartColumn});
    } else if (C == '@') {
      const size_t KindEnd = NameEnd(I + 1);
      const std::string Kind(In.substr(I + 1, KindEnd - I - 1));
      if (KindEnd == N || In[KindEnd] != '/') {
        Error(I, "expected '/' in resource reference '@" + Kind + "'");
        if (!Overlong(I, KindEnd))
          Add(TokenKind::Error, I, I, KindEnd);
        I = KindEnd;
        continue;
      }
      const size_t End = NameEnd(KindEnd + 1);
      TokenKind Ref = TokenKind::Error;
      if (End == KindEnd + 1)
        Error(I, "empty resource name in '@" + Kind + "/'");
      else if (Kind == "layout")
        Ref = TokenKind::LayoutRef;
      else if (Kind == "id")
        Ref = TokenKind::IdRef;
      else
        Error(I, "unknown resource kind '@" + Kind + "/'");
      if (!Overlong(I, End))
        Add(Ref, I, Ref == TokenKind::Error ? I : KindEnd + 1, End);
      I = End;
    } else if (IsLetter(C)) {
      const size_t End = NameEnd(I + 1);
      if (Overlong(I, End)) {
        I = End;
        continue;
      }
      TokenKind Kind = TokenKind::Identifier;
      for (const auto &[Spelling, KwKind] : Keywords)
        if (In.substr(I, End - I) == Spelling)
          Kind = KwKind;
      Add(Kind, I, I, End);
      I = End;
    } else if (C == ':') {
      const size_t End = HasNext && In[I + 1] == '=' ? I + 2 : I + 1;
      Add(End == I + 2 ? TokenKind::Assign : TokenKind::Colon, I, I, End);
      I = End;
    } else if (Punct.find(C) != std::string_view::npos) {
      Add(PunctKinds[Punct.find(C)], I, I, I + 1);
      ++I;
    } else {
      Error(I, std::string("unexpected character '") + C + "'");
      Add(TokenKind::Error, I, I, I + 1);
      ++I;
    }
  }
  Add(TokenKind::EndOfFile, N, N, N);
  return R;
}

/// lexAll's view of \p In, in the reference lexer's terms.
Lexed lexForDiff(std::string_view In) {
  DiagnosticEngine Diags;
  const TokenBuffer Tokens = lex(In, Diags, "diff.alite");
  Lexed R;
  for (size_t I = 0; I < Tokens.size(); ++I) {
    const Token T = Tokens[I];
    R.Tokens.push_back({T.Kind, size_t(T.Text.data() - In.data()),
                        T.Text.size(), T.Loc.line(), T.Loc.column()});
    EXPECT_EQ(T.Loc.file(), "diff.alite");
  }
  for (const Diagnostic &D : Diags.diagnostics()) {
    R.Diags.push_back({D.Message, D.Loc.line(), D.Loc.column()});
    EXPECT_EQ(D.Loc.file(), "diff.alite");
    EXPECT_EQ(D.Severity, DiagSeverity::Error);
  }
  return R;
}

/// Compares the two lexers on \p In; returns false at the first
/// difference, after reporting it.
bool sameAsReference(std::string_view In, const std::string &What) {
  const Lexed Got = lexForDiff(In), Want = referenceLex(In);
  const size_t Tokens = std::min(Got.Tokens.size(), Want.Tokens.size());
  for (size_t I = 0; I < Tokens; ++I) {
    if (Got.Tokens[I] == Want.Tokens[I])
      continue;
    const LexedToken &G = Got.Tokens[I], &W = Want.Tokens[I];
    ADD_FAILURE() << What << ": token " << I << " is {"
                  << tokenKindName(G.Kind) << ", " << G.Offset << "+"
                  << G.Length << ", " << G.Line << ":" << G.Column
                  << "}, the reference has {" << tokenKindName(W.Kind) << ", "
                  << W.Offset << "+" << W.Length << ", " << W.Line << ":"
                  << W.Column << "}";
    return false;
  }
  if (Got.Tokens.size() != Want.Tokens.size()) {
    ADD_FAILURE() << What << ": " << Got.Tokens.size()
                  << " tokens, the reference has " << Want.Tokens.size();
    return false;
  }
  if (Got.Diags != Want.Diags) {
    std::ostringstream OS;
    for (const auto *List : {&Got.Diags, &Want.Diags}) {
      OS << (List == &Got.Diags ? "\n  lexAll:" : "\n  reference:");
      for (const LexedDiag &D : *List)
        OS << "\n    " << D.Line << ":" << D.Column << ": " << D.Message;
    }
    ADD_FAILURE() << What << ": the diagnostics differ" << OS.str();
    return false;
  }
  return true;
}

/// The ALite of every paper-corpus app, printed as export_corpus writes
/// app.alite.
const std::vector<std::string> &corpusSources() {
  static const std::vector<std::string> Sources = [] {
    std::vector<std::string> Out;
    for (const corpus::AppSpec &Spec : corpus::paperCorpus())
      Out.push_back(
          parser::programToString(corpus::generateApp(Spec).Bundle->Program));
    return Out;
  }();
  return Sources;
}

TEST(LexerDifferentialTest, CorpusMatchesTheReference) {
  const auto &Specs = corpus::paperCorpus();
  const auto &Sources = corpusSources();
  ASSERT_EQ(Sources.size(), 20u);
  size_t Bytes = 0, Tokens = 0, StreamBytes = 0;
  for (size_t I = 0; I < Sources.size(); ++I) {
    Bytes += Sources[I].size();
    EXPECT_TRUE(sameAsReference(Sources[I], Specs[I].Name));
    DiagnosticEngine Diags;
    const TokenBuffer Stream = lex(Sources[I], Diags);
    Tokens += Stream.size();
    StreamBytes += Stream.streamBytes();
  }
  EXPECT_GT(Bytes, size_t(8) << 20); // the 8.75 MB of the exported corpus
  // The encoding spends one byte per token plus one per name length: 1.44
  // bytes per token on the corpus.
  EXPECT_LE(100 * StreamBytes, 145 * Tokens)
      << StreamBytes << " stream bytes for " << Tokens << " tokens";
}

/// Applies \p Count seeded edits to \p Text: byte drops, duplicates and
/// swaps, insertions of the spellings where the lexer's rare paths start,
/// and new lines with indentation of every width.
std::string mutate(std::string Text, support::SplitMix64 &Rng,
                   unsigned Count) {
  static const char *const Inserts[] = {"/*", "*/", "//", "@",  "@id/",
                                        "@layout/", ":", "\r", "/"};
  for (unsigned K = 0; K < Count && !Text.empty(); ++K) {
    const size_t At = Rng.below(Text.size());
    switch (Rng.below(7)) {
    case 0:
      Text.erase(At, 1);
      break;
    case 1:
      Text.insert(At, 1, Text[At]);
      break;
    case 2:
      std::swap(Text[At], Text[Rng.below(Text.size())]);
      break;
    case 3:
      Text.insert(At, Inserts[Rng.below(std::size(Inserts))]);
      break;
    case 4: // a byte >= 0x80, as in UTF-8 text
      Text.insert(At, 1, static_cast<char>(0x80 + Rng.below(0x80)));
      break;
    case 5:
      Text.insert(At, 1, '\0');
      break;
    case 6: { // a new line indented by 0-12 spaces
      std::string Line = "\n";
      Line.append(Rng.below(13), ' ');
      Text.insert(At, Line);
      break;
    }
    }
  }
  return Text;
}

TEST(LexerDifferentialTest, MutatedCorpusMatchesTheReference) {
  // A fixed budget: 30 mutants of a 2 KB window of every app, each window
  // drawn from the app's text and edited 1-16 times.
  const auto &Specs = corpus::paperCorpus();
  const auto &Sources = corpusSources();
  support::SplitMix64 Rng(0x1e7e5);
  unsigned Mutants = 0, WithErrors = 0;
  for (size_t App = 0; App < Sources.size(); ++App) {
    const std::string &Text = Sources[App];
    for (unsigned M = 0; M < 30; ++M) {
      const size_t Window = std::min<size_t>(Text.size(), 2048);
      const size_t From = Rng.below(Text.size() - Window + 1);
      const std::string Input =
          mutate(Text.substr(From, Window), Rng, 1 + Rng.below(16));
      const std::string What = Specs[App].Name + " mutant " +
                               std::to_string(M) + " (window at " +
                               std::to_string(From) + ")";
      if (!sameAsReference(Input, What))
        return; // one reported difference is enough to debug
      ++Mutants;
      DiagnosticEngine Diags;
      lex(Input, Diags);
      WithErrors += Diags.hasErrors();
    }
  }
  EXPECT_EQ(Mutants, 600u);
  // The mutations reach the error paths, but do not all end in errors.
  EXPECT_GT(WithErrors, Mutants / 4);
  EXPECT_LT(WithErrors, Mutants);
}

/// The concatenation of \p Parts. (`"literal" + std::string` draws a false
/// GCC 12 -Wrestrict at -O3.)
std::string cat(std::initializer_list<std::string_view> Parts) {
  std::string Out;
  for (std::string_view Part : Parts)
    Out += Part;
  return Out;
}

/// Reads \p In's tokens four ways and checks they agree: in order by
/// index (what lexForDiff reads), in reverse and in strides of 97 by
/// index (from the sparse checkpoints), and with a Cursor (the parser's
/// path, whose offsets give the locations).
void expectEveryReadAgrees(std::string_view In, const std::string &What) {
  SCOPED_TRACE(What);
  DiagnosticEngine Diags;
  const TokenBuffer Tokens = lex(In, Diags, "diff.alite");
  std::vector<Token> InOrder;
  for (size_t I = 0; I < Tokens.size(); ++I)
    InOrder.push_back(Tokens[I]);
  auto ExpectSame = [&](size_t I) {
    const Token T = Tokens.get(I);
    EXPECT_EQ(T.Kind, InOrder[I].Kind) << "token " << I;
    EXPECT_EQ(T.Text.data(), InOrder[I].Text.data()) << "token " << I;
    EXPECT_EQ(T.Text.size(), InOrder[I].Text.size()) << "token " << I;
    EXPECT_EQ(T.Loc, InOrder[I].Loc) << "token " << I;
  };
  for (size_t I = Tokens.size(); I-- > 0;)
    ExpectSame(I);
  for (size_t I = 0; I < Tokens.size(); I += 97)
    ExpectSame(I);
  TokenBuffer::Cursor C(Tokens);
  for (size_t I = 0; I < Tokens.size(); ++I) {
    EXPECT_EQ(C.kind(), InOrder[I].Kind) << "token " << I;
    EXPECT_EQ(C.text().data(), InOrder[I].Text.data()) << "token " << I;
    EXPECT_EQ(C.text().size(), InOrder[I].Text.size()) << "token " << I;
    EXPECT_EQ(Tokens.locAt(C.offset()), InOrder[I].Loc) << "token " << I;
    EXPECT_EQ(C.nextKind(), InOrder[std::min(I + 1, Tokens.size() - 1)].Kind)
        << "token " << I;
    C.advance();
  }
  EXPECT_EQ(C.kind(), TokenKind::EndOfFile); // and it stays there
}

TEST(LexerDifferentialTest, EncodingEscapesMatchTheReference) {
  // Every path of the token stream's encoding: gaps that fit the kind
  // byte and gaps that escape to a varint of one to three bytes (deep
  // indentation, long comments and runs of blanks), lengths of one- and
  // two-byte varints on names, references and Error tokens, and the end
  // of the input right after a token or after trivia.
  std::vector<std::string> Cases = {
      "", " ", "\n\n  \n", "a", "a;", "x:=", "x:", "@id/b", "@layout/m",
      "a   ", "a\n", "class", "a /* c */", "a /* open",
      "a # b", "@foo/bar x", "@layout/ x", "@idx y", "a / b", "\x80z",
      "#", "@", "a@", "a\n            b", "{\n\t\t\t\t\t\t\t}",
      // Every kind with a fixed length, which the stream does not store.
      "class interface extends implements field method var return new "
      "null static classof platform{}();,.:=:",
  };
  for (unsigned Gap : {0u, 1u, 5u, 6u, 7u, 8u, 126u, 127u, 128u, 129u,
                       16383u, 16384u, 20000u}) {
    Cases.push_back(cat({"a", std::string(Gap, ' '), "b"}));
    Cases.push_back(cat({"a;", std::string(Gap, '\n'), "}"}));
    Cases.push_back(cat({"a/*", std::string(Gap, '*'), "*/b"}));
    Cases.push_back(cat({"x := @id/n", std::string(Gap, '\t'), "#"}));
  }
  for (unsigned Length : {1u, 126u, 127u, 128u, 129u, 16383u, 16384u}) {
    const std::string Name(Length, 'n');
    Cases.push_back(Name);
    Cases.push_back(cat({Name, " ", Name, ";"}));
    Cases.push_back(cat({"x := @layout/", Name, ";"}));
    Cases.push_back(cat({"x := @id/", Name}));
    Cases.push_back(cat({"@", Name, " y"})); // an Error token of Length + 1
    Cases.push_back(cat({"@bad/", Name, "\n z"}));
  }
  for (size_t I = 0; I < Cases.size(); ++I) {
    const std::string What = cat({"case ", std::to_string(I), " (",
                                  std::to_string(Cases[I].size()), " bytes)"});
    EXPECT_TRUE(sameAsReference(Cases[I], What));
    expectEveryReadAgrees(Cases[I], What);
  }
  // A corpus app spans hundreds of checkpoints.
  expectEveryReadAgrees(corpusSources()[0], corpus::paperCorpus()[0].Name);
}

TEST(LexerDifferentialTest, LongestAndOverlongTokensMatchTheReference) {
  // A name of MaxTokenLength bytes has a four-byte length varint; one byte
  // more is an Error token of MaxTokenLength bytes, and the next token's
  // gap covers the rest of the spelling.
  const std::string Longest(TokenBuffer::MaxTokenLength, 'a');
  const std::string Overlong = cat({Longest, "a"});
  const std::string Cases[] = {
      cat({Longest, " b"}),
      cat({"x\n  ", Overlong, " b"}),
      Overlong,
      cat({"@layout/", Longest, ";"}),
      cat({"@id/", Longest.substr(4), ";"}), // exactly the limit, '@' included
      cat({"@nope/", Longest, " c"}),
  };
  for (size_t I = 0; I < std::size(Cases); ++I) {
    const std::string What = cat({"case ", std::to_string(I)});
    EXPECT_TRUE(sameAsReference(Cases[I], What));
    expectEveryReadAgrees(Cases[I], What);
  }
}

TEST(LexerDifferentialTest, NeverReadsPastTheView) {
  // Every prefix is copied into a heap block of exactly its size, so under
  // AddressSanitizer a read of the byte after the view fails the test.
  // The prefixes end inside every token the lexer looks past: a name, ':'
  // before '=', '/', '@layout', '@id/', '/*', '//' and '\r', and inside
  // the indentation after a newline, which is skipped a word at a time.
  const std::string Inputs[] = {
      "a := b; v: T/ x @layout/main @id/b /* c */ // d\r\n@layout @id/ z",
      "@layout/x:=@id/y//\r\n/*\n*/@lay@id/@/@x/y:",
      std::string("n\0@\xe9", 4) + "@layout/",
      "a\n          b\n        c\n    \td\n\n   ",
  };
  for (const std::string &Input : Inputs) {
    for (size_t Size = 0; Size <= Input.size(); ++Size) {
      std::unique_ptr<char[]> Block(new char[Size]);
      std::memcpy(Block.get(), Input.data(), Size);
      const std::string_view View(Block.get(), Size);
      EXPECT_TRUE(sameAsReference(View, "prefix of " + std::to_string(Size) +
                                            " bytes"));
    }
  }
}

} // namespace
