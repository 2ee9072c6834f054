//===- lexer_test.cpp - ALite lexer unit tests ------------------*- C++ -*-===//

#include "parser/Lexer.h"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <sstream>

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

} // namespace
