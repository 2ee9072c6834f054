//===- support_test.cpp - Diagnostics / interner / locations ----*- C++ -*-===//

#include "support/CharClass.h"
#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/SourceLocation.h"
#include "support/StringInterner.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include <unistd.h>

using namespace gator;

TEST(SourceLocationTest, DefaultIsInvalid) {
  SourceLocation Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocationTest, FormatsFileLineColumn) {
  SourceLocation Loc("foo.alite", 12, 5);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "foo.alite:12:5");
  std::ostringstream OS;
  OS << Loc;
  EXPECT_EQ(OS.str(), "foo.alite:12:5");
}

TEST(SourceLocationTest, EmptyFileNameRendersAsInput) {
  SourceLocation Loc("", 3, 1);
  EXPECT_EQ(Loc.str(), "<input>:3:1");
}

TEST(SourceLocationTest, Equality) {
  SourceLocation A("f", 1, 2), B("f", 1, 2), C("f", 1, 3);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == C);
}

TEST(SourceLocationTest, CompactAndTriviallyCopyable) {
  EXPECT_EQ(sizeof(SourceLocation), 16u);
  EXPECT_TRUE(std::is_trivially_copyable_v<SourceLocation>);
}

TEST(SourceLocationTest, InternedFileNamesAreShared) {
  const std::string Long = "some/rather/long/path/to/app.alite";
  SourceLocation A(Long, 1, 1), B(std::string(Long), 9, 4);
  EXPECT_EQ(&A.file(), &B.file());
  EXPECT_EQ(&A.file(), SourceLocation::internFile(Long));
  EXPECT_EQ(B.file(), Long);
  EXPECT_EQ(B.str(), Long + ":9:4");
  EXPECT_NE(&A.file(), SourceLocation::internFile("other.alite"));
  EXPECT_EQ(SourceLocation::internFile(""), nullptr);
  EXPECT_EQ(SourceLocation("", 0, 0), SourceLocation());
  EXPECT_EQ(SourceLocation().file(), "");
}

TEST(SourceLocationTest, InterningIsThreadSafe) {
  // Every thread interns the same names; all must get the same pointers.
  constexpr unsigned Threads = 4, Names = 200;
  std::vector<std::vector<SourceLocation::FileRef>> Refs(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < Names; ++I)
        Refs[T].push_back(SourceLocation::internFile(
            "threaded/file/number/" + std::to_string(I) + ".alite"));
    });
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 1; T < Threads; ++T)
    EXPECT_EQ(Refs[T], Refs[0]);
  EXPECT_EQ(*Refs[0][7], "threaded/file/number/7.alite");
}

TEST(CharClassTest, MatchesCLocaleCctype) {
  // The program never calls setlocale, so <cctype> answers for "C".
  for (int C = 0; C < 256; ++C) {
    char Ch = static_cast<char>(C);
    EXPECT_EQ(charclass::isSpace(Ch), std::isspace(C) != 0) << C;
    EXPECT_EQ(charclass::isAlpha(Ch), std::isalpha(C) != 0) << C;
    EXPECT_EQ(charclass::isDigit(Ch), std::isdigit(C) != 0) << C;
    EXPECT_EQ(charclass::isAlnum(Ch), std::isalnum(C) != 0) << C;
  }
}

TEST(DiagnosticsTest, CountsBySeverity) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning("w1");
  Diags.note(SourceLocation(), "n1");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error("e1");
  Diags.error(SourceLocation("f", 1, 1), "e2");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 2u);
  EXPECT_EQ(Diags.warningCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 4u);
}

TEST(DiagnosticsTest, PrintIncludesLocationAndSeverity) {
  DiagnosticEngine Diags;
  Diags.error(SourceLocation("m.alite", 7, 3), "bad thing");
  Diags.warning("loose end");
  std::ostringstream OS;
  Diags.print(OS);
  EXPECT_EQ(OS.str(), "m.alite:7:3: error: bad thing\nwarning: loose end\n");
}

TEST(DiagnosticsTest, ClearResetsEverything) {
  DiagnosticEngine Diags;
  Diags.error("e");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
  EXPECT_EQ(Diags.warningCount(), 0u);
}

TEST(DiagnosticsTest, SeverityLabels) {
  EXPECT_STREQ(severityLabel(DiagSeverity::Error), "error");
  EXPECT_STREQ(severityLabel(DiagSeverity::Warning), "warning");
  EXPECT_STREQ(severityLabel(DiagSeverity::Note), "note");
}

TEST(StringInternerTest, InterningIsIdempotent) {
  StringInterner Interner;
  Symbol A = Interner.intern("hello");
  Symbol B = Interner.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Interner.size(), 1u);
  EXPECT_EQ(Interner.text(A), "hello");
}

TEST(StringInternerTest, DistinctStringsDistinctSymbols) {
  StringInterner Interner;
  Symbol A = Interner.intern("a");
  Symbol B = Interner.intern("b");
  EXPECT_NE(A, B);
  EXPECT_EQ(Interner.text(A), "a");
  EXPECT_EQ(Interner.text(B), "b");
}

TEST(StringInternerTest, LookupWithoutInterning) {
  StringInterner Interner;
  EXPECT_FALSE(Interner.lookup("missing").isValid());
  Interner.intern("present");
  EXPECT_TRUE(Interner.lookup("present").isValid());
}

TEST(StringInternerTest, SurvivesGrowth) {
  // The string_view keys must stay valid across vector reallocation.
  StringInterner Interner;
  std::vector<Symbol> Symbols;
  for (int I = 0; I < 1000; ++I)
    Symbols.push_back(Interner.intern("sym" + std::to_string(I)));
  for (int I = 0; I < 1000; ++I) {
    EXPECT_EQ(Interner.text(Symbols[I]), "sym" + std::to_string(I));
    EXPECT_EQ(Interner.lookup("sym" + std::to_string(I)), Symbols[I]);
  }
}

TEST(StringInternerTest, DefaultSymbolIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
}

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    J.beginObject();
    J.field("name", "gator");
    J.field("count", 3);
    J.field("ok", true);
    J.key("list");
    J.beginArray();
    J.value(1);
    J.value(2);
    J.endArray();
    J.key("nested");
    J.beginObject();
    J.key("none");
    J.nullValue();
    J.endObject();
    J.endObject();
  }
  EXPECT_EQ(OS.str(), "{\"name\":\"gator\",\"count\":3,\"ok\":true,"
                      "\"list\":[1,2],\"nested\":{\"none\":null}}");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    J.beginObject();
    J.field("s", "a\"b\\c\nd\te");
    J.endObject();
  }
  EXPECT_EQ(OS.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriterTest, EmptyContainers) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    J.beginArray();
    J.beginObject();
    J.endObject();
    J.beginArray();
    J.endArray();
    J.endArray();
  }
  EXPECT_EQ(OS.str(), "[{},[]]");
}

TEST(TimerTest, MeasuresNonNegativeMonotonicTime) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(A, 0.0);
  EXPECT_GE(B, A);
  T.reset();
  EXPECT_GE(T.millis(), 0.0);
}

TEST(ReadFileTest, ReadsBytesExactly) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::temp_directory_path() / "gator_read_file_test";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  const char Raw[] = "line one\r\n\0binary\xff\n";
  std::string Bytes(Raw, sizeof(Raw) - 1);
  Bytes.append(100000, 'x'); // several pages
  {
    std::ofstream OS(Dir / "data.bin", std::ios::binary);
    OS << Bytes;
    std::ofstream Empty(Dir / "empty.alite");
  }
  std::string Out = "stale";
  ASSERT_TRUE(support::readFile(Dir / "data.bin", Out));
  EXPECT_EQ(Out, Bytes);
  ASSERT_TRUE(support::readFile(Dir / "empty.alite", Out));
  EXPECT_TRUE(Out.empty());
  Out = "stale";
  EXPECT_FALSE(support::readFile(Dir / "missing.alite", Out));
  EXPECT_TRUE(Out.empty());
  EXPECT_FALSE(support::readFile(Dir, Out)); // a directory
  EXPECT_TRUE(Out.empty());
  fs::remove_all(Dir);
}

TEST(ReadFileTest, ReadsAStreamWithNoSize) {
  // A pipe reports size 0; its bytes are read to the end anyway, as for
  // `gator_cli report <(...)`.
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  const std::string Text = "{\"ledger_format\":1}\n";
  ASSERT_EQ(write(Fds[1], Text.data(), Text.size()),
            static_cast<ssize_t>(Text.size()));
  close(Fds[1]);
  std::string Out;
  EXPECT_TRUE(support::readFile("/proc/self/fd/" + std::to_string(Fds[0]),
                                Out));
  close(Fds[0]);
  EXPECT_EQ(Out, Text);
}
