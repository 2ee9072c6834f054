//===- support_test.cpp - Diagnostics / interner / locations ----*- C++ -*-===//

#include "support/CharClass.h"
#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/SourceLocation.h"
#include "support/StringInterner.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
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

TEST(StringInternerTest, EveryLengthUpToSixtyFour) {
  // Lengths 0-64 reach every load split of the short-name hash (up to 16
  // bytes) and the XXH64 path beyond it. The two spellings of each length
  // differ only in their middle byte. Every view is unaligned and ends its
  // heap block, so under AddressSanitizer a load past a name fails.
  const std::string Base =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$";
  ASSERT_EQ(Base.size(), 64u);
  struct View {
    std::unique_ptr<char[]> Block;
    std::string_view Text;
  };
  auto Copy = [](const std::string &Text, size_t Skew) {
    View V{std::make_unique<char[]>(Skew + Text.size()), {}};
    std::memcpy(V.Block.get() + Skew, Text.data(), Text.size());
    V.Text = std::string_view(V.Block.get() + Skew, Text.size());
    return V;
  };

  StringInterner Interner;
  std::vector<std::string> Spellings;
  std::vector<Symbol> Symbols;
  for (size_t Length = 0; Length <= 64; ++Length) {
    std::string Plain = Base.substr(0, Length);
    std::vector<std::string> Pair{Plain};
    if (Length > 0) {
      Pair.push_back(Plain);
      Pair.back()[Length / 2] ^= 1;
    }
    for (const std::string &Spelling : Pair) {
      const View V = Copy(Spelling, 1 + Spellings.size() % 7);
      Symbols.push_back(Interner.intern(V.Text));
      Spellings.push_back(Spelling);
    }
  }
  ASSERT_EQ(Spellings.size(), 129u);
  EXPECT_EQ(Interner.size(), Spellings.size());
  EXPECT_EQ(std::set<Symbol>(Symbols.begin(), Symbols.end()).size(),
            Spellings.size());
  for (size_t I = 0; I < Spellings.size(); ++I) {
    const View Other = Copy(Spellings[I], 3 + I % 5);
    EXPECT_EQ(Interner.lookup(Other.Text), Symbols[I]) << Spellings[I];
    EXPECT_EQ(Interner.intern(Other.Text), Symbols[I]) << Spellings[I];
    EXPECT_EQ(Interner.text(Symbols[I]), Spellings[I]);
  }
  EXPECT_EQ(Interner.size(), Spellings.size());
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

//===----------------------------------------------------------------------===//
// XXH64 and the content hasher
//===----------------------------------------------------------------------===//

namespace {

/// XXH64 written from the specification one byte at a time: every word is
/// assembled from single bytes, so it shares no load or tail code with
/// support::xxh64.
uint64_t referenceXxh64(const std::string &Data, uint64_t Seed) {
  const uint64_t P1 = 0x9E3779B185EBCA87ULL, P2 = 0xC2B2AE3D27D4EB4FULL,
                 P3 = 0x165667B19E3779F9ULL, P4 = 0x85EBCA77C2B2AE63ULL,
                 P5 = 0x27D4EB2F165667C5ULL;
  auto Rotl = [](uint64_t V, int R) { return (V << R) | (V >> (64 - R)); };
  auto Word = [&Data](size_t At, int Bytes) {
    uint64_t V = 0;
    for (int I = 0; I < Bytes; ++I)
      V |= uint64_t(static_cast<unsigned char>(Data[At + I])) << (8 * I);
    return V;
  };
  auto Round = [&](uint64_t Acc, uint64_t In) {
    return Rotl(Acc + In * P2, 31) * P1;
  };
  size_t At = 0;
  const size_t Len = Data.size();
  uint64_t H;
  if (Len >= 32) {
    uint64_t V[4] = {Seed + P1 + P2, Seed + P2, Seed, Seed - P1};
    for (; Len - At >= 32; At += 32)
      for (int L = 0; L < 4; ++L)
        V[L] = Round(V[L], Word(At + 8 * L, 8));
    H = Rotl(V[0], 1) + Rotl(V[1], 7) + Rotl(V[2], 12) + Rotl(V[3], 18);
    for (int L = 0; L < 4; ++L)
      H = (H ^ Round(0, V[L])) * P1 + P4;
  } else {
    H = Seed + P5;
  }
  H += Len;
  for (; Len - At >= 8; At += 8)
    H = Rotl(H ^ Round(0, Word(At, 8)), 27) * P1 + P4;
  if (Len - At >= 4) {
    H = Rotl(H ^ (Word(At, 4) * P1), 23) * P2 + P3;
    At += 4;
  }
  for (; At < Len; ++At)
    H = Rotl(H ^ (Word(At, 1) * P5), 11) * P1;
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  H ^= H >> 32;
  return H;
}

} // namespace

TEST(Xxh64Test, KnownAnswers) {
  EXPECT_EQ(support::xxh64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(support::xxh64("a", 0), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(support::xxh64("abc", 0), 0x44BC2CF5AD770999ULL);
}

TEST(Xxh64Test, EveryLengthMatchesTheBytewiseReference) {
  // 0..64 bytes covers the short path, one and two 32-byte stripes, and
  // every combination of the 8-, 4- and 1-byte tail steps. The input is
  // read at an odd offset, so the word loads are unaligned too.
  std::string Buffer(1, '\0');
  for (int I = 0; I < 64; ++I)
    Buffer.push_back(static_cast<char>(I * 37 + 11));
  for (uint64_t Seed : {uint64_t(0), uint64_t(1), ~uint64_t(0) - 5})
    for (size_t Len = 0; Len <= 64; ++Len) {
      const std::string Data = Buffer.substr(1, Len);
      EXPECT_EQ(support::xxh64(std::string_view(Buffer).substr(1, Len), Seed),
                referenceXxh64(Data, Seed))
          << "length " << Len << ", seed " << Seed;
    }
}

TEST(ContentHasherTest, ContentIsFramedByLabelAndLength) {
  auto Key = [](std::initializer_list<std::pair<const char *, const char *>>
                    Files) {
    support::ContentHasher H;
    for (const auto &[Label, Bytes] : Files)
      H.content(Label, Bytes);
    return H.digest().hex();
  };
  EXPECT_EQ(Key({{"a", "xy"}}), Key({{"a", "xy"}}));
  EXPECT_NE(Key({{"a", "xy"}}), Key({{"a", "yx"}}));
  EXPECT_NE(Key({{"a", "xy"}}), Key({{"b", "xy"}}));
  EXPECT_NE(Key({{"a", "x"}, {"b", "y"}}), Key({{"a", "xy"}, {"b", ""}}));
  EXPECT_NE(Key({{"a", "x"}, {"b", "y"}}), Key({{"b", "y"}, {"a", "x"}}));
  // The bulk path and the byte path frame the same pair differently.
  support::ContentHasher Field;
  Field.field("a", "xy");
  EXPECT_NE(Key({{"a", "xy"}}), Field.digest().hex());
}

//===----------------------------------------------------------------------===//
// loadAppDir
//===----------------------------------------------------------------------===//

namespace {

/// A scratch app directory under the system temp dir, removed on exit.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Root(std::filesystem::temp_directory_path() / Name) {
    std::filesystem::remove_all(Root);
    std::filesystem::create_directories(Root);
  }
  ~ScratchDir() { std::filesystem::remove_all(Root); }

  void write(const std::string &Rel, const std::string &Bytes) const {
    const std::filesystem::path Path = Root / Rel;
    std::filesystem::create_directories(Path.parent_path());
    std::ofstream(Path, std::ios::binary) << Bytes;
  }

  /// The files of \p In as (root-relative path, kind) pairs.
  std::vector<std::pair<std::string, support::AppFileKind>>
  census(const support::AppInputs &In) const {
    std::vector<std::pair<std::string, support::AppFileKind>> Out;
    for (const support::AppFile &F : In.Files)
      Out.emplace_back(F.Path.lexically_relative(Root).generic_string(),
                       F.Kind);
    return Out;
  }

  const std::filesystem::path Root;
};

} // namespace

TEST(LoadAppDirTest, CensusIsTheParseOrder) {
  using K = support::AppFileKind;
  ScratchDir D("gator_load_app_dir_census");
  D.write("b.alite", "class B {}");
  D.write("a.alite", "class A {}");
  D.write("sub/c.alite", "class C {}");
  D.write("x.dexlite", "dex");
  D.write("res/main.xml", "<LinearLayout/>");
  D.write("footer.xml", "<TextView/>");
  D.write("AndroidManifest.xml", "<manifest/>");
  D.write("notes.txt", "not an input");

  const support::AppInputs In = support::loadAppDir(D.Root);
  ASSERT_FALSE(In.ListError);
  const std::vector<std::pair<std::string, K>> Want = {
      {"a.alite", K::Alite},        {"b.alite", K::Alite},
      {"sub/c.alite", K::Alite},    {"x.dexlite", K::DexLite},
      {"footer.xml", K::Layout},    {"res/main.xml", K::Layout},
      {"AndroidManifest.xml", K::Manifest}};
  EXPECT_EQ(D.census(In), Want);
  EXPECT_TRUE(In.complete());
  EXPECT_TRUE(In.hasSources());
  EXPECT_EQ(In.count(K::Alite), 3u);
  EXPECT_EQ(In.count(K::Manifest), 1u);
  EXPECT_EQ(In.Files[0].Bytes, "class A {}");
  EXPECT_EQ(In.Files.back().Bytes, "<manifest/>");
  uint64_t Bytes = 0;
  for (const support::AppFile &F : In.Files)
    Bytes += F.Bytes.size();
  EXPECT_EQ(In.bytes(), Bytes);
}

TEST(LoadAppDirTest, SortsByPathElementsNotByRelativeString) {
  // As strings, "a-b/x.alite" < "a/x.alite" ('-' sorts before '/'); as
  // paths, "a" < "a-b" decides first. The loader, and so the parse order
  // and the content key, follows the paths.
  ScratchDir D("gator_load_app_dir_order");
  D.write("a/x.alite", "class X {}");
  D.write("a-b/x.alite", "class Y {}");
  ASSERT_LT(std::string("a-b/x.alite"), std::string("a/x.alite"));
  const support::AppInputs In = support::loadAppDir(D.Root);
  ASSERT_EQ(In.Files.size(), 2u);
  EXPECT_EQ(D.census(In)[0].first, "a/x.alite");
  EXPECT_EQ(D.census(In)[1].first, "a-b/x.alite");
}

TEST(LoadAppDirTest, KeepsAFailedReadAndAListingError) {
  ScratchDir D("gator_load_app_dir_failed");
  D.write("app.alite", "class A {}");
  // /proc/self/mem is a regular file whose read at offset 0 fails with
  // EIO, whoever runs the test.
  std::filesystem::create_symlink("/proc/self/mem", D.Root / "main.xml");
  const support::AppInputs In = support::loadAppDir(D.Root);
  ASSERT_EQ(In.Files.size(), 2u);
  EXPECT_TRUE(In.Files[0].ReadOk);
  EXPECT_EQ(In.Files[1].Kind, support::AppFileKind::Layout);
  EXPECT_FALSE(In.Files[1].ReadOk);
  EXPECT_TRUE(In.Files[1].Bytes.empty());
  EXPECT_FALSE(In.complete());

  const support::AppInputs Missing =
      support::loadAppDir(D.Root / "no_such_dir");
  EXPECT_TRUE(Missing.ListError);
  EXPECT_TRUE(Missing.Files.empty());
  EXPECT_FALSE(Missing.complete());
  EXPECT_FALSE(Missing.hasSources());
}
