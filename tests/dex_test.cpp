//===- dex_test.cpp - DexLite bytecode frontend tests -----------*- C++ -*-===//

#include "dex/DexLite.h"
#include "parser/Printer.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::ir;
using namespace gator::test;

namespace {

/// Builds a bundle from DexLite text plus layouts.
std::unique_ptr<corpus::AppBundle>
makeDexBundle(const std::string &Source,
              const std::vector<std::pair<std::string, std::string>>
                  &Layouts = {}) {
  auto App = std::make_unique<corpus::AppBundle>();
  App->Android.install(App->Program);
  bool Ok = dex::parseDexLite(Source, "test.dexlite", App->Program,
                              App->Diags);
  for (const auto &[Name, Xml] : Layouts)
    Ok &= layout::readLayoutXml(*App->Layouts, Name, Xml, App->Diags) !=
          nullptr;
  Ok &= App->finalize();
  if (!Ok || App->Diags.hasErrors()) {
    std::ostringstream OS;
    App->Diags.print(OS);
    ADD_FAILURE() << "dex bundle build failed:\n" << OS.str();
  }
  return App;
}

const char *SimpleLayout = R"(
<LinearLayout android:id="@+id/root">
  <Button android:id="@+id/ok" />
  <TextView android:id="@+id/title" />
</LinearLayout>
)";

TEST(DexLiteTest, ParsesClassStructure) {
  auto App = makeDexBundle(R"(
# A listener and its activity.
.interface Clickable
.end class

.class A extends android.app.Activity implements Clickable, java.util.List
  .field count int
  .field static shared java.lang.Object
  .method onCreate() void
    return-void
  .end method
  .method static helper(int) int
  .end method
.end class
)");
  const ClassDecl *A = App->Program.findClass("A");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->superName(), "android.app.Activity");
  ASSERT_EQ(A->interfaceNames().size(), 2u);
  EXPECT_TRUE(App->Program.findClass("Clickable")->isInterface());
  EXPECT_FALSE(A->findOwnField("count")->isStatic());
  EXPECT_TRUE(A->findOwnField("shared")->isStatic());
  // A bodiless method becomes abstract.
  EXPECT_TRUE(A->findOwnMethod("helper", 1)->isAbstract());
  EXPECT_FALSE(A->findOwnMethod("onCreate", 0)->isAbstract());
}

TEST(DexLiteTest, EndToEndAnalysisMatchesAliteEquivalent) {
  // The quickstart app, written as bytecode: find a button, register a
  // listener.
  auto App = makeDexBundle(R"(
.class MainActivity extends android.app.Activity
  .method onCreate() void
    .registers 4
    const-layout v0, main
    invoke {p0, v0}, setContentView
    const-id v1, ok
    invoke {p0, v1}, findViewById
    move-result v2
    new-instance v3, Greet
    invoke {v2, v3}, setOnClickListener
    return-void
  .end method
.end class

.class Greet implements android.view.View.OnClickListener
  .method onClick(android.view.View) void
    .registers 1
    return-void
  .end method
.end class
)",
                           {{"main", SimpleLayout}});
  auto R = runAnalysis(*App);

  // v2 was typed android.view.View via findViewById's return type, so the
  // call classified as FindView2 and resolved to the Button.
  NodeId V2 = varNode(*App, *R, "MainActivity", "onCreate", 0, "v2");
  EXPECT_EQ(viewClassesAt(*R, V2),
            std::vector<std::string>{"android.widget.Button"});
  // The listener callback fired: onClick's parameter holds the button.
  NodeId Param = varNode(*App, *R, "Greet", "onClick", 1, "p1");
  EXPECT_EQ(viewClassesAt(*R, Param),
            std::vector<std::string>{"android.widget.Button"});
  auto M = R->metrics();
  EXPECT_DOUBLE_EQ(M.AvgReceivers, 1.0);
}

TEST(DexLiteTest, RegisterRetypingSplitsVariables) {
  // v0 is reused at three different types; each rebinding must become a
  // fresh typed IR variable, keeping the operation classification sound.
  auto App = makeDexBundle(R"(
.class A extends android.app.Activity
  .method onCreate() void
    .registers 2
    const-layout v0, main
    invoke {p0, v0}, setContentView
    new-instance v0, android.widget.Button
    const-id v1, prog
    invoke {v0, v1}, setId
    move v0, v1
    return-void
  .end method
.end class
)",
                           {{"main", SimpleLayout}});
  const MethodDecl *M =
      App->Program.findClass("A")->findOwnMethod("onCreate", 0);
  // v0 bound as int, then Button, then int again: three IR variables.
  EXPECT_NE(M->findVar("v0"), InvalidVar);
  EXPECT_NE(M->findVar("v0$1"), InvalidVar);
  EXPECT_NE(M->findVar("v0$2"), InvalidVar);
  EXPECT_EQ(M->var(M->findVar("v0")).TypeName, IntTypeName);
  EXPECT_EQ(M->var(M->findVar("v0$1")).TypeName, "android.widget.Button");
  EXPECT_EQ(M->var(M->findVar("v0$2")).TypeName, IntTypeName);

  // The setId op still classified (receiver Button, arg int).
  auto R = runAnalysis(*App);
  EXPECT_EQ(R->Sol->opsOfKind(android::OpKind::SetId).size(), 1u);
}

TEST(DexLiteTest, FieldTypesInferredThroughIGet) {
  auto App = makeDexBundle(R"(
.class Holder
  .field view android.widget.ViewFlipper
.end class

.class A extends android.app.Activity
  .method onCreate() void
    .registers 3
    new-instance v0, Holder
    iget v1, v0, view
    invoke {v1}, getCurrentView
    move-result v2
    return-void
  .end method
.end class
)");
  const MethodDecl *M =
      App->Program.findClass("A")->findOwnMethod("onCreate", 0);
  EXPECT_EQ(M->var(M->findVar("v1")).TypeName, "android.widget.ViewFlipper");
  // getCurrentView classified because v1's inferred type is ViewFlipper.
  auto R = runAnalysis(*App);
  EXPECT_EQ(R->Sol->opsOfKind(android::OpKind::FindView3).size(), 1u);
}

TEST(DexLiteTest, StaticFieldsAndClassConstants) {
  auto App = makeDexBundle(R"(
.class Registry
  .field static current java.lang.Class
.end class

.class A extends android.app.Activity
  .method onCreate() void
    .registers 2
    const-class v0, A
    sput v0, Registry.current
    sget v1, Registry.current
    return-void
  .end method
.end class
)");
  const MethodDecl *M =
      App->Program.findClass("A")->findOwnMethod("onCreate", 0);
  ASSERT_EQ(M->body().size(), 4u);
  EXPECT_EQ(M->body()[0].Kind, StmtKind::AssignClassConst);
  EXPECT_EQ(M->body()[1].Kind, StmtKind::StoreStaticField);
  EXPECT_EQ(M->body()[1].className(), "Registry");
  EXPECT_EQ(M->body()[2].Kind, StmtKind::LoadStaticField);
  EXPECT_EQ(M->var(M->findVar("v1")).TypeName, "java.lang.Class");
}

TEST(DexLiteTest, ReturnFlowsInterprocedurally) {
  auto App = makeDexBundle(R"(
.class A extends android.app.Activity
  .method onCreate() void
    .registers 2
    new-instance v0, android.widget.Button
    invoke {p0, v0}, pass
    move-result v1
    return-void
  .end method
  .method pass(android.view.View) android.view.View
    .registers 1
    return p1
  .end method
.end class
)");
  auto R = runAnalysis(*App);
  NodeId V1 = varNode(*App, *R, "A", "onCreate", 0, "v1");
  EXPECT_EQ(viewClassesAt(*R, V1),
            std::vector<std::string>{"android.widget.Button"});
}

TEST(DexLiteTest, LoweredProgramPrintsAsAlite) {
  // The bytecode frontend and the ALite frontend share the IR; a lowered
  // dex program serializes to valid ALite.
  auto App = makeDexBundle(R"(
.class A extends android.app.Activity
  .method onCreate() void
    .registers 2
    const-layout v0, main
    invoke {p0, v0}, setContentView
    return-void
  .end method
.end class
)",
                           {{"main", SimpleLayout}});
  std::string Text = parser::programToString(App->Program);
  EXPECT_NE(Text.find("v0 := @layout/main;"), std::string::npos);
  EXPECT_NE(Text.find("this.setContentView(v0);"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Error handling
//===----------------------------------------------------------------------===//

void expectDexError(const std::string &Source) {
  Program P;
  DiagnosticEngine Diags;
  android::AndroidModel AM;
  AM.install(P);
  bool Ok = dex::parseDexLite(Source, "bad.dexlite", P, Diags);
  EXPECT_TRUE(!Ok || Diags.hasErrors()) << "expected an error";
}

TEST(DexLiteTest, UseOfUnassignedRegisterIsError) {
  expectDexError(R"(
.class A
  .method m() void
    move v0, v1
  .end method
.end class
)");
}

TEST(DexLiteTest, MoveResultWithoutInvokeIsError) {
  expectDexError(R"(
.class A
  .method m() void
    .registers 1
    move-result v0
  .end method
.end class
)");
}

TEST(DexLiteTest, UnknownInstructionIsError) {
  expectDexError(".class A\n.method m() void\n  frobnicate v0\n"
                 ".end method\n.end class\n");
}

TEST(DexLiteTest, BufferAfterAnotherBuffersErrorIsLowered) {
  // The engine already holds an error from another file of the app; this
  // clean buffer must still declare and lower its classes.
  Program P;
  DiagnosticEngine Diags;
  Diags.error("an error from an earlier file");
  EXPECT_TRUE(dex::parseDexLite(".class A\n"
                                "  .method m() void\n"
                                "    return-void\n"
                                "  .end method\n"
                                ".end class\n",
                                "second.dexlite", P, Diags));
  const ClassDecl *A = P.findClass("A");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(A->findOwnMethod("m", 0), nullptr);
  EXPECT_FALSE(A->findOwnMethod("m", 0)->isAbstract());
  EXPECT_EQ(Diags.errorCount(), 1u);
}

TEST(DexLiteTest, InstructionOutsideMethodIsError) {
  expectDexError(".class A\n  const-null v0\n.end class\n");
}

TEST(DexLiteTest, MissingEndMethodIsError) {
  expectDexError(".class A\n.method m() void\n  return-void\n");
}

TEST(DexLiteTest, DuplicateClassIsError) {
  expectDexError(".class A\n.end class\n.class A\n.end class\n");
}

TEST(DexLiteTest, LineNumbersCountLikeGetline) {
  // Lines split on '\n' only ('\r' is trailing whitespace); a final
  // newline does not start another line.
  auto FirstError = [](const std::string &Source) {
    Program P;
    DiagnosticEngine Diags;
    android::AndroidModel AM;
    AM.install(P);
    dex::parseDexLite(Source, "lines.dexlite", P, Diags);
    EXPECT_FALSE(Diags.diagnostics().empty());
    return Diags.diagnostics().empty() ? SourceLocation()
                                       : Diags.diagnostics()[0].Loc;
  };
  EXPECT_EQ(FirstError(".class A\r\n\r\n  const-null v0\r\n.end class"),
            SourceLocation("lines.dexlite", 3, 1));
  EXPECT_EQ(FirstError(".class A\n.method m() void\n  return-void\n"),
            SourceLocation("lines.dexlite", 3, 1));
  EXPECT_EQ(FirstError(".class A\n\n\n.method m() void\n  return-void"),
            SourceLocation("lines.dexlite", 5, 1));
}

//===----------------------------------------------------------------------===//
// Register-bounds and truncation hardening (docs/ROBUSTNESS.md)
//===----------------------------------------------------------------------===//

TEST(DexLiteTest, RegistersDirectiveOutsideMethodIsError) {
  expectDexError(".class A\n  .registers 4\n.end class\n");
}

TEST(DexLiteTest, RegistersDirectiveMissingCountIsError) {
  expectDexError(".class A\n.method m() void\n  .registers\n"
                 ".end method\n.end class\n");
}

TEST(DexLiteTest, RegistersDirectiveNonNumericCountIsError) {
  expectDexError(".class A\n.method m() void\n  .registers lots\n"
                 ".end method\n.end class\n");
}

TEST(DexLiteTest, RegistersDirectiveOversizedCountIsError) {
  // The dex format caps a method at 65535 registers; a length field above
  // that (or wildly above, overflowing a naive parse) must be rejected.
  expectDexError(".class A\n.method m() void\n  .registers 65536\n"
                 ".end method\n.end class\n");
  expectDexError(".class A\n.method m() void\n"
                 "  .registers 99999999999999999999\n"
                 ".end method\n.end class\n");
}

TEST(DexLiteTest, DuplicateRegistersDirectiveIsError) {
  expectDexError(".class A\n.method m() void\n  .registers 2\n"
                 "  .registers 2\n.end method\n.end class\n");
}

TEST(DexLiteTest, RegisterIndexOverDexLimitIsError) {
  expectDexError(".class A\n.method m() void\n  const-null v70000\n"
                 ".end method\n.end class\n");
  expectDexError(".class A\n.method m() void\n"
                 "  const-null v99999999999999999999\n"
                 ".end method\n.end class\n");
}

TEST(DexLiteTest, RegisterOutsideDeclaredRangeIsError) {
  expectDexError(".class A\n.method m() void\n  .registers 2\n"
                 "  const-null v2\n.end method\n.end class\n");
}

TEST(DexLiteTest, RegistersWithinDeclaredRangeParse) {
  auto App = makeDexBundle(R"(
.class A extends android.app.Activity
  .method onCreate() void
    .registers 2
    const-null v0
    move v1, v0
    return-void
  .end method
.end class
)");
  EXPECT_NE(App->Program.findClass("A"), nullptr);
}

TEST(DexLiteTest, MalformedFixturesDiagnoseNotCrash) {
  // Every fixture is a distinct early-exit path of the reader; each must
  // produce an error diagnostic, never UB or a crash.
  const char *Fixtures[] = {
      "truncated_method.dexlite",   "truncated_class.dexlite",
      "oversized_registers.dexlite", "register_out_of_range.dexlite",
      "duplicate_registers.dexlite",
  };
  for (const char *Name : Fixtures) {
    SCOPED_TRACE(Name);
    std::ifstream In(std::string(GATOR_SOURCE_DIR) + "/tests/fixtures/" +
                     Name);
    ASSERT_TRUE(In.good()) << "missing fixture " << Name;
    std::ostringstream OS;
    OS << In.rdbuf();
    expectDexError(OS.str());
  }
}

} // namespace
