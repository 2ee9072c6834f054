//===- android_test.cpp - Platform model unit tests -------------*- C++ -*-===//

#include "android/AndroidModel.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace gator;
using namespace gator::android;
using namespace gator::ir;

namespace {

/// Installs the platform and a small app; binds the model.
class AndroidModelTest : public ::testing::Test {
protected:
  void SetUp() override {
    AM.install(P);
    ProgramBuilder B(P, Diags);
    B.makeClass("MyActivity").extends(names::Activity);
    B.makeClass("MyDialog").extends(names::Dialog);
    B.makeClass("MyView").extends(names::View);
    B.makeClass("MyListener").implements("android.view.View.OnClickListener");
    B.makeClass("Plain");
    // classify() adds its methods here: a class added after finish()
    // would leave the program unresolved.
    B.makeClass("Scratch");
    ASSERT_TRUE(B.finish());
    ASSERT_TRUE(AM.bind(P, Diags));
  }

  /// Builds an invoke statement in a scratch method for classification.
  std::optional<OpSpec> classify(const std::string &RecvType,
                                 const std::string &Method,
                                 const std::vector<std::string> &ArgTypes) {
    ClassDecl *Scratch = P.findClass("Scratch");
    static int Counter = 0;
    MethodDecl *M =
        Scratch->addMethod("scratch" + std::to_string(Counter++), "void");
    VarId Base = M->addLocal("base", RecvType);
    Stmt S(StmtKind::Invoke);
    S.Base = Base;
    S.setMethodName(P.intern(Method));
    std::vector<VarId> Args;
    for (size_t I = 0; I < ArgTypes.size(); ++I) {
      std::string Name = "a";
      Name += std::to_string(I);
      Args.push_back(M->addLocal(Name, ArgTypes[I]));
    }
    S.setArgs(P.makeArgs(Args));
    return AM.classifyInvoke(*M, S);
  }

  Program P;
  DiagnosticEngine Diags;
  AndroidModel AM;
};

TEST_F(AndroidModelTest, InstallIsIdempotent) {
  size_t Before = P.classes().size();
  AM.install(P);
  EXPECT_EQ(P.classes().size(), Before);
}

TEST_F(AndroidModelTest, ClassCategories) {
  EXPECT_TRUE(AM.isActivityClass(P.findClass("MyActivity")));
  EXPECT_FALSE(AM.isActivityClass(P.findClass("MyView")));
  EXPECT_TRUE(AM.isWindowClass(P.findClass("MyActivity")));
  EXPECT_TRUE(AM.isWindowClass(P.findClass("MyDialog")));
  EXPECT_FALSE(AM.isWindowClass(P.findClass("MyView")));
  EXPECT_TRUE(AM.isViewClass(P.findClass("MyView")));
  EXPECT_TRUE(AM.isViewClass(P.findClass("android.widget.Button")));
  EXPECT_TRUE(AM.isViewGroupClass(P.findClass("android.widget.ViewFlipper")));
  EXPECT_FALSE(AM.isViewGroupClass(P.findClass("android.widget.TextView")));
  EXPECT_TRUE(AM.isListenerClass(P.findClass("MyListener")));
  EXPECT_FALSE(AM.isListenerClass(P.findClass("Plain")));
}

TEST_F(AndroidModelTest, AppActivityClassesExcludePlatform) {
  auto Acts = AM.appActivityClasses();
  ASSERT_EQ(Acts.size(), 1u);
  EXPECT_EQ(Acts[0]->name(), "MyActivity");
}

TEST_F(AndroidModelTest, ClassifySetContentViewByArgType) {
  auto IdForm = classify("MyActivity", "setContentView", {"int"});
  ASSERT_TRUE(IdForm.has_value());
  EXPECT_EQ(IdForm->Kind, OpKind::Inflate2);

  auto ViewForm = classify("MyActivity", "setContentView",
                           {names::View});
  ASSERT_TRUE(ViewForm.has_value());
  EXPECT_EQ(ViewForm->Kind, OpKind::AddView1);

  // Dialogs support the same operations.
  auto DialogForm = classify("MyDialog", "setContentView", {"int"});
  ASSERT_TRUE(DialogForm.has_value());
  EXPECT_EQ(DialogForm->Kind, OpKind::Inflate2);
}

TEST_F(AndroidModelTest, ClassifyInflate) {
  auto OneArg = classify(names::LayoutInflater, "inflate", {"int"});
  ASSERT_TRUE(OneArg.has_value());
  EXPECT_EQ(OneArg->Kind, OpKind::Inflate1);
  EXPECT_EQ(OneArg->AttachParentArgIndex, -1);

  auto TwoArg = classify(names::LayoutInflater, "inflate",
                         {"int", names::ViewGroup});
  ASSERT_TRUE(TwoArg.has_value());
  EXPECT_EQ(TwoArg->Kind, OpKind::Inflate1);
  EXPECT_EQ(TwoArg->AttachParentArgIndex, 1);
}

TEST_F(AndroidModelTest, ClassifyFindView) {
  auto OnView = classify("MyView", "findViewById", {"int"});
  ASSERT_TRUE(OnView.has_value());
  EXPECT_EQ(OnView->Kind, OpKind::FindView1);

  auto OnActivity = classify("MyActivity", "findViewById", {"int"});
  ASSERT_TRUE(OnActivity.has_value());
  EXPECT_EQ(OnActivity->Kind, OpKind::FindView2);

  auto FindFocus = classify("MyView", "findFocus", {});
  ASSERT_TRUE(FindFocus.has_value());
  EXPECT_EQ(FindFocus->Kind, OpKind::FindView3);
  EXPECT_FALSE(FindFocus->ChildOnly);

  auto Current = classify("android.widget.ViewFlipper", "getCurrentView", {});
  ASSERT_TRUE(Current.has_value());
  EXPECT_EQ(Current->Kind, OpKind::FindView3);
  EXPECT_TRUE(Current->ChildOnly);

  auto ChildAt = classify("android.widget.LinearLayout", "getChildAt",
                          {"int"});
  ASSERT_TRUE(ChildAt.has_value());
  EXPECT_TRUE(ChildAt->ChildOnly);
}

TEST_F(AndroidModelTest, ClassifyAddViewSetIdSetListener) {
  auto Add = classify("android.widget.LinearLayout", "addView",
                      {names::View});
  ASSERT_TRUE(Add.has_value());
  EXPECT_EQ(Add->Kind, OpKind::AddView2);

  auto SetId = classify("MyView", "setId", {"int"});
  ASSERT_TRUE(SetId.has_value());
  EXPECT_EQ(SetId->Kind, OpKind::SetId);

  auto SetL = classify("MyView", "setOnClickListener", {"MyListener"});
  ASSERT_TRUE(SetL.has_value());
  EXPECT_EQ(SetL->Kind, OpKind::SetListener);
  ASSERT_NE(SetL->Listener, nullptr);
  EXPECT_EQ(SetL->Listener->Event, EventKind::Click);
  EXPECT_EQ(SetL->Listener->InterfaceName,
            "android.view.View.OnClickListener");
}

TEST_F(AndroidModelTest, ClassifyIntentOps) {
  auto Start = classify("MyActivity", "startActivity", {names::Intent});
  ASSERT_TRUE(Start.has_value());
  EXPECT_EQ(Start->Kind, OpKind::StartActivity);

  auto SetClass = classify(names::Intent, "setClass",
                           {names::Context, names::ClassClass});
  ASSERT_TRUE(SetClass.has_value());
  EXPECT_EQ(SetClass->Kind, OpKind::SetIntentClass);
}

TEST_F(AndroidModelTest, OrdinaryCallsNotClassified) {
  EXPECT_FALSE(classify("Plain", "doWork", {}).has_value());
  EXPECT_FALSE(classify("MyView", "randomMethod", {"int"}).has_value());
  // setContentView with two args is not an Android operation we model.
  EXPECT_FALSE(
      classify("MyActivity", "setContentView", {"int", "int"}).has_value());
}

TEST_F(AndroidModelTest, LifecycleCallbackNames) {
  EXPECT_TRUE(AndroidModel::isLifecycleCallbackName("onCreate"));
  EXPECT_TRUE(AndroidModel::isLifecycleCallbackName("onBackPressed"));
  EXPECT_TRUE(AndroidModel::isLifecycleCallbackName("onWeirdCustomThing"));
  EXPECT_FALSE(AndroidModel::isLifecycleCallbackName("once")); // lowercase
  EXPECT_FALSE(AndroidModel::isLifecycleCallbackName("create"));
  EXPECT_FALSE(AndroidModel::isLifecycleCallbackName("on"));
}

TEST_F(AndroidModelTest, ListenerSpecsComplete) {
  // Every registered spec has an installed interface with its handlers.
  for (const ListenerSpec &Spec : AM.listenerSpecs()) {
    const ClassDecl *Iface = P.findClass(Spec.InterfaceName);
    ASSERT_NE(Iface, nullptr) << Spec.InterfaceName;
    EXPECT_TRUE(Iface->isInterface());
    for (const HandlerSig &Sig : Spec.Handlers)
      EXPECT_NE(Iface->findOwnMethod(Sig.MethodName, Sig.Arity), nullptr)
          << Spec.InterfaceName << "." << Sig.MethodName;
  }
  EXPECT_GE(AM.listenerSpecs().size(), 9u);
}

TEST_F(AndroidModelTest, ListenerSpecsOfWalksSupertypes) {
  ProgramBuilder B(P, Diags);
  B.makeClass("SubListener").extends("MyListener");
  ASSERT_TRUE(P.resolve(Diags));
  ASSERT_TRUE(AM.bind(P, Diags));
  auto Specs = AM.listenerSpecsOf(P.findClass("SubListener"));
  ASSERT_EQ(Specs.size(), 1u);
  EXPECT_EQ(Specs[0]->Event, EventKind::Click);
}

TEST_F(AndroidModelTest, ResolveLayoutClassName) {
  EXPECT_EQ(AM.resolveLayoutClassName("Button"),
            P.findClass("android.widget.Button"));
  EXPECT_EQ(AM.resolveLayoutClassName("View"),
            P.findClass("android.view.View"));
  EXPECT_EQ(AM.resolveLayoutClassName("WebView"),
            P.findClass("android.webkit.WebView"));
  EXPECT_EQ(AM.resolveLayoutClassName("MyView"), P.findClass("MyView"));
  EXPECT_EQ(AM.resolveLayoutClassName("NoSuchWidget"), nullptr);
}

TEST_F(AndroidModelTest, OpAndEventNames) {
  EXPECT_STREQ(opKindName(OpKind::Inflate1), "Inflate1");
  EXPECT_STREQ(opKindName(OpKind::SetListener), "SetListener");
  EXPECT_STREQ(eventKindName(EventKind::Click), "click");
  EXPECT_STREQ(eventKindName(EventKind::ItemClick), "item-click");
}

} // namespace
