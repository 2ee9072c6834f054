//===- hier_test.cpp - Class hierarchy / CHA unit tests ---------*- C++ -*-===//

#include "hier/ClassHierarchy.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace gator;
using namespace gator::hier;
using namespace gator::ir;

namespace {

class HierTest : public ::testing::Test {
protected:
  //   I (interface)       A
  //    |                 / |
  //    +--------------- B  C
  //                     |
  //                     D
  // A.m concrete; B overrides m; D inherits B.m; C inherits A.m.
  void SetUp() override {
    ProgramBuilder Builder(P, Diags);
    Builder.makeInterface("I").decl()->addMethod("h", "void");
    ClassBuilder A = Builder.makeClass("A");
    {
      MethodBuilder M = A.method("m", "void");
      M.local("x", "A");
      M.assignNull("x");
    }
    ClassBuilder B = Builder.makeClass("B");
    B.extends("A").implements("I");
    {
      MethodBuilder M = B.method("m", "void");
      M.local("x", "B");
      M.assignNull("x");
    }
    {
      MethodBuilder H = B.method("h", "void");
      H.local("x", "B");
      H.assignNull("x");
    }
    Builder.makeClass("C").extends("A");
    Builder.makeClass("D").extends("B");
    ASSERT_TRUE(Builder.finish());
    CH = std::make_unique<ClassHierarchy>(P);
  }

  std::vector<std::string> subtypeNames(const char *Name) {
    std::vector<std::string> Result;
    for (const ClassDecl *C : CH->subtypesOf(P.findClass(Name)))
      Result.push_back(C->name().str());
    std::sort(Result.begin(), Result.end());
    return Result;
  }

  std::vector<std::string> targets(const char *Recv, const char *Method) {
    std::vector<std::string> Result;
    for (const MethodDecl *M :
         CH->resolveVirtualCall(P.findClass(Recv), Method, 0))
      Result.push_back(M->owner()->name().str());
    std::sort(Result.begin(), Result.end());
    return Result;
  }

  Program P;
  DiagnosticEngine Diags;
  std::unique_ptr<ClassHierarchy> CH;
};

TEST_F(HierTest, SubtypesIncludeSelfAndTransitive) {
  EXPECT_EQ(subtypeNames("A"), (std::vector<std::string>{"A", "B", "C", "D"}));
  EXPECT_EQ(subtypeNames("B"), (std::vector<std::string>{"B", "D"}));
  EXPECT_EQ(subtypeNames("D"), (std::vector<std::string>{"D"}));
}

TEST_F(HierTest, InterfaceSubtypesAreImplementors) {
  EXPECT_EQ(subtypeNames("I"), (std::vector<std::string>{"B", "D", "I"}));
}

TEST_F(HierTest, ChaCollectsAllOverrides) {
  // Call through A: A.m (for A, C) and B.m (for B, D), deduplicated.
  EXPECT_EQ(targets("A", "m"), (std::vector<std::string>{"A", "B"}));
}

TEST_F(HierTest, ChaThroughExactType) {
  EXPECT_EQ(targets("C", "m"), (std::vector<std::string>{"A"}));
  EXPECT_EQ(targets("D", "m"), (std::vector<std::string>{"B"}));
}

TEST_F(HierTest, ChaThroughInterface) {
  // I.h dispatches to B.h (inherited by D; same body, deduplicated).
  EXPECT_EQ(targets("I", "h"), (std::vector<std::string>{"B"}));
}

TEST_F(HierTest, ExactDispatchSkipsAbstract) {
  EXPECT_EQ(ClassHierarchy::dispatch(P.findClass("I"), "h", 0), nullptr);
  const MethodDecl *M = ClassHierarchy::dispatch(P.findClass("D"), "m", 0);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->owner()->name(), "B");
}

TEST_F(HierTest, UnknownMethodResolvesToNothing) {
  EXPECT_TRUE(targets("A", "ghost").empty());
}

TEST_F(HierTest, ArityDistinguishesOverloads) {
  EXPECT_TRUE(CH->resolveVirtualCall(P.findClass("A"), "m", 2).empty());
}

} // namespace
