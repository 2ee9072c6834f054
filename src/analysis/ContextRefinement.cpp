//===- ContextRefinement.cpp - Call-site cloning of helpers -----*- C++ -*-===//

#include "analysis/ContextRefinement.h"

#include "hier/ClassHierarchy.h"

#include <map>
#include <vector>

using namespace gator;
using namespace gator::analysis;
using namespace gator::ir;

namespace {

/// A rewritable call site.
struct CallSite {
  MethodDecl *Caller;
  size_t StmtIndex;
};

bool isViewTypeName(const ir::Program &P, const android::AndroidModel &AM,
                    ir::Name TypeName) {
  if (TypeName.empty() || isPrimitiveTypeName(TypeName))
    return false;
  return AM.isViewClass(P.findClass(TypeName));
}

bool isEligibleHelper(const ir::Program &P, const android::AndroidModel &AM,
                      const MethodDecl *T, unsigned MaxHelperStmts) {
  if (T->isAbstract() || T->owner()->isPlatform())
    return false;
  if (T->body().size() > MaxHelperStmts)
    return false;
  if (T->name() == "init" ||
      android::AndroidModel::isLifecycleCallbackName(T->name()))
    return false;
  return isViewTypeName(P, AM, T->returnTypeName());
}

/// Deep-copies \p T into its owner under \p CloneName.
MethodDecl *cloneMethod(const MethodDecl *T, ir::Name CloneName) {
  ClassDecl *Owner = const_cast<ClassDecl *>(T->owner());
  MethodDecl *Clone =
      Owner->addMethod(CloneName, T->returnTypeName(), T->isStatic());
  for (unsigned I = 0; I < T->paramCount(); ++I) {
    const Variable &Prm = T->var(T->paramVar(I));
    Clone->addParam(Prm.Name, Prm.TypeName);
  }
  for (size_t I = (T->isStatic() ? 0 : 1) + T->paramCount();
       I < T->vars().size(); ++I) {
    const Variable &V = T->vars()[I];
    Clone->addLocal(V.Name, V.TypeName);
  }
  Clone->setBody(T->body());
  return Clone;
}

} // namespace

ContextRefinementStats gator::analysis::applyContextRefinement(
    Program &P, const android::AndroidModel &AM, unsigned MaxHelperStmts,
    DiagnosticEngine &Diags) {
  ContextRefinementStats Stats;
  hier::ClassHierarchy CH(P);

  // Map each eligible helper to its monomorphic call sites. std::map keyed
  // by qualified name keeps iteration deterministic.
  std::map<std::string, std::pair<const MethodDecl *, std::vector<CallSite>>>
      Sites;

  for (const auto &C : P.classes()) {
    if (C->isPlatform())
      continue;
    for (const auto &M : C->methods()) {
      if (M->isAbstract())
        continue;
      for (size_t I = 0; I < M->body().size(); ++I) {
        const Stmt &S = M->body()[I];
        if (S.Kind != StmtKind::Invoke)
          continue;
        const Variable &BaseVar = M->var(S.Base);
        const ClassDecl *Recv =
            BaseVar.TypeName.empty() ? nullptr : P.findClass(BaseVar.TypeName);
        if (!Recv)
          continue;
        std::vector<const MethodDecl *> Targets = CH.resolveVirtualCall(
            Recv, S.methodName(), static_cast<unsigned>(S.args().size()));
        if (Targets.size() != 1)
          continue; // polymorphic: cloning would change dispatch
        const MethodDecl *T = Targets.front();
        if (T == M)
          continue; // self-recursive site: keep in the original
        if (!isEligibleHelper(P, AM, T, MaxHelperStmts))
          continue;
        auto &Entry = Sites[T->qualifiedName()];
        Entry.first = T;
        Entry.second.push_back(CallSite{M, I});
      }
    }
  }

  unsigned Counter = 0;
  for (auto &[Name, Entry] : Sites) {
    const MethodDecl *T = Entry.first;
    std::vector<CallSite> &CallSites = Entry.second;
    if (CallSites.size() < 2)
      continue; // a single caller already has a private context
    ++Stats.HelpersCloned;
    // The first call site keeps the original; each further site gets a
    // fresh clone with private variable nodes.
    for (size_t I = 1; I < CallSites.size(); ++I) {
      ir::Name CloneName =
          P.intern(T->name() + "$cs" + std::to_string(++Counter));
      cloneMethod(T, CloneName);
      CallSite &Site = CallSites[I];
      Site.Caller->body()[Site.StmtIndex].setMethodName(CloneName);
      ++Stats.CallSitesRewritten;
    }
  }

  P.resolve(Diags);
  return Stats;
}
