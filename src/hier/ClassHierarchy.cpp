//===- ClassHierarchy.cpp - CHA over ALite classes --------------*- C++ -*-===//

#include "hier/ClassHierarchy.h"

#include "support/Check.h"

#include <algorithm>

using namespace gator;
using namespace gator::hier;
using namespace gator::ir;

ClassHierarchy::ClassHierarchy(const Program &P, DiagnosticEngine *Diags)
    : P(P) {
  if (!GATOR_CHECK(P.isResolved(), Diags,
                   "ClassHierarchy built over an unresolved program; "
                   "hierarchy left empty"))
    return;

  // Each class is a subtype of every supertype reachable through
  // extends/implements edges (itself included). One walk per class
  // records its (supertype, class) pairs in program order, and a counting
  // sort by supertype lays all subtype lists out in one flat array, so
  // construction makes the same few allocations whatever the class count.
  // Tables are indexed by ClassDecl::globalId(); Seen doubles as a
  // per-walk visited stamp (the walk's origin), so no hash set is needed.
  uint32_t MaxId = 0;
  for (const auto &C : P.classes())
    MaxId = std::max(MaxId, C->globalId());
  CallCache.resize(MaxId + 1);
  std::vector<const ClassDecl *> Seen(MaxId + 1, nullptr);
  std::vector<const ClassDecl *> Work;
  std::vector<std::pair<uint32_t, const ClassDecl *>> Pairs;
  Pairs.reserve(P.classes().size() * 4);
  for (const auto &C : P.classes()) {
    Work.assign(1, C);
    while (!Work.empty()) {
      const ClassDecl *Cur = Work.back();
      Work.pop_back();
      const ClassDecl *&Mark = Seen[Cur->globalId()];
      if (Mark == C)
        continue;
      Mark = C;
      Pairs.push_back({Cur->globalId(), C});
      if (Cur->superClass())
        Work.push_back(Cur->superClass());
      for (const ClassDecl *I : Cur->interfaces())
        Work.push_back(I);
    }
  }

  // The list of class Id is SubtypeList[SubtypeBegin[Id],
  // SubtypeBegin[Id + 1]).
  SubtypeBegin.assign(MaxId + 2, 0);
  for (const auto &[Super, C] : Pairs)
    ++SubtypeBegin[Super + 1];
  for (uint32_t Id = 0; Id <= MaxId; ++Id)
    SubtypeBegin[Id + 1] += SubtypeBegin[Id];
  SubtypeList.resize(Pairs.size());
  std::vector<uint32_t> Fill(SubtypeBegin.begin(), SubtypeBegin.end() - 1);
  for (const auto &[Super, C] : Pairs)
    SubtypeList[Fill[Super]++] = C;
}

std::span<const ClassDecl *const>
ClassHierarchy::subtypesOf(const ClassDecl *C) const {
  const uint32_t Id = C->globalId();
  if (Id + 1 >= SubtypeBegin.size())
    return {};
  return {SubtypeList.data() + SubtypeBegin[Id],
          SubtypeList.data() + SubtypeBegin[Id + 1]};
}

const MethodDecl *ClassHierarchy::dispatch(const ClassDecl *ExactType,
                                           ir::Name Name, unsigned Arity) {
  MethodDecl *M = ExactType->findMethod(Name, Arity);
  return (M && !M->isAbstract()) ? M : nullptr;
}

const MethodDecl *ClassHierarchy::dispatch(const ClassDecl *ExactType,
                                           std::string_view Name,
                                           unsigned Arity) {
  MethodDecl *M = ExactType->findMethod(Name, Arity);
  return (M && !M->isAbstract()) ? M : nullptr;
}

const std::vector<const MethodDecl *> &
ClassHierarchy::resolveVirtualCall(const ClassDecl *StaticType, ir::Name Name,
                                   unsigned Arity) const {
  return resolveVirtualCall(StaticType, P.symbolOf(Name), Arity);
}

const std::vector<const MethodDecl *> &
ClassHierarchy::resolveVirtualCall(const ClassDecl *StaticType,
                                   std::string_view Name,
                                   unsigned Arity) const {
  return resolveVirtualCall(StaticType, P.lookup(Name).symbol(), Arity);
}

const std::vector<const MethodDecl *> &
ClassHierarchy::resolveVirtualCall(const ClassDecl *StaticType, Symbol Name,
                                   unsigned Arity) const {
  // A name the program never interned names no method anywhere.
  if (!Name.isValid())
    return EmptyTargets;
  if (StaticType->globalId() >= CallCache.size())
    CallCache.resize(StaticType->globalId() + 1);
  support::FlatIdMap<uint32_t> &PerType = CallCache[StaticType->globalId()];
  uint64_t Key = support::packSymbolKey(Name.rawIndex(), Arity);
  if (const uint32_t *Hit = PerType.get(Key))
    return CallTargets[*Hit];

  if (TargetStamp.size() < P.methodIdLimit())
    TargetStamp.resize(P.methodIdLimit(), 0);
  ++TargetGen;
  std::vector<const MethodDecl *> Targets;
  for (const ClassDecl *Sub : subtypesOf(StaticType)) {
    if (Sub->isInterface())
      continue;
    const MethodDecl *M = Sub->findMethod(Name, Arity);
    if (!M || M->isAbstract())
      continue;
    uint32_t &Stamp = TargetStamp[M->globalId()];
    if (Stamp != TargetGen) {
      Stamp = TargetGen;
      Targets.push_back(M);
    }
  }
  PerType.set(Key, static_cast<uint32_t>(CallTargets.size()));
  CallTargets.push_back(std::move(Targets));
  return CallTargets.back();
}
