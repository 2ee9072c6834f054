//===- GuiModel.cpp - Client analyses over the GUI solution -----*- C++ -*-===//

#include "guimodel/GuiModel.h"

#include "hier/ClassHierarchy.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <unordered_map>

using namespace gator;
using namespace gator::guimodel;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;
using namespace gator::ir;

namespace {

/// A set of fixed-size integer keys that remembers the order keys were
/// first added. Open addressing over indices into one key array, so
/// deduplicating a client's output costs no allocation per element.
template <size_t N> class FlatKeySet {
public:
  using Key = std::array<uint64_t, N>;

  /// Adds \p K; true when it was not in the set yet.
  bool insert(const Key &K) {
    if ((Keys.size() + 1) * 2 > Slots.size())
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
    const size_t Mask = Slots.size() - 1;
    for (size_t I = slotOf(K, Mask);; I = (I + 1) & Mask) {
      if (Slots[I] == 0) {
        Keys.push_back(K);
        Slots[I] = static_cast<uint32_t>(Keys.size());
        return true;
      }
      if (Keys[Slots[I] - 1] == K)
        return false;
    }
  }

private:
  static size_t slotOf(const Key &K, size_t Mask) {
    uint64_t H = 0;
    for (uint64_t Word : K)
      H = (H ^ Word) * support::GoldenGamma + (H >> 29);
    return support::fibonacciSlot(H, Mask);
  }

  void rehash(size_t Size) {
    Slots.assign(Size, 0);
    const size_t Mask = Size - 1;
    for (uint32_t Index = 0; Index < Keys.size(); ++Index) {
      size_t I = slotOf(Keys[Index], Mask);
      while (Slots[I] != 0)
        I = (I + 1) & Mask;
      Slots[I] = Index + 1;
    }
  }

  std::vector<Key> Keys;
  /// 1 + an index into Keys, or 0 for an empty slot.
  std::vector<uint32_t> Slots;
};

uint64_t keyOf(const void *P) { return reinterpret_cast<uintptr_t>(P); }

/// The activity classes whose hierarchy contains each view, in the order
/// activities, roots and descendants are visited. Each view's owners are
/// a chain through one entry array, so no list is allocated per view.
class ViewOwners {
public:
  explicit ViewOwners(const ConstraintGraph &G) {
    for (NodeId Act : G.nodesOfKind(NodeKind::Activity)) {
      const ClassDecl *AClass = G.node(Act).Klass;
      for (NodeId Root : G.roots(Act))
        for (NodeId V : G.descendantsOf(Root))
          add(V, AClass);
    }
  }

  /// Calls \p Fn with each owner of \p V; returns false when V has none.
  template <typename FnT> bool forEachOwner(NodeId V, FnT Fn) const {
    const uint32_t *Head = First.get(V);
    if (!Head)
      return false;
    for (uint32_t I = *Head; I != NoEntry; I = Entries[I].Next)
      Fn(Entries[I].Owner);
    return true;
  }

private:
  static constexpr uint32_t NoEntry = ~0u;

  void add(NodeId V, const ClassDecl *Owner) {
    const uint32_t New = static_cast<uint32_t>(Entries.size());
    uint32_t I = First.getOrInsert(V, New);
    if (I != New) {
      // Walk V's chain: skip a known owner, else link New after the last.
      while (Entries[I].Owner != Owner && Entries[I].Next != NoEntry)
        I = Entries[I].Next;
      if (Entries[I].Owner == Owner)
        return;
      Entries[I].Next = New;
    }
    Entries.push_back({Owner, NoEntry});
  }

  struct Entry {
    const ClassDecl *Owner;
    uint32_t Next; ///< the view's next owner, or NoEntry
  };
  std::vector<Entry> Entries;
  /// View -> the first entry of its chain.
  support::FlatIdMap<uint32_t> First;
};

} // namespace

std::vector<HandlerTuple>
gator::guimodel::extractHandlerTuples(const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;

  std::vector<HandlerTuple> Tuples;
  FlatKeySet<4> Seen;
  auto emit = [&](const ClassDecl *Act, NodeId View, EventKind Event,
                  NodeId Listener, const MethodDecl *Handler) {
    if (Seen.insert({keyOf(Act),
                     uint64_t(View) << 32 | static_cast<uint32_t>(Event),
                     Listener, keyOf(Handler)}))
      Tuples.push_back(HandlerTuple{Act, View, Event, Listener, Handler});
  };

  // Layout-declared handlers (`android:onClick`): the solver records the
  // owning window value as the view's listener; the handler is the named
  // method on the window's class.
  for (NodeId V : G.nodesOfKind(NodeKind::ViewInfl)) {
    const graph::Node &Info = G.node(V);
    if (!Info.LNode || !Info.LNode->hasOnClickHandler())
      continue;
    for (NodeId L : G.listeners(V)) {
      const graph::Node &LInfo = G.node(L);
      if (LInfo.Kind != NodeKind::Activity && LInfo.Kind != NodeKind::Alloc)
        continue;
      const MethodDecl *Handler =
          LInfo.Klass ? hier::ClassHierarchy::dispatch(
                            LInfo.Klass, Info.LNode->onClickHandlerName(), 1)
                      : nullptr;
      const ClassDecl *Act =
          LInfo.Kind == NodeKind::Activity ? LInfo.Klass : nullptr;
      if (Handler && !Handler->owner()->isPlatform())
        emit(Act, V, EventKind::Click, L, Handler);
    }
  }

  const ViewOwners Owners(G);
  // (listener, handler) pairs of one registration, in listener then
  // handler-signature order; a listener without an application handler
  // contributes one pair with a null handler.
  std::vector<std::pair<NodeId, const MethodDecl *>> Handlers;
  for (const OpSite &Op : Sol.ops()) {
    if (Op.Spec.Kind != OpKind::SetListener)
      continue;
    const ListenerSpec &Spec = *Op.Spec.Listener;
    Handlers.clear();
    for (NodeId L : Sol.listenersAtOp(Op)) {
      const ClassDecl *LClass = G.node(L).Klass;
      const size_t Before = Handlers.size();
      for (const HandlerSig &Sig : Spec.Handlers) {
        const MethodDecl *H =
            LClass ? hier::ClassHierarchy::dispatch(LClass, Sig.MethodName,
                                                    Sig.Arity)
                   : nullptr;
        if (H && !H->owner()->isPlatform())
          Handlers.push_back({L, H});
      }
      if (Handlers.size() == Before)
        Handlers.push_back({L, nullptr});
    }
    if (Handlers.empty())
      continue;
    for (NodeId V : Sol.receiversOf(Op))
      for (const auto &[L, H] : Handlers)
        if (!Owners.forEachOwner(V, [&](const ClassDecl *A) {
              emit(A, V, Spec.Event, L, H);
            }))
          emit(nullptr, V, Spec.Event, L, H);
  }
  return Tuples;
}

void gator::guimodel::printHandlerTuples(std::ostream &OS,
                                         const AnalysisResult &Result,
                                         const std::vector<HandlerTuple>
                                             &Tuples) {
  const ConstraintGraph &G = *Result.Graph;
  std::string Buf;
  for (const HandlerTuple &T : Tuples) {
    Buf += T.Activity ? T.Activity->name().view()
                      : std::string_view("<unattached>");
    Buf += " | ";
    G.appendLabel(Buf, T.View);
    Buf += " | ";
    Buf += eventKindName(T.Event);
    Buf += " | ";
    if (T.Handler)
      T.Handler->appendQualifiedName(Buf);
    else
      Buf += "<none>";
    Buf += '\n';
  }
  OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
}

//===----------------------------------------------------------------------===//
// View hierarchy printing
//===----------------------------------------------------------------------===//

namespace {

void printTree(std::ostream &OS, const ConstraintGraph &G, NodeId V,
               unsigned Depth, std::vector<NodeId> &Path) {
  for (unsigned I = 0; I < Depth; ++I)
    OS << "  ";
  OS << G.label(V);
  if (std::find(Path.begin(), Path.end(), V) != Path.end()) {
    OS << " (cycle)\n";
    return;
  }
  OS << '\n';
  Path.push_back(V);
  for (NodeId C : G.children(V))
    printTree(OS, G, C, Depth + 1, Path);
  Path.pop_back();
}

} // namespace

void gator::guimodel::printViewHierarchies(std::ostream &OS,
                                           const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  for (NodeId Act : G.nodesOfKind(NodeKind::Activity)) {
    OS << "activity " << G.node(Act).Klass->name() << ":\n";
    if (G.roots(Act).empty()) {
      OS << "  (no hierarchy)\n";
      continue;
    }
    for (NodeId Root : G.roots(Act)) {
      std::vector<NodeId> Path;
      printTree(OS, G, Root, 1, Path);
    }
  }
}

//===----------------------------------------------------------------------===//
// Activity transition graph
//===----------------------------------------------------------------------===//

namespace {

/// The application's CHA call graph, resolved on demand: the invokes of a
/// method are resolved, in body order, the first time a walk reaches it,
/// so a client pays for the methods its handlers reach, not for the
/// program. Calls into platform code end the walk.
class LazyCallGraph {
public:
  explicit LazyCallGraph(const AnalysisResult &Result)
      : P(Result.Sol->androidModel().program()), Result(Result) {}

  /// Methods reachable from \p Start (itself included), in breadth-first
  /// discovery order, so everything derived from the walk is ordered by
  /// the program, not by where its declarations happen to sit in memory.
  /// The result is overwritten by the next call.
  const std::vector<const MethodDecl *> &
  reachableFrom(const MethodDecl *Start) {
    if (Stamp.empty())
      Stamp.resize(P.methodIdLimit(), 0);
    if (++Gen == 0) { // stamp counter wrapped: invalidate all marks
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Gen = 1;
    }
    Order.assign(1, Start);
    Stamp[Start->globalId()] = Gen;
    for (size_t Next = 0; Next < Order.size(); ++Next) {
      const Range R = callees(Order[Next]);
      for (uint32_t I = R.Begin; I != R.End; ++I) {
        const MethodDecl *Callee = CalleeList[I];
        if (Stamp[Callee->globalId()] != Gen) {
          Stamp[Callee->globalId()] = Gen;
          Order.push_back(Callee);
        }
      }
    }
    return Order;
  }

private:
  /// CalleeList[Begin, End) holds one method's callees.
  struct Range {
    uint32_t Begin = 0, End = 0;
  };

  Range callees(const MethodDecl *M) {
    if (const Range *Known = Resolved.get(M->globalId()))
      return *Known;
    Range R;
    R.Begin = static_cast<uint32_t>(CalleeList.size());
    if (!M->owner()->isPlatform() && !M->isAbstract())
      for (const Stmt &S : M->body()) {
        if (S.Kind != StmtKind::Invoke)
          continue;
        const Variable &BaseVar = M->var(S.Base);
        const ClassDecl *Recv =
            BaseVar.TypeName.empty() ? nullptr : P.findClass(BaseVar.TypeName);
        if (!Recv)
          continue;
        for (const MethodDecl *T : Result.hierarchy().resolveVirtualCall(
                 Recv, S.methodName(), static_cast<unsigned>(S.args().size())))
          if (!T->owner()->isPlatform())
            CalleeList.push_back(T);
      }
    R.End = static_cast<uint32_t>(CalleeList.size());
    Resolved.set(M->globalId(), R);
    return R;
  }

  const Program &P;
  /// Resolves calls through the analysis's hierarchy, asked for when the
  /// first invoke needs it (AnalysisResult::hierarchy()).
  const AnalysisResult &Result;
  /// The callees of each method resolved so far, by globalId().
  support::FlatIdMap<Range> Resolved;
  std::vector<const MethodDecl *> CalleeList;
  /// Visited marks of the current walk, by globalId(): a method is
  /// visited iff its stamp equals Gen.
  std::vector<uint32_t> Stamp;
  uint32_t Gen = 0;
  std::vector<const MethodDecl *> Order;
};

/// What the transition clients share within one call: the activity
/// classes each method can start directly, via intent class constants
/// (SetIntentClass) flowing into startActivity calls, and the call graph
/// that carries a handler or callback to those methods.
class StartWalker {
public:
  explicit StartWalker(const AnalysisResult &Result)
      : Calls(Result) {
    const ConstraintGraph &G = *Result.Graph;
    const Solution &Sol = *Result.Sol;
    const AndroidModel &AM = Sol.androidModel();

    // Intent allocation -> the activity classes set on it.
    support::FlatIdMap<uint32_t> IntentSlot;
    std::vector<std::vector<const ClassDecl *>> IntentTargets;
    for (const OpSite &Op : Sol.ops()) {
      if (Op.Spec.Kind != OpKind::SetIntentClass)
        continue;
      for (NodeId Intent : Sol.valuesAt(Op.Recv)) {
        if (G.node(Intent).Kind != NodeKind::Alloc)
          continue;
        for (NodeId Cls : Sol.valuesAt(Op.ValArg)) {
          if (G.node(Cls).Kind != NodeKind::ClassConst)
            continue;
          const ClassDecl *Target = G.node(Cls).Klass;
          if (!AM.isActivityClass(Target))
            continue;
          const uint32_t Slot = IntentSlot.getOrInsert(
              Intent, static_cast<uint32_t>(IntentTargets.size()));
          if (Slot == IntentTargets.size())
            IntentTargets.emplace_back();
          IntentTargets[Slot].push_back(Target);
        }
      }
    }
    if (IntentTargets.empty())
      return;

    for (const OpSite &Op : Sol.ops()) {
      if (Op.Spec.Kind != OpKind::StartActivity || !Op.Method)
        continue;
      for (NodeId Intent : Sol.valuesAt(Op.ValArg)) {
        const uint32_t *Slot = IntentSlot.get(Intent);
        if (!Slot)
          continue;
        uint32_t &MethodSlot = StartSlot.getOrInsert(
            Op.Method->globalId(), static_cast<uint32_t>(Starts.size()));
        if (MethodSlot == Starts.size())
          Starts.emplace_back();
        std::vector<const ClassDecl *> &List = Starts[MethodSlot];
        List.insert(List.end(), IntentTargets[*Slot].begin(),
                    IntentTargets[*Slot].end());
      }
    }
  }

  /// True when no startActivity site has a target class, so no walk can
  /// find a transition.
  bool empty() const { return Starts.empty(); }

  /// Calls \p Fn with each activity class a startActivity site reachable
  /// from \p Entry can start, in walk order.
  template <typename FnT> void forEachTarget(const MethodDecl *Entry, FnT Fn) {
    for (const MethodDecl *M : Calls.reachableFrom(Entry))
      if (const uint32_t *Slot = StartSlot.get(M->globalId()))
        for (const ClassDecl *To : Starts[*Slot])
          Fn(To);
  }

private:
  LazyCallGraph Calls;
  /// Method globalId() -> index into Starts.
  support::FlatIdMap<uint32_t> StartSlot;
  std::vector<std::vector<const ClassDecl *>> Starts;
};

/// All transitioning event steps: tuple (a, v, e, h) where h reaches a
/// startActivity targeting b yields step (a, v, e, b).
std::vector<EventStep> collectEventSteps(const AnalysisResult &Result) {
  std::vector<EventStep> Steps;
  StartWalker Walker(Result);
  if (Walker.empty())
    return Steps;

  FlatKeySet<3> Seen;
  for (const HandlerTuple &T : extractHandlerTuples(Result)) {
    if (!T.Handler || !T.Activity)
      continue;
    Walker.forEachTarget(T.Handler, [&](const ClassDecl *To) {
      if (Seen.insert({keyOf(T.Activity),
                       uint64_t(T.View) << 32 | static_cast<uint32_t>(T.Event),
                       keyOf(To)}))
        Steps.push_back(EventStep{T.Activity, T.View, T.Event, To});
    });
  }
  return Steps;
}

} // namespace

std::vector<Transition>
gator::guimodel::buildActivityTransitionGraph(const AnalysisResult &Result) {
  std::vector<Transition> Transitions;
  StartWalker Walker(Result);
  if (Walker.empty())
    return Transitions;

  FlatKeySet<3> Seen;
  auto emitReachable = [&](const ClassDecl *From,
                           std::optional<EventKind> Event,
                           const MethodDecl *Entry) {
    const uint64_t EventTag = Event ? static_cast<uint64_t>(*Event) : ~0ull;
    Walker.forEachTarget(Entry, [&](const ClassDecl *To) {
      if (Seen.insert({keyOf(From), EventTag, keyOf(To)}))
        Transitions.push_back(Transition{From, Event, To});
    });
  };

  // 3a. Event handlers: use the handler-tuple extraction.
  for (const HandlerTuple &T : extractHandlerTuples(Result))
    if (T.Handler && T.Activity)
      emitReachable(T.Activity, T.Event, T.Handler);

  // 3b. Lifecycle callbacks of each activity.
  for (const ClassDecl *A : Result.Sol->androidModel().appActivityClasses())
    AndroidModel::forEachLifecycleCallback(A, [&](const MethodDecl *M) {
      emitReachable(A, std::nullopt, M);
    });

  return Transitions;
}

void gator::guimodel::printTransitionsDot(std::ostream &OS,
                                          const std::vector<Transition>
                                              &Transitions) {
  // Nodes in declaration order.
  auto ByDecl = [](const ClassDecl *A, const ClassDecl *B) {
    return A->globalId() < B->globalId();
  };
  std::set<const ClassDecl *, decltype(ByDecl)> Nodes(ByDecl);
  for (const Transition &T : Transitions) {
    Nodes.insert(T.From);
    Nodes.insert(T.To);
  }
  std::string Buf = "digraph atg {\n";
  for (const ClassDecl *N : Nodes) {
    Buf += "  \"";
    Buf += N->name().view();
    Buf += "\";\n";
  }
  for (const Transition &T : Transitions) {
    Buf += "  \"";
    Buf += T.From->name().view();
    Buf += "\" -> \"";
    Buf += T.To->name().view();
    Buf += '"';
    if (T.Event) {
      Buf += " [label=\"";
      Buf += eventKindName(*T.Event);
      Buf += "\"]";
    } else {
      Buf += " [label=\"lifecycle\", style=dashed]";
    }
    Buf += ";\n";
  }
  Buf += "}\n";
  OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
}

//===----------------------------------------------------------------------===//
// Event-sequence enumeration
//===----------------------------------------------------------------------===//

namespace {

/// Depth-first enumeration over the step graph; every non-empty prefix is
/// a sequence. Revisiting activities is allowed (GUIs cycle); the caps
/// bound the output.
struct SequenceEnumerator {
  const std::vector<EventStep> &Steps;
  unsigned MaxLength, MaxSequences;
  std::vector<EventSequence> Sequences;
  EventSequence Current;

  void extend(const ClassDecl *At) {
    if (Sequences.size() >= MaxSequences || Current.size() >= MaxLength)
      return;
    for (const EventStep &Step : Steps) {
      if (Step.From != At)
        continue;
      if (Sequences.size() >= MaxSequences)
        return;
      Current.push_back(Step);
      Sequences.push_back(Current);
      extend(Step.To);
      Current.pop_back();
    }
  }
};

} // namespace

std::vector<EventSequence> gator::guimodel::enumerateEventSequences(
    const AnalysisResult &Result, const ClassDecl *Start, unsigned MaxLength,
    unsigned MaxSequences) {
  const std::vector<EventStep> Steps = collectEventSteps(Result);
  SequenceEnumerator E{Steps, MaxLength, MaxSequences, {}, {}};
  E.extend(Start);
  return std::move(E.Sequences);
}

void gator::guimodel::printEventSequences(
    std::ostream &OS, const AnalysisResult &Result,
    const std::vector<EventSequence> &Sequences) {
  const ConstraintGraph &G = *Result.Graph;
  // Each distinct view is labeled once into Labels; LabelAt maps a view
  // to its (offset << 32 | length) there.
  std::string Labels;
  support::FlatIdMap<uint64_t> LabelAt;
  std::string Buf;
  for (const EventSequence &Seq : Sequences) {
    for (size_t I = 0; I < Seq.size(); ++I) {
      const EventStep &Step = Seq[I];
      if (I == 0)
        Buf += Step.From->name().view();
      Buf += " --";
      Buf += eventKindName(Step.Event);
      Buf += '[';
      const uint64_t *At = LabelAt.get(Step.View);
      uint64_t Span;
      if (At) {
        Span = *At;
      } else {
        const size_t Offset = Labels.size();
        G.appendLabel(Labels, Step.View);
        Span = uint64_t(Offset) << 32 | (Labels.size() - Offset);
        LabelAt.set(Step.View, Span);
      }
      Buf.append(Labels, Span >> 32, Span & 0xffffffffu);
      Buf += "]--> ";
      Buf += Step.To->name().view();
    }
    Buf += '\n';
  }
  OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
}

//===----------------------------------------------------------------------===//
// View-reach report
//===----------------------------------------------------------------------===//

std::vector<ViewReach>
gator::guimodel::computeViewReach(const AnalysisResult &Result,
                                  const std::string &WidgetClassName) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;
  const Program &P = Sol.androidModel().program();
  const ClassDecl *Widget = P.findClass(WidgetClassName);
  if (!Widget)
    return {};

  // The interesting views: instances of the widget class.
  std::vector<NodeId> Interesting;
  for (NodeId V = 0; V < G.size(); ++V) {
    const graph::Node &N = G.node(V);
    if (isViewNodeKind(N.Kind) && N.Klass && P.isSubtypeOf(N.Klass, Widget))
      Interesting.push_back(V);
  }

  // Methods observing each: owners of variable nodes whose set holds it.
  std::unordered_map<NodeId, std::set<const MethodDecl *>> Reach;
  for (NodeId N = 0; N < G.size(); ++N) {
    if (G.node(N).Kind != NodeKind::Var)
      continue;
    const MethodDecl *M = G.node(N).Method;
    if (M->owner()->isPlatform())
      continue;
    const auto &Set = Sol.valuesAt(N);
    for (NodeId V : Interesting)
      if (Set.count(V))
        Reach[V].insert(M);
  }

  std::vector<ViewReach> Report;
  for (NodeId V : Interesting) {
    ViewReach Entry;
    Entry.View = V;
    auto It = Reach.find(V);
    if (It != Reach.end())
      Entry.Methods.assign(It->second.begin(), It->second.end());
    std::sort(Entry.Methods.begin(), Entry.Methods.end(),
              [](const MethodDecl *A, const MethodDecl *B) {
                return A->qualifiedName() < B->qualifiedName();
              });
    Report.push_back(std::move(Entry));
  }
  return Report;
}

void gator::guimodel::printViewReach(std::ostream &OS,
                                     const AnalysisResult &Result,
                                     const std::vector<ViewReach> &Reaches) {
  const ConstraintGraph &G = *Result.Graph;
  for (const ViewReach &R : Reaches) {
    OS << G.label(R.View) << " observed by:";
    if (R.Methods.empty())
      OS << " (no application method)";
    for (const MethodDecl *M : R.Methods)
      OS << ' ' << M->qualifiedName();
    OS << '\n';
  }
}
