//===- Solution.cpp - Analysis results and queries --------------*- C++ -*-===//

#include "analysis/Solution.h"

#include <algorithm>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::android;

const char *gator::analysis::fidelityName(Fidelity F) {
  switch (F) {
  case Fidelity::Complete:
    return "complete";
  case Fidelity::DegradedInput:
    return "degraded-input";
  case Fidelity::TruncatedBudget:
    return "truncated-budget";
  }
  return "unknown";
}

void Solution::noteUnresolvedOp(uint32_t OpIndex) {
  auto It = std::lower_bound(Unresolved.begin(), Unresolved.end(), OpIndex);
  if (It == Unresolved.end() || *It != OpIndex)
    Unresolved.insert(It, OpIndex);
}

void Solution::pruneUnresolvedDeadOps() {
  Unresolved.erase(std::remove_if(Unresolved.begin(), Unresolved.end(),
                                  [&](uint32_t I) { return Ops[I].Dead; }),
                   Unresolved.end());
}

const FlowSet &Solution::valuesAt(NodeId N) const {
  const FlowSet *Set = FlowsTo.find(N);
  return Set ? *Set : Empty;
}

std::vector<NodeId> Solution::viewsAt(NodeId N) const {
  std::vector<NodeId> Result;
  for (NodeId V : valuesAt(N))
    if (isViewNodeKind(G.node(V).Kind))
      Result.push_back(V);
  std::sort(Result.begin(), Result.end());
  return Result;
}

/// Any object can serve as a listener (Section 4.1 notes the general
/// case); the registration call's declared parameter type already selects
/// candidates, so every non-id value reaching the position qualifies.
static bool isListenerValueKind(NodeKind Kind) {
  return Kind == NodeKind::Alloc || Kind == NodeKind::Activity ||
         isViewNodeKind(Kind) || Kind == NodeKind::ClassConst;
}

std::vector<NodeId> Solution::listenerValuesAt(NodeId N) const {
  std::vector<NodeId> Result;
  for (NodeId V : valuesAt(N))
    if (isListenerValueKind(G.node(V).Kind))
      Result.push_back(V);
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::vector<const OpSite *> Solution::opsOfKind(OpKind Kind) const {
  std::vector<const OpSite *> Result;
  for (const OpSite &Op : Ops)
    if (!Op.Dead && Op.Spec.Kind == Kind)
      Result.push_back(&Op);
  return Result;
}

std::vector<NodeId> Solution::receiversOf(const OpSite &Op) const {
  return viewsAt(Op.Recv);
}

std::vector<NodeId> Solution::parametersOf(const OpSite &Op) const {
  return viewsAt(Op.ValArg);
}

std::vector<NodeId> Solution::listenersAtOp(const OpSite &Op) const {
  return listenerValuesAt(Op.ValArg);
}

std::vector<NodeId> Solution::resultsOf(const OpSite &Op,
                                        const AnalysisOptions &Options) const {
  // Unknown-source handling (docs/ROBUSTNESS.md) is gated on the graph
  // actually holding unknown nodes, so clean inputs pay nothing.
  bool HaveUnknown = G.hasUnknownSources();

  // The roots to search under.
  std::vector<NodeId> SearchRoots;
  switch (Op.Spec.Kind) {
  case OpKind::FindView1:
  case OpKind::FindView3:
    // Direct filter rather than viewsAt(): roots are only iterated, so
    // the sorted order viewsAt() guarantees is not needed here.
    for (NodeId V : valuesAt(Op.Recv))
      if (isViewNodeKind(G.node(V).Kind))
        SearchRoots.push_back(V);
    break;
  case OpKind::FindView2:
    // Activity-wide search: every root associated with a receiver value.
    for (NodeId W : valuesAt(Op.Recv))
      for (NodeId R : G.roots(W))
        SearchRoots.push_back(R);
    break;
  case OpKind::Inflate1: {
    // The inflated root(s) for the layout ids reaching this site.
    std::unordered_set<NodeId> Result;
    for (NodeId V : valuesAt(Op.IdArg)) {
      NodeKind VKind = G.node(V).Kind;
      if (VKind == NodeKind::LayoutId) {
        // Roots minted at this site carry a roots-layout edge to V and an
        // InflateSite of this op.
        for (NodeId ViewNode : G.nodesOfKind(NodeKind::ViewInfl))
          if (G.node(ViewNode).InflateSite == Op.OpNode &&
              !G.isRetired(ViewNode))
            for (NodeId L : G.rootsOfLayouts(ViewNode))
              if (L == V)
                Result.insert(ViewNode);
      } else if (VKind == NodeKind::UnknownId) {
        // Unknown layout id: the solver minted one unknown root per
        // (site, id) pair, linked the same way.
        for (NodeId ViewNode : G.nodesOfKind(NodeKind::UnknownView))
          if (G.node(ViewNode).InflateSite == Op.OpNode &&
              !G.isRetired(ViewNode))
            for (NodeId L : G.rootsOfLayouts(ViewNode))
              if (L == V)
                Result.insert(ViewNode);
      }
    }
    std::vector<NodeId> Sorted(Result.begin(), Result.end());
    std::sort(Sorted.begin(), Sorted.end());
    return Sorted;
  }
  default:
    return {};
  }

  // FindView1/2 filter by the view ids reaching the id argument.
  bool FilterByIds =
      Options.TrackViewIds && (Op.Spec.Kind == OpKind::FindView1 ||
                               Op.Spec.Kind == OpKind::FindView2);

  // A non-constant id at the argument makes every candidate a sound
  // match: drop the filter, capped by the per-app fanout budget.
  bool UnknownIdAtArg = false;
  if (HaveUnknown && FilterByIds)
    for (NodeId IdVal : valuesAt(Op.IdArg))
      if (G.node(IdVal).Kind == NodeKind::UnknownId) {
        UnknownIdAtArg = true;
        break;
      }

  // Gather into a plain vector and sort+unique at the end: fire sites run
  // this on every input growth, and the match lists are small, so the
  // vector pass beats building a hash set per call.
  std::vector<NodeId> Out;

  // Appends the first UnknownFanoutBudget of \p Universe (sorted, deduped
  // — the cap must be deterministic). 0 = uncapped.
  const unsigned Cap = Options.UnknownFanoutBudget;
  auto appendCapped = [&](std::vector<NodeId> Universe) {
    std::sort(Universe.begin(), Universe.end());
    Universe.erase(std::unique(Universe.begin(), Universe.end()),
                   Universe.end());
    size_t N = Cap ? std::min<size_t>(Universe.size(), Cap) : Universe.size();
    Out.insert(Out.end(), Universe.begin(), Universe.begin() + N);
  };

  if (!Options.TrackHierarchy) {
    // Every view is a candidate; with an id filter the reverse
    // viewId -> views index yields the matches directly.
    if (FilterByIds) {
      for (NodeId IdVal : valuesAt(Op.IdArg))
        if (G.node(IdVal).Kind == NodeKind::ViewId)
          for (NodeId V : G.viewsWithId(IdVal))
            Out.push_back(V);
      if (UnknownIdAtArg) {
        std::vector<NodeId> Universe;
        for (NodeKind K : {NodeKind::ViewAlloc, NodeKind::ViewInfl,
                           NodeKind::UnknownView})
          for (NodeId V : G.nodesOfKind(K))
            if (!G.isRetired(V))
              Universe.push_back(V);
        appendCapped(std::move(Universe));
      } else if (HaveUnknown) {
        // A view whose id is unknown may carry *any* constant id, and an
        // unknown view matches any lookup it reaches.
        for (NodeId U : G.nodesOfKind(NodeKind::UnknownId))
          for (NodeId V : G.viewsWithId(U))
            Out.push_back(V);
        for (NodeId V : G.nodesOfKind(NodeKind::UnknownView))
          if (!G.isRetired(V))
            Out.push_back(V);
      }
    } else {
      for (NodeKind K : {NodeKind::ViewAlloc, NodeKind::ViewInfl})
        for (NodeId V : G.nodesOfKind(K))
          if (!G.isRetired(V))
            Out.push_back(V);
      if (HaveUnknown)
        for (NodeId V : G.nodesOfKind(NodeKind::UnknownView))
          if (!G.isRetired(V))
            Out.push_back(V);
    }
  } else {
    bool ChildOnly = Op.Spec.ChildOnly && Options.FindView3ChildOnly;
    std::vector<NodeId> Candidates;
    for (NodeId Root : SearchRoots) {
      if (ChildOnly) {
        for (NodeId C : G.children(Root))
          Candidates.push_back(C);
      } else {
        const auto &Desc = G.descendantsOf(Root);
        Candidates.insert(Candidates.end(), Desc.begin(), Desc.end());
      }
    }
    if (FilterByIds) {
      // Intersect the candidate set with the per-id view lists instead of
      // enumerating every candidate's ids.
      std::sort(Candidates.begin(), Candidates.end());
      for (NodeId IdVal : valuesAt(Op.IdArg))
        if (G.node(IdVal).Kind == NodeKind::ViewId)
          for (NodeId V : G.viewsWithId(IdVal))
            if (std::binary_search(Candidates.begin(), Candidates.end(), V))
              Out.push_back(V);
      if (UnknownIdAtArg) {
        appendCapped(Candidates);
      } else if (HaveUnknown) {
        for (NodeId U : G.nodesOfKind(NodeKind::UnknownId))
          for (NodeId V : G.viewsWithId(U))
            if (std::binary_search(Candidates.begin(), Candidates.end(), V))
              Out.push_back(V);
        for (NodeId V : G.nodesOfKind(NodeKind::UnknownView))
          if (!G.isRetired(V) &&
              std::binary_search(Candidates.begin(), Candidates.end(), V))
            Out.push_back(V);
      }
    } else {
      Out = std::move(Candidates);
    }
  }

  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

void Solution::dump(std::ostream &OS, const AnalysisOptions &Options) const {
  auto printSet = [&](const std::vector<NodeId> &Values) {
    OS << '{';
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I)
        OS << ", ";
      OS << G.label(Values[I]);
    }
    OS << '}';
  };

  for (const OpSite &Op : Ops) {
    if (Op.Dead)
      continue;
    OS << G.label(Op.OpNode);
    if (Op.Method)
      OS << " @ " << Op.Method->qualifiedName();

    switch (Op.Spec.Kind) {
    case OpKind::FindView1:
    case OpKind::FindView3:
    case OpKind::AddView2:
    case OpKind::SetId:
    case OpKind::SetListener:
      OS << " recv";
      printSet(receiversOf(Op));
      break;
    default:
      break;
    }
    if (Op.Spec.Kind == OpKind::AddView1 ||
        Op.Spec.Kind == OpKind::AddView2) {
      OS << " child";
      printSet(parametersOf(Op));
    }
    if (Op.Spec.Kind == OpKind::SetListener) {
      OS << " listeners";
      printSet(listenersAtOp(Op));
    }
    if (Op.Spec.Kind == OpKind::FindView1 ||
        Op.Spec.Kind == OpKind::FindView2 ||
        Op.Spec.Kind == OpKind::FindView3 ||
        Op.Spec.Kind == OpKind::Inflate1) {
      OS << " -> ";
      printSet(resultsOf(Op, Options));
    }
    OS << '\n';
  }
}

Solution::PrecisionMetrics
Solution::computeMetrics(const AnalysisOptions &Options) const {
  PrecisionMetrics M;

  // The role sets are counted in place: a FlowSet holds each value once,
  // so these counts equal the sizes of receiversOf/parametersOf/
  // listenersAtOp without building and sorting their vectors.
  auto countValues = [&](NodeId N, bool (*Keep)(NodeKind)) {
    size_t Count = 0;
    for (NodeId V : valuesAt(N))
      Count += Keep(G.node(V).Kind);
    return Count;
  };

  // receivers: ops whose receiver role is a view.
  unsigned long ReceiverOps = 0, ReceiverSum = 0;
  // parameters: AddView nodes.
  unsigned long ParamOps = 0, ParamSum = 0;
  bool HasAddView = false;
  // results: FindView nodes.
  unsigned long ResultOps = 0, ResultSum = 0;
  bool HasFindView = false;
  // listeners: (SetListener op, view) pairs.
  unsigned long ListenerPairs = 0, ListenerSum = 0;
  bool HasSetListener = false;

  for (const OpSite &Op : Ops) {
    if (Op.Dead)
      continue;
    switch (Op.Spec.Kind) {
    case OpKind::FindView1:
    case OpKind::FindView3:
    case OpKind::AddView2:
    case OpKind::SetId:
    case OpKind::SetListener: {
      size_t N = countValues(Op.Recv, isViewNodeKind);
      if (N > 0) {
        ++ReceiverOps;
        ReceiverSum += N;
      }
      break;
    }
    default:
      break;
    }

    if (Op.Spec.Kind == OpKind::AddView1 || Op.Spec.Kind == OpKind::AddView2) {
      HasAddView = true;
      size_t N = countValues(Op.ValArg, isViewNodeKind);
      if (N > 0) {
        ++ParamOps;
        ParamSum += N;
      }
    }

    if (Op.Spec.Kind == OpKind::FindView1 ||
        Op.Spec.Kind == OpKind::FindView2 ||
        Op.Spec.Kind == OpKind::FindView3) {
      HasFindView = true;
      size_t N = resultsOf(Op, Options).size();
      if (N > 0) {
        ++ResultOps;
        ResultSum += N;
      }
    }

    if (Op.Spec.Kind == OpKind::SetListener) {
      HasSetListener = true;
      size_t Views = countValues(Op.Recv, isViewNodeKind);
      size_t Ls = countValues(Op.ValArg, isListenerValueKind);
      if (Views > 0 && Ls > 0) {
        ListenerPairs += Views;
        ListenerSum += Views * Ls;
      }
    }
  }

  M.AvgReceivers = ReceiverOps ? double(ReceiverSum) / ReceiverOps : 0.0;
  if (HasAddView && ParamOps)
    M.AvgParameters = double(ParamSum) / ParamOps;
  if (HasFindView && ResultOps)
    M.AvgResults = double(ResultSum) / ResultOps;
  if (HasSetListener && ListenerPairs)
    M.AvgListeners = double(ListenerSum) / ListenerPairs;
  return M;
}
