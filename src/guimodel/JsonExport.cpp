//===- JsonExport.cpp - Machine-readable analysis results -------*- C++ -*-===//

#include "guimodel/JsonExport.h"

#include "guimodel/GuiModel.h"
#include "support/Json.h"

using namespace gator;
using namespace gator::guimodel;
using namespace gator::analysis;
using namespace gator::graph;

void gator::guimodel::writeAnalysisJson(std::ostream &OS,
                                        const AnalysisResult &Result) {
  const ConstraintGraph &G = *Result.Graph;
  const Solution &Sol = *Result.Sol;
  JsonWriter J(OS);

  J.beginObject();

  J.key("stats");
  J.beginObject();
  J.field("nodes", G.size());
  J.field("flowEdges", G.flowEdgeCount());
  J.field("parentChildEdges", G.parentChildEdgeCount());
  J.field("inflatedViews", G.nodesOfKind(NodeKind::ViewInfl).size());
  J.field("allocatedViews", G.nodesOfKind(NodeKind::ViewAlloc).size());
  J.field("ops", Sol.ops().size());
  J.endObject();

  auto M = Result.metrics();
  J.key("metrics");
  J.beginObject();
  J.field("receivers", M.AvgReceivers);
  if (M.AvgParameters)
    J.field("parameters", *M.AvgParameters);
  if (M.AvgResults)
    J.field("results", *M.AvgResults);
  if (M.AvgListeners)
    J.field("listeners", *M.AvgListeners);
  J.endObject();

  J.key("views");
  J.beginArray();
  for (NodeId V = 0; V < G.size(); ++V) {
    if (!isViewNodeKind(G.node(V).Kind))
      continue;
    J.beginObject();
    J.field("id", static_cast<unsigned long long>(V));
    J.field("label", G.label(V));
    J.field("class", G.node(V).Klass ? G.node(V).Klass->name().view() : "");
    J.field("inflated", G.node(V).Kind == NodeKind::ViewInfl);
    J.key("viewIds");
    J.beginArray();
    for (NodeId IdNode : G.viewIds(V))
      J.value(G.label(IdNode));
    J.endArray();
    J.key("listeners");
    J.beginArray();
    for (NodeId L : G.listeners(V))
      J.value(G.label(L));
    J.endArray();
    J.key("children");
    J.beginArray();
    for (NodeId C : G.children(V))
      J.value(static_cast<unsigned long long>(C));
    J.endArray();
    J.endObject();
  }
  J.endArray();

  J.key("activities");
  J.beginArray();
  for (NodeId Act : G.nodesOfKind(NodeKind::Activity)) {
    J.beginObject();
    J.field("class", G.node(Act).Klass->name());
    J.key("roots");
    J.beginArray();
    for (NodeId Root : G.roots(Act))
      J.value(static_cast<unsigned long long>(Root));
    J.endArray();
    J.endObject();
  }
  J.endArray();

  J.key("ops");
  J.beginArray();
  for (const OpSite &Op : Sol.ops()) {
    J.beginObject();
    J.field("kind", android::opKindName(Op.Spec.Kind));
    J.field("method", Op.Method ? Op.Method->qualifiedName() : "");
    J.key("receivers");
    J.beginArray();
    for (NodeId V : Sol.receiversOf(Op))
      J.value(static_cast<unsigned long long>(V));
    J.endArray();
    J.key("results");
    J.beginArray();
    for (NodeId V : Sol.resultsOf(Op, Result.Options))
      J.value(static_cast<unsigned long long>(V));
    J.endArray();
    J.endObject();
  }
  J.endArray();

  J.key("tuples");
  J.beginArray();
  for (const HandlerTuple &T : extractHandlerTuples(Result)) {
    J.beginObject();
    if (T.Activity)
      J.field("activity", T.Activity->name());
    J.field("view", static_cast<unsigned long long>(T.View));
    J.field("event", android::eventKindName(T.Event));
    if (T.Handler)
      J.field("handler", T.Handler->qualifiedName());
    J.endObject();
  }
  J.endArray();

  J.key("transitions");
  J.beginArray();
  for (const Transition &T : buildActivityTransitionGraph(Result)) {
    J.beginObject();
    J.field("from", T.From->name());
    if (T.Event)
      J.field("event", android::eventKindName(*T.Event));
    J.field("to", T.To->name());
    J.endObject();
  }
  J.endArray();

  J.endObject();
  OS << '\n';
}
