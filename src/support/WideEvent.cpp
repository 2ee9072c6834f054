//===- WideEvent.cpp - Per-app run-ledger records ---------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/WideEvent.h"

#include "support/FileIO.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <cstdio>
#include <ostream>

namespace gator {
namespace support {

namespace {

/// Fixed-precision double token, matching the metrics exporters so the
/// same value renders identically everywhere.
std::string formatSeconds(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

} // namespace

void WideEvent::writeJsonl(std::ostream &OS, bool IncludeVolatile) const {
  JsonWriter W(OS);
  W.beginObject();
  W.field("index", Index);
  W.field("app", App);
  W.field("content_key", ContentKey);
  W.field("exit_code", ExitCode);
  W.field("fidelity", Fidelity);
  W.field("cache", Cache);
  W.field("generation_failed", GenerationFailed);
  W.field("classes", Classes);
  W.field("methods", Methods);
  W.field("layout_ids", LayoutIds);
  W.field("view_ids", ViewIds);
  W.field("infl_views", InflViews);
  W.field("alloc_views", AllocViews);
  W.field("listeners", Listeners);
  W.field("graph_nodes", GraphNodes);
  W.field("flow_edges", FlowEdges);
  W.field("parent_child_edges", ParentChildEdges);
  W.field("propagations", Propagations);
  W.field("op_firings", OpFirings);
  W.field("values_pushed", ValuesPushed);
  W.field("dedup_hits", DedupHits);
  W.field("peak_set_size", PeakSetSize);
  W.field("unresolved_ops", UnresolvedOps);
  W.field("work_charged", WorkCharged);
  W.field("unknown_views", UnknownViews);
  W.field("unknown_ids", UnknownIds);
  W.field("unknown_total", unknownTotal());
  W.key("unknown_by_reason");
  W.beginObject();
  for (const auto &R : UnknownByReason)
    W.field(R.first, R.second);
  W.endObject();
  W.field("arena_bytes", ArenaBytes);
  if (IncludeVolatile) {
    W.key("build_seconds");
    W.rawNumber(formatSeconds(BuildSeconds));
    W.key("solve_seconds");
    W.rawNumber(formatSeconds(SolveSeconds));
    W.field("peak_rss_bytes", PeakRssBytes);
  }
  W.endObject();
}

bool WideEvent::fromJson(const JsonValue &V, WideEvent &Out,
                         std::string &Error) {
  if (!V.isObject()) {
    Error = "ledger record is not an object";
    return false;
  }
  Out = WideEvent();
  Out.Index = V.u64Or("index", 0);
  Out.App = V.stringOr("app", "");
  Out.ContentKey = V.stringOr("content_key", "");
  Out.ExitCode = static_cast<int>(V.numberOr("exit_code", 0));
  Out.Fidelity = V.stringOr("fidelity", "complete");
  Out.Cache = V.stringOr("cache", "off");
  Out.GenerationFailed = V.boolOr("generation_failed", false);
  Out.Classes = V.u64Or("classes", 0);
  Out.Methods = V.u64Or("methods", 0);
  Out.LayoutIds = V.u64Or("layout_ids", 0);
  Out.ViewIds = V.u64Or("view_ids", 0);
  Out.InflViews = V.u64Or("infl_views", 0);
  Out.AllocViews = V.u64Or("alloc_views", 0);
  Out.Listeners = V.u64Or("listeners", 0);
  Out.GraphNodes = V.u64Or("graph_nodes", 0);
  Out.FlowEdges = V.u64Or("flow_edges", 0);
  Out.ParentChildEdges = V.u64Or("parent_child_edges", 0);
  Out.Propagations = V.u64Or("propagations", 0);
  Out.OpFirings = V.u64Or("op_firings", 0);
  Out.ValuesPushed = V.u64Or("values_pushed", 0);
  Out.DedupHits = V.u64Or("dedup_hits", 0);
  Out.PeakSetSize = V.u64Or("peak_set_size", 0);
  Out.UnresolvedOps = V.u64Or("unresolved_ops", 0);
  Out.WorkCharged = V.u64Or("work_charged", 0);
  Out.UnknownViews = V.u64Or("unknown_views", 0);
  Out.UnknownIds = V.u64Or("unknown_ids", 0);
  if (const JsonValue *Reasons = V.find("unknown_by_reason")) {
    if (!Reasons->isObject()) {
      Error = "unknown_by_reason is not an object";
      return false;
    }
    for (const auto &M : Reasons->members())
      if (M.second.isNumber())
        Out.UnknownByReason.emplace_back(M.first, M.second.asU64());
  }
  Out.ArenaBytes = V.u64Or("arena_bytes", 0);
  Out.BuildSeconds = V.numberOr("build_seconds", 0.0);
  Out.SolveSeconds = V.numberOr("solve_seconds", 0.0);
  Out.PeakRssBytes = V.u64Or("peak_rss_bytes", 0);
  return true;
}

void LedgerHeader::writeJsonl(std::ostream &OS) const {
  JsonWriter W(OS);
  W.beginObject();
  W.field("ledger_format", Format);
  W.field("tool", Tool);
  W.field("options_digest", OptionsDigest);
  W.field("no_times", NoTimes);
  W.field("apps", Apps);
  W.endObject();
}

bool LedgerHeader::fromJson(const JsonValue &V, LedgerHeader &Out,
                            std::string &Error) {
  if (!V.isObject() || !V.has("ledger_format")) {
    Error = "first ledger line is not a header object";
    return false;
  }
  Out = LedgerHeader();
  Out.Format = static_cast<uint32_t>(V.u64Or("ledger_format", 0));
  if (Out.Format < MinReadableFormat || Out.Format > FormatVersion) {
    Error = "unsupported ledger_format " + std::to_string(Out.Format) +
            " (this build reads " + std::to_string(MinReadableFormat) +
            " to " + std::to_string(FormatVersion) + ")";
    return false;
  }
  Out.Tool = V.stringOr("tool", "");
  Out.OptionsDigest = V.stringOr("options_digest", "");
  Out.NoTimes = V.boolOr("no_times", false);
  Out.Apps = V.u64Or("apps", 0);
  return true;
}

void writeLedger(std::ostream &OS, const LedgerHeader &Header,
                 const std::vector<WideEvent> &Events) {
  LedgerHeader H = Header;
  H.Apps = Events.size();
  H.writeJsonl(OS);
  OS << '\n';
  for (const WideEvent &E : Events) {
    E.writeJsonl(OS, !H.NoTimes);
    OS << '\n';
  }
}

bool readLedger(std::string_view Text, Ledger &Out, std::string &Error) {
  Out = Ledger();
  size_t LineNo = 0;
  size_t Pos = 0;
  bool SawHeader = false;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    std::string_view Line = Text.substr(
        Pos, Nl == std::string_view::npos ? std::string_view::npos
                                          : Nl - Pos);
    Pos = Nl == std::string_view::npos ? Text.size() + 1 : Nl + 1;
    ++LineNo;
    // Skip blank lines (including the terminating newline's empty tail).
    size_t NonWs = Line.find_first_not_of(" \t\r");
    if (NonWs == std::string_view::npos)
      continue;
    JsonValue V;
    std::string ParseError;
    if (!JsonValue::parse(Line, V, ParseError)) {
      Error = "line " + std::to_string(LineNo) + ": " + ParseError;
      return false;
    }
    if (!SawHeader) {
      if (!LedgerHeader::fromJson(V, Out.Header, Error)) {
        Error = "line " + std::to_string(LineNo) + ": " + Error;
        return false;
      }
      SawHeader = true;
      continue;
    }
    WideEvent E;
    if (!WideEvent::fromJson(V, E, Error)) {
      Error = "line " + std::to_string(LineNo) + ": " + Error;
      return false;
    }
    Out.Events.push_back(std::move(E));
  }
  if (!SawHeader) {
    Error = "empty ledger: no header line";
    return false;
  }
  return true;
}

bool readLedgerFile(const std::string &Path, Ledger &Out,
                    std::string &Error) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Error = "cannot open " + Path;
    return false;
  }
  return readLedger(Text, Out, Error);
}

const std::vector<WideEventField> &wideEventNumericFields() {
  static const std::vector<WideEventField> Fields = {
      {"classes", [](const WideEvent &E) { return double(E.Classes); },
       false},
      {"methods", [](const WideEvent &E) { return double(E.Methods); },
       false},
      {"layout_ids", [](const WideEvent &E) { return double(E.LayoutIds); },
       false},
      {"view_ids", [](const WideEvent &E) { return double(E.ViewIds); },
       false},
      {"infl_views", [](const WideEvent &E) { return double(E.InflViews); },
       false},
      {"alloc_views",
       [](const WideEvent &E) { return double(E.AllocViews); }, false},
      {"listeners", [](const WideEvent &E) { return double(E.Listeners); },
       false},
      {"graph_nodes",
       [](const WideEvent &E) { return double(E.GraphNodes); }, false},
      {"flow_edges", [](const WideEvent &E) { return double(E.FlowEdges); },
       false},
      {"parent_child_edges",
       [](const WideEvent &E) { return double(E.ParentChildEdges); },
       false},
      {"propagations",
       [](const WideEvent &E) { return double(E.Propagations); }, false},
      {"op_firings", [](const WideEvent &E) { return double(E.OpFirings); },
       false},
      {"values_pushed",
       [](const WideEvent &E) { return double(E.ValuesPushed); }, false},
      {"dedup_hits", [](const WideEvent &E) { return double(E.DedupHits); },
       false},
      {"peak_set_size",
       [](const WideEvent &E) { return double(E.PeakSetSize); }, false},
      {"unresolved_ops",
       [](const WideEvent &E) { return double(E.UnresolvedOps); }, false},
      {"work_charged",
       [](const WideEvent &E) { return double(E.WorkCharged); }, false},
      {"unknown_total",
       [](const WideEvent &E) { return double(E.unknownTotal()); }, false},
      {"arena_bytes",
       [](const WideEvent &E) { return double(E.ArenaBytes); }, false},
      {"build_seconds",
       [](const WideEvent &E) { return E.BuildSeconds; }, true},
      {"solve_seconds",
       [](const WideEvent &E) { return E.SolveSeconds; }, true},
      {"peak_rss_bytes",
       [](const WideEvent &E) { return double(E.PeakRssBytes); }, true},
  };
  return Fields;
}

} // namespace support
} // namespace gator
