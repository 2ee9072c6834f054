//===- WideEvent.cpp - Per-app run-ledger records ---------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/WideEvent.h"

#include "support/FileIO.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <cstdio>
#include <ostream>
#include <type_traits>

namespace gator {
namespace analysis {

using support::JsonValue;

namespace {

/// The key under which the ledger writes the total of an unknown-reason
/// breakdown, just before the breakdown itself.
constexpr const char *UnknownTotalKey = "unknown_total";

/// Fixed-precision double token, matching the metrics exporters so the
/// same value renders identically everywhere.
std::string formatSeconds(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

// The ledger encodes scalars, the fidelity and an unknown-reason
// breakdown; a per-op-kind array has no ledger form.
#define GATOR_CHECK_LEDGER_TYPE(Type, Member, Key, Merge, Timing, Ledger)     \
  static_assert(FieldLedger::Ledger == FieldLedger::NotWritten ||             \
                    !std::is_same_v<Type, OpKindCounts>,                      \
                "per-op-kind arrays cannot be written to the ledger");
GATOR_APP_STATS_FIELDS(GATOR_CHECK_LEDGER_TYPE)
#undef GATOR_CHECK_LEDGER_TYPE

/// The number of unknown-source nodes in a reason breakdown.
uint64_t unknownTotal(const ReasonCounts &V) {
  uint64_t Total = 0;
  for (size_t R = 1; R < graph::NumUnknownReasons; ++R)
    Total += V[R];
  return Total;
}

/// A field's value as a report number; a reason breakdown counts as its
/// total.
template <typename T> double numericValue(const T &V) {
  if constexpr (std::is_same_v<T, ReasonCounts>)
    return static_cast<double>(unknownTotal(V));
  else
    return static_cast<double>(V);
}

/// Writes one field the list marks for the ledger.
template <typename T>
void writeField(JsonWriter &W, const char *Key, const T &V) {
  if constexpr (std::is_same_v<T, ReasonCounts>) {
    W.field(UnknownTotalKey, unknownTotal(V));
    W.key(Key);
    W.beginObject();
    for (size_t R = 1; R < graph::NumUnknownReasons; ++R)
      if (V[R])
        W.field(graph::unknownReasonSlug(static_cast<graph::UnknownReason>(R)),
                static_cast<uint64_t>(V[R]));
    W.endObject();
  } else if constexpr (std::is_same_v<T, double>) {
    W.key(Key);
    W.rawNumber(formatSeconds(V));
  } else if constexpr (std::is_same_v<T, Fidelity>) {
    W.field(Key, fidelityName(V));
  } else if constexpr (std::is_integral_v<T>) {
    W.field(Key, static_cast<uint64_t>(V));
  } else {
    static_assert(std::is_same_v<T, OpKindCounts>, "no ledger encoding");
  }
}

/// Reads one field the list marks for the ledger; an absent key leaves it
/// zero. Returns false on a malformed value.
template <typename T>
bool readField(const JsonValue &Obj, const char *Key, T &V,
               std::string &Error) {
  if constexpr (std::is_same_v<T, ReasonCounts>) {
    const JsonValue *Reasons = Obj.find(Key);
    if (!Reasons)
      return true;
    if (!Reasons->isObject()) {
      Error = std::string(Key) + " is not an object";
      return false;
    }
    for (const auto &M : Reasons->members())
      for (size_t R = 1; R < graph::NumUnknownReasons; ++R)
        if (M.second.isNumber() &&
            M.first ==
                graph::unknownReasonSlug(static_cast<graph::UnknownReason>(R)))
          V[R] = static_cast<unsigned long>(M.second.asU64());
  } else if constexpr (std::is_same_v<T, double>) {
    V = Obj.numberOr(Key, 0.0);
  } else if constexpr (std::is_integral_v<T>) {
    V = static_cast<T>(Obj.u64Or(Key, 0));
  } else if constexpr (std::is_same_v<T, Fidelity>) {
    const std::string Name =
        Obj.stringOr(Key, fidelityName(Fidelity::Complete));
    for (Fidelity F : {Fidelity::Complete, Fidelity::DegradedInput,
                       Fidelity::TruncatedBudget})
      if (Name == fidelityName(F)) {
        V = F;
        return true;
      }
    Error = "unknown " + std::string(Key) + " '" + Name + "'";
    return false;
  } else {
    static_assert(std::is_same_v<T, OpKindCounts>, "no ledger encoding");
  }
  return true;
}

} // namespace

void WideEvent::writeJsonl(std::ostream &OS, bool IncludeVolatile) const {
  JsonWriter W(OS);
  W.beginObject();
  W.field("index", Index);
  W.field("app", Stats.Name);
  W.field("content_key", ContentKey);
  W.field("exit_code", ExitCode);
  writeField(W, "fidelity", Stats.SolutionFidelity);
  W.field("cache", Cache);
  W.field("generation_failed", GenerationFailed);
  forEachAppStatsField(
      [&](const AppStatsField &F, const auto &V) {
        if (F.Ledger != FieldLedger::NotWritten &&
            (IncludeVolatile || F.Timing != FieldTiming::Volatile))
          writeField(W, F.Key, V);
      },
      Stats);
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
  Out.Stats.Name = V.stringOr("app", "");
  Out.ContentKey = V.stringOr("content_key", "");
  Out.ExitCode = static_cast<int>(V.numberOr("exit_code", 0));
  Out.Cache = V.stringOr("cache", "off");
  Out.GenerationFailed = V.boolOr("generation_failed", false);
  bool Ok = readField(V, "fidelity", Out.Stats.SolutionFidelity, Error);
  forEachAppStatsField(
      [&](const AppStatsField &F, auto &Field) {
        if (Ok && F.Ledger != FieldLedger::NotWritten)
          Ok = readField(V, F.Key, Field, Error);
      },
      Out.Stats);
  return Ok;
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
  if (!support::readFile(Path, Text)) {
    Error = "cannot open " + Path;
    return false;
  }
  return readLedger(Text, Out, Error);
}

const std::vector<WideEventField> &wideEventNumericFields() {
  static const std::vector<WideEventField> Fields = [] {
    std::vector<WideEventField> Out;
    // Expands to an entry for Reported fields and to nothing otherwise.
#define GATOR_FIELD_IF_NotWritten(Type, Member, Key, Timing)
#define GATOR_FIELD_IF_Written(Type, Member, Key, Timing)
#define GATOR_FIELD_IF_Reported(Type, Member, Key, Timing)                    \
  Out.push_back({std::is_same_v<Type, ReasonCounts> ? UnknownTotalKey : Key,   \
                 [](const WideEvent &E) {                                     \
                   return numericValue(E.Stats.Member);                       \
                 },                                                           \
                 FieldTiming::Timing == FieldTiming::Volatile});
#define GATOR_REPORTED_FIELD(Type, Member, Key, Merge, Timing, Ledger)        \
  GATOR_FIELD_IF_##Ledger(Type, Member, Key, Timing)
    GATOR_APP_STATS_FIELDS(GATOR_REPORTED_FIELD)
#undef GATOR_REPORTED_FIELD
#undef GATOR_FIELD_IF_Reported
#undef GATOR_FIELD_IF_Written
#undef GATOR_FIELD_IF_NotWritten
    return Out;
  }();
  return Fields;
}

} // namespace analysis
} // namespace gator
