//===- FleetReport.cpp - Corpus health reports from run ledgers -*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "corpus/FleetReport.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <map>
#include <ostream>
#include <unordered_map>

using namespace gator;
using namespace gator::corpus;

namespace {

/// Deterministic numeric token: integral values render as integers,
/// fractional ones at fixed %.6f — the same value always renders the same
/// byte sequence, independent of locale or stream state.
std::string formatValue(double V) {
  if (std::isfinite(V) && std::floor(V) == V && std::fabs(V) < 9e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
    return Buf;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

/// Nearest-rank percentile over an ascending-sorted vector: the smallest
/// element with at least ceil(q * n) elements at or below it. Exact data
/// values only — a report should list numbers that occurred, not
/// interpolated ones.
double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Rank = std::ceil(Q * static_cast<double>(Sorted.size()));
  size_t I = Rank <= 1 ? 0 : static_cast<size_t>(Rank) - 1;
  if (I >= Sorted.size())
    I = Sorted.size() - 1;
  return Sorted[I];
}

void bump(std::map<std::string, uint64_t> &M, const std::string &Key,
          uint64_t By = 1) {
  M[Key] += By;
}

std::vector<std::pair<std::string, uint64_t>>
sortedPairs(const std::map<std::string, uint64_t> &M) {
  return {M.begin(), M.end()};
}

/// Ranks every event on \p Get: value descending, index ascending on
/// ties. Returns the top ReportTopK rows.
std::vector<OutlierApp>
topApps(const std::vector<analysis::WideEvent> &Events,
        double (*Get)(const analysis::WideEvent &)) {
  std::vector<OutlierApp> Rows;
  Rows.reserve(Events.size());
  for (const analysis::WideEvent &E : Events)
    Rows.push_back({E.Index, E.Stats.Name, E.ContentKey, Get(E)});
  std::sort(Rows.begin(), Rows.end(),
            [](const OutlierApp &A, const OutlierApp &B) {
              if (A.Value != B.Value)
                return A.Value > B.Value;
              return A.Index < B.Index;
            });
  if (Rows.size() > ReportTopK)
    Rows.resize(ReportTopK);
  return Rows;
}

const analysis::WideEventField *findField(const char *Name) {
  for (const analysis::WideEventField &F :
       analysis::wideEventNumericFields())
    if (std::string_view(F.Name) == Name)
      return &F;
  return nullptr;
}

} // namespace

FleetReport corpus::buildFleetReport(const analysis::Ledger &L) {
  FleetReport R;
  R.Header = L.Header;
  R.Apps = L.Events.size();

  std::map<std::string, uint64_t> Fid, Exit, Reasons;
  for (const analysis::WideEvent &E : L.Events) {
    bump(Fid, analysis::fidelityName(E.Stats.SolutionFidelity));
    bump(Exit, std::to_string(E.ExitCode));
    if (E.Stats.SolutionFidelity != analysis::Fidelity::Complete)
      ++R.Degraded;
    if (E.GenerationFailed)
      ++R.GenerationFailures;
    if (E.Cache == "hit")
      ++R.CacheHits;
    else if (E.Cache == "miss")
      ++R.CacheMisses;
    else
      ++R.CacheOff;
    for (size_t Reason = 1; Reason < graph::NumUnknownReasons; ++Reason)
      if (E.Stats.UnknownByReason[Reason])
        bump(Reasons,
             graph::unknownReasonSlug(
                 static_cast<graph::UnknownReason>(Reason)),
             E.Stats.UnknownByReason[Reason]);
  }
  R.ByFidelity = sortedPairs(Fid);
  R.ByExitCode = sortedPairs(Exit);
  R.UnknownByReason = sortedPairs(Reasons);

  for (const analysis::WideEventField &F :
       analysis::wideEventNumericFields()) {
    if (F.Volatile && L.Header.NoTimes)
      continue; // the field was never written; zeros would be fiction
    FieldSummary S;
    S.Field = F.Name;
    S.Volatile = F.Volatile;
    std::vector<double> Values;
    Values.reserve(L.Events.size());
    for (const analysis::WideEvent &E : L.Events) {
      double V = F.Get(E);
      Values.push_back(V);
      S.Sum += V;
    }
    std::sort(Values.begin(), Values.end());
    S.Count = Values.size();
    S.P50 = percentile(Values, 0.50);
    S.P90 = percentile(Values, 0.90);
    S.P99 = percentile(Values, 0.99);
    S.Max = Values.empty() ? 0 : Values.back();
    R.Fields.push_back(std::move(S));
  }

  // Ranked dimensions: the paper-facing health questions. "slowest" only
  // exists when the ledger carries times.
  static const char *const Dimensions[] = {
      "solve_seconds", "propagations", "peak_set_size",
      "flow_edges",    "arena_bytes",  "unknown_total",
  };
  for (const char *Name : Dimensions) {
    const analysis::WideEventField *F = findField(Name);
    if (!F || (F->Volatile && L.Header.NoTimes))
      continue;
    R.Outliers.push_back({Name, topApps(L.Events, F->Get)});
  }
  return R;
}

void corpus::writeFleetReportJson(std::ostream &OS, const FleetReport &R) {
  JsonWriter W(OS);
  W.beginObject();
  W.field("report_format", FleetReport::FormatVersion);
  W.key("ledger");
  W.beginObject();
  W.field("ledger_format", R.Header.Format);
  W.field("tool", R.Header.Tool);
  W.field("options_digest", R.Header.OptionsDigest);
  W.field("no_times", R.Header.NoTimes);
  W.endObject();
  W.field("apps", R.Apps);
  W.field("degraded", R.Degraded);
  W.field("generation_failures", R.GenerationFailures);
  W.key("cache");
  W.beginObject();
  W.field("hits", R.CacheHits);
  W.field("misses", R.CacheMisses);
  W.field("off", R.CacheOff);
  W.endObject();
  auto Breakdown = [&W](const char *Key,
                        const std::vector<std::pair<std::string, uint64_t>>
                            &Pairs) {
    W.key(Key);
    W.beginObject();
    for (const auto &P : Pairs)
      W.field(P.first, P.second);
    W.endObject();
  };
  Breakdown("by_fidelity", R.ByFidelity);
  Breakdown("by_exit_code", R.ByExitCode);
  Breakdown("unknown_by_reason", R.UnknownByReason);
  W.key("fields");
  W.beginArray();
  for (const FieldSummary &S : R.Fields) {
    W.beginObject();
    W.field("field", S.Field);
    W.field("volatile", S.Volatile);
    W.field("count", S.Count);
    W.key("sum");
    W.rawNumber(formatValue(S.Sum));
    W.key("p50");
    W.rawNumber(formatValue(S.P50));
    W.key("p90");
    W.rawNumber(formatValue(S.P90));
    W.key("p99");
    W.rawNumber(formatValue(S.P99));
    W.key("max");
    W.rawNumber(formatValue(S.Max));
    W.endObject();
  }
  W.endArray();
  W.key("outliers");
  W.beginArray();
  for (const FleetReport::Dimension &D : R.Outliers) {
    W.beginObject();
    W.field("dimension", D.Name);
    W.key("top");
    W.beginArray();
    for (const OutlierApp &A : D.Top) {
      W.beginObject();
      W.field("index", A.Index);
      W.field("app", A.App);
      W.field("content_key", A.ContentKey);
      W.key("value");
      W.rawNumber(formatValue(A.Value));
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << '\n';
}

void corpus::writeFleetReportText(std::ostream &OS, const FleetReport &R) {
  OS << "fleet report (report_format " << FleetReport::FormatVersion
     << ", ledger_format " << R.Header.Format << ", options "
     << R.Header.OptionsDigest
     << (R.Header.NoTimes ? ", no-times" : "") << ")\n";
  OS << "apps " << R.Apps << "  degraded " << R.Degraded
     << "  generation-failures " << R.GenerationFailures << "  cache "
     << R.CacheHits << " hit / " << R.CacheMisses << " miss / "
     << R.CacheOff << " off\n";
  auto Breakdown = [&OS](const char *Title,
                         const std::vector<std::pair<std::string, uint64_t>>
                             &Pairs) {
    if (Pairs.empty())
      return;
    OS << Title << ":";
    for (const auto &P : Pairs)
      OS << "  " << P.first << "=" << P.second;
    OS << '\n';
  };
  Breakdown("fidelity", R.ByFidelity);
  Breakdown("exit codes", R.ByExitCode);
  Breakdown("unknown sources", R.UnknownByReason);
  OS << '\n'
     << std::left << std::setw(20) << "field" << std::right
     << std::setw(14) << "sum" << std::setw(12) << "p50" << std::setw(12)
     << "p90" << std::setw(12) << "p99" << std::setw(14) << "max" << '\n';
  for (const FieldSummary &S : R.Fields)
    OS << std::left << std::setw(20) << S.Field << std::right
       << std::setw(14) << formatValue(S.Sum) << std::setw(12)
       << formatValue(S.P50) << std::setw(12) << formatValue(S.P90)
       << std::setw(12) << formatValue(S.P99) << std::setw(14)
       << formatValue(S.Max) << '\n';
  for (const FleetReport::Dimension &D : R.Outliers) {
    OS << '\n' << "top " << D.Name << ":\n";
    for (size_t I = 0; I < D.Top.size(); ++I)
      OS << "  " << (I + 1) << ". " << D.Top[I].App << " (app "
         << D.Top[I].Index << ")  " << formatValue(D.Top[I].Value) << '\n';
  }
}

LedgerDiff corpus::diffLedgers(const analysis::Ledger &Old,
                               const analysis::Ledger &New,
                               double ThresholdPct) {
  LedgerDiff D;
  D.ThresholdPct = ThresholdPct;
  if (Old.Header.Format != New.Header.Format) {
    D.Incomparable = "ledger_format mismatch";
    return D;
  }
  if (Old.Header.OptionsDigest != New.Header.OptionsDigest) {
    D.Incomparable =
        "options digest mismatch (" + Old.Header.OptionsDigest + " vs " +
        New.Header.OptionsDigest + "): runs analyzed under different "
        "options are not comparable";
    return D;
  }

  // First occurrence wins on duplicate keys; later duplicates are
  // ignored symmetrically on both sides.
  std::unordered_map<std::string, const analysis::WideEvent *> OldByKey;
  for (const analysis::WideEvent &E : Old.Events)
    OldByKey.emplace(E.ContentKey, &E);
  std::unordered_map<std::string, const analysis::WideEvent *> NewByKey;
  for (const analysis::WideEvent &E : New.Events)
    NewByKey.emplace(E.ContentKey, &E);

  for (const analysis::WideEvent &E : Old.Events)
    if (OldByKey.at(E.ContentKey) == &E && !NewByKey.count(E.ContentKey))
      D.OnlyInOld.push_back(E.Stats.Name + " (" + E.ContentKey + ")");
  for (const analysis::WideEvent &E : New.Events) {
    if (NewByKey.at(E.ContentKey) != &E)
      continue; // a duplicate; the first occurrence already compared
    auto It = OldByKey.find(E.ContentKey);
    if (It == OldByKey.end()) {
      D.OnlyInNew.push_back(E.Stats.Name + " (" + E.ContentKey + ")");
      continue;
    }
    const analysis::WideEvent &O = *It->second;
    AppDelta A;
    A.ContentKey = E.ContentKey;
    A.App = E.Stats.Name;
    A.OldFidelity = analysis::fidelityName(O.Stats.SolutionFidelity);
    A.NewFidelity = analysis::fidelityName(E.Stats.SolutionFidelity);
    A.NewlyDegraded =
        O.Stats.SolutionFidelity == analysis::Fidelity::Complete &&
        E.Stats.SolutionFidelity != analysis::Fidelity::Complete;
    A.NewlyCacheMissed = O.Cache == "hit" && E.Cache == "miss";
    for (const analysis::WideEventField &F :
         analysis::wideEventNumericFields()) {
      if (F.Volatile)
        continue; // wall-clock and scheduling never count as regressions
      double OldV = F.Get(O), NewV = F.Get(E);
      double Allowed = ThresholdPct / 100.0 * std::max(std::fabs(OldV), 1.0);
      if (std::fabs(NewV - OldV) > Allowed)
        A.Counters.push_back({F.Name, OldV, NewV});
    }
    if (A.NewlyDegraded || A.NewlyCacheMissed || !A.Counters.empty())
      D.Apps.push_back(std::move(A));
  }
  return D;
}

void corpus::writeLedgerDiffJson(std::ostream &OS, const LedgerDiff &D) {
  JsonWriter W(OS);
  W.beginObject();
  W.field("report_format", FleetReport::FormatVersion);
  W.field("empty", D.empty());
  if (!D.Incomparable.empty())
    W.field("incomparable", D.Incomparable);
  W.key("threshold_pct");
  W.rawNumber(formatValue(D.ThresholdPct));
  auto List = [&W](const char *Key, const std::vector<std::string> &V) {
    W.key(Key);
    W.beginArray();
    for (const std::string &S : V)
      W.value(S);
    W.endArray();
  };
  List("only_in_old", D.OnlyInOld);
  List("only_in_new", D.OnlyInNew);
  W.key("apps");
  W.beginArray();
  for (const AppDelta &A : D.Apps) {
    W.beginObject();
    W.field("app", A.App);
    W.field("content_key", A.ContentKey);
    W.field("newly_degraded", A.NewlyDegraded);
    W.field("newly_cache_missed", A.NewlyCacheMissed);
    W.field("old_fidelity", A.OldFidelity);
    W.field("new_fidelity", A.NewFidelity);
    W.key("counters");
    W.beginArray();
    for (const FieldDelta &C : A.Counters) {
      W.beginObject();
      W.field("field", C.Field);
      W.key("old");
      W.rawNumber(formatValue(C.Old));
      W.key("new");
      W.rawNumber(formatValue(C.New));
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << '\n';
}

void corpus::writeLedgerDiffText(std::ostream &OS, const LedgerDiff &D) {
  if (!D.Incomparable.empty()) {
    OS << "diff refused: " << D.Incomparable << '\n';
    return;
  }
  if (D.empty()) {
    OS << "no differences\n";
    return;
  }
  for (const std::string &S : D.OnlyInOld)
    OS << "- only in old: " << S << '\n';
  for (const std::string &S : D.OnlyInNew)
    OS << "+ only in new: " << S << '\n';
  for (const AppDelta &A : D.Apps) {
    OS << A.App << " (" << A.ContentKey << ")";
    if (A.NewlyDegraded)
      OS << "  NEWLY-DEGRADED " << A.OldFidelity << " -> "
         << A.NewFidelity;
    if (A.NewlyCacheMissed)
      OS << "  NEWLY-CACHE-MISSED";
    OS << '\n';
    for (const FieldDelta &C : A.Counters)
      OS << "    " << C.Field << ": " << formatValue(C.Old) << " -> "
         << formatValue(C.New) << '\n';
  }
}
