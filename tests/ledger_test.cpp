//===- ledger_test.cpp - Run ledger, fleet reports, and diffs -------------===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
// The run-ledger stack (docs/OBSERVABILITY.md, "Run ledger & reports"):
// the JSON DOM parser, wide-event JSONL round-trips, fleet-report
// aggregation and outlier ranking, and ledger diffs. The job-count
// determinism of the per-app counters a ledger records is checked on a
// hostile fleet in parallel_test.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/WideEvent.h"
#include "corpus/FleetReport.h"
#include "support/JsonParse.h"
#include "support/Metrics.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <sstream>

using namespace gator;
using namespace gator::analysis;
using namespace gator::support;
using namespace gator::corpus;

//===----------------------------------------------------------------------===//
// JsonValue parser
//===----------------------------------------------------------------------===//

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(Text, V, Error)) << Error;
  return V;
}

std::string parseErr(const std::string &Text) {
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(JsonValue::parse(Text, V, Error)) << "parsed: " << Text;
  return Error;
}

} // namespace

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").asBool());
  EXPECT_FALSE(parseOk("false").asBool());
  EXPECT_DOUBLE_EQ(parseOk("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseOk("-3.5").asNumber(), -3.5);
  EXPECT_DOUBLE_EQ(parseOk("1e3").asNumber(), 1000.0);
  EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
  EXPECT_EQ(parseOk("  7  ").asU64(), 7u);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  EXPECT_EQ(parseOk("\"a\\nb\"").asString(), "a\nb");
  EXPECT_EQ(parseOk("\"q\\\"q\"").asString(), "q\"q");
  EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9"); // é in UTF-8
  EXPECT_EQ(parseOk("\"\\\\\\/\"").asString(), "\\/");
}

TEST(JsonParseTest, ObjectMembersKeepDocumentOrder) {
  JsonValue V = parseOk("{\"z\": 1, \"a\": [true, null], \"m\": {\"k\": 2}}");
  ASSERT_TRUE(V.isObject());
  ASSERT_EQ(V.members().size(), 3u);
  EXPECT_EQ(V.members()[0].first, "z");
  EXPECT_EQ(V.members()[1].first, "a");
  EXPECT_EQ(V.members()[2].first, "m");
  ASSERT_NE(V.find("a"), nullptr);
  ASSERT_EQ(V.find("a")->array().size(), 2u);
  EXPECT_TRUE(V.find("a")->array()[0].asBool());
  EXPECT_EQ(V.find("m")->u64Or("k", 0), 2u);
  EXPECT_EQ(V.find("missing"), nullptr);
  EXPECT_EQ(V.u64Or("z", 9), 1u);
  EXPECT_EQ(V.u64Or("nope", 9), 9u);
  EXPECT_EQ(V.stringOr("nope", "d"), "d");
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_NE(parseErr("{").find("offset"), std::string::npos);
  parseErr("\"unterminated");
  parseErr("{\"a\": 1,}");
  parseErr("[1 2]");
  parseErr("tru");
  parseErr("1 trailing");
  parseErr("");
  // Depth guard: 70 nested arrays exceed the 64-level limit.
  std::string Deep(70, '[');
  Deep += std::string(70, ']');
  EXPECT_NE(parseErr(Deep).find("nesting too deep"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// WideEvent JSONL round-trip
//===----------------------------------------------------------------------===//

namespace {

WideEvent sampleEvent() {
  WideEvent E;
  E.Index = 3;
  E.Stats.Name = "App3";
  E.ContentKey = "0123456789abcdef0123456789abcdef";
  E.ExitCode = 1;
  E.Stats.SolutionFidelity = Fidelity::DegradedInput;
  E.Cache = "hit";
  E.Stats.Classes = 12;
  E.Stats.Methods = 40;
  E.Stats.GraphNodes = 500;
  E.Stats.FlowEdges = 900;
  E.Stats.Propagations = 12345;
  E.Stats.PeakSetSize = 7;
  E.Stats.UnknownViews = 2;
  E.Stats.UnknownByReason[size_t(graph::UnknownReason::ReflectiveNew)] = 2;
  E.Stats.UnknownByReason[size_t(graph::UnknownReason::DynamicId)] = 1;
  E.Stats.ArenaBytes = 65536;
  E.Stats.BuildSeconds = 0.25;
  E.Stats.SolveSeconds = 1.5;
  E.Stats.PeakRssBytes = 4096;
  return E;
}

std::string ledgerText(const LedgerHeader &H,
                       const std::vector<WideEvent> &Events) {
  std::ostringstream OS;
  writeLedger(OS, H, Events);
  return OS.str();
}

} // namespace

TEST(WideEventTest, RoundTripsThroughJsonl) {
  LedgerHeader H;
  H.OptionsDigest = "ffff0000ffff0000ffff0000ffff0000";
  const std::string Text = ledgerText(H, {sampleEvent()});

  Ledger L;
  std::string Error;
  ASSERT_TRUE(readLedger(Text, L, Error)) << Error;
  EXPECT_EQ(L.Header.Format, LedgerHeader::FormatVersion);
  EXPECT_EQ(L.Header.OptionsDigest, H.OptionsDigest);
  EXPECT_EQ(L.Header.Apps, 1u);
  EXPECT_FALSE(L.Header.NoTimes);
  ASSERT_EQ(L.Events.size(), 1u);
  const WideEvent &E = L.Events[0];
  EXPECT_EQ(E.Index, 3u);
  EXPECT_EQ(E.Stats.Name, "App3");
  EXPECT_EQ(E.ContentKey, "0123456789abcdef0123456789abcdef");
  EXPECT_EQ(E.ExitCode, 1);
  EXPECT_EQ(E.Stats.SolutionFidelity, Fidelity::DegradedInput);
  EXPECT_EQ(E.Cache, "hit");
  EXPECT_EQ(E.Stats.Propagations, 12345u);
  EXPECT_NE(Text.find("\"unknown_total\":3,\"unknown_by_reason\":"
                      "{\"reflective_new\":2,\"dynamic_id\":1}"),
            std::string::npos)
      << Text;
  using graph::UnknownReason;
  EXPECT_EQ(E.Stats.UnknownByReason[size_t(UnknownReason::ReflectiveNew)], 2u);
  EXPECT_EQ(E.Stats.UnknownByReason[size_t(UnknownReason::DynamicId)], 1u);
  EXPECT_DOUBLE_EQ(E.Stats.SolveSeconds, 1.5);
  EXPECT_EQ(E.Stats.PeakRssBytes, 4096u);

  // Re-serialization is byte-stable: write(read(write(E))) == write(E).
  EXPECT_EQ(ledgerText(L.Header, L.Events), Text);
}

TEST(WideEventTest, EveryLedgerFieldSurvivesWriteAndRead) {
  WideEvent E;
  E.Stats = test::distinctAppStats();
  for (bool NoTimes : {false, true}) {
    LedgerHeader H;
    H.NoTimes = NoTimes;
    Ledger L;
    std::string Error;
    ASSERT_TRUE(readLedger(ledgerText(H, {E}), L, Error)) << Error;
    ASSERT_EQ(L.Events.size(), 1u);
    const WideEvent &Read = L.Events[0];

    // The ledger keeps the name, the fidelity (as the outcome) and the
    // fields the list marks for it; volatile ones only with times.
    AppStats Want = E.Stats;
    forEachAppStatsField(
        [&](const AppStatsField &F, auto &V) {
          if (F.Ledger != FieldLedger::NotWritten &&
              !(NoTimes && F.Timing == FieldTiming::Volatile))
            return;
          if constexpr (std::is_array_v<std::remove_reference_t<decltype(V)>>)
            std::fill(std::begin(V), std::end(V), 0);
          else
            V = {};
        },
        Want);
    Want.SolutionFidelity = E.Stats.SolutionFidelity;
    EXPECT_EQ(Read.Stats.Name, E.Stats.Name);
    EXPECT_EQ(test::differingFields(Read.Stats, Want),
              std::vector<std::string>())
        << "no_times=" << NoTimes;

    // report and report --diff see every Reported field, nonzero.
    std::vector<std::string> Reported;
    forEachAppStatsField(
        [&](const AppStatsField &F, const auto &V) {
          if (F.Ledger == FieldLedger::Reported)
            Reported.push_back(
                std::is_array_v<std::remove_reference_t<decltype(V)>>
                    ? "unknown_total"
                    : F.Key);
        },
        E.Stats);
    std::vector<std::string> Numeric;
    for (const WideEventField &F : wideEventNumericFields()) {
      Numeric.push_back(F.Name);
      if (NoTimes && F.Volatile)
        continue;
      EXPECT_GT(F.Get(Read), 0.0) << F.Name;
      EXPECT_EQ(F.Get(Read), F.Get(E)) << F.Name;
    }
    EXPECT_EQ(Numeric, Reported);
  }
}

TEST(WideEventTest, NoTimesSuppressesVolatileFields) {
  LedgerHeader H;
  H.NoTimes = true;
  const std::string Text = ledgerText(H, {sampleEvent()});
  EXPECT_EQ(Text.find("solve_seconds"), std::string::npos);
  EXPECT_EQ(Text.find("build_seconds"), std::string::npos);
  EXPECT_EQ(Text.find("peak_rss_bytes"), std::string::npos);
  EXPECT_NE(Text.find("propagations"), std::string::npos);

  Ledger L;
  std::string Error;
  ASSERT_TRUE(readLedger(Text, L, Error)) << Error;
  EXPECT_TRUE(L.Header.NoTimes);
  ASSERT_EQ(L.Events.size(), 1u);
  EXPECT_DOUBLE_EQ(L.Events[0].Stats.SolveSeconds, 0.0);
  EXPECT_EQ(L.Events[0].Stats.PeakRssBytes, 0u);
  EXPECT_EQ(L.Events[0].Stats.Propagations, 12345u);
}

TEST(WideEventTest, ReadsRecordsWithRetiredSchedulingFields) {
  // Timed ledgers written before the serial-only solver carry four
  // volatile scheduling counters the writer no longer emits. They must
  // still parse, drop out on re-serialization, and diff as equal to the
  // same run written today. (Such ledgers are format 1; reading that
  // header is checked in LedgerDiffTest, and a format-1 ledger does not
  // diff against a current one.)
  LedgerHeader H;
  H.OptionsDigest = "ffff0000ffff0000ffff0000ffff0000";
  const std::string Current = ledgerText(H, {sampleEvent()});
  std::string Old = Current;
  size_t RecordEnd = Old.rfind('}');
  ASSERT_NE(RecordEnd, std::string::npos);
  Old.insert(RecordEnd, ",\"scc_count\":9,\"scc_strata\":3,"
                        "\"barrier_waves\":4,\"parallel_rounds\":2");
  ASSERT_NE(Old.find("\"parallel_rounds\":2}"), std::string::npos);

  Ledger L;
  std::string Error;
  ASSERT_TRUE(readLedger(Old, L, Error)) << Error;
  EXPECT_EQ(L.Header.Format, LedgerHeader::FormatVersion);
  ASSERT_EQ(L.Events.size(), 1u);
  EXPECT_EQ(L.Events[0].Stats.Propagations, 12345u);

  const std::string Rewritten = ledgerText(L.Header, L.Events);
  for (const char *Key :
       {"scc_count", "scc_strata", "barrier_waves", "parallel_rounds"})
    EXPECT_EQ(Rewritten.find(Key), std::string::npos) << Key;
  EXPECT_EQ(Rewritten, Current);

  Ledger New;
  ASSERT_TRUE(readLedger(Current, New, Error)) << Error;
  EXPECT_TRUE(diffLedgers(L, New).empty());
}

TEST(WideEventTest, ReadLedgerRefusesBadHeaders) {
  Ledger L;
  std::string Error;
  EXPECT_FALSE(readLedger("", L, Error));
  EXPECT_FALSE(readLedger("{\"index\":0,\"app\":\"x\"}", L, Error));
  // Version skew must refuse, not mis-parse: a format from a newer build
  // and one older than any this build reads.
  EXPECT_FALSE(readLedger(
      "{\"ledger_format\":0,\"tool\":\"gator-cpp\",\"options_digest\":\"a\","
      "\"no_times\":false,\"apps\":0}",
      L, Error));
  EXPECT_FALSE(readLedger(
      "{\"ledger_format\":99,\"tool\":\"gator-cpp\",\"options_digest\":\"a\","
      "\"no_times\":false,\"apps\":0}",
      L, Error));
  EXPECT_NE(Error.find("format"), std::string::npos);
  // Blank lines are tolerated.
  LedgerHeader H;
  EXPECT_TRUE(readLedger(ledgerText(H, {}) + "\n\n", L, Error)) << Error;
  EXPECT_TRUE(L.Events.empty());
}

//===----------------------------------------------------------------------===//
// Histogram quantiles
//===----------------------------------------------------------------------===//

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  Histogram H({10, 20});
  H.observe(5);  // bucket (0, 10]
  H.observe(15); // bucket (10, 20]
  H.observe(15);
  H.observe(99); // +Inf bucket
  // p50: rank 2 lands in the second bucket, halfway through its 2 counts.
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 15.0);
  // p99: rank 3.96 lands in the +Inf bucket, clamped to the last bound.
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 20.0);
  // p25: rank 1 is exactly the first bucket's cumulative count — the
  // bucket's upper bound.
  EXPECT_DOUBLE_EQ(H.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.0), 0.0); // rank 0: the lower edge
  EXPECT_DOUBLE_EQ(Histogram({10}).quantile(0.5), 0.0); // empty
}

//===----------------------------------------------------------------------===//
// FleetReport aggregation
//===----------------------------------------------------------------------===//

namespace {

/// A five-app ledger with one degraded app, one cache miss, and spread-out
/// propagation counts for percentile/outlier checks.
Ledger syntheticLedger() {
  Ledger L;
  L.Header.OptionsDigest = "aaaa0000aaaa0000aaaa0000aaaa0000";
  L.Header.NoTimes = true;
  for (uint64_t I = 0; I < 5; ++I) {
    WideEvent E;
    E.Index = I;
    E.Stats.Name = "App" + std::to_string(I);
    E.ContentKey = std::string(31, 'b') + static_cast<char>('0' + I);
    E.Stats.Propagations = (I + 1) * 100; // 100..500
    E.Stats.PeakSetSize = 4;              // constant: outlier ties
    E.Cache = I == 2 ? "miss" : "hit";
    if (I == 4) {
      E.Stats.SolutionFidelity = Fidelity::DegradedInput;
      E.ExitCode = 1;
      E.Stats.UnknownByReason[size_t(graph::UnknownReason::DynamicId)] = 3;
    }
    L.Events.push_back(std::move(E));
  }
  L.Header.Apps = L.Events.size();
  return L;
}

const FieldSummary *findSummary(const FleetReport &R,
                                const std::string &Name) {
  for (const FieldSummary &F : R.Fields)
    if (F.Field == Name)
      return &F;
  return nullptr;
}

} // namespace

TEST(FleetReportTest, AggregatesCountsAndPercentiles) {
  const FleetReport R = buildFleetReport(syntheticLedger());
  EXPECT_EQ(R.Apps, 5u);
  EXPECT_EQ(R.Degraded, 1u);
  EXPECT_EQ(R.CacheHits, 4u);
  EXPECT_EQ(R.CacheMisses, 1u);
  EXPECT_EQ(R.CacheOff, 0u);
  ASSERT_EQ(R.ByFidelity.size(), 2u);
  EXPECT_EQ(R.ByFidelity[0].first, "complete");
  EXPECT_EQ(R.ByFidelity[0].second, 4u);
  ASSERT_EQ(R.UnknownByReason.size(), 1u);
  EXPECT_EQ(R.UnknownByReason[0].first, "dynamic_id");
  EXPECT_EQ(R.UnknownByReason[0].second, 3u);

  const FieldSummary *P = findSummary(R, "propagations");
  ASSERT_NE(P, nullptr);
  EXPECT_DOUBLE_EQ(P->Sum, 1500.0);
  // Nearest-rank percentiles over {100..500}: exact data values, never
  // interpolations.
  EXPECT_DOUBLE_EQ(P->P50, 300.0);
  EXPECT_DOUBLE_EQ(P->P90, 500.0);
  EXPECT_DOUBLE_EQ(P->Max, 500.0);
  // Volatile fields are absent from a --no-times ledger's report.
  EXPECT_EQ(findSummary(R, "solve_seconds"), nullptr);
}

TEST(FleetReportTest, OutliersRankByValueThenIndex) {
  const FleetReport R = buildFleetReport(syntheticLedger());
  const FleetReport::Dimension *Props = nullptr, *Peaks = nullptr;
  for (const FleetReport::Dimension &D : R.Outliers) {
    if (D.Name == "propagations")
      Props = &D;
    if (D.Name == "peak_set_size")
      Peaks = &D;
  }
  ASSERT_NE(Props, nullptr);
  ASSERT_EQ(Props->Top.size(), 5u);
  EXPECT_EQ(Props->Top[0].App, "App4"); // 500 first
  EXPECT_DOUBLE_EQ(Props->Top[0].Value, 500.0);
  EXPECT_EQ(Props->Top[4].App, "App0");
  // All-equal dimension: ties break toward the lower input index.
  ASSERT_NE(Peaks, nullptr);
  EXPECT_EQ(Peaks->Top[0].Index, 0u);
  EXPECT_EQ(Peaks->Top[1].Index, 1u);
}

TEST(FleetReportTest, RendersDeterministically) {
  const Ledger L = syntheticLedger();
  std::ostringstream A, B;
  writeFleetReportJson(A, buildFleetReport(L));
  writeFleetReportJson(B, buildFleetReport(L));
  EXPECT_EQ(A.str(), B.str());
  EXPECT_NE(A.str().find("\"report_format\":1"), std::string::npos);
  EXPECT_NE(A.str().find("\"options_digest\""), std::string::npos);

  // The JSON report re-parses with our own parser (schema smoke test).
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(A.str(), V, Error)) << Error;
  EXPECT_EQ(V.u64Or("apps", 0), 5u);
  ASSERT_NE(V.find("fields"), nullptr);
  EXPECT_FALSE(V.find("fields")->array().empty());
}

//===----------------------------------------------------------------------===//
// Ledger diffs
//===----------------------------------------------------------------------===//

TEST(LedgerDiffTest, SelfDiffIsEmpty) {
  const Ledger L = syntheticLedger();
  const LedgerDiff D = diffLedgers(L, L);
  EXPECT_TRUE(D.empty());
  std::ostringstream OS;
  writeLedgerDiffText(OS, D);
  EXPECT_NE(OS.str().find("no differences"), std::string::npos);
}

TEST(LedgerDiffTest, FlagsRegressionsAndRespectsThreshold) {
  const Ledger Old = syntheticLedger();
  Ledger New = syntheticLedger();
  New.Events[0].Stats.SolutionFidelity =
      Fidelity::TruncatedBudget; // newly degraded
  New.Events[1].Cache = "miss";                // newly cache-missed
  New.Events[2].Stats.Propagations += 400;           // 300 -> 700
  New.Events[3].Stats.Propagations += 10;            // 400 -> 410 (2.5%)
  // Volatile fields must never flag.
  New.Events[3].Stats.SolveSeconds = 123.0;

  const LedgerDiff Any = diffLedgers(Old, New, /*ThresholdPct=*/0);
  ASSERT_EQ(Any.Apps.size(), 4u);
  EXPECT_TRUE(Any.Apps[0].NewlyDegraded);
  EXPECT_EQ(Any.Apps[0].NewFidelity, "truncated-budget");
  EXPECT_TRUE(Any.Apps[1].NewlyCacheMissed);
  ASSERT_EQ(Any.Apps[2].Counters.size(), 1u);
  EXPECT_EQ(Any.Apps[2].Counters[0].Field, "propagations");
  EXPECT_DOUBLE_EQ(Any.Apps[2].Counters[0].New, 700.0);

  // At 50% the small counter drift drops out; the flags survive.
  const LedgerDiff Thresh = diffLedgers(Old, New, /*ThresholdPct=*/50);
  ASSERT_EQ(Thresh.Apps.size(), 3u);
  for (const AppDelta &A : Thresh.Apps)
    for (const FieldDelta &C : A.Counters)
      EXPECT_EQ(C.Field, "propagations");
}

TEST(LedgerDiffTest, TracksMembershipByContentKey) {
  const Ledger Old = syntheticLedger();
  Ledger New = syntheticLedger();
  New.Events.erase(New.Events.begin()); // App0 vanished
  WideEvent Fresh;
  Fresh.Index = 9;
  Fresh.Stats.Name = "AppNew";
  Fresh.ContentKey = std::string(32, 'f');
  New.Events.push_back(std::move(Fresh));

  const LedgerDiff D = diffLedgers(Old, New);
  ASSERT_EQ(D.OnlyInOld.size(), 1u);
  EXPECT_NE(D.OnlyInOld[0].find("App0"), std::string::npos);
  ASSERT_EQ(D.OnlyInNew.size(), 1u);
  EXPECT_NE(D.OnlyInNew[0].find("AppNew"), std::string::npos);
  EXPECT_FALSE(D.empty());
}

TEST(LedgerDiffTest, ReadsFormatOneButRefusesToDiffItAgainstFormatTwo) {
  // A format-1 ledger (content keys of the v1 app-directory hash) still
  // reads and reports. Diffed against a current ledger of the same apps,
  // it is refused as a format mismatch, not listed as every app gone and
  // every app new.
  ASSERT_EQ(LedgerHeader::FormatVersion, 2u);
  const Ledger New = syntheticLedger();
  std::string Text = ledgerText(New.Header, New.Events);
  const std::string Stamp = "\"ledger_format\":2";
  ASSERT_EQ(Text.find(Stamp), 1u);
  Text.replace(1, Stamp.size(), "\"ledger_format\":1");
  Ledger Old;
  std::string Error;
  ASSERT_TRUE(readLedger(Text, Old, Error)) << Error;
  EXPECT_EQ(Old.Header.Format, 1u);
  EXPECT_EQ(Old.Events.size(), New.Events.size());
  EXPECT_EQ(buildFleetReport(Old).Header.Format, 1u);

  for (WideEvent &E : Old.Events)
    E.ContentKey = std::string(32, '1');
  const LedgerDiff D = diffLedgers(Old, New);
  EXPECT_EQ(D.Incomparable, "ledger_format mismatch");
  EXPECT_TRUE(D.OnlyInOld.empty());
  EXPECT_TRUE(D.OnlyInNew.empty());
  EXPECT_TRUE(D.Apps.empty());
}

TEST(LedgerDiffTest, RefusesIncomparableLedgers) {
  const Ledger Old = syntheticLedger();
  Ledger New = syntheticLedger();
  New.Header.OptionsDigest = "cccc0000cccc0000cccc0000cccc0000";
  const LedgerDiff D = diffLedgers(Old, New);
  EXPECT_FALSE(D.Incomparable.empty());
  EXPECT_FALSE(D.empty());
  EXPECT_TRUE(D.Apps.empty());
  std::ostringstream OS;
  writeLedgerDiffText(OS, D);
  EXPECT_NE(OS.str().find("diff refused"), std::string::npos);
}
