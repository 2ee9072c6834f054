//===- observability_test.cpp - Telemetry subsystem tests -------*- C++ -*-===//
//
// Tests for docs/OBSERVABILITY.md: the trace sink and its ordered merge,
// the metrics registry (merge policies, export formats, --no-times
// suppression), fact provenance in the solver, the max-merge
// semantics of peak counters in aggregateAppStats, and the JSON
// diagnostics printer.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/AppStats.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gator;
using namespace gator::analysis;
using namespace gator::graph;
using namespace gator::support;
using namespace gator::test;

namespace {

//===----------------------------------------------------------------------===//
// TraceSink / TraceSpan
//===----------------------------------------------------------------------===//

TEST(TraceTest, SinkRecordsSpansCountersAndInstants) {
  TraceSink Sink;
  {
    TraceSpan Span(&Sink, "phase");
    Span.arg("items", 42);
  }
  Sink.counter("worklist", 7);
  Sink.instant("round");
  ASSERT_EQ(Sink.eventCount(), 3u);

  const TraceSink::Event &Span = Sink.events()[0];
  EXPECT_EQ(Span.Name, "phase");
  EXPECT_EQ(Span.Ph, 'X');
  ASSERT_EQ(Span.Args.size(), 1u);
  EXPECT_EQ(Span.Args[0].first, "items");
  EXPECT_EQ(Span.Args[0].second, 42u);

  EXPECT_EQ(Sink.events()[1].Ph, 'C');
  EXPECT_EQ(Sink.events()[2].Ph, 'i');
}

TEST(TraceTest, SpanIsNoopWithoutSink) {
  TraceSpan Span(nullptr, "nothing");
  Span.arg("ignored", 1); // must not crash
}

TEST(TraceTest, WriteJsonEmitsChromeTraceFields) {
  TraceSink Sink;
  { TraceSpan Span(&Sink, "solve"); }
  Sink.instant("tick");
  std::ostringstream OS;
  Sink.writeJson(OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(Json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(Json.find("\"tid\":"), std::string::npos);
}

TEST(TraceTest, AppendMergesInOrderAndRetagsTid) {
  TraceSink Merged;
  TraceSink A, B;
  A.instant("a1");
  A.instant("a2");
  B.instant("b1");
  Merged.append(std::move(A), 1);
  Merged.append(std::move(B), 2);
  ASSERT_EQ(Merged.eventCount(), 3u);
  EXPECT_EQ(Merged.events()[0].Name, "a1");
  EXPECT_EQ(Merged.events()[0].Tid, 1u);
  EXPECT_EQ(Merged.events()[1].Name, "a2");
  EXPECT_EQ(Merged.events()[1].Tid, 1u);
  EXPECT_EQ(Merged.events()[2].Name, "b1");
  EXPECT_EQ(Merged.events()[2].Tid, 2u);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CountersAddAndGaugesFollowMergePolicy) {
  // Two apps recording into one registry, as the batch fold does.
  MetricsRegistry M;
  M.counter("apps_total", "apps").add(2);
  M.counter("apps_total", "apps").add(3);
  M.gauge("peak", "peak").setMax(10);
  M.gauge("peak", "peak").setMax(4);
  M.gauge("seconds", "t").add(1.5);
  M.gauge("seconds", "t").add(2.5);
  M.gauge("last", "l").set(1);
  M.gauge("last", "l").set(9);

  EXPECT_EQ(M.counter("apps_total", "apps").value(), 5u);
  EXPECT_EQ(M.gauge("peak", "peak").value(), 10.0);
  EXPECT_EQ(M.gauge("seconds", "t").value(), 4.0);
  EXPECT_EQ(M.gauge("last", "l").value(), 9.0);
}

TEST(MetricsTest, LabeledCountersAreDistinctInstruments) {
  MetricsRegistry M;
  M.counter("ops_total", "ops", MetricUnit::None, "kind", "Inflate1").add(1);
  M.counter("ops_total", "ops", MetricUnit::None, "kind", "FindView1").add(2);
  EXPECT_EQ(M.instrumentCount(), 2u);
  EXPECT_EQ(
      M.counter("ops_total", "ops", MetricUnit::None, "kind", "FindView1")
          .value(),
      2u);
}

TEST(MetricsTest, HistogramBucketsObserveAndAddRaw) {
  MetricsRegistry A;
  Histogram &HA = A.histogram("sizes", "set sizes", {1, 4, 16});
  HA.observe(1);  // bucket le=1
  HA.observe(3);  // bucket le=4
  HA.observe(99); // overflow (+Inf)
  // Another app's raw buckets, as a result carries them.
  Histogram HB({1, 4, 16});
  HB.observe(4); // bucket le=4

  ASSERT_TRUE(HA.addRaw(HB.bucketCounts(), HB.sum(), HB.count()));
  // Raw buckets of another shape are refused and change nothing.
  EXPECT_FALSE(HA.addRaw({1, 1}, 5, 2));
  ASSERT_EQ(HA.bucketCounts().size(), 4u);
  EXPECT_EQ(HA.bucketCounts()[0], 1u);
  EXPECT_EQ(HA.bucketCounts()[1], 2u);
  EXPECT_EQ(HA.bucketCounts()[2], 0u);
  EXPECT_EQ(HA.bucketCounts()[3], 1u);
  EXPECT_EQ(HA.count(), 4u);
  EXPECT_EQ(HA.sum(), 1u + 3u + 99u + 4u);
}

TEST(MetricsTest, NoTimesSuppressesSecondsInstruments) {
  MetricsRegistry M;
  M.counter("apps_total", "apps").inc();
  M.gauge("phase_solve_seconds", "solve time", MetricUnit::Seconds)
      .add(1.25);

  std::ostringstream WithTimes, NoTimes;
  M.writeJson(WithTimes, /*IncludeTimes=*/true);
  M.writeJson(NoTimes, /*IncludeTimes=*/false);
  EXPECT_NE(WithTimes.str().find("phase_solve_seconds"), std::string::npos);
  EXPECT_EQ(NoTimes.str().find("phase_solve_seconds"), std::string::npos);
  EXPECT_NE(NoTimes.str().find("apps_total"), std::string::npos);

  std::ostringstream Prom;
  M.writePrometheus(Prom, /*IncludeTimes=*/false);
  EXPECT_EQ(Prom.str().find("phase_solve_seconds"), std::string::npos);
}

TEST(MetricsTest, PrometheusExportIsWellFormed) {
  MetricsRegistry M;
  M.counter("ops_total", "op firings", MetricUnit::None, "kind", "Inflate1")
      .add(3);
  Histogram &H = M.histogram("sizes", "set sizes", {1, 4});
  H.observe(1);
  H.observe(2);
  H.observe(9);

  std::ostringstream OS;
  M.writePrometheus(OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("# HELP ops_total op firings"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE ops_total counter"), std::string::npos);
  EXPECT_NE(Text.find("ops_total{kind=\"Inflate1\"} 3"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE sizes histogram"), std::string::npos);
  // Buckets are cumulative on export: le="4" counts the le="1" bucket too.
  EXPECT_NE(Text.find("sizes_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(Text.find("sizes_bucket{le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(Text.find("sizes_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(Text.find("sizes_count 3"), std::string::npos);
}

/// Pins the full rendered text of a histogram export, quantile series
/// included — the exposition-format conformance contract for
/// gator_flowset_size and friends (docs/OBSERVABILITY.md): cumulative
/// _bucket series ending at +Inf, _sum/_count, then derived _p50/_p90/_p99
/// gauges interpolated from the fixed buckets.
TEST(MetricsTest, PrometheusHistogramQuantileSeriesPinned) {
  MetricsRegistry M;
  Histogram &H =
      M.histogram("gator_flowset_size", "flow-set sizes", {1, 4, 16});
  H.observe(1);
  H.observe(2);
  H.observe(3);
  H.observe(9);

  std::ostringstream OS;
  M.writePrometheus(OS);
  EXPECT_EQ(OS.str(),
            "# HELP gator_flowset_size flow-set sizes\n"
            "# TYPE gator_flowset_size histogram\n"
            "gator_flowset_size_bucket{le=\"1\"} 1\n"
            "gator_flowset_size_bucket{le=\"4\"} 3\n"
            "gator_flowset_size_bucket{le=\"16\"} 4\n"
            "gator_flowset_size_bucket{le=\"+Inf\"} 4\n"
            "gator_flowset_size_sum 15\n"
            "gator_flowset_size_count 4\n"
            "# HELP gator_flowset_size_p50 flow-set sizes "
            "(quantile estimate from fixed buckets)\n"
            "# TYPE gator_flowset_size_p50 gauge\n"
            "gator_flowset_size_p50 2.500000\n"
            "# HELP gator_flowset_size_p90 flow-set sizes "
            "(quantile estimate from fixed buckets)\n"
            "# TYPE gator_flowset_size_p90 gauge\n"
            "gator_flowset_size_p90 11.200000\n"
            "# HELP gator_flowset_size_p99 flow-set sizes "
            "(quantile estimate from fixed buckets)\n"
            "# TYPE gator_flowset_size_p99 gauge\n"
            "gator_flowset_size_p99 15.520000\n");

  // An idle histogram exports no quantile series — its document keeps the
  // historical shape.
  MetricsRegistry Idle;
  Idle.histogram("gator_flowset_size", "flow-set sizes", {1, 4, 16});
  std::ostringstream IdleOS;
  Idle.writePrometheus(IdleOS);
  EXPECT_EQ(IdleOS.str().find("_p50"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Provenance
//===----------------------------------------------------------------------===//

const char *ProvLayout = R"(
<LinearLayout android:id="@+id/root">
  <Button android:id="@+id/ok" />
</LinearLayout>
)";

const char *ProvSource = R"(
class A extends android.app.Activity {
  method onCreate() {
    var lid: int;
    var bid: int;
    var b: android.view.View;
    lid := @layout/main;
    this.setContentView(lid);
    bid := @id/ok;
    b := this.findViewById(bid);
  }
}
)";

/// The derivation of `b`'s FindView fact must bottom out in seeds, with
/// the view's minted self-flow among the premises.
void expectFindViewDerivation(corpus::AppBundle &App, AnalysisResult &R) {
  ASSERT_NE(R.Provenance, nullptr);
  EXPECT_GT(R.Provenance->factCount(), 0u);
  EXPECT_GE(R.Provenance->maxDepth(), 2u);

  NodeId B = varNode(App, R, "A", "onCreate", 0, "b");
  ASSERT_EQ(R.Sol->valuesAt(B).size(), 1u);
  NodeId View = *R.Sol->valuesAt(B).begin();

  ProvenanceRecorder::FactId F = R.Provenance->flowFact(B, View);
  ASSERT_NE(F, ProvenanceRecorder::NoFact);
  const ProvenanceRecorder::Derivation &D = R.Provenance->derivation(F);
  EXPECT_EQ(D.Rule, DerivRule::FindView);
  ASSERT_NE(D.Premises[0], ProvenanceRecorder::NoFact);
  const ProvenanceRecorder::Fact &P0 = R.Provenance->fact(D.Premises[0]);
  EXPECT_EQ(P0.Kind, FactKind::Flow);
  EXPECT_EQ(P0.A, View); // the view's self-flow from inflation

  std::ostringstream OS;
  R.Provenance->printDerivation(OS, F, *R.Graph);
  EXPECT_NE(OS.str().find("[FindView]"), std::string::npos);
  EXPECT_NE(OS.str().find("[Seed]"), std::string::npos);
}

TEST(ProvenanceTest, FusedSolverRecordsFindViewDerivation) {
  auto App = makeBundle(ProvSource, {{"main", ProvLayout}});
  AnalysisOptions Options;
  Options.RecordProvenance = true;
  auto R = runAnalysis(*App, Options);
  expectFindViewDerivation(*App, *R);
}

TEST(ProvenanceTest, OffByDefault) {
  auto App = makeBundle(ProvSource, {{"main", ProvLayout}});
  auto R = runAnalysis(*App);
  EXPECT_EQ(R->Provenance, nullptr);
}

TEST(ProvenanceTest, ShallowerDerivationReplacesDeeper) {
  ProvenanceRecorder Prov;
  Prov.recordFlow(1, 2, DerivRule::Seed);
  ProvenanceRecorder::FactId Seed = Prov.flowFact(1, 2);
  Prov.recordFlow(3, 2, DerivRule::FlowEdge, Seed);
  ProvenanceRecorder::FactId Deep = Prov.flowFact(3, 2);
  EXPECT_EQ(Prov.derivation(Deep).Depth, 2u);
  // Re-deriving the same fact as an axiom must shallow it to depth 1.
  Prov.recordFlow(3, 2, DerivRule::Seed);
  EXPECT_EQ(Prov.derivation(Deep).Depth, 1u);
  EXPECT_EQ(Prov.derivation(Deep).Rule, DerivRule::Seed);
  EXPECT_EQ(Prov.factCount(), 2u);
}

//===----------------------------------------------------------------------===//
// aggregateAppStats merge semantics (the peak-counter audit)
//===----------------------------------------------------------------------===//

TEST(AppStatsTest, AggregateSumsVolumesButMaxMergesPeaks) {
  AppStats A, B;
  A.Name = "a";
  A.Propagations = 100;
  A.PeakSetSize = 5;
  A.PeakVarWorklist = 10;
  A.PeakOpWorklist = 2;
  A.GraphNodes = 40;
  A.FiringsByKind[0] = 3;
  A.BuildSeconds = 0.5;
  B.Name = "b";
  B.Propagations = 50;
  B.PeakSetSize = 9;
  B.PeakVarWorklist = 3;
  B.PeakOpWorklist = 7;
  B.GraphNodes = 60;
  B.FiringsByKind[0] = 4;
  B.BuildSeconds = 0.25;

  AppStats Total = aggregateAppStats("TOTAL", {A, B});
  // Volumes add.
  EXPECT_EQ(Total.Propagations, 150u);
  EXPECT_EQ(Total.GraphNodes, 100u);
  EXPECT_EQ(Total.FiringsByKind[0], 7u);
  EXPECT_DOUBLE_EQ(Total.BuildSeconds, 0.75);
  // Peaks are point measurements: the aggregate is the max over apps —
  // summing would report a worklist depth / set size no run ever reached.
  EXPECT_EQ(Total.PeakSetSize, 9u);
  EXPECT_EQ(Total.PeakVarWorklist, 10u);
  EXPECT_EQ(Total.PeakOpWorklist, 7u);
}

TEST(AppStatsTest, AggregateMergesEveryFieldByItsRule) {
  // B doubles every number of A (and has the worse fidelity), so each
  // field's sum (3x) differs from its max (2x) and from either input.
  const AppStats A = test::distinctAppStats(1);
  const AppStats B = test::distinctAppStats(2);
  const AppStats Total = aggregateAppStats("TOTAL", {A, B});
  EXPECT_EQ(Total.Name, "TOTAL");

  AppStats Want;
  forEachAppStatsField(
      [](const AppStatsField &F, auto &W, const auto &X, const auto &Y) {
        auto Merge = [&](auto &To, const auto &From1, const auto &From2) {
          using T = std::remove_reference_t<decltype(To)>;
          if constexpr (std::is_enum_v<T>)
            To = From2; // the worse fidelity
          else
            To = F.Merge == FieldMerge::Sum ? From1 + From2 : From2;
        };
        if constexpr (std::is_array_v<std::remove_reference_t<decltype(W)>>) {
          for (size_t I = 0; I < std::size(W); ++I)
            Merge(W[I], X[I], Y[I]);
        } else {
          Merge(W, X, Y);
        }
      },
      Want, A, B);
  EXPECT_EQ(test::differingFields(Total, Want), std::vector<std::string>());
  EXPECT_EQ(Total.SolutionFidelity, Fidelity::TruncatedBudget);
}

TEST(AppStatsTest, AggregateMaxMergesMemoryFootprints) {
  // ArenaBytes / PeakRssBytes are footprints, not volumes: per-app slabs
  // are dropped between apps, so the batch-wide number is the largest
  // single-app footprint — summing would describe allocation traffic.
  AppStats A, B, C;
  A.ArenaBytes = 64 * 1024;
  A.PeakRssBytes = 10 * 1024 * 1024;
  B.ArenaBytes = 256 * 1024;
  B.PeakRssBytes = 8 * 1024 * 1024;
  C.ArenaBytes = 128 * 1024;
  C.PeakRssBytes = 12 * 1024 * 1024;

  AppStats Total = aggregateAppStats("TOTAL", {A, B, C});
  EXPECT_EQ(Total.ArenaBytes, 256u * 1024);
  EXPECT_EQ(Total.PeakRssBytes, 12u * 1024 * 1024);

  AppStats Rev = aggregateAppStats("TOTAL", {C, B, A});
  EXPECT_EQ(Rev.ArenaBytes, Total.ArenaBytes);
  EXPECT_EQ(Rev.PeakRssBytes, Total.PeakRssBytes);
}

TEST(AppStatsTest, CollectAppStatsHarvestsArenaBytes) {
  auto App = makeBundle(ProvSource, {{"main", ProvLayout}});
  auto R = runAnalysis(*App);
  CachedAnalysis Result;
  Result.Stats = collectAppStats("test", App->Program, *R);
  captureFlowsetHistogram(*R->Sol, Result.FlowHistCounts, Result.FlowHistSum,
                          Result.FlowHistCount);
  const AppStats &Stats = Result.Stats;
  // Every layer owns arena storage by now: IR decls, graph adjacency,
  // and at least one nonempty flow set.
  EXPECT_GT(Stats.ArenaBytes, 0u);
  EXPECT_GE(Stats.ArenaBytes, App->Program.declArena().bytesAllocated());
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(Stats.PeakRssBytes, 0u);
#endif

  MetricsRegistry M;
  recordAppMetrics(M, Result);
  EXPECT_EQ(static_cast<unsigned long long>(
                M.gauge("gator_arena_bytes_per_app", "").value()),
            Stats.ArenaBytes);
}

TEST(AppStatsTest, AggregateIsOrderInvariant) {
  AppStats A, B;
  A.PeakVarWorklist = 10;
  A.Propagations = 1;
  B.PeakVarWorklist = 3;
  B.Propagations = 2;
  AppStats AB = aggregateAppStats("T", {A, B});
  AppStats BA = aggregateAppStats("T", {B, A});
  EXPECT_EQ(AB.PeakVarWorklist, BA.PeakVarWorklist);
  EXPECT_EQ(AB.Propagations, BA.Propagations);
}

TEST(AppStatsTest, RecordAppMetricsPopulatesRegistry) {
  auto App = makeBundle(ProvSource, {{"main", ProvLayout}});
  auto R = runAnalysis(*App);
  CachedAnalysis Result;
  Result.Stats = collectAppStats("test", App->Program, *R);
  captureFlowsetHistogram(*R->Sol, Result.FlowHistCounts, Result.FlowHistSum,
                          Result.FlowHistCount);
  const AppStats &Stats = Result.Stats;
  EXPECT_GT(Stats.GraphNodes, 0u);
  EXPECT_GT(Stats.FlowEdges, 0u);

  MetricsRegistry M;
  recordAppMetrics(M, Result);
  EXPECT_EQ(M.counter("gator_apps_total", "").value(), 1u);
  EXPECT_EQ(M.counter("gator_graph_nodes_total", "").value(),
            Stats.GraphNodes);
  EXPECT_GT(M.histogram("gator_flowset_size", "", {}).count(), 0u);
}

//===----------------------------------------------------------------------===//
// Diagnostics JSON
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, PrintJsonEmitsOneDocument) {
  DiagnosticEngine Diags;
  Diags.error(SourceLocation("a.alite", 3, 7), "unexpected token");
  Diags.warning("no location here");

  std::ostringstream OS;
  Diags.printJson(OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(Json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(Json.find("\"file\":\"a.alite\""), std::string::npos);
  EXPECT_NE(Json.find("\"line\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"column\":7"), std::string::npos);
  EXPECT_NE(Json.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(Json.find("\"message\":\"no location here\""), std::string::npos);
  EXPECT_NE(Json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"warnings\":1"), std::string::npos);
  // The locationless warning must carry no file field.
  size_t Warn = Json.find("\"severity\":\"warning\"");
  EXPECT_EQ(Json.find("\"file\"", Warn), std::string::npos);
}

} // namespace
