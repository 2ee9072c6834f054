//===- main.cpp - The gator end-to-end benchmark binary -------------------===//
//
//   gatorbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --cli <gator_cli> --exporter <export_corpus> --work-dir <dir>
//
// Runs one workload (Workloads.h) for the given time and prints, as the
// last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of a separate traced run (Layers.h). Each failed check is
// named on a "failed:" line before the JSON. gatorbench/run.py builds
// everything and supplies the three paths.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Process.h"
#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

using namespace gatorbench;
namespace fs = std::filesystem;

namespace {

struct Metric {
  double Value;
  const char *Unit;
};
using MetricMap = std::vector<std::pair<std::string, Metric>>;

/// Linear-interpolated quantile of \p V (0 when empty).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The machine's speed drifts by up to a third, in spells from seconds to
/// many minutes, so a run reports its timing metrics from its fastest
/// pass: the least time, or the highest rate, over passes. Slowdowns only
/// add time, so the best pass is what repeats from run to run.
double bestPass(const std::vector<double> &V, bool HigherIsBetter) {
  if (V.empty())
    return 0;
  return HigherIsBetter ? *std::max_element(V.begin(), V.end())
                        : *std::min_element(V.begin(), V.end());
}

MetricMap endToEnd(const RunResult &R) {
  std::vector<double> P50, P90, OpsPerS, MbPerS;
  size_t First = 0;
  uint64_t Bytes0 = 0;
  for (const RunResult::PassMark &P : R.Passes) {
    if (P.Ops == First)
      continue;
    const std::vector<double> Ms(R.OpMs.begin() + First,
                                 R.OpMs.begin() + P.Ops);
    const double Seconds = std::accumulate(Ms.begin(), Ms.end(), 0.0) / 1000;
    P50.push_back(quantile(Ms, 0.5));
    P90.push_back(quantile(Ms, 0.9));
    OpsPerS.push_back(ratio(static_cast<double>(Ms.size()), Seconds));
    MbPerS.push_back(ratio(static_cast<double>(P.Bytes - Bytes0) / 1e6,
                           Seconds));
    First = P.Ops;
    Bytes0 = P.Bytes;
  }
  MetricMap M;
  M.push_back({"setup_s", {bestPass(R.SetupSeconds, false), "s"}});
  M.push_back({"op_ms_p50", {bestPass(P50, false), "ms"}});
  M.push_back({"op_ms_p90", {bestPass(P90, false), "ms"}});
  M.push_back({"ops_per_s", {bestPass(OpsPerS, true), "1/s"}});
  M.push_back({"input_mb_per_s", {bestPass(MbPerS, true), "MB/s"}});
  M.push_back({"peak_rss_mb", {R.PeakRssMb, "MB"}});
  M.push_back({"precision_receivers",
               {ratio(R.ReceiversSum, static_cast<double>(R.ReceiversCount)),
                "views"}});
  M.push_back({"ok_ratio",
               {1.0 - ratio(static_cast<double>(R.FailedOps),
                            static_cast<double>(R.Attempted)),
                "ratio"}});
  return M;
}

MetricMap perLayer(const RunResult &R, const Tracer &T) {
  const double Ops = static_cast<double>(T.ops());
  auto PerOp = [&](double V) { return ratio(V, Ops); };
  auto Ms = [&](Layer L) {
    return PerOp(static_cast<double>(T.totals(L).SelfNs) / 1e6);
  };
  auto C = [&](Counter K) { return static_cast<double>(T.counter(K)); };

  MetricMap M;
  for (size_t I = 1; I < NumLayers; ++I) {
    const Layer L = static_cast<Layer>(I);
    const std::string Name = layerName(L);
    M.push_back({Name + ".ms", {Ms(L), "ms"}});
    M.push_back({Name + ".allocs",
                 {PerOp(static_cast<double>(T.totals(L).Allocs)), "count"}});
    M.push_back({Name + ".alloc_bytes",
                 {PerOp(static_cast<double>(T.totals(L).AllocBytes)), "B"}});
  }
  M.push_back({"unattributed.ms", {Ms(Layer::Op), "ms"}});
  M.push_back({"unattributed.share",
               {ratio(static_cast<double>(T.totals(Layer::Op).SelfNs),
                      static_cast<double>(T.opNs())),
                "ratio"}});
  M.push_back({"read.bytes", {PerOp(C(Counter::ReadBytes)), "B"}});
  M.push_back({"parser.lex.tokens", {PerOp(C(Counter::Tokens)), "count"}});
  M.push_back({"parser.lex.ns_per_token",
               {ratio(static_cast<double>(T.totals(Layer::Lex).SelfNs),
                      C(Counter::Tokens)),
                "ns"}});
  M.push_back({"graph.nodes", {PerOp(C(Counter::GraphNodes)), "count"}});
  M.push_back({"graph.flow_edges", {PerOp(C(Counter::FlowEdges)), "count"}});
  M.push_back({"analysis.graph_build.ns_per_node",
               {ratio(static_cast<double>(T.totals(Layer::GraphBuild).SelfNs),
                      C(Counter::GraphNodes)),
                "ns"}});
  M.push_back(
      {"solve.propagations", {PerOp(C(Counter::Propagations)), "count"}});
  M.push_back({"solve.op_fires", {PerOp(C(Counter::OpFires)), "count"}});
  M.push_back({"analysis.solve.ns_per_propagation",
               {ratio(static_cast<double>(T.totals(Layer::Solve).SelfNs),
                      C(Counter::Propagations)),
                "ns"}});
  M.push_back({"incremental.facts_retracted",
               {PerOp(C(Counter::FactsRetracted)), "count"}});
  M.push_back({"incremental.touched_nodes",
               {PerOp(C(Counter::TouchedNodes)), "count"}});
  M.push_back({"incremental.propagation_ratio",
               {ratio(C(Counter::EditPropagations),
                      C(Counter::ScratchPropagations)),
                "ratio"}});
  M.push_back({"incremental.known_divergences",
               {C(Counter::KnownDivergences), "count"}});
  M.push_back({"cache.hit_ratio",
               {ratio(C(Counter::CacheHits), C(Counter::CacheLookups)),
                "ratio"}});
  M.push_back({"cache.store_bytes",
               {ratio(C(Counter::CacheStoreBytes), C(Counter::CacheStores)),
                "B"}});

  // Process numbers: the children's on the on-disk workloads, this
  // process's own otherwise.
  const bool Children = R.ChildRuns > 0;
  const double Runs = static_cast<double>(R.ChildRuns);
  M.push_back({"proc.startup_ms", {R.StartupMs, "ms"}});
  M.push_back({"proc.minor_faults",
               {Children ? ratio(static_cast<double>(R.ChildMinorFaults), Runs)
                         : PerOp(C(Counter::OpMinorFaults)),
                "count"}});
  M.push_back({"proc.peak_rss_mb", {R.PeakRssMb, "MB"}});
  M.push_back({"proc.gap_ms",
               {Children ? ratio(R.ChildWallMs, Runs) -
                               ratio(static_cast<double>(T.opNs()) / 1e6, Ops)
                         : 0.0,
                "ms"}});
  return M;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

int usage() {
  std::cerr << "usage: gatorbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --cli <path> --exporter <path> --work-dir <dir>\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  // First, while this process is still small (Process.h).
  Launcher ChildLauncher;
  if (!ChildLauncher.ok()) {
    std::cerr << "error: cannot start the child launcher\n";
    return 2;
  }

  RunConfig Cfg;
  bool Trace = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    const std::string Arg = argv[I], Val = argv[I + 1];
    try {
      if (Arg == "--workload")
        Cfg.Workload = Val;
      else if (Arg == "--seed")
        Cfg.Seed = std::stoull(Val);
      else if (Arg == "--seconds")
        Cfg.Seconds = std::stod(Val);
      else if (Arg == "--trace")
        Trace = Val == "1";
      else if (Arg == "--cli")
        Cfg.Cli = Val;
      else if (Arg == "--exporter")
        Cfg.Exporter = Val;
      else if (Arg == "--work-dir")
        Cfg.WorkDir = Val;
      else
        return usage();
    } catch (const std::exception &) {
      return usage();
    }
  }
  if (argc % 2 == 0 || Cfg.Workload.empty() || Cfg.Cli.empty() ||
      Cfg.Exporter.empty() || Cfg.WorkDir.empty() || Cfg.Seconds <= 0)
    return usage();
  std::error_code EC;
  fs::remove_all(Cfg.WorkDir, EC);
  fs::create_directories(Cfg.WorkDir, EC);
  if (EC) {
    std::cerr << "error: cannot create " << Cfg.WorkDir << "\n";
    return 2;
  }

  RunResult R;
  std::unique_ptr<Tracer> T;
  if (Trace)
    T = std::make_unique<Tracer>();
  if (!runWorkload(Cfg, T.get(), R)) {
    std::cerr << "error: unknown workload '" << Cfg.Workload << "'\n";
    return 2;
  }
  const MetricMap Metrics = T ? perLayer(R, *T) : endToEnd(R);
  if (T) {
    std::ofstream OS(fs::path(Cfg.WorkDir) /
                     ("trace-" + Cfg.Workload + "-" +
                      std::to_string(Cfg.Seed) + ".json"));
    T->sink().writeJson(OS);
  }

  for (const std::string &N : R.Notes)
    std::cout << "note: " << N << "\n";
  const size_t Shown = std::min<size_t>(R.Failures.size(), 20);
  for (size_t I = 0; I < Shown; ++I)
    std::cout << "failed: " << R.Failures[I] << "\n";
  if (R.Failures.size() > Shown)
    std::cout << "failed: (" << R.Failures.size() - Shown << " more)\n";

  std::ostringstream J;
  const bool Correct = !R.SetupFailed && R.FailedOps == 0 && R.Attempted > 0;
  J << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << std::max<uint64_t>(R.Attempted, 1)
    << ", \"failed\": " << R.FailedOps << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      J << ", ";
    J << jsonString(Metrics[I].first)
      << ": {\"value\": " << jsonNumber(Metrics[I].second.Value)
      << ", \"unit\": " << jsonString(Metrics[I].second.Unit) << "}";
  }
  J << "}}";
  std::cout << J.str() << std::endl;
  return 0;
}
