//===- Metrics.h - Typed metrics registry -----------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small typed metrics registry (docs/OBSERVABILITY.md): counters
/// (monotone sums), gauges (point samples, kept as a maximum or a sum),
/// and histograms with fixed bucket bounds. A run populates one registry:
/// the batch driver folds each app's result into it in input order
/// (analysis::recordAppMetrics), so the exported document is
/// byte-identical for every job count.
///
/// Export formats:
///  - writeJson(): one JSON object per instrument, sorted by (name, label)
///    for deterministic output;
///  - writePrometheus(): the Prometheus text exposition format
///    (# HELP / # TYPE lines, histogram _bucket/_sum/_count series).
///
/// Instruments carry a unit; Seconds-unit instruments hold wall-clock
/// measurements and are skipped entirely when the caller exports with
/// IncludeTimes = false (the CLI's --no-times contract: golden-file tests
/// compare telemetry byte-for-byte).
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_METRICS_H
#define GATOR_SUPPORT_METRICS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gator {
namespace support {

enum class MetricUnit : uint8_t {
  None,    ///< dimensionless count
  Seconds, ///< wall-clock time; suppressed by IncludeTimes = false
  Bytes,   ///< deterministic memory accounting (arena bytes)
  /// Machine-dependent byte sample (peak RSS): varies with thread count
  /// and allocator behavior, so it is suppressed by IncludeTimes = false
  /// together with wall-clock — the determinism contract for --no-times
  /// exports (docs/OBSERVABILITY.md) covers only reproducible values.
  BytesVolatile,
};

/// The process's peak resident set size in bytes (getrusage ru_maxrss),
/// or 0 where unavailable. A high-water mark, monotone over the process
/// lifetime — callers that want a per-phase peak sample it before/after.
uint64_t currentPeakRssBytes();

/// Monotonically increasing sum. Merges by addition.
class Counter {
public:
  void add(uint64_t Delta) { Val += Delta; }
  void inc() { ++Val; }
  uint64_t value() const { return Val; }

private:
  uint64_t Val = 0;
};

/// A point sample. setMax keeps the largest value recorded (peaks like
/// PeakSetSize); add accumulates (real-valued totals like phase seconds);
/// set keeps the most recent sample.
class Gauge {
public:
  void set(double V) { Val = V; }
  void setMax(double V) {
    if (V > Val)
      Val = V;
  }
  void add(double V) { Val += V; }
  double value() const { return Val; }

private:
  double Val = 0;
};

/// Fixed-bound histogram: Counts[i] counts observations <= Bounds[i], the
/// final slot counts the overflow (the Prometheus +Inf bucket). Bucket
/// counts are NOT cumulative in memory; exporters cumulate on the fly.
class Histogram {
public:
  explicit Histogram(std::vector<uint64_t> UpperBounds)
      : Bounds(std::move(UpperBounds)), Counts(Bounds.size() + 1, 0) {}
  Histogram() : Histogram(std::vector<uint64_t>{}) {}

  void observe(uint64_t V) {
    size_t I = 0;
    while (I < Bounds.size() && V > Bounds[I])
      ++I;
    ++Counts[I];
    Sum += V;
    ++Count;
  }

  const std::vector<uint64_t> &bounds() const { return Bounds; }
  const std::vector<uint64_t> &bucketCounts() const { return Counts; }
  uint64_t sum() const { return Sum; }
  uint64_t count() const { return Count; }

  /// Quantile estimate from the fixed buckets, Prometheus
  /// histogram_quantile style: find the bucket where the cumulative count
  /// crosses Q * count, then interpolate linearly inside it. The +Inf
  /// bucket clamps to the highest finite bound (the honest answer a
  /// bounded histogram can give). Deterministic: derived purely from the
  /// merged bucket counts, so a parallel batch's quantiles equal the
  /// serial run's. Returns 0 on an empty histogram.
  double quantile(double Q) const;

  /// Folds raw bucket data captured elsewhere (one app's result, cold or
  /// read back from the cache; docs/INCREMENTAL.md) into this histogram,
  /// with no Solution to observe. Returns false and leaves
  /// the histogram untouched when \p RawCounts does not match this
  /// histogram's bucket count (including the overflow slot).
  bool addRaw(const std::vector<uint64_t> &RawCounts, uint64_t RawSum,
              uint64_t RawCount);

private:
  std::vector<uint64_t> Bounds;
  std::vector<uint64_t> Counts;
  uint64_t Sum = 0;
  uint64_t Count = 0;
};

/// The registry. Instruments are identified by (name, one optional
/// label); repeated registration returns the existing instrument, which
/// is what lets per-app recording helpers run once per app against a
/// shared registry.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name, const std::string &Help,
                   MetricUnit Unit = MetricUnit::None,
                   const std::string &LabelKey = std::string(),
                   const std::string &LabelValue = std::string());

  Gauge &gauge(const std::string &Name, const std::string &Help,
               MetricUnit Unit = MetricUnit::None);

  Histogram &histogram(const std::string &Name, const std::string &Help,
                       const std::vector<uint64_t> &UpperBounds);

  /// JSON document: {"metrics":[{name, type, help, value|buckets...}]}.
  /// Instruments sorted by (name, label). Seconds-unit instruments are
  /// omitted when \p IncludeTimes is false.
  void writeJson(std::ostream &OS, bool IncludeTimes = true) const;

  /// Prometheus text exposition format (version 0.0.4).
  void writePrometheus(std::ostream &OS, bool IncludeTimes = true) const;

  size_t instrumentCount() const { return Instruments.size(); }

private:
  enum class Kind : uint8_t { Counter, Gauge, Histogram };

  struct Instrument {
    std::string Name;
    std::string Help;
    std::string LabelKey, LabelValue;
    Kind K = Kind::Counter;
    MetricUnit Unit = MetricUnit::None;
    Counter C;
    Gauge G;
    Histogram H;
  };

  Instrument &intern(const std::string &Name, const std::string &Help,
                     Kind K, MetricUnit Unit, const std::string &LabelKey,
                     const std::string &LabelValue);

  /// Indices into Instruments sorted by (Name, LabelValue).
  std::vector<size_t> sortedIndices(bool IncludeTimes) const;

  std::vector<Instrument> Instruments;
  /// (name + '\0' + labelValue) -> index into Instruments.
  std::map<std::string, size_t> Index;
};

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_METRICS_H
