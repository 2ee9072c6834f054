//===- FleetReport.h - Corpus health reports from run ledgers ---*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregation side of the run ledger (docs/OBSERVABILITY.md, "Run
/// ledger & reports"): fold a JSONL ledger of per-app wide events into a
/// versioned corpus health report — count/sum/p50/p90/p99/max per numeric
/// field, breakdowns by fidelity, exit code, and unknown-source reason,
/// and top-K outlier apps per dimension (slowest, most propagations,
/// widest fanout) with deterministic tie-breaking — and diff two ledgers
/// of the same run configuration into a per-app regression report
/// (newly-degraded, newly-cache-missed, counter deltas beyond a
/// threshold), keyed by content key.
///
/// Determinism: every aggregate walks events in ledger order, percentiles
/// are nearest-rank over a stable sort, and outlier ties break toward the
/// lower input index — two reads of the same ledger render byte-identical
/// reports. Diffs consider only deterministic fields (wall-clock seconds,
/// peak RSS, and scheduling-engagement counters never appear in deltas),
/// so a run diffed against its own re-run is empty, and refuse ledgers
/// whose options digests differ — counters measured under different
/// analysis semantics are not comparable.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_CORPUS_FLEETREPORT_H
#define GATOR_CORPUS_FLEETREPORT_H

#include "analysis/WideEvent.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace gator {
namespace corpus {

/// How many outlier apps each dimension lists.
inline constexpr size_t ReportTopK = 5;

/// count/sum/percentiles/max of one numeric ledger field.
struct FieldSummary {
  std::string Field;
  bool Volatile = false; ///< absent under --no-times ledgers
  uint64_t Count = 0;    ///< events contributing (== apps)
  double Sum = 0, P50 = 0, P90 = 0, P99 = 0, Max = 0;
};

/// One outlier row: the app and its value on the ranked dimension.
struct OutlierApp {
  uint64_t Index = 0;
  std::string App, ContentKey;
  double Value = 0;
};

/// The versioned report artifact.
struct FleetReport {
  /// Bumped on any change to the report's JSON shape.
  static constexpr uint32_t FormatVersion = 1;

  analysis::LedgerHeader Header; ///< the folded ledger's header
  uint64_t Apps = 0;
  uint64_t Degraded = 0; ///< fidelity != "complete"
  uint64_t GenerationFailures = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheOff = 0;
  /// (key, count) breakdowns, sorted by key for stable rendering.
  std::vector<std::pair<std::string, uint64_t>> ByFidelity;
  std::vector<std::pair<std::string, uint64_t>> ByExitCode;
  std::vector<std::pair<std::string, uint64_t>> UnknownByReason;
  /// Per-field summaries in canonical field order; volatile fields are
  /// skipped when the ledger was written with --no-times.
  std::vector<FieldSummary> Fields;
  /// Ranked dimensions: highest value first, ties toward the lower input
  /// index. "solve_seconds" appears only on with-times ledgers.
  struct Dimension {
    std::string Name;
    std::vector<OutlierApp> Top;
  };
  std::vector<Dimension> Outliers;
};

/// Folds a parsed ledger into a report.
FleetReport buildFleetReport(const analysis::Ledger &L);

/// Renders the report. JSON carries report_format/ledger header stamps;
/// text is the human summary. Both deterministic for a given ledger.
void writeFleetReportJson(std::ostream &OS, const FleetReport &R);
void writeFleetReportText(std::ostream &OS, const FleetReport &R);

/// One changed counter of one app.
struct FieldDelta {
  std::string Field;
  double Old = 0, New = 0;
};

/// Per-app regression record; emitted only for apps with at least one
/// flagged change.
struct AppDelta {
  std::string ContentKey, App;
  bool NewlyDegraded = false;    ///< complete -> anything worse
  bool NewlyCacheMissed = false; ///< hit -> miss
  std::string OldFidelity, NewFidelity;
  std::vector<FieldDelta> Counters; ///< deterministic fields past threshold
};

/// The diff of two ledgers. When \p Incomparable is nonempty, the inputs
/// could not be compared (format/options skew) and nothing else is
/// populated.
struct LedgerDiff {
  std::string Incomparable;
  double ThresholdPct = 0;
  /// Apps present in exactly one ledger, as "app (content_key)" strings
  /// in their ledger's input order.
  std::vector<std::string> OnlyInOld, OnlyInNew;
  std::vector<AppDelta> Apps; ///< in the new ledger's input order
  bool empty() const {
    return Incomparable.empty() && OnlyInOld.empty() && OnlyInNew.empty() &&
           Apps.empty();
  }
};

/// Diffs \p Old against \p New, keyed by content key (first occurrence
/// wins on duplicates). A deterministic counter flags when
/// |new - old| > ThresholdPct/100 * max(|old|, 1); the default 0 flags
/// any change.
LedgerDiff diffLedgers(const analysis::Ledger &Old,
                       const analysis::Ledger &New,
                       double ThresholdPct = 0);

void writeLedgerDiffJson(std::ostream &OS, const LedgerDiff &D);
void writeLedgerDiffText(std::ostream &OS, const LedgerDiff &D);

} // namespace corpus
} // namespace gator

#endif // GATOR_CORPUS_FLEETREPORT_H
