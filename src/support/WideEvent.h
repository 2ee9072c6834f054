//===- WideEvent.h - Per-app run-ledger records -----------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run ledger (docs/OBSERVABILITY.md, "Run ledger & reports"): every
/// analyzed app emits exactly one *wide event* — a single structured
/// record carrying identity (app name, 128-bit content key), outcome
/// (exit code, fidelity, cache hit/miss), and the full counter surface of
/// the run (graph shape, solver work, unknown-source breakdown, arena
/// bytes, SCC/wave engagement, phase seconds). Records append in input
/// order to a JSONL file — one header line, then one line per app — via
/// `--ledger-out`.
///
/// Like TraceSink, the ledger is opt-in by existence: drivers hold a
/// `WideEvent *` that is null when the ledger is off, so the disabled
/// cost is a branch. Per-task events merge through the same ordered
/// input-order walk as batch stdout/metrics, which makes the ledger
/// byte-identical at every `-j`.
///
/// Determinism contract: fields are classified *deterministic* (counters
/// reproducible across job counts and machines) or *volatile* (wall-clock
/// seconds and peak RSS). Volatile fields are suppressed when the ledger is
/// written with IncludeVolatile = false — the `--no-times` contract,
/// mirroring MetricUnit::Seconds/BytesVolatile in the metrics export —
/// and never participate in report diffs.
///
/// This layer knows nothing of analysis types: fields are plain strings
/// and integers, filled by analysis::fillWideEvent (AppStats.h). The
/// aggregation/diff side lives in corpus/FleetReport.h.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_WIDEEVENT_H
#define GATOR_SUPPORT_WIDEEVENT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace gator {
namespace support {

class JsonValue;

/// One per-app ledger record. Plain data; the analysis layer fills it,
/// the corpus layer aggregates it.
struct WideEvent {
  // --- identity -----------------------------------------------------
  uint64_t Index = 0;     ///< position in the run's input order
  std::string App;        ///< app/spec name or directory stem
  std::string ContentKey; ///< 32-hex content-only key (hashAppDir);
                          ///< options live in the header

  // --- outcome ------------------------------------------------------
  int ExitCode = 0;            ///< per-app CLI contract: 0/1/2
  std::string Fidelity = "complete"; ///< fidelityName() slug
  std::string Cache = "off";   ///< "hit" | "miss" | "off"
  bool GenerationFailed = false;

  // --- deterministic counters --------------------------------------
  uint64_t Classes = 0, Methods = 0;
  uint64_t LayoutIds = 0, ViewIds = 0;
  uint64_t InflViews = 0, AllocViews = 0, Listeners = 0;
  uint64_t GraphNodes = 0, FlowEdges = 0, ParentChildEdges = 0;
  uint64_t Propagations = 0, OpFirings = 0, ValuesPushed = 0;
  uint64_t DedupHits = 0, PeakSetSize = 0;
  uint64_t UnresolvedOps = 0, WorkCharged = 0;
  uint64_t UnknownViews = 0, UnknownIds = 0;
  /// (reason slug, count) pairs, nonzero reasons only, in slug-registry
  /// order. unknownTotal() is the headline number.
  std::vector<std::pair<std::string, uint64_t>> UnknownByReason;
  uint64_t ArenaBytes = 0;

  // --- volatile fields (suppressed under --no-times) ---------------
  double BuildSeconds = 0.0, SolveSeconds = 0.0;
  uint64_t PeakRssBytes = 0;

  uint64_t unknownTotal() const {
    uint64_t T = 0;
    for (const auto &R : UnknownByReason)
      T += R.second;
    return T;
  }

  /// Writes this record as one JSONL line (no trailing newline); fixed
  /// key order, doubles at fixed %.6f precision, volatile fields only
  /// when \p IncludeVolatile.
  void writeJsonl(std::ostream &OS, bool IncludeVolatile) const;

  /// Reads a record back from a parsed JSONL line. Tolerant: absent
  /// volatile fields stay zero (the --no-times ledger shape).
  static bool fromJson(const JsonValue &V, WideEvent &Out,
                       std::string &Error);
};

/// The ledger's first line: format stamp plus everything a consumer needs
/// to decide whether two ledgers are comparable.
struct LedgerHeader {
  /// Bumped on any schema change (key set, field semantics) so report
  /// tooling refuses skewed inputs instead of mis-aggregating them.
  /// Format 2: `content_key` of an on-disk app is the "gator-app-dir" v2
  /// key (docs/OBSERVABILITY.md, "Ledger format"); the record schema is
  /// that of format 1.
  static constexpr uint32_t FormatVersion = 2;
  /// The oldest format this build still reads. `report` aggregates any
  /// readable format; `report --diff` refuses two ledgers whose formats
  /// differ, since their content keys do not match.
  static constexpr uint32_t MinReadableFormat = 1;

  uint32_t Format = FormatVersion;
  std::string Tool = "gator-cpp";
  /// hashAnalysisOptions() of the run, 32 hex digits. Diffs refuse
  /// ledgers whose digests differ — the runs analyzed under different
  /// semantics and their counters are not comparable.
  std::string OptionsDigest;
  /// True when the run suppressed volatile fields (--no-times).
  bool NoTimes = false;
  uint64_t Apps = 0;

  void writeJsonl(std::ostream &OS) const;
  static bool fromJson(const JsonValue &V, LedgerHeader &Out,
                       std::string &Error);
};

/// A fully parsed ledger document.
struct Ledger {
  LedgerHeader Header;
  std::vector<WideEvent> Events;
};

/// Writes the whole ledger: header line, then one line per event in the
/// given order. Volatile fields follow Header.NoTimes.
void writeLedger(std::ostream &OS, const LedgerHeader &Header,
                 const std::vector<WideEvent> &Events);

/// Parses a JSONL ledger document. Fails (false + \p Error) on a missing
/// or version-skewed header, malformed JSON, or a record line that is not
/// an object; blank lines are skipped.
bool readLedger(std::string_view Text, Ledger &Out, std::string &Error);

/// Reads \p Path and parses it. IO errors report through \p Error too.
bool readLedgerFile(const std::string &Path, Ledger &Out,
                    std::string &Error);

/// One numeric ledger field, for generic aggregation: name (the JSONL
/// key), accessor, and whether the field is volatile (absent under
/// --no-times, excluded from diffs).
struct WideEventField {
  const char *Name;
  double (*Get)(const WideEvent &);
  bool Volatile;
};

/// The full numeric field table in canonical (report) order.
const std::vector<WideEventField> &wideEventNumericFields();

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_WIDEEVENT_H
