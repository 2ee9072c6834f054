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
/// record carrying identity (index, app name, 128-bit content key),
/// outcome (exit code, fidelity, cache hit/miss) and the app's AppStats
/// record. Records append in input order to a JSONL file — one header
/// line, then one line per app — via `--ledger-out`.
///
/// The record's counters are not copied: the writer and reader walk
/// GATOR_APP_STATS_FIELDS (AppStats.h) and handle the fields it marks
/// for the ledger, under their keys, and wideEventNumericFields() is the
/// list's Reported fields. The CLI builds the events from its per-app
/// results in input order, the same ordered fold as batch stdout and
/// metrics, which makes the ledger byte-identical at every `-j`.
///
/// Determinism contract: fields are classified *stable* (counters
/// reproducible across job counts and machines) or *volatile* (wall-clock
/// seconds and peak RSS). Volatile fields are suppressed when the ledger is
/// written with IncludeVolatile = false — the `--no-times` contract,
/// mirroring MetricUnit::Seconds/BytesVolatile in the metrics export —
/// and never participate in report diffs. The aggregation/diff side lives
/// in corpus/FleetReport.h.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_WIDEEVENT_H
#define GATOR_ANALYSIS_WIDEEVENT_H

#include "analysis/AppStats.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gator {
namespace support {
class JsonValue;
} // namespace support

namespace analysis {

/// One per-app ledger record. Plain data; the CLI fills it, the corpus
/// layer aggregates it.
struct WideEvent {
  // --- identity (the app name is Stats.Name) ------------------------
  uint64_t Index = 0;     ///< position in the run's input order
  std::string ContentKey; ///< 32-hex content-only key (hashAppDir);
                          ///< options live in the header

  // --- outcome (the fidelity is Stats.SolutionFidelity) --------------
  int ExitCode = 0;          ///< per-app CLI contract: 0/1/2
  std::string Cache = "off"; ///< "hit" | "miss" | "off"
  bool GenerationFailed = false;

  /// The app's record; zero when the analysis did not complete.
  AppStats Stats;

  /// Writes this record as one JSONL line (no trailing newline); fixed
  /// key order, doubles at fixed %.6f precision, volatile fields only
  /// when \p IncludeVolatile.
  void writeJsonl(std::ostream &OS, bool IncludeVolatile) const;

  /// Reads a record back from a parsed JSONL line. Tolerant: absent
  /// fields stay zero (the --no-times ledger shape), and keys this build
  /// does not write (retired counters, unknown reason slugs) are ignored.
  static bool fromJson(const support::JsonValue &V, WideEvent &Out,
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
  static bool fromJson(const support::JsonValue &V, LedgerHeader &Out,
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

/// The fields GATOR_APP_STATS_FIELDS marks Reported, in list order; an
/// unknown-reason breakdown appears as its total, "unknown_total".
const std::vector<WideEventField> &wideEventNumericFields();

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_WIDEEVENT_H
