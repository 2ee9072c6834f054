//===- SolutionCache.h - Content-addressed analysis cache -------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed caching of whole-app analysis outcomes
/// (docs/INCREMENTAL.md). The key is a 128-bit content hash over the
/// app's inputs — every source unit, layout, and manifest file, plus the
/// canonicalized analysis options — so a warm hit in batch mode skips
/// parse, build, and solve entirely while merging into byte-identical
/// output at every job count.
///
/// One tier, on disk (`--cache-dir`): one file per key named `<hex>.gsc`,
/// written atomically (tmp + rename) in a versioned, checksummed binary
/// format ("GSC1"). Corrupt, truncated, or version-skewed entries are
/// *misses, never errors* — the caller falls back to a full solve and the
/// poisoned entry is counted.
///
/// An entry is one app's CachedAnalysis (AppStats.h), the same result a
/// cold run produces: the exit code, the captured stdout/stderr text, the
/// AppStats record, the Table 2 precision row, and the raw
/// gator_flowset_size histogram buckets, from which recordAppMetrics
/// folds a hit into the metrics export exactly as the cold run's.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_SOLUTIONCACHE_H
#define GATOR_ANALYSIS_SOLUTIONCACHE_H

#include "analysis/AppStats.h"
#include "analysis/Options.h"
#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gator {
namespace analysis {

/// Disk-backed content-addressed cache. Thread-safe: batch tasks share
/// one instance; every entry is its own file, and counters are atomics so
/// recordMetrics can run after a parallel sweep without synchronization.
class SolutionCache {
public:
  /// On-disk format version; bumped on any layout change so stale
  /// artifacts from older binaries read as version-skewed (a miss).
  /// Version 2: the AppStats record is written in the order of
  /// GATOR_APP_STATS_FIELDS, every integer as a u64.
  static constexpr uint32_t FormatVersion = 2;

  enum class Outcome {
    Hit,     ///< found on disk, checksum verified
    Miss,    ///< no entry under this key
    Corrupt, ///< an entry existed but failed validation; treat as a miss
  };

  /// \p DiskDir names the cache directory (non-empty) and is created if
  /// needed; if it cannot be created or written, every lookup misses and
  /// every store is dropped.
  explicit SolutionCache(std::string DiskDir);

  /// \p Trace, when non-null, records a `cache.lookup` span annotated
  /// with hit/corrupt flags (docs/OBSERVABILITY.md span taxonomy); the
  /// sink must be the caller's thread-confined sink.
  Outcome lookup(const support::Hash128 &Key, CachedAnalysis &Out,
                 support::TraceSink *Trace = nullptr);
  /// \p Trace, when non-null, records a `cache.store` span annotated with
  /// the serialized entry size.
  void store(const support::Hash128 &Key, const CachedAnalysis &Entry,
             support::TraceSink *Trace = nullptr);

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t corruptEntries() const {
    return Corrupt.load(std::memory_order_relaxed);
  }

  /// Emits gator_cache_hits_total / gator_cache_misses_total /
  /// gator_cache_corrupt_total counters.
  void recordMetrics(support::MetricsRegistry &Metrics) const;

  /// The GSC1 artifact codec, exposed for tests: little-endian payload
  /// behind a magic + version + size + FNV-1a checksum header.
  /// deserialize returns false (leaving \p Out partially written but the
  /// caller discarding it) on any truncation, overrun, magic or version
  /// mismatch, or checksum failure.
  static void serialize(const CachedAnalysis &Entry, std::string &Bytes);
  static bool deserialize(std::string_view Bytes, CachedAnalysis &Out);

private:
  std::string Dir;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Corrupt{0};
};

/// The content key of an app directory: every analysis input that
/// support::loadAppDir finds (*.alite, *.dexlite, layout *.xml and
/// AndroidManifest.xml), as (relative path, content) pairs in the
/// loader's parse order. Relative paths matter (layout names come from
/// file stems); the directory's own location does not, so moving an app
/// tree yields the same key. File bodies go through
/// ContentHasher::content (XXH64 lanes); the tag is "gator-app-dir" v2.
support::Hash128 hashAppDir(const std::string &Dir);

/// The same key over inputs already loaded, so a run that parses the
/// bytes keys exactly those bytes. A file whose read failed is hashed as
/// such, never as empty content; callers must still not cache a load that
/// is not AppInputs::complete().
support::Hash128 hashAppDir(const support::AppInputs &Inputs);

/// Canonical hash of the semantically meaningful options: every knob that
/// changes the solution, the output text, or the deterministic budget
/// limits. Deliberately excludes Trace and the wall-clock budget fields —
/// those change scheduling, not results.
support::Hash128 hashAnalysisOptions(const AnalysisOptions &Options);

/// Combines an input-content hash (hashAppDir) with an options hash into
/// one cache key.
support::Hash128 combineCacheKey(const support::Hash128 &Inputs,
                                 const support::Hash128 &OptionsHash);

/// The cache key for analyzing the app at \p Dir under \p Options.
support::Hash128 cacheKeyFor(const std::string &Dir,
                             const AnalysisOptions &Options);

/// False when the run's outcome can depend on timing — a wall-clock
/// deadline can truncate the solve at an arbitrary point, and a truncated
/// solution must never be served as the canonical result for its inputs.
/// True exactly when the run has no shared deadline and
/// support::makeSharedDeadline(MaxWallSeconds) gives none.
bool cacheEligible(const AnalysisOptions &Options);

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_SOLUTIONCACHE_H
