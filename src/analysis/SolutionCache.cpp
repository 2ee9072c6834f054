//===- SolutionCache.cpp - Content-addressed analysis cache ---------------===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/SolutionCache.h"

#include "analysis/Solution.h"
#include "support/FileIO.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <type_traits>

using namespace gator;
using namespace gator::analysis;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// GSC1 codec
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[4] = {'G', 'S', 'C', '1'};

void putU8(std::string &B, uint8_t V) { B.push_back(static_cast<char>(V)); }

void putU32(std::string &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putF64(std::string &B, double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "IEEE double expected");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(B, Bits);
}

void putStr(std::string &B, const std::string &S) {
  putU64(B, S.size());
  B.append(S);
}

void putU64Span(std::string &B, const unsigned long *V, size_t N) {
  putU64(B, N);
  for (size_t I = 0; I < N; ++I)
    putU64(B, V[I]);
}

void putU64Vec(std::string &B, const std::vector<uint64_t> &V) {
  putU64(B, V.size());
  for (uint64_t X : V)
    putU64(B, X);
}

/// Bounds-checked little-endian reader; any overrun latches Fail and
/// makes every subsequent read return zero.
struct Cursor {
  const unsigned char *P;
  const unsigned char *End;
  bool Fail = false;

  explicit Cursor(std::string_view Bytes)
      : P(reinterpret_cast<const unsigned char *>(Bytes.data())),
        End(P + Bytes.size()) {}

  bool need(size_t N) {
    if (Fail || static_cast<size_t>(End - P) < N) {
      Fail = true;
      return false;
    }
    return true;
  }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return *P++;
  }

  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (8 * I);
    return V;
  }

  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (8 * I);
    return V;
  }

  double f64() {
    uint64_t Bits = u64();
    double V = 0;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  bool str(std::string &Out) {
    uint64_t N = u64();
    if (!need(N))
      return false;
    Out.assign(reinterpret_cast<const char *>(P), N);
    P += N;
    return true;
  }

  /// Reads a span whose length must equal \p Expect (fixed-size enum
  /// arrays: a length skew means a different enum layout, i.e. skew the
  /// version bump missed — reject).
  bool span(unsigned long *Out, size_t Expect) {
    uint64_t N = u64();
    if (N != Expect || !need(N * 8))
      return Fail = true, false;
    for (size_t I = 0; I < Expect; ++I)
      Out[I] = static_cast<unsigned long>(u64());
    return !Fail;
  }

  bool vec(std::vector<uint64_t> &Out) {
    uint64_t N = u64();
    if (!need(N * 8))
      return false;
    Out.resize(N);
    for (uint64_t I = 0; I < N; ++I)
      Out[I] = u64();
    return !Fail;
  }
};

/// Writes one field of the record: integers as u64, doubles as their bits,
/// the fidelity as a byte, arrays as a length-prefixed span.
template <typename T> void putField(std::string &B, const T &V) {
  if constexpr (std::is_array_v<T>)
    putU64Span(B, V, std::extent_v<T>);
  else if constexpr (std::is_same_v<T, double>)
    putF64(B, V);
  else if constexpr (std::is_same_v<T, Fidelity>)
    putU8(B, static_cast<uint8_t>(V));
  else
    putU64(B, V);
}

/// Reads one field written by putField; false on a value the field's type
/// cannot hold.
template <typename T> bool getField(Cursor &C, T &V) {
  if constexpr (std::is_array_v<T>) {
    return C.span(V, std::extent_v<T>);
  } else if constexpr (std::is_same_v<T, double>) {
    V = C.f64();
  } else if constexpr (std::is_same_v<T, Fidelity>) {
    uint8_t Fid = C.u8();
    if (Fid > static_cast<uint8_t>(Fidelity::TruncatedBudget))
      return false;
    V = static_cast<Fidelity>(Fid);
  } else {
    uint64_t X = C.u64();
    if (X > std::numeric_limits<T>::max())
      return false;
    V = static_cast<T>(X);
  }
  return !C.Fail;
}

} // namespace

void SolutionCache::serialize(const CachedAnalysis &Entry, std::string &Bytes) {
  std::string Payload;
  putU32(Payload, static_cast<uint32_t>(Entry.ExitCode));
  putStr(Payload, Entry.OutText);
  putStr(Payload, Entry.ErrText);
  putStr(Payload, Entry.Stats.Name);
  forEachAppStatsField(
      [&Payload](const AppStatsField &, const auto &V) {
        putField(Payload, V);
      },
      Entry.Stats);
  putF64(Payload, Entry.Precision.AvgReceivers);
  auto PutOpt = [&Payload](const std::optional<double> &V) {
    putU8(Payload, V.has_value());
    putF64(Payload, V.value_or(0.0));
  };
  PutOpt(Entry.Precision.AvgParameters);
  PutOpt(Entry.Precision.AvgResults);
  PutOpt(Entry.Precision.AvgListeners);
  putU64Vec(Payload, Entry.FlowHistCounts);
  putU64(Payload, Entry.FlowHistSum);
  putU64(Payload, Entry.FlowHistCount);

  Bytes.clear();
  Bytes.append(Magic, sizeof(Magic));
  putU32(Bytes, FormatVersion);
  putU64(Bytes, Payload.size());
  putU64(Bytes, support::fnv1a64(Payload));
  Bytes.append(Payload);
}

bool SolutionCache::deserialize(std::string_view Bytes, CachedAnalysis &Out) {
  constexpr size_t HeaderSize = sizeof(Magic) + 4 + 8 + 8;
  if (Bytes.size() < HeaderSize)
    return false;
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return false;
  Cursor H(Bytes.substr(sizeof(Magic)));
  uint32_t Version = H.u32();
  uint64_t PayloadSize = H.u64();
  uint64_t Checksum = H.u64();
  if (H.Fail || Version != FormatVersion)
    return false;
  std::string_view Payload = Bytes.substr(HeaderSize);
  if (Payload.size() != PayloadSize)
    return false;
  if (support::fnv1a64(Payload) != Checksum)
    return false;

  Cursor C(Payload);
  Out.ExitCode = static_cast<int32_t>(C.u32());
  if (!C.str(Out.OutText) || !C.str(Out.ErrText))
    return false;
  bool Ok = C.str(Out.Stats.Name);
  forEachAppStatsField(
      [&](const AppStatsField &, auto &V) { Ok = Ok && getField(C, V); },
      Out.Stats);
  if (!Ok)
    return false;
  Out.Precision.AvgReceivers = C.f64();
  auto GetOpt = [&C](std::optional<double> &V) {
    uint8_t Has = C.u8();
    double X = C.f64();
    if (Has > 1)
      C.Fail = true;
    V = Has ? std::optional<double>(X) : std::nullopt;
  };
  GetOpt(Out.Precision.AvgParameters);
  GetOpt(Out.Precision.AvgResults);
  GetOpt(Out.Precision.AvgListeners);
  if (C.Fail)
    return false;
  if (!C.vec(Out.FlowHistCounts))
    return false;
  Out.FlowHistSum = C.u64();
  Out.FlowHistCount = C.u64();
  if (C.Fail)
    return false;
  // Trailing garbage means the artifact was not produced by serialize().
  return C.P == C.End;
}

//===----------------------------------------------------------------------===//
// The disk tier
//===----------------------------------------------------------------------===//

SolutionCache::SolutionCache(std::string DiskDir) : Dir(std::move(DiskDir)) {
  std::error_code EC;
  fs::create_directories(Dir, EC); // failure degrades to an uncached run
}

SolutionCache::Outcome SolutionCache::lookup(const support::Hash128 &Key,
                                             CachedAnalysis &Out,
                                             support::TraceSink *Trace) {
  support::TraceSpan Span(Trace, "cache.lookup");
  const Outcome R = [&] {
    std::string Bytes;
    if (!support::readFile(fs::path(Dir) / (Key.hex() + ".gsc"), Bytes)) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      return Outcome::Miss;
    }
    if (!deserialize(Bytes, Out)) {
      Corrupt.fetch_add(1, std::memory_order_relaxed);
      Misses.fetch_add(1, std::memory_order_relaxed);
      return Outcome::Corrupt;
    }
    Hits.fetch_add(1, std::memory_order_relaxed);
    return Outcome::Hit;
  }();
  Span.arg("hit", R == Outcome::Hit ? 1 : 0);
  Span.arg("corrupt", R == Outcome::Corrupt ? 1 : 0);
  return R;
}

void SolutionCache::store(const support::Hash128 &Key,
                          const CachedAnalysis &Entry,
                          support::TraceSink *Trace) {
  support::TraceSpan Span(Trace, "cache.store");
  const std::string Hex = Key.hex();
  std::string Bytes;
  serialize(Entry, Bytes);
  Span.arg("bytes", Bytes.size());
  // Atomic publish: concurrent writers of the same key write identical
  // bytes, so last-rename-wins is harmless; readers never see a partial
  // file. The tmp name is keyed so distinct keys never collide.
  const fs::path Final = fs::path(Dir) / (Hex + ".gsc");
  const fs::path Tmp = fs::path(Dir) / (Hex + ".tmp");
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF)
      return; // unwritable cache dir: the entry is dropped
    OutF.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!OutF)
      return;
  }
  std::error_code EC;
  fs::rename(Tmp, Final, EC);
  if (EC)
    fs::remove(Tmp, EC);
}

void SolutionCache::recordMetrics(support::MetricsRegistry &Metrics) const {
  Metrics
      .counter("gator_cache_hits_total",
               "Solution-cache lookups served from the disk cache")
      .add(hits());
  Metrics
      .counter("gator_cache_misses_total",
               "Solution-cache lookups that fell through to a full solve")
      .add(misses());
  Metrics
      .counter("gator_cache_corrupt_total",
               "On-disk cache entries rejected by validation")
      .add(corruptEntries());
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

support::Hash128 gator::analysis::hashAppDir(const std::string &Dir) {
  return hashAppDir(support::loadAppDir(Dir));
}

support::Hash128 gator::analysis::hashAppDir(const support::AppInputs &In) {
  support::ContentHasher H;
  H.field("gator-app-dir", "v2");
  H.u64("files", In.Files.size());
  for (const support::AppFile &F : In.Files) {
    H.content(F.Path.lexically_relative(In.Root).generic_string(), F.Bytes);
    // An unreadable file never keys like an empty one.
    H.boolean("read", F.ReadOk);
  }
  return H.digest();
}

support::Hash128
gator::analysis::hashAnalysisOptions(const AnalysisOptions &O) {
  support::ContentHasher H;
  H.field("gator-options", "v1");
  H.boolean("TrackViewIds", O.TrackViewIds);
  H.boolean("TrackHierarchy", O.TrackHierarchy);
  H.boolean("FindView3ChildOnly", O.FindView3ChildOnly);
  // Constants: fields of retired options stay hashed at the values every
  // run has used, so keys and ledger options digests never change. Both
  // callback models are always on.
  H.boolean("ModelListenerCallbacks", true);
  H.boolean("ModelXmlOnClickHandlers", true);
  H.boolean("DeclaredTypeFilter", O.DeclaredTypeFilter);
  // More constants: the context refinement is a bench-only pre-pass
  // outside AnalysisOptions, and every run since the first release
  // propagates deltas.
  H.boolean("ContextSensitiveHelpers", false);
  H.u64("ContextHelperMaxStmts", 12);
  H.boolean("DeltaPropagation", true);
  H.boolean("RecordProvenance", O.RecordProvenance);
  H.boolean("ModelUnknownSources", O.ModelUnknownSources);
  H.u64("UnknownFanoutBudget", O.UnknownFanoutBudget);
  // Deterministic budget limits shape the (possibly truncated) result;
  // the wall clock does too, but non-reproducibly — it gates eligibility
  // instead (cacheEligible). Trace never changes the per-app outcome, and
  // neither does the batch's worker count (each app is solved serially —
  // docs/PARALLEL.md), so a cache warmed serially serves parallel runs and
  // vice versa.
  H.u64("Budget.MaxWorkItems", O.Budget.MaxWorkItems);
  H.u64("Budget.MaxGraphNodes", O.Budget.MaxGraphNodes);
  H.u64("Budget.MaxGraphEdges", O.Budget.MaxGraphEdges);
  return H.digest();
}

support::Hash128
gator::analysis::combineCacheKey(const support::Hash128 &Inputs,
                                 const support::Hash128 &OptionsHash) {
  support::ContentHasher H;
  H.field("gator-cache-key", "v1");
  H.u64("app.hi", Inputs.Hi);
  H.u64("app.lo", Inputs.Lo);
  H.u64("opt.hi", OptionsHash.Hi);
  H.u64("opt.lo", OptionsHash.Lo);
  return H.digest();
}

support::Hash128 gator::analysis::cacheKeyFor(const std::string &Dir,
                                              const AnalysisOptions &Options) {
  return combineCacheKey(hashAppDir(Dir), hashAnalysisOptions(Options));
}

bool gator::analysis::cacheEligible(const AnalysisOptions &Options) {
  // A deadline past the steady clock's range is no deadline: such a run
  // is as reproducible as one without the knob.
  const support::BudgetPolicy &B = Options.Budget;
  return !B.SharedDeadline && !support::makeSharedDeadline(B.MaxWallSeconds);
}
