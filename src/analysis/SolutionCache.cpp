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

using namespace gator;
using namespace gator::analysis;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// GSC1 codec
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[4] = {'G', 'S', 'C', '1'};

/// Canonical gator_flowset_size bounds — must match recordAppMetrics.
const std::vector<uint64_t> &flowsetBounds() {
  static const std::vector<uint64_t> Bounds{1,  2,   4,   8,   16,  32,
                                            64, 128, 256, 512, 1024};
  return Bounds;
}

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

void writeStats(std::string &B, const AppStats &S) {
  putStr(B, S.Name);
  putU32(B, S.Classes);
  putU32(B, S.Methods);
  putU32(B, S.LayoutIds);
  putU32(B, S.ViewIds);
  putU32(B, S.InflViews);
  putU32(B, S.AllocViews);
  putU32(B, S.Listeners);
  putU32(B, S.OpInflate);
  putU32(B, S.OpFindView);
  putU32(B, S.OpAddView);
  putU32(B, S.OpSetListener);
  putU32(B, S.OpSetId);
  putU64(B, S.Propagations);
  putU64(B, S.OpFirings);
  putU64(B, S.ValuesPushed);
  putU64(B, S.DedupHits);
  putU64(B, S.PeakSetSize);
  putU64(B, S.PromotedSets);
  putU64(B, S.DescCacheHits);
  putU64(B, S.DescCacheMisses);
  putU64(B, S.HierarchyRevisions);
  putU8(B, static_cast<uint8_t>(S.SolutionFidelity));
  putU64(B, S.UnresolvedOps);
  putU64(B, S.WorkCharged);
  putU64(B, S.UnknownViews);
  putU64(B, S.UnknownIds);
  putU64Span(B, S.UnknownByReason, graph::NumUnknownReasons);
  putU64(B, S.GraphNodes);
  putU64(B, S.FlowEdges);
  putU64(B, S.ParentChildEdges);
  putU64(B, S.PeakVarWorklist);
  putU64(B, S.PeakOpWorklist);
  putU64Span(B, S.FiringsByKind, android::NumOpKinds);
  putU64Span(B, S.SitesByKind, android::NumOpKinds);
  putU64Span(B, S.ResolvedSitesByKind, android::NumOpKinds);
  putF64(B, S.BuildSeconds);
  putF64(B, S.SolveSeconds);
  putU64(B, S.ArenaBytes);
  putU64(B, S.PeakRssBytes);
}

bool readStats(Cursor &C, AppStats &S) {
  if (!C.str(S.Name))
    return false;
  S.Classes = C.u32();
  S.Methods = C.u32();
  S.LayoutIds = C.u32();
  S.ViewIds = C.u32();
  S.InflViews = C.u32();
  S.AllocViews = C.u32();
  S.Listeners = C.u32();
  S.OpInflate = C.u32();
  S.OpFindView = C.u32();
  S.OpAddView = C.u32();
  S.OpSetListener = C.u32();
  S.OpSetId = C.u32();
  S.Propagations = C.u64();
  S.OpFirings = C.u64();
  S.ValuesPushed = C.u64();
  S.DedupHits = C.u64();
  S.PeakSetSize = C.u64();
  S.PromotedSets = C.u64();
  S.DescCacheHits = C.u64();
  S.DescCacheMisses = C.u64();
  S.HierarchyRevisions = C.u64();
  uint8_t Fid = C.u8();
  if (Fid > static_cast<uint8_t>(Fidelity::TruncatedBudget))
    return false;
  S.SolutionFidelity = static_cast<Fidelity>(Fid);
  S.UnresolvedOps = C.u64();
  S.WorkCharged = C.u64();
  S.UnknownViews = C.u64();
  S.UnknownIds = C.u64();
  if (!C.span(S.UnknownByReason, graph::NumUnknownReasons))
    return false;
  S.GraphNodes = C.u64();
  S.FlowEdges = C.u64();
  S.ParentChildEdges = C.u64();
  S.PeakVarWorklist = C.u64();
  S.PeakOpWorklist = C.u64();
  if (!C.span(S.FiringsByKind, android::NumOpKinds) ||
      !C.span(S.SitesByKind, android::NumOpKinds) ||
      !C.span(S.ResolvedSitesByKind, android::NumOpKinds))
    return false;
  S.BuildSeconds = C.f64();
  S.SolveSeconds = C.f64();
  S.ArenaBytes = C.u64();
  S.PeakRssBytes = C.u64();
  return !C.Fail;
}

} // namespace

void SolutionCache::serialize(const CachedAnalysis &Entry, std::string &Bytes) {
  std::string Payload;
  putU32(Payload, static_cast<uint32_t>(Entry.ExitCode));
  putStr(Payload, Entry.OutText);
  putStr(Payload, Entry.ErrText);
  writeStats(Payload, Entry.Stats);
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
  if (!readStats(C, Out.Stats))
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
               "Solution-cache lookups served from memory or disk")
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
  H.boolean("ModelListenerCallbacks", O.ModelListenerCallbacks);
  H.boolean("ModelXmlOnClickHandlers", O.ModelXmlOnClickHandlers);
  H.boolean("DeclaredTypeFilter", O.DeclaredTypeFilter);
  H.boolean("ContextSensitiveHelpers", O.ContextSensitiveHelpers);
  H.u64("ContextHelperMaxStmts", O.ContextHelperMaxStmts);
  // Constant: every run since the first release propagates deltas; the
  // field stays hashed so keys and ledger options digests never change.
  H.boolean("DeltaPropagation", true);
  H.boolean("RecordProvenance", O.RecordProvenance);
  H.boolean("ModelUnknownSources", O.ModelUnknownSources);
  H.u64("UnknownFanoutBudget", O.UnknownFanoutBudget);
  // Deterministic budget limits shape the (possibly truncated) result;
  // wall-clock and cancellation do too, but non-reproducibly — those gate
  // eligibility instead (cacheEligible). Jobs and Trace never change the
  // per-app outcome (each app is solved serially — docs/PARALLEL.md), so
  // a cache warmed serially serves parallel runs and vice versa.
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
  const support::BudgetPolicy &B = Options.Budget;
  return B.MaxWallSeconds <= 0 && !B.SharedDeadline.has_value() &&
         B.CancelFlag == nullptr;
}

//===----------------------------------------------------------------------===//
// Metrics capture / replay
//===----------------------------------------------------------------------===//

void gator::analysis::captureFlowsetHistogram(const Solution &Sol,
                                              std::vector<uint64_t> &Counts,
                                              uint64_t &Sum, uint64_t &Count) {
  support::Histogram H(flowsetBounds());
  for (const FlowSet &Set : Sol.flowsToSets())
    if (!Set.empty())
      H.observe(Set.size());
  Counts = H.bucketCounts();
  Sum = H.sum();
  Count = H.count();
}

void gator::analysis::replayAppMetrics(support::MetricsRegistry &Metrics,
                                       const CachedAnalysis &Entry) {
  recordAppMetrics(Metrics, Entry.Stats, nullptr);
  support::Histogram &H =
      Metrics.histogram("gator_flowset_size", "Sizes of nonempty flowsTo sets",
                        flowsetBounds());
  H.addRaw(Entry.FlowHistCounts, Entry.FlowHistSum, Entry.FlowHistCount);
}
