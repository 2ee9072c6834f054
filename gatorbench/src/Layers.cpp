//===- Layers.cpp - Per-layer spans, counters and allocation counts -------===//

#include "Layers.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include <sys/resource.h>

namespace {

// Relaxed atomics: the benchmark allocates from one thread, but the
// libraries may start a pool, and a plain counter would then race.
std::atomic<bool> Counting{false};
std::atomic<uint64_t> NumAllocs{0};
std::atomic<uint64_t> NumBytes{0};

void *countedAlloc(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed)) {
    NumAllocs.fetch_add(1, std::memory_order_relaxed);
    NumBytes.fetch_add(Size, std::memory_order_relaxed);
  }
  if (Size == 0)
    Size = 1;
  return std::malloc(Size);
}

} // namespace

// The counting allocator of the traced run. The array and nothrow forms
// of the standard library forward to these two.
void *operator new(std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace gatorbench {

AllocCounts allocCounts() {
  return {NumAllocs.load(std::memory_order_relaxed),
          NumBytes.load(std::memory_order_relaxed)};
}

void setAllocCounting(bool On) {
  Counting.store(On, std::memory_order_relaxed);
}

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Op:
    return "op";
  case Layer::Read:
    return "read";
  case Layer::Lex:
    return "parser.lex";
  case Layer::Parse:
    return "parser.parse";
  case Layer::Xml:
    return "xml.layout";
  case Layer::Manifest:
    return "android.manifest";
  case Layer::Finalize:
    return "ir.finalize";
  case Layer::GraphBuild:
    return "analysis.graph_build";
  case Layer::Solve:
    return "analysis.solve";
  case Layer::Stats:
    return "analysis.stats";
  case Layer::Clients:
    return "guimodel.clients";
  case Layer::Incremental:
    return "incremental";
  case Layer::CacheKey:
    return "cache.key";
  case Layer::CacheLookup:
    return "cache.lookup";
  case Layer::CacheStore:
    return "cache.store";
  case Layer::Generate:
    return "corpus.generate";
  case Layer::Teardown:
    return "teardown";
  case Layer::NumLayers:
    break;
  }
  return "?";
}

Tracer::Tracer() { setAllocCounting(true); }

Tracer::~Tracer() { setAllocCounting(false); }

void Tracer::begin(Layer L) {
  Frame F;
  F.L = L;
  if (L == Layer::Op)
    F.MinorFaults0 = selfMinorFaults();
  F.StartMicros = Sink.nowMicros();
  F.Start0 = allocCounts();
  F.Start = Clock::now();
  Stack.push_back(F);
}

void Tracer::end() {
  const Clock::time_point Now = Clock::now();
  const AllocCounts A = allocCounts();
  Frame F = Stack.back();
  Stack.pop_back();

  const uint64_t Incl =
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Now - F.Start)
              .count()) -
      F.ExcludedNs;
  const int64_t InclAllocs =
      static_cast<int64_t>(A.Allocs - F.Start0.Allocs) - F.ExcludedAllocs;
  const int64_t InclBytes =
      static_cast<int64_t>(A.Bytes - F.Start0.Bytes) - F.ExcludedBytes;

  LayerTotals &T = Totals[static_cast<size_t>(F.L)];
  T.SelfNs += Incl > F.ChildNs ? Incl - F.ChildNs : 0;
  T.Allocs += InclAllocs - F.ChildAllocs;
  T.AllocBytes += InclBytes - F.ChildBytes;
  ++T.Spans;
  if (F.L == Layer::Op) {
    OpInclusiveNs += Incl;
    add(Counter::OpMinorFaults,
        static_cast<uint64_t>(selfMinorFaults() - F.MinorFaults0));
  }
  if (!Stack.empty()) {
    Frame &Parent = Stack.back();
    Parent.ChildNs += Incl;
    Parent.ChildAllocs += InclAllocs;
    Parent.ChildBytes += InclBytes;
  }

  // Recording allocates; keep that out of every count.
  setAllocCounting(false);
  Sink.complete(layerName(F.L), F.StartMicros);
  setAllocCounting(true);
}

void Tracer::exclude(uint64_t Ns, const AllocCounts &Used) {
  for (Frame &F : Stack) {
    F.ExcludedNs += Ns;
    F.ExcludedAllocs += static_cast<int64_t>(Used.Allocs);
    F.ExcludedBytes += static_cast<int64_t>(Used.Bytes);
  }
}

void Tracer::move(Layer From, Layer To, uint64_t Ns, const AllocCounts &Used) {
  LayerTotals &Src = Totals[static_cast<size_t>(From)];
  LayerTotals &Dst = Totals[static_cast<size_t>(To)];
  const uint64_t Moved = Ns < Src.SelfNs ? Ns : Src.SelfNs;
  Src.SelfNs -= Moved;
  Dst.SelfNs += Moved;
  Src.Allocs -= static_cast<int64_t>(Used.Allocs);
  Dst.Allocs += static_cast<int64_t>(Used.Allocs);
  Src.AllocBytes -= static_cast<int64_t>(Used.Bytes);
  Dst.AllocBytes += static_cast<int64_t>(Used.Bytes);
}

long selfMinorFaults() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return U.ru_minflt;
}

double selfPeakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

} // namespace gatorbench
