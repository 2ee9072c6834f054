//===- Layers.h - Per-layer spans, counters and allocation counts -*- C++ -*-===//
//
// The traced run of the benchmark opens a span around each call into one
// layer's public function. A span's self time is its duration minus the
// time its child spans cover; allocations are counted the same way by a
// counting operator new that lives in this binary only. Spans are also
// recorded into a support::TraceSink and written out as Chrome trace JSON
// when the run ends.
//
// With tracing off every hook is one null check: the untraced run measures
// the end-to-end numbers.
//
//===----------------------------------------------------------------------===//

#ifndef GATORBENCH_LAYERS_H
#define GATORBENCH_LAYERS_H

#include "support/Trace.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gatorbench {

/// The layers a span can be opened for. Op is the whole operation; its
/// self time is the time under no layer span (`unattributed.ms`).
enum class Layer : uint8_t {
  Op,
  Read,
  Lex,
  Parse,
  Xml,
  Manifest,
  Finalize,
  GraphBuild,
  Solve,
  Stats,
  Clients,
  Incremental,
  CacheKey,
  CacheLookup,
  CacheStore,
  Generate,
  Teardown,
  NumLayers
};
constexpr size_t NumLayers = static_cast<size_t>(Layer::NumLayers);

/// Metric-name prefix of a layer ("parser.lex", "analysis.solve", ...).
const char *layerName(Layer L);

/// Work counters recorded at span boundaries.
enum class Counter : uint8_t {
  ReadBytes,
  Tokens,
  GraphNodes,
  FlowEdges,
  Propagations,
  OpFires,
  FactsRetracted,
  TouchedNodes,
  EditPropagations,
  ScratchPropagations,
  KnownDivergences,
  CacheLookups,
  CacheHits,
  CacheStores,
  CacheStoreBytes,
  OpMinorFaults,
  NumCounters
};
constexpr size_t NumCounters = static_cast<size_t>(Counter::NumCounters);

/// Allocation counters fed by the benchmark binary's operator new.
/// Counting is off unless a tracer turns it on.
struct AllocCounts {
  uint64_t Allocs = 0;
  uint64_t Bytes = 0;
};
AllocCounts allocCounts();
void setAllocCounting(bool On);

struct LayerTotals {
  uint64_t SelfNs = 0;
  int64_t Allocs = 0;
  int64_t AllocBytes = 0;
  uint64_t Spans = 0;
};

/// Span stack plus per-layer totals for one traced run. Single-threaded:
/// the benchmark runs one operation at a time.
class Tracer {
public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  void begin(Layer L);
  void end();

  /// Excludes work that ran outside any span but inside the open ones (a
  /// measurement probe such as the separate lexAll call) from every open
  /// span's duration.
  void exclude(uint64_t Ns, const AllocCounts &Used);
  /// Moves self time and allocations from one layer to another: the
  /// parse span covers lexing, which the probe measured on its own.
  void move(Layer From, Layer To, uint64_t Ns, const AllocCounts &Used);

  void add(Counter C, uint64_t N) { Counters[static_cast<size_t>(C)] += N; }
  uint64_t counter(Counter C) const {
    return Counters[static_cast<size_t>(C)];
  }
  const LayerTotals &totals(Layer L) const {
    return Totals[static_cast<size_t>(L)];
  }
  /// Operations completed (closed Op spans).
  uint64_t ops() const { return Totals[0].Spans; }
  /// Summed inclusive time of every Op span.
  uint64_t opNs() const { return OpInclusiveNs; }

  const gator::support::TraceSink &sink() const { return Sink; }

private:
  using Clock = std::chrono::steady_clock;
  struct Frame {
    Layer L;
    Clock::time_point Start;
    uint64_t StartMicros;
    AllocCounts Start0;
    uint64_t ChildNs = 0;
    int64_t ChildAllocs = 0;
    int64_t ChildBytes = 0;
    uint64_t ExcludedNs = 0;
    int64_t ExcludedAllocs = 0;
    int64_t ExcludedBytes = 0;
    long MinorFaults0 = 0;
  };
  std::vector<Frame> Stack;
  std::array<LayerTotals, NumLayers> Totals{};
  std::array<uint64_t, NumCounters> Counters{};
  uint64_t OpInclusiveNs = 0;
  gator::support::TraceSink Sink;
};

/// RAII span; a no-op when \p T is null.
class Span {
public:
  Span(Tracer *T, Layer L) : T(T) {
    if (T)
      T->begin(L);
  }
  ~Span() {
    if (T)
      T->end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
};

/// Minor page faults of this process so far (getrusage).
long selfMinorFaults();
/// Peak resident set of this process in MB (getrusage ru_maxrss).
double selfPeakRssMb();

} // namespace gatorbench

#endif // GATORBENCH_LAYERS_H
