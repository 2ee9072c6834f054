//===- Trace.h - Structured span/event tracing ------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-confined span/event recorder for the analysis pipeline
/// (docs/OBSERVABILITY.md). One TraceSink belongs to exactly one run (one
/// app analysis, or one whole CLI invocation): events append to a plain
/// vector with no locking — the parallel batch drivers give every task its
/// own sink and merge them in input order afterwards, the same ordered
/// merge that makes batch stdout deterministic (docs/PARALLEL.md).
///
/// Tracing is opt-in by existence: code paths hold a `TraceSink *` that is
/// null when tracing is off, and every hook (TraceSpan construction,
/// counter/instant events) starts with one null check, so the disabled
/// cost is a predicted-not-taken branch — measured within noise on
/// BM_AnalyzeByActivities/64 (bench/history/BENCH_observability.json).
///
/// writeJson() emits the Chrome trace-event format ("traceEvents" array of
/// objects with name/ph/ts/pid/tid), loadable in Perfetto or
/// chrome://tracing. Timestamps are microseconds since the sink's epoch;
/// they are the one nondeterministic output, which the determinism harness
/// normalizes before comparing runs.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_TRACE_H
#define GATOR_SUPPORT_TRACE_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace gator {
namespace support {

/// Collects trace events for one run. Not thread-safe by design: confine
/// one sink to one thread and merge with append().
class TraceSink {
public:
  /// One Chrome-trace event. Ph follows the trace-event format: 'X' =
  /// complete span (Ts + Dur), 'C' = counter sample, 'i' = instant.
  struct Event {
    std::string Name;
    char Ph = 'X';
    uint64_t TsMicros = 0;
    uint64_t DurMicros = 0;
    uint32_t Tid = 0;
    /// Numeric annotations ("args" in the trace format): counter values,
    /// span statistics. Deterministic — never wall-clock derived.
    std::vector<std::pair<std::string, uint64_t>> Args;
  };

  TraceSink() : Epoch(Clock::now()) {}

  TraceSink(TraceSink &&) = default;
  TraceSink &operator=(TraceSink &&) = default;
  TraceSink(const TraceSink &) = delete;
  TraceSink &operator=(const TraceSink &) = delete;

  /// Microseconds since this sink's construction.
  uint64_t nowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              Epoch)
            .count());
  }

  /// Records a complete span ('X') that started at \p StartMicros.
  Event &complete(std::string Name, uint64_t StartMicros) {
    Events.push_back(Event{std::move(Name), 'X', StartMicros,
                           nowMicros() - StartMicros, 0, {}});
    return Events.back();
  }

  /// Records a counter sample ('C').
  void counter(std::string Name, uint64_t Value) {
    Event E{std::move(Name), 'C', nowMicros(), 0, 0, {}};
    E.Args.emplace_back("value", Value);
    Events.push_back(std::move(E));
  }

  /// Records an instant event ('i').
  Event &instant(std::string Name) {
    Events.push_back(Event{std::move(Name), 'i', nowMicros(), 0, 0, {}});
    return Events.back();
  }

  /// Moves every event of \p Child into this sink, retagging them with
  /// logical lane \p Tid. Called in input order by the batch drivers, so
  /// the merged event sequence is independent of scheduling; child
  /// timestamps keep their own epoch (normalized by consumers that
  /// compare runs).
  void append(TraceSink &&Child, uint32_t Tid);

  const std::vector<Event> &events() const { return Events; }
  size_t eventCount() const { return Events.size(); }

  /// Writes the Chrome trace-event JSON document. Every event carries the
  /// name/ph/ts/pid/tid fields (plus dur for spans and args when present).
  void writeJson(std::ostream &OS) const;

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Epoch;
  std::vector<Event> Events;
};

/// RAII span: records a complete event over its lifetime when the sink is
/// non-null; a no-op otherwise. Annotate with arg() before destruction.
class TraceSpan {
public:
  TraceSpan(TraceSink *Sink, const char *Name) : Sink(Sink), Name(Name) {
    if (Sink)
      StartMicros = Sink->nowMicros();
  }
  ~TraceSpan() {
    if (!Sink)
      return;
    TraceSink::Event &E = Sink->complete(Name, StartMicros);
    E.Args = std::move(Args);
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attaches a numeric annotation to the span being recorded.
  void arg(const char *Key, uint64_t Value) {
    if (Sink)
      Args.emplace_back(Key, Value);
  }

private:
  TraceSink *Sink;
  const char *Name;
  uint64_t StartMicros = 0;
  std::vector<std::pair<std::string, uint64_t>> Args;
};

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_TRACE_H
