//===- ThreadPool.h - Parallel batch execution layer ------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel execution layer for multi-app drivers (docs/PARALLEL.md).
/// The paper's evaluation analyzes each app of the corpus independently —
/// an embarrassingly parallel workload — so every batch code path
/// (`gator_cli --batch`, corpus-wide runs, `export_corpus`, the benches)
/// fans out over a ThreadPool through parallelFor/parallelMap.
///
/// Contract: one task = one whole-app analysis, thread-confined (its own
/// AppBundle, DiagnosticEngine, and BudgetTracker; nothing mutable is
/// shared across tasks). Results are indexed records the caller merges in
/// input order, so output is byte-identical for every job count. Jobs == 1
/// is an exact serial fallback: the body runs inline on the calling
/// thread, in index order, with no pool and no synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_THREADPOOL_H
#define GATOR_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gator {
namespace support {

/// Upper bound a driver should accept for a jobs knob; anything above is a
/// configuration mistake (a typo'd `-j 80000`), not a real machine, and is
/// rejected with a diagnostic rather than silently clamped.
inline constexpr unsigned MaxReasonableJobs = 512;

/// Resolves a user-facing jobs knob: 0 means "use the hardware", anything
/// else is taken literally. Never returns 0.
unsigned resolveJobs(unsigned Requested);

/// A fixed set of worker threads draining one FIFO task queue. Workers
/// start in the constructor and join in the destructor; tasks submitted
/// after shutdown began are rejected (dropped) rather than deadlocking.
///
/// An exception escaping a task is captured (the pool must survive any
/// task), retrievable via takeExceptions() in completion order. Callers
/// needing deterministic attribution should catch per task themselves —
/// parallelFor below does, per index.
class ThreadPool {
public:
  /// Starts \p Workers threads (at least one).
  explicit ThreadPool(unsigned Workers);

  /// Waits for every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues one task. Thread-safe; may be called from inside a task.
  void submit(std::function<void()> Task);

  /// Blocks until the queue is empty and no task is running.
  void wait();

  unsigned workerCount() const { return static_cast<unsigned>(Threads.size()); }

  /// Tasks completed by each worker so far (index = worker). Call after
  /// wait() for stable values; parallelFor returns them in its
  /// ParallelForStats (per-worker splits of the retired strong-scaling
  /// bench are kept in bench/history/BENCH_parallel.json).
  std::vector<unsigned long> tasksExecuted() const;

  /// Exceptions captured from tasks since the last call, in the order the
  /// tasks happened to complete (not deterministic across runs).
  std::vector<std::exception_ptr> takeExceptions();

private:
  void workerLoop(unsigned WorkerIndex);

  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllIdle;
  std::deque<std::function<void()>> Queue;
  std::vector<std::exception_ptr> Exceptions;
  std::vector<unsigned long> Executed; ///< per-worker completed-task counts
  size_t InFlight = 0;                 ///< tasks popped but not finished
  bool Stopping = false;
  std::vector<std::thread> Threads; ///< last: workers see members above
};

/// How a parallelFor call actually ran — worker count after resolving the
/// jobs knob against the item count, and tasks completed per worker (the
/// per-worker split is scheduling-dependent; totals are not).
struct ParallelForStats {
  unsigned WorkersUsed = 1;
  std::vector<unsigned long> TasksPerWorker;
};

/// Runs Body(0) .. Body(N-1) on up to \p Jobs workers (0 = hardware
/// concurrency). Jobs <= 1 or N <= 1 runs inline on the calling thread in
/// index order — the exact serial path, no pool constructed. Each index's
/// exception is captured in a per-index slot; after every index finished
/// or failed, the lowest-index exception is rethrown, so failure
/// attribution is deterministic regardless of scheduling.
ParallelForStats parallelFor(unsigned Jobs, size_t N,
                             const std::function<void(size_t)> &Body);

/// parallelFor producing a value per index, in index order. Result must be
/// default-constructible and movable.
template <typename Result, typename Fn>
std::vector<Result> parallelMap(unsigned Jobs, size_t N, Fn &&Body) {
  std::vector<Result> Out(N);
  parallelFor(Jobs, N, [&](size_t I) { Out[I] = Body(I); });
  return Out;
}

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_THREADPOOL_H
