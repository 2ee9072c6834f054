//===- ThreadPool.cpp - Parallel batch execution layer ----------*- C++ -*-===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace gator;
using namespace gator::support;

unsigned gator::support::resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

ThreadPool::ThreadPool(unsigned Workers) {
  Workers = std::max(1u, Workers);
  Executed.assign(Workers, 0);
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    // Let queued work finish first: destruction is a drain, not an abort.
    AllIdle.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping)
      return;
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllIdle.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
}

std::vector<unsigned long> ThreadPool::tasksExecuted() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Executed;
}

std::vector<std::exception_ptr> ThreadPool::takeExceptions() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::exception_ptr> Out;
  Out.swap(Exceptions);
  return Out;
}

void ThreadPool::workerLoop(unsigned WorkerIndex) {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++InFlight;
    }
    std::exception_ptr Error;
    try {
      Task();
    } catch (...) {
      Error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Error)
        Exceptions.push_back(std::move(Error));
      ++Executed[WorkerIndex];
      --InFlight;
    }
    // A waiter (wait()/destructor) may be blocked even while siblings
    // still run; notify on every completion, they re-check the predicate.
    AllIdle.notify_all();
  }
}

ParallelForStats
gator::support::parallelFor(unsigned Jobs, size_t N,
                            const std::function<void(size_t)> &Body) {
  ParallelForStats Stats;
  unsigned Workers = resolveJobs(Jobs);
  if (Workers <= 1 || N <= 1) {
    // Exact serial fallback: inline, in index order, no pool. An exception
    // aborts the remaining indices, matching a plain for loop.
    for (size_t I = 0; I < N; ++I)
      Body(I);
    Stats.WorkersUsed = 1;
    Stats.TasksPerWorker.assign(1, static_cast<unsigned long>(N));
    return Stats;
  }
  Workers = static_cast<unsigned>(
      std::min<size_t>(Workers, N)); // no idle threads for small batches
  std::vector<std::exception_ptr> Errors(N);
  {
    ThreadPool Pool(Workers);
    for (size_t I = 0; I < N; ++I)
      Pool.submit([&Body, &Errors, I] {
        try {
          Body(I);
        } catch (...) {
          Errors[I] = std::current_exception();
        }
      });
    Pool.wait();
    Stats.WorkersUsed = Pool.workerCount();
    Stats.TasksPerWorker = Pool.tasksExecuted();
  }
  for (size_t I = 0; I < N; ++I)
    if (Errors[I])
      std::rethrow_exception(Errors[I]);
  return Stats;
}
