//===- Parallel.cpp - Parallel batch execution layer ------------*- C++ -*-===//

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

using namespace gator;
using namespace gator::support;

unsigned gator::support::resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

void gator::support::parallelFor(unsigned Jobs, size_t N,
                                 const std::function<void(size_t)> &Body) {
  std::vector<std::exception_ptr> Errors(N);
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;) {
      try {
        Body(I);
      } catch (...) {
        Errors[I] = std::current_exception();
      }
    }
  };

  const size_t Workers = std::min<size_t>(resolveJobs(Jobs), N);
  std::vector<std::thread> Threads;
  Threads.reserve(Workers);
  for (size_t W = 1; W < Workers; ++W) {
    try {
      Threads.emplace_back(Work);
    } catch (const std::system_error &) {
      break; // the workers already running take the remaining indices
    }
  }
  Work(); // the calling thread is a worker too
  for (std::thread &T : Threads)
    T.join();

  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}
