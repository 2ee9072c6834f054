//===- FaultInjection.h - Deterministic fault injection ---------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic input faults for the robustness harness
/// (tests/fault_injection_test.cpp, docs/ROBUSTNESS.md): truncation and
/// bit corruption derived from a SplitMix64 stream, so every fault is
/// reproducible from (input, seed) alone — no wall-clock or global-RNG
/// nondeterminism. Solver cut points need no fault hook: a test sets
/// BudgetPolicy::MaxWorkItems to the step it wants to cut at.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_FAULTINJECTION_H
#define GATOR_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <string>
#include <string_view>

namespace gator {
namespace support {

/// SplitMix64: tiny, high-quality, deterministic PRNG (public domain
/// constants from Steele et al.). Used instead of std::mt19937 where the
/// exact stream must be stable across standard libraries.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  /// Uniform value in [0, Bound); Bound 0 yields 0.
  uint64_t below(uint64_t Bound) { return Bound == 0 ? 0 : next() % Bound; }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Input mutators
//===----------------------------------------------------------------------===//

/// Returns a prefix of \p Input whose length is drawn from \p Seed
/// (anywhere in [0, size]), modeling a truncated read.
std::string truncateInput(std::string_view Input, uint64_t Seed);

/// Returns \p Input with \p Flips single-bit corruptions at positions
/// drawn from \p Seed. Empty input is returned unchanged.
std::string corruptInput(std::string_view Input, uint64_t Seed,
                         unsigned Flips = 8);

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_FAULTINJECTION_H
