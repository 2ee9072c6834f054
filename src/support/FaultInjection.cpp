//===- FaultInjection.cpp - Deterministic fault injection -------*- C++ -*-===//

#include "support/FaultInjection.h"

using namespace gator;
using namespace gator::support;

std::string gator::support::truncateInput(std::string_view Input,
                                          uint64_t Seed) {
  SplitMix64 Rng(Seed);
  size_t Keep = static_cast<size_t>(Rng.below(Input.size() + 1));
  return std::string(Input.substr(0, Keep));
}

std::string gator::support::corruptInput(std::string_view Input,
                                         uint64_t Seed, unsigned Flips) {
  std::string Out(Input);
  if (Out.empty())
    return Out;
  SplitMix64 Rng(Seed);
  for (unsigned I = 0; I < Flips; ++I) {
    size_t Pos = static_cast<size_t>(Rng.below(Out.size()));
    unsigned Bit = static_cast<unsigned>(Rng.below(8));
    Out[Pos] = static_cast<char>(static_cast<unsigned char>(Out[Pos]) ^
                                 (1u << Bit));
  }
  return Out;
}
