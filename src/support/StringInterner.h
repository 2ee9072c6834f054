//===- StringInterner.h - Unique'd strings ----------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A string interner producing small integer Symbols. Class names, method
/// names, field names, and resource names are interned once so the IR and
/// the constraint graph can compare and hash them as integers.
///
/// Storage layout (docs/MEMORY.md): spellings are copied into an arena and
/// addressed by a flat {ptr,len} entry table indexed by Symbol; the lookup
/// structure is an open-addressed power-of-2 slot array probed linearly.
/// Interning is on every hot path of app generation and IR construction,
/// so there are no per-string heap nodes and no bucket chains.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_STRINGINTERNER_H
#define GATOR_SUPPORT_STRINGINTERNER_H

#include "support/Arena.h"
#include "support/Hash.h"

#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

namespace gator {

/// An interned string handle. Symbols from the same interner compare equal
/// exactly when their spellings are equal. The default-constructed Symbol is
/// the invalid sentinel.
class Symbol {
public:
  Symbol() = default;

  bool isValid() const { return Index != ~0u; }
  uint32_t rawIndex() const { return Index; }

  bool operator==(const Symbol &Other) const { return Index == Other.Index; }
  bool operator!=(const Symbol &Other) const { return Index != Other.Index; }
  bool operator<(const Symbol &Other) const { return Index < Other.Index; }

private:
  friend class StringInterner;
  explicit Symbol(uint32_t Index) : Index(Index) {}

  uint32_t Index = ~0u;
};

/// Owns the interned spellings and hands out Symbols.
class StringInterner {
public:
  StringInterner() = default;
  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;
  StringInterner(StringInterner &&) = default;
  StringInterner &operator=(StringInterner &&) = default;

  /// Interns \p Text, returning the existing Symbol if already present.
  Symbol intern(std::string_view Text);

  /// Returns the Symbol for \p Text if interned, or the invalid Symbol.
  Symbol lookup(std::string_view Text) const {
    if (Slots.empty())
      return Symbol();
    uint64_t Hash = hashText(Text);
    size_t Mask = Slots.size() - 1;
    size_t I = slotIndex(Hash, Mask);
    while (true) {
      uint32_t S = Slots[I];
      if (S == EmptySlot)
        return Symbol();
      if (Hashes[S] == Hash && textOf(S) == Text)
        return Symbol(S);
      I = (I + 1) & Mask;
    }
  }

  /// Returns the spelling of a valid \p Sym. The view stays valid for the
  /// interner's lifetime (spellings live in the arena and never move).
  std::string_view text(Symbol Sym) const {
    assert(Sym.isValid() && Sym.rawIndex() < Spellings.size() &&
           "invalid symbol");
    return textOf(Sym.rawIndex());
  }

  size_t size() const { return Spellings.size(); }

private:
  struct Entry {
    const char *Ptr;
    uint32_t Len;
  };

  static constexpr uint32_t EmptySlot = ~0u;

  /// The slot hash of a spelling. Nearly every name is at most 16 bytes:
  /// those take two overlapping loads that together cover every byte and
  /// one 64x64->128-bit multiply, folded; longer names take XXH64. The
  /// constants have bytes >= 0x80, so no ASCII spelling zeroes a factor.
  /// Only the slot array sees these values: Symbols are handed out in
  /// interning order and the slots are never iterated, so the hash cannot
  /// change any output.
  static uint64_t hashText(std::string_view Text) {
    using namespace support::detail;
    const auto *P = reinterpret_cast<const unsigned char *>(Text.data());
    const size_t N = Text.size();
    if (N > 16)
      return support::xxh64(Text, 0);
    uint64_t Lo = 0, Hi = 0;
    if (N >= 8) {
      Lo = readLe64(P);
      Hi = readLe64(P + N - 8);
    } else if (N >= 4) {
      Lo = readLe32(P);
      Hi = readLe32(P + N - 4);
    } else if (N > 0) {
      Lo = P[0] | uint64_t(P[N / 2]) << 8 | uint64_t(P[N - 1]) << 16;
    }
    using U128 = unsigned __int128;
    const U128 M = U128(Lo ^ Xxh64Prime1) * (Hi ^ Xxh64Prime2 ^ N);
    return static_cast<uint64_t>(M) ^ static_cast<uint64_t>(M >> 64);
  }

  static size_t slotIndex(uint64_t Hash, size_t Mask) {
    return support::fibonacciSlot(Hash, Mask);
  }

  std::string_view textOf(uint32_t Index) const {
    const Entry &E = Spellings[Index];
    return std::string_view(E.Ptr, E.Len);
  }

  void grow();

  /// Symbol -> spelling; chars live in Chars.
  std::vector<Entry> Spellings;
  /// Cached full hash per symbol, so probes compare 8 bytes before chars.
  std::vector<uint64_t> Hashes;
  /// Open-addressed slots holding spelling indices; power-of-2 sized.
  std::vector<uint32_t> Slots;
  support::Arena Chars;
};

} // namespace gator

namespace std {
template <> struct hash<gator::Symbol> {
  size_t operator()(const gator::Symbol &Sym) const {
    return std::hash<uint32_t>()(Sym.rawIndex());
  }
};
} // namespace std

#endif // GATOR_SUPPORT_STRINGINTERNER_H
