//===- Hash.h - Shared hashing primitives -----------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one home for the project's hashing primitives (docs/INCREMENTAL.md).
/// Before this header existed, FNV-1a and the Fibonacci multiply-shift
/// spread were re-implemented inline in StringInterner, FlatIdMap, and the
/// graph key packers; they now all delegate here, and the content-addressed
/// solution cache builds its 128-bit keys on the same primitives.
///
///  - fnv1a64(): the classic 64-bit FNV-1a byte loop, for the cache's
///    labels and option fields (ContentHasher) and the GSC1 artifact
///    checksum. It is byte-serial (one dependent multiply per byte,
///    ~1.6 ns/byte), so it is the wrong tool for whole files and for the
///    names on the parser's hot path: StringInterner hashes a name of up
///    to 16 bytes with two overlapping word loads and one multiply, and a
///    longer one with xxh64().
///  - xxh64(): XXH64, the public-domain xxHash64 algorithm, for bulk
///    content and long interned names. It consumes 32-byte stripes in
///    four independent lanes, ~0.12 ns/byte on file-sized inputs, about
///    14x the throughput of FNV-1a. readLe64()/readLe32() in `detail` are
///    its byte-order-independent loads, shared with the interner.
///  - fibonacciSlot(): multiply-shift spreading for power-of-2 open
///    addressing; FNV low bits correlate on short common-suffix names and
///    packed ids share low-bit structure, so every probe multiplies first.
///  - Hash128 / ContentHasher: a streaming 128-bit content key built from
///    two independent FNV-1a lanes (distinct offset bases, the second lane
///    additionally pre-mixed per chunk). 64 bits is not enough for a
///    content-addressed cache that must never alias two different apps;
///    two decorrelated 64-bit lanes give a practical 128-bit key without
///    pulling in a new dependency. Labels and fields go through the FNV
///    lanes byte by byte; file contents (ContentHasher::content) are
///    reduced by two seeded XXH64 passes first, and only the two 64-bit
///    results are mixed into the lanes.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_HASH_H
#define GATOR_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace gator {
namespace support {

/// FNV-1a offset basis / prime (64-bit variant).
inline constexpr uint64_t Fnv1aOffsetBasis = 1469598103934665603ULL;
inline constexpr uint64_t Fnv1aPrime = 1099511628211ULL;

/// The golden-ratio multiplier used by every Fibonacci multiply-shift
/// spread in the project (interner slots, FlatIdMap probing).
inline constexpr uint64_t GoldenGamma = 0x9e3779b97f4a7c15ULL;

/// One FNV-1a step over a single byte.
inline constexpr uint64_t fnv1a64Step(uint64_t H, unsigned char C) {
  return (H ^ C) * Fnv1aPrime;
}

/// FNV-1a over \p Text, continuing from \p Seed (defaults to the standard
/// offset basis, so `fnv1a64(text)` is the classic hash).
inline constexpr uint64_t fnv1a64(std::string_view Text,
                                  uint64_t Seed = Fnv1aOffsetBasis) {
  uint64_t H = Seed;
  for (unsigned char C : Text)
    H = fnv1a64Step(H, C);
  return H;
}

namespace detail {

/// XXH64 primes (xxHash specification, "XXH64 algorithm description").
inline constexpr uint64_t Xxh64Prime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t Xxh64Prime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t Xxh64Prime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t Xxh64Prime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t Xxh64Prime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t rotl64(uint64_t V, int R) { return (V << R) | (V >> (64 - R)); }

/// Little-endian loads, whatever the host byte order.
inline uint64_t readLe64(const unsigned char *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap64(V);
#endif
  return V;
}

inline uint32_t readLe32(const unsigned char *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof(V));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap32(V);
#endif
  return V;
}

inline uint64_t xxh64Round(uint64_t Acc, uint64_t Input) {
  Acc += Input * Xxh64Prime2;
  return rotl64(Acc, 31) * Xxh64Prime1;
}

inline uint64_t xxh64Merge(uint64_t Acc, uint64_t Lane) {
  Acc ^= xxh64Round(0, Lane);
  return Acc * Xxh64Prime1 + Xxh64Prime4;
}

} // namespace detail

/// XXH64 of \p Bytes under \p Seed: four accumulator lanes over 32-byte
/// stripes, then the 8-, 4- and 1-byte tail steps and the final
/// avalanche. `xxh64("", 0) == 0xEF46DB3751D8E999`.
inline uint64_t xxh64(std::string_view Bytes, uint64_t Seed) {
  using namespace detail;
  const auto *P = reinterpret_cast<const unsigned char *>(Bytes.data());
  const unsigned char *const End = P + Bytes.size();
  uint64_t H;
  if (Bytes.size() >= 32) {
    uint64_t V1 = Seed + Xxh64Prime1 + Xxh64Prime2, V2 = Seed + Xxh64Prime2,
             V3 = Seed, V4 = Seed - Xxh64Prime1;
    for (; End - P >= 32; P += 32) {
      V1 = xxh64Round(V1, readLe64(P));
      V2 = xxh64Round(V2, readLe64(P + 8));
      V3 = xxh64Round(V3, readLe64(P + 16));
      V4 = xxh64Round(V4, readLe64(P + 24));
    }
    H = rotl64(V1, 1) + rotl64(V2, 7) + rotl64(V3, 12) + rotl64(V4, 18);
    H = xxh64Merge(H, V1);
    H = xxh64Merge(H, V2);
    H = xxh64Merge(H, V3);
    H = xxh64Merge(H, V4);
  } else {
    H = Seed + Xxh64Prime5;
  }
  H += Bytes.size();
  for (; End - P >= 8; P += 8)
    H = rotl64(H ^ xxh64Round(0, readLe64(P)), 27) * Xxh64Prime1 +
        Xxh64Prime4;
  if (End - P >= 4) {
    H = rotl64(H ^ (readLe32(P) * Xxh64Prime1), 23) * Xxh64Prime2 +
        Xxh64Prime3;
    P += 4;
  }
  for (; P != End; ++P)
    H = rotl64(H ^ (*P * Xxh64Prime5), 11) * Xxh64Prime1;
  H ^= H >> 33;
  H *= Xxh64Prime2;
  H ^= H >> 29;
  H *= Xxh64Prime3;
  H ^= H >> 32;
  return H;
}

/// Maps \p Hash into a power-of-2 slot table of size `Mask + 1`.
/// Multiply-shift before masking: the raw low bits of FNV (and of packed
/// integer keys) correlate, the golden-ratio product's high bits do not.
inline constexpr size_t fibonacciSlot(uint64_t Hash, size_t Mask) {
  return static_cast<size_t>((Hash * GoldenGamma) >> 32) & Mask;
}

/// A 128-bit content key as two 64-bit lanes.
struct Hash128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Hash128 &O) const { return Hi == O.Hi && Lo == O.Lo; }
  bool operator!=(const Hash128 &O) const { return !(*this == O); }

  /// 32 lowercase hex digits; doubles as the on-disk cache file stem.
  std::string hex() const {
    static const char Digits[] = "0123456789abcdef";
    std::string S(32, '0');
    uint64_t Parts[2] = {Hi, Lo};
    for (int P = 0; P < 2; ++P)
      for (int I = 0; I < 16; ++I)
        S[P * 16 + I] = Digits[(Parts[P] >> (60 - 4 * I)) & 0xF];
    return S;
  }
};

/// Streaming 128-bit hasher. Feed it tagged chunks; the tag bytes make the
/// encoding prefix-free enough that ("ab","c") and ("a","bc") produce
/// different keys (each chunk is framed by its length).
class ContentHasher {
public:
  ContentHasher() = default;

  /// Mixes a length-framed byte chunk into both lanes.
  ContentHasher &update(std::string_view Bytes) {
    mixU64(Bytes.size());
    for (unsigned char C : Bytes) {
      A = fnv1a64Step(A, C);
      B = fnv1a64Step(B, C);
    }
    endChunk();
    return *this;
  }

  /// A labelled file body. The label and the body's length are framed
  /// through the FNV lanes like any field; the body itself is reduced by
  /// two XXH64 passes under fixed seeds, and both 64-bit results are
  /// mixed in. This is the bulk path: it costs two word-at-a-time passes
  /// instead of two multiplies per byte.
  ContentHasher &content(std::string_view Label, std::string_view Bytes) {
    update(Label);
    mixU64(Bytes.size());
    mixU64(xxh64(Bytes, ContentSeedA));
    mixU64(xxh64(Bytes, ContentSeedB));
    endChunk();
    return *this;
  }

  /// Convenience: a named field. The label keeps reordered field writes
  /// from colliding.
  ContentHasher &field(std::string_view Label, std::string_view Value) {
    update(Label);
    update(Value);
    return *this;
  }

  ContentHasher &u64(uint64_t V) {
    mixU64(V);
    return *this;
  }

  ContentHasher &u64(std::string_view Label, uint64_t V) {
    update(Label);
    mixU64(V);
    return *this;
  }

  ContentHasher &f64(std::string_view Label, double V) {
    // Bit-pattern hashing; -0.0 vs 0.0 producing distinct keys is fine for
    // a cache (worst case: one redundant miss).
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    __builtin_memcpy(&Bits, &V, sizeof(Bits));
    return u64(Label, Bits);
  }

  ContentHasher &boolean(std::string_view Label, bool V) {
    return u64(Label, V ? 1 : 0);
  }

  Hash128 digest() const {
    // Final avalanche so short inputs still touch every output bit.
    uint64_t Hi = A, Lo = B;
    Hi ^= Hi >> 33;
    Hi *= GoldenGamma;
    Hi ^= Hi >> 29;
    Lo ^= Hi;
    Lo *= Fnv1aPrime;
    Lo ^= Lo >> 32;
    return {Hi, Lo};
  }

private:
  /// Seeds of the two XXH64 passes in content(): the fractional bits of
  /// sqrt(2) and sqrt(3), two unrelated constants.
  static constexpr uint64_t ContentSeedA = 0x6A09E667F3BCC908ULL;
  static constexpr uint64_t ContentSeedB = 0xBB67AE8584CAA73BULL;

  /// Decorrelates the lanes between chunks: lane B absorbs a rotated,
  /// golden-mixed copy of lane A so the two lanes never track each other
  /// even though both run the same byte loop.
  void endChunk() {
    B ^= (A * GoldenGamma);
    B = (B << 27) | (B >> 37);
  }

  void mixU64(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      unsigned char C = static_cast<unsigned char>(V >> (I * 8));
      A = fnv1a64Step(A, C);
      B = fnv1a64Step(B, C);
    }
  }

  /// Lane seeds: the standard offset basis and an independently chosen
  /// second basis (the standard basis advanced over "gator/2") so the two
  /// lanes disagree from the first byte on.
  uint64_t A = Fnv1aOffsetBasis;
  uint64_t B = fnv1a64("gator/2");
};

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_HASH_H
