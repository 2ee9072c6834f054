//===- Arena.h - Monotonic bump allocator -----------------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-app arena allocation (docs/MEMORY.md). One analysis task owns one
/// Arena; IR declarations, constraint-graph adjacency, and solver side
/// tables bump-allocate from it and are released as whole slabs when the
/// task's artifacts are dropped — no per-node delete, no free-list walks.
///
///  - Arena: chunked monotonic allocator. create<T>() registers a
///    destructor only when T is not trivially destructible, so plain
///    decl/adjacency data costs nothing to tear down. reset() runs pending
///    destructors, keeps the largest slab for reuse, and (under ASan)
///    re-poisons the retained slab so stale pointers fault immediately.
///  - ArenaVector<T>: a 16-byte {ptr,size,cap} vector of trivially
///    copyable elements whose storage lives in an Arena. The arena is
///    passed at mutation time, so readers need no back-pointer and the
///    element type stays as small as a raw slice.
///  - ArenaSpan<T>: an immutable {ptr,size} array copied into an arena
///    once; trivially copyable, so it can live inside arena records.
///  - ArenaString: an immutable NUL-terminated string copied into an
///    arena; 12 bytes instead of sizeof(std::string), no destructor.
///
/// Thread confinement: an Arena is NOT thread-safe. The batch engine gives
/// each worker task its own arena (docs/PARALLEL.md), which is also what
/// makes dropping a finished app a pure slab drop.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_ARENA_H
#define GATOR_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define GATOR_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GATOR_ARENA_ASAN 1
#endif
#endif

#if defined(GATOR_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace gator {
namespace support {

/// A chunked monotonic bump allocator.
class Arena {
public:
  /// First slab size; subsequent slabs double up to MaxSlabBytes.
  static constexpr size_t DefaultSlabBytes = 64 * 1024;
  static constexpr size_t MaxSlabBytes = 1024 * 1024;

  Arena() = default;
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Movable: slab ownership transfers wholesale, so pointers handed out
  /// by the source stay valid — the owning object (graph, program) can be
  /// moved without touching a single allocation.
  Arena(Arena &&Other) noexcept
      : Cur(Other.Cur), End(Other.End), Slabs(std::move(Other.Slabs)),
        Dtors(std::move(Other.Dtors)), LiveBytes(Other.LiveBytes),
        ReservedBytes(Other.ReservedBytes),
        NextSlabBytes(Other.NextSlabBytes) {
    Other.Slabs.clear();
    Other.Dtors.clear();
    Other.Cur = Other.End = 0;
    Other.LiveBytes = Other.ReservedBytes = 0;
    Other.NextSlabBytes = DefaultSlabBytes;
  }
  Arena &operator=(Arena &&Other) noexcept;

  /// Returns \p Bytes of storage aligned to \p Align. Never returns null
  /// (allocation failure throws std::bad_alloc like operator new).
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    assert(Align > 0 && (Align & (Align - 1)) == 0 && "non-power-of-2 align");
    uintptr_t P = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    if (P + Bytes <= End) {
      Cur = P + Bytes;
      LiveBytes += Bytes;
      unpoison(reinterpret_cast<void *>(P), Bytes);
      return reinterpret_cast<void *>(P);
    }
    return allocateSlow(Bytes, Align);
  }

  /// Allocates and constructs a T. Destructors are registered only for
  /// non-trivially-destructible types and run (in reverse construction
  /// order) at reset() or arena destruction.
  template <typename T, typename... Args> T *create(Args &&...Vals) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = ::new (Mem) T(std::forward<Args>(Vals)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Obj;
  }

  /// Uninitialized array of \p N trivially-destructible elements.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "array elements are never destroyed");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p S into the arena, NUL-terminated.
  const char *copyString(std::string_view S) {
    char *Mem = allocateArray<char>(S.size() + 1);
    std::memcpy(Mem, S.data(), S.size());
    Mem[S.size()] = '\0';
    return Mem;
  }

  /// Runs pending destructors, frees all slabs but the largest, and makes
  /// the retained slab available for reuse. Under ASan the retained slab
  /// is re-poisoned, so any pointer that survived the reset faults.
  void reset();

  /// Live bytes handed out since construction or the last reset()
  /// (alignment padding and the waste from ArenaVector regrowth excluded).
  size_t bytesAllocated() const { return LiveBytes; }
  /// Total slab bytes currently malloc'd from the system.
  size_t bytesReserved() const { return ReservedBytes; }
  /// Slab bytes that survive reset() (the retained-slab footprint).
  size_t bytesRetained() const;
  size_t slabCount() const { return Slabs.size(); }

private:
  struct Slab {
    char *Base;
    size_t Size;
  };
  struct DtorRec {
    void *Obj;
    void (*Run)(void *);
  };

  void *allocateSlow(size_t Bytes, size_t Align);
  void runDtors();

  static void poison(void *P, size_t Bytes) {
#if defined(GATOR_ARENA_ASAN)
    __asan_poison_memory_region(P, Bytes);
#else
    (void)P;
    (void)Bytes;
#endif
  }
  static void unpoison(void *P, size_t Bytes) {
#if defined(GATOR_ARENA_ASAN)
    __asan_unpoison_memory_region(P, Bytes);
#else
    (void)P;
    (void)Bytes;
#endif
  }

  uintptr_t Cur = 0;
  uintptr_t End = 0;
  std::vector<Slab> Slabs;
  std::vector<DtorRec> Dtors;
  size_t LiveBytes = 0;
  size_t ReservedBytes = 0;
  size_t NextSlabBytes = DefaultSlabBytes;
};

/// A minimal vector whose storage lives in an Arena. 16 bytes, move-only
/// (two ArenaVectors must never alias one backing block), elements must be
/// trivially copyable and destructible. Mutators take the arena explicitly;
/// readers are self-contained, so adjacency tables can hand out
/// `const ArenaVector<NodeId> &` without exposing the allocator.
///
/// Growth allocates a fresh block and abandons the old one inside the
/// slab — monotone waste bounded by the doubling policy (< the live size).
template <typename T> class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVector elements are memcpy'd and never destroyed");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  ArenaVector() = default;
  ArenaVector(ArenaVector &&Other) noexcept
      : Data(Other.Data), Count(Other.Count), Cap(Other.Cap) {
    Other.Data = nullptr;
    Other.Count = Other.Cap = 0;
  }
  ArenaVector &operator=(ArenaVector &&Other) noexcept {
    Data = Other.Data;
    Count = Other.Count;
    Cap = Other.Cap;
    Other.Data = nullptr;
    Other.Count = Other.Cap = 0;
    return *this;
  }
  ArenaVector(const ArenaVector &) = delete;
  ArenaVector &operator=(const ArenaVector &) = delete;

  T *begin() { return Data; }
  T *end() { return Data + Count; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Count; }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  T &operator[](size_t I) {
    assert(I < Count);
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Count);
    return Data[I];
  }
  T &front() {
    assert(Count);
    return Data[0];
  }
  const T &front() const {
    assert(Count);
    return Data[0];
  }
  T &back() {
    assert(Count);
    return Data[Count - 1];
  }
  const T &back() const {
    assert(Count);
    return Data[Count - 1];
  }

  void push_back(Arena &A, const T &V) {
    if (Count == Cap)
      grow(A, Count + 1);
    Data[Count++] = V;
  }

  void pop_back() {
    assert(Count);
    --Count;
  }

  /// Drops the elements, keeping capacity.
  void clear() { Count = 0; }

  /// Drops elements past \p N; no-op when N >= size(). Capacity is kept.
  void truncate(size_t N) {
    if (N < Count)
      Count = static_cast<uint32_t>(N);
  }

  /// Element-wise equality, like std::vector's.
  friend bool operator==(const ArenaVector &L, const ArenaVector &R) {
    if (L.Count != R.Count)
      return false;
    for (size_t I = 0; I < L.Count; ++I)
      if (!(L.Data[I] == R.Data[I]))
        return false;
    return true;
  }

  void reserve(Arena &A, size_t NewCap) {
    if (NewCap > Cap)
      grow(A, NewCap);
  }

  /// Replaces the contents with \p N elements copied from \p Src. When the
  /// capacity is too small, the new block holds exactly \p N elements.
  void assign(Arena &A, const T *Src, size_t N) {
    if (N > Cap) {
      Data = A.allocateArray<T>(N);
      Cap = static_cast<uint32_t>(N);
    }
    if (N)
      std::memcpy(Data, Src, N * sizeof(T));
    Count = static_cast<uint32_t>(N);
  }

  /// Grows to \p N elements, filling new slots with \p Fill. Never shrinks
  /// capacity; shrinking just drops the tail.
  void resize(Arena &A, size_t N, const T &Fill) {
    if (N > Cap)
      grow(A, N);
    for (size_t I = Count; I < N; ++I)
      Data[I] = Fill;
    Count = static_cast<uint32_t>(N);
  }

private:
  void grow(Arena &A, size_t MinCap) {
    size_t NewCap = Cap ? Cap * 2 : 4;
    if (NewCap < MinCap)
      NewCap = MinCap;
    T *NewData = A.allocateArray<T>(NewCap);
    if (Count)
      std::memcpy(NewData, Data, Count * sizeof(T));
    Data = NewData;
    Cap = static_cast<uint32_t>(NewCap);
  }

  T *Data = nullptr;
  uint32_t Count = 0;
  uint32_t Cap = 0;
};

/// An immutable array whose elements live in an Arena: a trivially
/// copyable {ptr, size} view that can sit inside other arena-resident
/// records (ir::Stmt::Args). Built once, by copying, with the arena that
/// will own the elements; copies of the span share them.
template <typename T> class ArenaSpan {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaSpan elements are memcpy'd and never destroyed");

public:
  using value_type = T;
  using iterator = const T *;
  using const_iterator = const T *;

  ArenaSpan() = default;
  /// Copies \p N elements from \p Src into \p A. An empty input takes no
  /// arena space.
  ArenaSpan(Arena &A, const T *Src, size_t N)
      : Count(static_cast<uint32_t>(N)) {
    if (!N)
      return;
    T *Mem = A.allocateArray<T>(N);
    std::memcpy(Mem, Src, N * sizeof(T));
    Data = Mem;
  }

  const T *begin() const { return Data; }
  const T *end() const { return Data + Count; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  const T &operator[](size_t I) const {
    assert(I < Count);
    return Data[I];
  }

  /// Element-wise equality (not identity of the backing block).
  friend bool operator==(const ArenaSpan &L, const ArenaSpan &R) {
    if (L.Count != R.Count)
      return false;
    for (size_t I = 0; I < L.Count; ++I)
      if (!(L.Data[I] == R.Data[I]))
        return false;
    return true;
  }

private:
  const T *Data = nullptr;
  uint32_t Count = 0;
};

/// An immutable string whose characters live in an Arena. NUL-terminated,
/// 12 bytes, trivially destructible.
class ArenaString {
public:
  ArenaString() = default;
  ArenaString(Arena &A, std::string_view S)
      : Data(A.copyString(S)), Len(static_cast<uint32_t>(S.size())) {}

  std::string_view view() const {
    return Data ? std::string_view(Data, Len) : std::string_view();
  }
  operator std::string_view() const { return view(); }
  const char *c_str() const { return Data ? Data : ""; }

  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }

  bool operator==(std::string_view Other) const { return view() == Other; }
  bool operator==(const ArenaString &Other) const {
    return view() == Other.view();
  }

private:
  const char *Data = nullptr;
  uint32_t Len = 0;
};

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_ARENA_H
