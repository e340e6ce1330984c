// Aligned allocation support for SIMD-resident buffers.
//
// The condensed static buffer stores messages as aligned vector types; on
// the paper's MIC that means 64-byte alignment (512-bit lanes). We align
// everything to kSimdAlign so any lane width up to AVX-512 can load/store
// with aligned instructions.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace phigraph {

/// Strictest SIMD alignment we target (AVX-512 / KNC: 64 bytes). Also a
/// cache line, so independently-written buffer columns never false-share
/// at vector-array granularity.
inline constexpr std::size_t kSimdAlign = 64;

/// Minimal std::allocator replacement with fixed alignment.
template <typename T, std::size_t Align = kSimdAlign>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Align >= alignof(T));
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of two");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    // Round the byte count up to a multiple of Align, as required by
    // std::aligned_alloc.
    std::size_t bytes = (n * sizeof(T) + Align - 1) / Align * Align;
    void* p = std::aligned_alloc(Align, bytes);
    if (p == nullptr) throw std::bad_alloc{};
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Vector whose data() is 64-byte aligned.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

struct AlignedFree {
  void operator()(void* p) const noexcept { std::free(p); }
};

/// 64-byte-aligned array that owns its storage but never initializes it.
template <typename T>
using aligned_array = std::unique_ptr<T[], AlignedFree>;

/// n uninitialized, 64-byte-aligned T, for buffers that write every cell
/// before reading it: unlike aligned_vector(n), nothing touches the memory,
/// so its pages are first faulted in by the writers. T must be trivially
/// copyable and destructible; its objects then begin their lifetime with the
/// allocation.
template <typename T>
[[nodiscard]] aligned_array<T> make_aligned_for_overwrite(std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "uninitialized storage needs a trivially copyable type");
  return aligned_array<T>(AlignedAllocator<T>{}.allocate(n));
}

}  // namespace phigraph
