#pragma once
// Aligned buffer for grid storage.
//
// Stencil kernels issue SIMD loads/stores on rows, so every row must start at
// a vector-friendly address. We align to 64 bytes (cache line, also the widest
// AVX-512 vector) and pad sizes up so the allocation itself is a whole number
// of lines.
//
// Buffers of kHugeMinBytes (32 MiB) and more, the grids of DRAM-sized
// problems, are each their own anonymous mapping on transparent huge pages
// (DESIGN.md §9, "Grid memory"):
//  * Why 32 MiB: on 64-bit, glibc caps its dynamic mmap threshold there, so
//    larger blocks are fresh mappings on every allocation anyway and pay a
//    page fault per 4 KiB on first touch; 2 MiB pages cut that cost. Smaller
//    blocks keep std::aligned_alloc, whose heap can recycle them.
//  * Layout: map bytes + stagger + 2 MiB, round the base up to 2 MiB, start
//    the data at base + stagger, and unmap the unused head and everything
//    past the data end rounded up to a page, so no partial huge page beyond
//    the data is faulted in whole. madvise(MADV_HUGEPAGE) covers the trimmed
//    range; where it fails (no THP, or THP `never`) the buffer keeps the same
//    layout on base pages.
//  * Stagger: the large buffers one thread allocates back to back start at
//    consecutive slots, slot * (16 KiB + 64 B) into their first huge page,
//    over 16 slots, so no two arrays of one kernel (at most 9: banded3d's 7
//    bands and 2 time buffers) share an offset inside a 2 MiB page. Arrays
//    at equal offsets ran the DRAM workloads at 0.38x.
//  * The first write still places each page (DeferFirstTouch), now per 2 MiB.
// Under AddressSanitizer the stagger head and the page-rounded tail are
// poisoned, so overruns of large grids still trap.

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "check/check.hpp"

namespace cats {

inline constexpr std::size_t kAlign = 64;

/// Buffers of at least this many bytes are mapped on transparent huge pages.
inline constexpr std::size_t kHugeMinBytes = std::size_t{32} << 20;

/// Tag for grid constructors that allocate WITHOUT writing the storage. On
/// Linux, physical pages are placed on the NUMA node of the thread that
/// first writes them (first-touch); a grid built with this tag defers that
/// placement to the kernel's init/parallel_init fill so pages can land near
/// the threads that will sweep them. The storage is indeterminate until the
/// first fill.
struct DeferFirstTouch {};
inline constexpr DeferFirstTouch kDeferFirstTouch{};

/// Round `n` up to a multiple of `m` (m > 0).
constexpr std::size_t round_up(std::size_t n, std::size_t m) noexcept {
  return (n + m - 1) / m * m;
}

namespace detail {

inline constexpr std::size_t kHugePage = std::size_t{2} << 20;
inline constexpr std::size_t kStaggerStep = 16 * 1024 + 64;
inline constexpr std::size_t kStaggerSlots = 16;
/// Largest buffer whose padding, stagger and 2 MiB slack fit in size_t.
inline constexpr std::size_t kMaxBytes =
    SIZE_MAX - kHugePage - kStaggerSlots * kStaggerStep;

/// Mark [lo, hi) unaddressable (or addressable again) for AddressSanitizer,
/// which does not track mappings it did not hand out itself.
inline void asan_poison(char* lo, char* hi, bool poison) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  if (poison) {
    ASAN_POISON_MEMORY_REGION(lo, static_cast<std::size_t>(hi - lo));
  } else {
    ASAN_UNPOISON_MEMORY_REGION(lo, static_cast<std::size_t>(hi - lo));
  }
#else
  (void)lo;
  (void)hi;
  (void)poison;
#endif
}

/// Frees a heap block (map_len == 0) or unmaps [map_base, map_base + map_len).
struct BufferDeleter {
  char* map_base = nullptr;
  std::size_t map_len = 0;

  void operator()(void* p) const noexcept {
    if (map_len == 0) {
      std::free(p);
      return;
    }
    asan_poison(map_base, map_base + map_len, false);
    (void)munmap(map_base, map_len);
  }
};

/// Offset of the next large buffer into its first huge page. Per thread, so
/// one kernel's arrays take consecutive slots while other threads allocate.
inline std::size_t next_stagger() noexcept {
  thread_local std::size_t slot = 0;
  return (slot++ % kStaggerSlots) * kStaggerStep;
}

/// Bytes from p up to the next multiple of m.
inline std::size_t pad_to(const char* p, std::size_t m) noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  return round_up(a, m) - a;
}

struct Mapping {
  void* data = nullptr;
  BufferDeleter deleter;
};

/// Map `bytes` (a multiple of kAlign) of which the first `used` are data, on
/// transparent huge pages, in the layout the header comment describes.
inline Mapping map_huge(std::size_t used, std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t stagger = next_stagger();
  const std::size_t len = bytes + stagger + kHugePage;
  void* const raw = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  // MAP_FAILED is ((void*)-1), an integer-to-pointer cast that the lint gate
  // (clang-tidy performance-no-int-to-ptr) rejects; compare the address.
  if (reinterpret_cast<std::uintptr_t>(raw) == UINTPTR_MAX)
    throw std::bad_alloc{};
  char* const lo = static_cast<char*>(raw);
  char* const base = lo + pad_to(lo, kHugePage);
  char* const data = base + stagger;
  char* const end = data + bytes + pad_to(data + bytes, page);
  char* const hi = lo + len;
  if (base > lo) (void)munmap(lo, static_cast<std::size_t>(base - lo));
  if (hi > end) (void)munmap(end, static_cast<std::size_t>(hi - end));
  const auto map_len = static_cast<std::size_t>(end - base);
  // Best effort: without THP the buffer runs on base pages.
  (void)madvise(base, map_len, MADV_HUGEPAGE);
  asan_poison(base, data, true);
  asan_poison(data + used, end, true);
  return {data, {base, map_len}};
}

}  // namespace detail

/// Fixed-size, 64-byte aligned array of T. Moves, never copies implicitly.
template <class T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count) : size_(count) {
    if (count == 0) return;
    if (count > detail::kMaxBytes / sizeof(T)) throw std::bad_alloc{};
    const std::size_t used = count * sizeof(T);
    const std::size_t bytes = round_up(used, kAlign);
    if (bytes >= kHugeMinBytes) {
      const detail::Mapping m = detail::map_huge(used, bytes);
      data_ = std::unique_ptr<T, detail::BufferDeleter>(
          static_cast<T*>(m.data), m.deleter);
      return;
    }
    void* p = std::aligned_alloc(kAlign, bytes);
    if (!p) throw std::bad_alloc{};
    data_.reset(static_cast<T*>(p));
  }

  T* data() noexcept { return data_.get(); }
  const T* data() const noexcept { return data_.get(); }
  std::size_t size() const noexcept { return size_; }

  T& operator[](std::size_t i) noexcept {
    CATS_CHECK(i < size_, "AlignedBuffer index %zu out of bounds (size %zu)",
               i, size_);
    return data_.get()[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    CATS_CHECK(i < size_, "AlignedBuffer index %zu out of bounds (size %zu)",
               i, size_);
    return data_.get()[i];
  }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

 private:
  std::unique_ptr<T, detail::BufferDeleter> data_;
  std::size_t size_ = 0;
};

}  // namespace cats
