#pragma once
// 3D grid with a ghost boundary shell; see grid2d.hpp for conventions.
// Interior coordinates (x, y, z) in [0,W) x [0,H) x [0,D); x is unit stride.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>

#include "check/check.hpp"
#include "grid/aligned_buffer.hpp"

namespace cats {

template <class T>
class Grid3D {
 public:
  Grid3D() = default;

  Grid3D(int width, int height, int depth, int ghost)
      : Grid3D(width, height, depth, ghost, kDeferFirstTouch) {
    std::fill(buf_.begin(), buf_.end(), T{});
  }

  /// Allocate without touching the storage (see DeferFirstTouch); the first
  /// fill — e.g. a kernel's parallel_init — decides NUMA page placement.
  Grid3D(int width, int height, int depth, int ghost, DeferFirstTouch)
      : w_(width), h_(height), d_(depth), g_(ghost) {
    CATS_CHECK(width > 0 && height > 0 && depth > 0 && ghost >= 0,
               "Grid3D dims must be positive with ghost >= 0, got %dx%dx%d "
               "g=%d",
               width, height, depth, ghost);
    const std::size_t elems_per_line = kAlign / sizeof(T);
    lead_ = round_up(static_cast<std::size_t>(g_), elems_per_line);
    pitch_ = lead_ + round_up(static_cast<std::size_t>(w_) + g_, elems_per_line);
    slice_ = pitch_ * (static_cast<std::size_t>(h_) + 2 * g_);
    const std::size_t planes = static_cast<std::size_t>(d_) + 2 * g_;
    if (slice_ > SIZE_MAX / planes) throw std::bad_alloc{};
    buf_ = AlignedBuffer<T>(slice_ * planes);
  }

  int width() const noexcept { return w_; }
  int height() const noexcept { return h_; }
  int depth() const noexcept { return d_; }
  int ghost() const noexcept { return g_; }
  std::size_t pitch() const noexcept { return pitch_; }
  std::size_t slice() const noexcept { return slice_; }
  std::size_t size() const noexcept { return buf_.size(); }

  /// Bounds enforced (with a coordinate diagnostic) in Debug and
  /// CATS_VALIDATE builds; Release indexing stays branch-free.
  std::size_t index(int x, int y, int z) const noexcept {
    CATS_CHECK(x >= -g_ && x < w_ + g_,
               "Grid3D x=%d out of [%d, %d) at (x=%d, y=%d, z=%d)", x, -g_,
               w_ + g_, x, y, z);
    CATS_CHECK(y >= -g_ && y < h_ + g_,
               "Grid3D y=%d out of [%d, %d) at (x=%d, y=%d, z=%d)", y, -g_,
               h_ + g_, x, y, z);
    CATS_CHECK(z >= -g_ && z < d_ + g_,
               "Grid3D z=%d out of [%d, %d) at (x=%d, y=%d, z=%d)", z, -g_,
               d_ + g_, x, y, z);
    return static_cast<std::size_t>(z + g_) * slice_ +
           static_cast<std::size_t>(y + g_) * pitch_ + lead_ +
           static_cast<std::size_t>(x);
  }

  T& at(int x, int y, int z) noexcept { return buf_[index(x, y, z)]; }
  const T& at(int x, int y, int z) const noexcept { return buf_[index(x, y, z)]; }

  T* row(int y, int z) noexcept { return buf_.data() + index(0, y, z); }
  const T* row(int y, int z) const noexcept { return buf_.data() + index(0, y, z); }

  T* data() noexcept { return buf_.data(); }
  const T* data() const noexcept { return buf_.data(); }

  void fill(T v) { std::fill(buf_.begin(), buf_.end(), v); }

  /// Set every cell of full storage slabs z in [z0, z1) — including y/x
  /// ghosts and padding — to `v`. Valid for z in [-ghost, depth+ghost]. The
  /// unit of parallel first-touch (see Grid2D::fill_rows).
  void fill_slabs(int z0, int z1, T v) {
    CATS_CHECK(z0 >= -g_ && z1 <= d_ + g_ && z0 <= z1,
               "Grid3D fill_slabs [%d, %d) outside [%d, %d]", z0, z1, -g_,
               d_ + g_);
    std::fill(buf_.data() + static_cast<std::size_t>(z0 + g_) * slice_,
              buf_.data() + static_cast<std::size_t>(z1 + g_) * slice_, v);
  }

  void fill_ghost(T v) {
    for (int z = -g_; z < d_ + g_; ++z)
      for (int y = -g_; y < h_ + g_; ++y)
        for (int x = -g_; x < w_ + g_; ++x)
          if (x < 0 || x >= w_ || y < 0 || y >= h_ || z < 0 || z >= d_)
            at(x, y, z) = v;
  }

  template <class F>
  void fill_interior(F&& f) {
    for (int z = 0; z < d_; ++z)
      for (int y = 0; y < h_; ++y)
        for (int x = 0; x < w_; ++x) at(x, y, z) = f(x, y, z);
  }

 private:
  int w_ = 0, h_ = 0, d_ = 0, g_ = 0;
  std::size_t lead_ = 0, pitch_ = 0, slice_ = 0;
  AlignedBuffer<T> buf_;
};

}  // namespace cats
