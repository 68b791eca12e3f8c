#pragma once
// Variable-coefficient star stencil in 3D = banded-matrix vector product
// with NS = 6S+1 bands (7 bands for slope 1 — the paper's Figs. 11/12).
//
// Templated on the element type T like ConstStar3D: one stencil body serves
// fp64, fp32 and the footprint analyzer's recording elements via
// simd::vec_traits (src/analysis/record.hpp).

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/options.hpp"
#include "grid/grid3d.hpp"
#include "simd/vecd.hpp"
#include "threads/first_touch.hpp"

namespace cats {

template <int S, class T = double>
class Banded3D {
  static_assert(S >= 1 && S <= 4);
  // Any element type with a simd::vec_traits mapping is admissible.
  static_assert(requires { typename simd::vec_traits<T>::Vec; });

 public:
  static constexpr int kBands = 6 * S + 1;  // NS

  Banded3D(int width, int height, int depth)
      : buf_{Grid3D<T>(width, height, depth, S, kDeferFirstTouch),
             Grid3D<T>(width, height, depth, S, kDeferFirstTouch)} {
    bands_.reserve(kBands);
    for (int b = 0; b < kBands; ++b)
      bands_.emplace_back(width, height, depth, S);
  }

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int depth() const { return buf_[0].depth(); }
  int slope() const { return S; }
  double flops_per_point() const { return 12.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return kBands; }
  /// Bytes per stored element — parameterizes Eq. 1/2 tile sizing.
  double element_bytes() const { return static_cast<double>(sizeof(T)); }
  std::string tune_id() const {
    if constexpr (std::is_same_v<T, float>) {
      return "banded3d_f32/s" + std::to_string(S);
    } else {
      return "banded3d/s" + std::to_string(S);
    }
  }

  /// Band order: 0 = center, then per k=1..S: x-k, x+k, y-k, y+k, z-k, z+k.
  Grid3D<T>& band(int b) { return bands_[static_cast<std::size_t>(b)]; }

  template <class F>
  void init(F&& f, T bnd = 0) {
    buf_[0].fill(bnd);
    buf_[1].fill(bnd);
    buf_[0].fill_interior(f);
  }

  /// init() with NUMA-aware placement (see threads/first_touch.hpp). Band
  /// coefficient grids are placed by init_bands (serial, read-shared).
  template <class F>
  void parallel_init(const RunOptions& opt, F&& f, T bnd = 0) {
    const int W = width(), H = height();
    first_touch_slabs(depth(), S, opt.threads, opt.affinity,
                      [&](int, int z0, int z1) {
                        buf_[0].fill_slabs(z0, z1, bnd);
                        buf_[1].fill_slabs(z0, z1, bnd);
                        for (int z = std::max(z0, 0);
                             z < std::min(z1, depth()); ++z)
                          for (int y = 0; y < H; ++y)
                            for (int x = 0; x < W; ++x)
                              buf_[0].at(x, y, z) = f(x, y, z);
                      });
  }

  template <class G>
  void init_bands(G&& g) {
    for (int b = 0; b < kBands; ++b)
      bands_[static_cast<std::size_t>(b)].fill_interior(
          [&](int x, int y, int z) { return g(b, x, y, z); });
  }

  const Grid3D<T>& grid_at(int t) const { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T_) const {
    const Grid3D<T>& g = grid_at(T_);
    out.clear();
    for (int z = 0; z < depth(); ++z)
      for (int y = 0; y < height(); ++y)
        for (int x = 0; x < width(); ++x)
          out.push_back(static_cast<double>(g.at(x, y, z)));
  }

  void process_row(int t, int y, int z, int x0, int x1) {
    const int x = span<Vec>(t, y, z, x0, x1);
    span<Sc>(t, y, z, x, x1);
  }

  void process_row_scalar(int t, int y, int z, int x0, int x1) {
    span<Sc>(t, y, z, x0, x1);
  }

 private:
  using Vec = typename simd::vec_traits<T>::Vec;
  using Sc = typename simd::vec_traits<T>::Scalar;

  template <class V>
  int span(int t, int y, int z, int x0, int x1) {
    const Grid3D<T>& src = buf_[(t - 1) & 1];
    Grid3D<T>& dst = buf_[t & 1];
    const T* c = src.row(y, z);
    T* o = dst.row(y, z);
    const T *rym[S], *ryp[S], *rzm[S], *rzp[S];
    const T* bc = bands_[0].row(y, z);
    const T *bxm[S], *bxp[S], *bym[S], *byp[S], *bzm[S], *bzp[S];
    for (int k = 0; k < S; ++k) {
      rym[k] = src.row(y - (k + 1), z);
      ryp[k] = src.row(y + (k + 1), z);
      rzm[k] = src.row(y, z - (k + 1));
      rzp[k] = src.row(y, z + (k + 1));
      const std::size_t base = static_cast<std::size_t>(6 * k);
      bxm[k] = bands_[base + 1].row(y, z);
      bxp[k] = bands_[base + 2].row(y, z);
      bym[k] = bands_[base + 3].row(y, z);
      byp[k] = bands_[base + 4].row(y, z);
      bzm[k] = bands_[base + 5].row(y, z);
      bzp[k] = bands_[base + 6].row(y, z);
    }
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = V::load(bc + x) * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(V::load(bxm[k] + x), V::load(c + x - (k + 1)), acc);
        acc = V::fma(V::load(bxp[k] + x), V::load(c + x + (k + 1)), acc);
        acc = V::fma(V::load(bym[k] + x), V::load(rym[k] + x), acc);
        acc = V::fma(V::load(byp[k] + x), V::load(ryp[k] + x), acc);
        acc = V::fma(V::load(bzm[k] + x), V::load(rzm[k] + x), acc);
        acc = V::fma(V::load(bzp[k] + x), V::load(rzp[k] + x), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Grid3D<T> buf_[2];
  std::vector<Grid3D<T>> bands_;
};

}  // namespace cats
