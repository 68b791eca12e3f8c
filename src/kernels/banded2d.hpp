#pragma once
// Variable-coefficient star stencil in 2D = banded-matrix vector product
// (Section III-B). Each of the NS = 4S+1 stencil positions has its own
// coefficient field (structure-of-arrays, so coefficient loads are
// unit-stride SIMD like the values). The matrix entries for the current
// wavefront must reside in cache too, so CS is augmented by NS (the paper
// replaces CS by CS + NS in Eqs. 1-2) — extra_cache_doubles_per_point().
//
// Templated on the element type T like ConstStar2D: one stencil body serves
// fp64, fp32 and the footprint analyzer's recording elements via
// simd::vec_traits (src/analysis/record.hpp).

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/options.hpp"
#include "grid/grid2d.hpp"
#include "simd/vecd.hpp"
#include "threads/first_touch.hpp"

namespace cats {

template <int S, class T = double>
class Banded2D {
  static_assert(S >= 1 && S <= 4);
  // Any element type with a simd::vec_traits mapping is admissible.
  static_assert(requires { typename simd::vec_traits<T>::Vec; });

 public:
  static constexpr int kBands = 4 * S + 1;  // NS

  Banded2D(int width, int height)
      : buf_{Grid2D<T>(width, height, S, kDeferFirstTouch),
             Grid2D<T>(width, height, S, kDeferFirstTouch)} {
    bands_.reserve(kBands);
    for (int b = 0; b < kBands; ++b) bands_.emplace_back(width, height, S);
  }

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int slope() const { return S; }
  double flops_per_point() const { return 8.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return kBands; }
  /// Bytes per stored element — parameterizes Eq. 1/2 tile sizing.
  double element_bytes() const { return static_cast<double>(sizeof(T)); }
  std::string tune_id() const {
    if constexpr (std::is_same_v<T, float>) {
      return "banded2d_f32/s" + std::to_string(S);
    } else {
      return "banded2d/s" + std::to_string(S);
    }
  }

  /// Band order: 0 = center, then per k=1..S: x-k, x+k, y-k, y+k.
  Grid2D<T>& band(int b) { return bands_[static_cast<std::size_t>(b)]; }

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
    const int W = width();
    first_touch_slabs(height(), S, opt.threads, opt.affinity,
                      [&](int, int y0, int y1) {
                        buf_[0].fill_rows(y0, y1, bnd);
                        buf_[1].fill_rows(y0, y1, bnd);
                        for (int y = std::max(y0, 0);
                             y < std::min(y1, height()); ++y)
                          for (int x = 0; x < W; ++x)
                            buf_[0].at(x, y) = f(x, y);
                      });
  }

  /// g(b, x, y) -> coefficient of band b at row position (x, y).
  template <class G>
  void init_bands(G&& g) {
    for (int b = 0; b < kBands; ++b)
      bands_[static_cast<std::size_t>(b)].fill_interior(
          [&](int x, int y) { return g(b, x, y); });
  }

  const Grid2D<T>& grid_at(int t) const { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T_) const {
    const Grid2D<T>& g = grid_at(T_);
    out.clear();
    for (int y = 0; y < height(); ++y)
      for (int x = 0; x < width(); ++x)
        out.push_back(static_cast<double>(g.at(x, y)));
  }

  void process_row(int t, int y, int x0, int x1) {
    const int x = span<Vec>(t, y, x0, x1);
    span<Sc>(t, y, x, x1);
  }

  void process_row_scalar(int t, int y, int x0, int x1) {
    span<Sc>(t, y, x0, x1);
  }

 private:
  using Vec = typename simd::vec_traits<T>::Vec;
  using Sc = typename simd::vec_traits<T>::Scalar;

  template <class V>
  int span(int t, int y, int x0, int x1) {
    const Grid2D<T>& src = buf_[(t - 1) & 1];
    Grid2D<T>& dst = buf_[t & 1];
    const T* c = src.row(y);
    T* o = dst.row(y);
    const T* rm[S];
    const T* rp[S];
    const T* bc = bands_[0].row(y);
    const T *bxm[S], *bxp[S], *bym[S], *byp[S];
    for (int k = 0; k < S; ++k) {
      rm[k] = src.row(y - (k + 1));
      rp[k] = src.row(y + (k + 1));
      const std::size_t base = static_cast<std::size_t>(4 * k);
      bxm[k] = bands_[base + 1].row(y);
      bxp[k] = bands_[base + 2].row(y);
      bym[k] = bands_[base + 3].row(y);
      byp[k] = bands_[base + 4].row(y);
    }
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = V::load(bc + x) * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(V::load(bxm[k] + x), V::load(c + x - (k + 1)), acc);
        acc = V::fma(V::load(bxp[k] + x), V::load(c + x + (k + 1)), acc);
        acc = V::fma(V::load(bym[k] + x), V::load(rm[k] + x), acc);
        acc = V::fma(V::load(byp[k] + x), V::load(rp[k] + x), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Grid2D<T> buf_[2];
  std::vector<Grid2D<T>> bands_;
};

}  // namespace cats
