#pragma once
// Constant-weight star stencil in 2D (the paper's "general 5-point stencil"
// for slope 1; 4S+1 points, 8S+1 flops for slope S).
//
// Weight layout: center w0, then per distance k=1..S the four axis weights
// (x-k, x+k, y-k, y+k), all distinct ("general" stencil: one multiply per
// point, matching the paper's 5 muls + 4 adds in 2D).
//
// Templated on the element type T (double by default, float for the fp32
// precision path — FloatStar2D in const2d_f32.hpp is ConstStar2D<S, float>).
// One stencil body serves both precisions via simd::vec_traits;
// element_bytes() feeds sizeof(T) into the Eq. 1/2 cache sizing so fp32
// tiles get twice the points per cache byte.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "grid/grid2d.hpp"
#include "simd/vecd.hpp"
#include "threads/first_touch.hpp"

namespace cats {

template <int S, class T = double>
class ConstStar2D {
  static_assert(S >= 1 && S <= 4);
  // Any element type with a simd::vec_traits mapping is admissible: double,
  // float, and the footprint analyzer's recording elements
  // (src/analysis/record.hpp).
  static_assert(requires { typename simd::vec_traits<T>::Vec; });

 public:
  static constexpr int kPoints = 4 * S + 1;

  struct Weights {
    T center = 0;
    std::array<T, S> xm{}, xp{}, ym{}, yp{};
  };

  ConstStar2D(int width, int height, const Weights& w)
      : w_(w), buf_{Grid2D<T>(width, height, S, kDeferFirstTouch),
                    Grid2D<T>(width, height, S, kDeferFirstTouch)} {}

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int slope() const { return S; }
  double flops_per_point() const { return 8.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }
  /// Bytes per stored element — parameterizes Eq. 1/2 tile sizing (E in the
  /// paper's parameter list): 8 for double, 4 for float.
  double element_bytes() const { return static_cast<double>(sizeof(T)); }

  /// Set initial interior values u(x,y,t=0) and constant boundary `bnd`.
  template <class F>
  void init(F&& f, T bnd = 0) {
    buf_[0].fill(bnd);
    buf_[1].fill(bnd);
    buf_[0].fill_interior(f);
  }

  /// init() with NUMA-aware placement: both buffers are first-touched in
  /// parallel with the same row-slab partition and pinning policy the
  /// schemes use (threads/first_touch.hpp), then seeded with f.
  template <class F>
  void parallel_init(const RunOptions& opt, F&& f, T bnd = 0) {
    const int W = width();
    first_touch_slabs(
        height(), S, opt.threads, opt.affinity,
        [&](int, int y0, int y1) {
          buf_[0].fill_rows(y0, y1, bnd);
          buf_[1].fill_rows(y0, y1, bnd);
          for (int y = std::max(y0, 0); y < std::min(y1, height()); ++y)
            for (int x = 0; x < W; ++x) buf_[0].at(x, y) = f(x, y);
        },
        opt.pin_cpus);
  }

  const Grid2D<T>& grid_at(int t) const { return buf_[t & 1]; }
  Grid2D<T>& grid_at(int t) { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T_) const {
    const Grid2D<T>& g = grid_at(T_);
    out.clear();
    out.reserve(static_cast<std::size_t>(width()) * height());
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

  /// Process x in [x0, x1) in V-width steps; returns the first unprocessed x.
  template <class V>
  int span(int t, int y, int x0, int x1) {
    const Grid2D<T>& src = buf_[(t - 1) & 1];
    Grid2D<T>& dst = buf_[t & 1];
    const T* c = src.row(y);
    T* o = dst.row(y);
    const T* rm[S];
    const T* rp[S];
    for (int k = 0; k < S; ++k) {
      rm[k] = src.row(y - (k + 1));
      rp[k] = src.row(y + (k + 1));
    }
    const V wc = V::broadcast(w_.center);
    V wxm[S], wxp[S], wym[S], wyp[S];
    for (int k = 0; k < S; ++k) {
      const auto i = static_cast<std::size_t>(k);
      wxm[k] = V::broadcast(w_.xm[i]);
      wxp[k] = V::broadcast(w_.xp[i]);
      wym[k] = V::broadcast(w_.ym[i]);
      wyp[k] = V::broadcast(w_.yp[i]);
    }
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = wc * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(wxm[k], V::load(c + x - (k + 1)), acc);
        acc = V::fma(wxp[k], V::load(c + x + (k + 1)), acc);
        acc = V::fma(wym[k], V::load(rm[k] + x), acc);
        acc = V::fma(wyp[k], V::load(rp[k] + x), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Weights w_;
  Grid2D<T> buf_[2];
};

/// Standard heat-equation-flavored weights for examples and tests.
template <int S, class T = double>
typename ConstStar2D<S, T>::Weights default_star2d_weights() {
  typename ConstStar2D<S, T>::Weights w;
  w.center = static_cast<T>(0.5);
  for (int k = 0; k < S; ++k) {
    const double f = 0.5 / (4 * S) * (k == 0 ? 1.2 : 0.8);
    const auto i = static_cast<std::size_t>(k);
    // Slightly asymmetric so tests catch transposed/reflected indexing bugs.
    w.xm[i] = static_cast<T>(f * 1.01);
    w.xp[i] = static_cast<T>(f * 0.99);
    w.ym[i] = static_cast<T>(f * 1.02);
    w.yp[i] = static_cast<T>(f * 0.98);
  }
  return w;
}

}  // namespace cats
