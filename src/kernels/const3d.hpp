#pragma once
// Constant-weight star stencil in 3D (7-point for slope 1, 13-point for
// slope 2, 19-point for slope 3 — the Section III-E sweep). 6S+1 points,
// 12S+1 flops.
//
// Templated on the element type T like ConstStar2D: one stencil body serves
// fp64, fp32 and the footprint analyzer's recording elements via
// simd::vec_traits (src/analysis/record.hpp).

#include <algorithm>
#include <array>
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
class ConstStar3D {
  static_assert(S >= 1 && S <= 4);
  // Any element type with a simd::vec_traits mapping is admissible.
  static_assert(requires { typename simd::vec_traits<T>::Vec; });

 public:
  static constexpr int kPoints = 6 * S + 1;

  struct Weights {
    T center = 0;
    std::array<T, S> xm{}, xp{}, ym{}, yp{}, zm{}, zp{};
  };

  ConstStar3D(int width, int height, int depth, const Weights& w)
      : w_(w),
        buf_{Grid3D<T>(width, height, depth, S, kDeferFirstTouch),
             Grid3D<T>(width, height, depth, S, kDeferFirstTouch)} {}

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int depth() const { return buf_[0].depth(); }
  int slope() const { return S; }
  double flops_per_point() const { return 12.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }
  /// Bytes per stored element — parameterizes Eq. 1/2 tile sizing.
  double element_bytes() const { return static_cast<double>(sizeof(T)); }
  std::string tune_id() const {
    if constexpr (std::is_same_v<T, float>) {
      return "const3d_f32/s" + std::to_string(S);
    } else {
      return "const3d/s" + std::to_string(S);
    }
  }

  template <class F>
  void init(F&& f, T bnd = 0) {
    buf_[0].fill(bnd);
    buf_[1].fill(bnd);
    buf_[0].fill_interior(f);
  }

  /// init() with NUMA-aware placement: z-slab partitioned parallel first
  /// touch under the schemes' pinning policy (threads/first_touch.hpp).
  template <class F>
  void parallel_init(const RunOptions& opt, F&& f, T bnd = 0) {
    const int W = width(), H = height();
    first_touch_slabs(
        depth(), S, opt.threads, opt.affinity,
        [&](int, int z0, int z1) {
          buf_[0].fill_slabs(z0, z1, bnd);
          buf_[1].fill_slabs(z0, z1, bnd);
          for (int z = std::max(z0, 0); z < std::min(z1, depth()); ++z)
            for (int y = 0; y < H; ++y)
              for (int x = 0; x < W; ++x) buf_[0].at(x, y, z) = f(x, y, z);
        },
        opt.pin_cpus);
  }

  const Grid3D<T>& grid_at(int t) const { return buf_[t & 1]; }
  Grid3D<T>& grid_at(int t) { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T_) const {
    const Grid3D<T>& g = grid_at(T_);
    out.clear();
    out.reserve(static_cast<std::size_t>(width()) * height() * depth());
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
    for (int k = 0; k < S; ++k) {
      rym[k] = src.row(y - (k + 1), z);
      ryp[k] = src.row(y + (k + 1), z);
      rzm[k] = src.row(y, z - (k + 1));
      rzp[k] = src.row(y, z + (k + 1));
    }
    const V wc = V::broadcast(w_.center);
    V wxm[S], wxp[S], wym[S], wyp[S], wzm[S], wzp[S];
    for (int k = 0; k < S; ++k) {
      const auto i = static_cast<std::size_t>(k);
      wxm[k] = V::broadcast(w_.xm[i]);
      wxp[k] = V::broadcast(w_.xp[i]);
      wym[k] = V::broadcast(w_.ym[i]);
      wyp[k] = V::broadcast(w_.yp[i]);
      wzm[k] = V::broadcast(w_.zm[i]);
      wzp[k] = V::broadcast(w_.zp[i]);
    }
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = wc * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(wxm[k], V::load(c + x - (k + 1)), acc);
        acc = V::fma(wxp[k], V::load(c + x + (k + 1)), acc);
        acc = V::fma(wym[k], V::load(rym[k] + x), acc);
        acc = V::fma(wyp[k], V::load(ryp[k] + x), acc);
        acc = V::fma(wzm[k], V::load(rzm[k] + x), acc);
        acc = V::fma(wzp[k], V::load(rzp[k] + x), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Weights w_;
  Grid3D<T> buf_[2];
};

template <int S, class T = double>
typename ConstStar3D<S, T>::Weights default_star3d_weights() {
  typename ConstStar3D<S, T>::Weights w;
  w.center = static_cast<T>(0.4);
  for (int k = 0; k < S; ++k) {
    const double f = 0.6 / (6 * S) * (k == 0 ? 1.2 : 0.8);
    const auto i = static_cast<std::size_t>(k);
    w.xm[i] = static_cast<T>(f * 1.01);
    w.xp[i] = static_cast<T>(f * 0.99);
    w.ym[i] = static_cast<T>(f * 1.02);
    w.yp[i] = static_cast<T>(f * 0.98);
    w.zm[i] = static_cast<T>(f * 1.03);
    w.zp[i] = static_cast<T>(f * 0.97);
  }
  return w;
}

}  // namespace cats
