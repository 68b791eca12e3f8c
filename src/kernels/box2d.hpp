#pragma once
// Dense box (Moore-neighborhood) stencil in 2D: all (2S+1)^2 points carry a
// weight. CATS's dependency analysis covers box stencils of slope S (the
// geometry tests check the full |dx|,|dy| <= s box), so these drive the same
// schemes; the higher arithmetic intensity (2*(2S+1)^2 - 1 flops/point)
// makes them less memory-bound than star stencils.

#include <array>
#include <cstdint>
#include <vector>

#include "grid/grid2d.hpp"
#include "simd/vecd.hpp"

namespace cats {

template <int S>
class Box2D {
  static_assert(S >= 1 && S <= 3);

 public:
  static constexpr int kSide = 2 * S + 1;
  static constexpr int kPoints = kSide * kSide;

  /// Row-major weights: w[(dy+S)*kSide + (dx+S)].
  using Weights = std::array<double, kPoints>;

  Box2D(int width, int height, const Weights& w)
      : w_(w), buf_{Grid2D<double>(width, height, S),
                    Grid2D<double>(width, height, S)} {}

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int slope() const { return S; }
  double flops_per_point() const { return 2.0 * kPoints - 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }

  template <class F>
  void init(F&& f, double bnd = 0.0) {
    buf_[0].fill(bnd);
    buf_[1].fill(bnd);
    buf_[0].fill_interior(f);
  }

  const Grid2D<double>& grid_at(int t) const { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T) const {
    const Grid2D<double>& g = grid_at(T);
    out.clear();
    for (int y = 0; y < height(); ++y)
      for (int x = 0; x < width(); ++x) out.push_back(g.at(x, y));
  }

  void process_row(int t, int y, int x0, int x1) {
    const int x = span<simd::VecD>(t, y, x0, x1);
    span<simd::ScalarD>(t, y, x, x1);
  }

  void process_row_scalar(int t, int y, int x0, int x1) {
    span<simd::ScalarD>(t, y, x0, x1);
  }

 private:
  template <class V>
  int span(int t, int y, int x0, int x1) {
    const Grid2D<double>& src = buf_[(t - 1) & 1];
    Grid2D<double>& dst = buf_[t & 1];
    const double* rows[kSide];
    for (int dy = -S; dy <= S; ++dy) rows[dy + S] = src.row(y + dy);
    double* o = dst.row(y);
    V wv[kPoints];
    for (int i = 0; i < kPoints; ++i)
      wv[i] = V::broadcast(w_[static_cast<std::size_t>(i)]);
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = V::zero();
      for (int dy = 0; dy < kSide; ++dy)
        for (int dx = 0; dx < kSide; ++dx)
          acc = V::fma(wv[dy * kSide + dx], V::load(rows[dy] + x + dx - S), acc);
      acc.store(o + x);
    }
    return x;
  }

  Weights w_;
  Grid2D<double> buf_[2];
};

/// Normalized smoothing weights with mild asymmetry (tests/examples).
template <int S>
typename Box2D<S>::Weights default_box2d_weights() {
  typename Box2D<S>::Weights w{};
  double sum = 0.0;
  for (int i = 0; i < Box2D<S>::kPoints; ++i) {
    w[static_cast<std::size_t>(i)] = 1.0 + 0.01 * i;
    sum += w[static_cast<std::size_t>(i)];
  }
  for (auto& v : w) v /= sum;
  return w;
}

}  // namespace cats
