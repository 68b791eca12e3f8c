#pragma once
// Dense box stencil in 3D: all (2S+1)^3 points weighted (27-point for S=1).

#include <array>
#include <cstdint>
#include <vector>

#include "grid/grid3d.hpp"
#include "simd/vecd.hpp"

namespace cats {

template <int S>
class Box3D {
  static_assert(S == 1);  // 27-point; larger boxes are rarely used

 public:
  static constexpr int kSide = 2 * S + 1;
  static constexpr int kPoints = kSide * kSide * kSide;

  /// Weights: w[((dz+S)*kSide + (dy+S))*kSide + (dx+S)].
  using Weights = std::array<double, kPoints>;

  Box3D(int width, int height, int depth, const Weights& w)
      : w_(w), buf_{Grid3D<double>(width, height, depth, S),
                    Grid3D<double>(width, height, depth, S)} {}

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int depth() const { return buf_[0].depth(); }
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

  const Grid3D<double>& grid_at(int t) const { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T) const {
    const Grid3D<double>& g = grid_at(T);
    out.clear();
    for (int z = 0; z < depth(); ++z)
      for (int y = 0; y < height(); ++y)
        for (int x = 0; x < width(); ++x) out.push_back(g.at(x, y, z));
  }

  void process_row(int t, int y, int z, int x0, int x1) {
    const int x = span<simd::VecD>(t, y, z, x0, x1);
    span<simd::ScalarD>(t, y, z, x, x1);
  }

  void process_row_scalar(int t, int y, int z, int x0, int x1) {
    span<simd::ScalarD>(t, y, z, x0, x1);
  }

 private:
  template <class V>
  int span(int t, int y, int z, int x0, int x1) {
    const Grid3D<double>& src = buf_[(t - 1) & 1];
    Grid3D<double>& dst = buf_[t & 1];
    const double* rows[kSide * kSide];
    for (int dz = -S; dz <= S; ++dz)
      for (int dy = -S; dy <= S; ++dy)
        rows[(dz + S) * kSide + (dy + S)] = src.row(y + dy, z + dz);
    double* o = dst.row(y, z);
    V wv[kPoints];
    for (int i = 0; i < kPoints; ++i)
      wv[i] = V::broadcast(w_[static_cast<std::size_t>(i)]);
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = V::zero();
      for (int p = 0; p < kSide * kSide; ++p)
        for (int dx = 0; dx < kSide; ++dx)
          acc = V::fma(wv[p * kSide + dx], V::load(rows[p] + x + dx - S), acc);
      acc.store(o + x);
    }
    return x;
  }

  Weights w_;
  Grid3D<double> buf_[2];
};

template <int S>
typename Box3D<S>::Weights default_box3d_weights() {
  typename Box3D<S>::Weights w{};
  double sum = 0.0;
  for (int i = 0; i < Box3D<S>::kPoints; ++i) {
    w[static_cast<std::size_t>(i)] = 1.0 + 0.005 * i;
    sum += w[static_cast<std::size_t>(i)];
  }
  for (auto& v : w) v /= sum;
  return w;
}

}  // namespace cats
