#pragma once
// Constant-weight star stencil in 1D (2S+1 points, 4S+1 flops). 1D domains
// always run CATS1 — the paper: "for 1D problems CATS0 is equivalent to the
// naive scheme so CATS1 is the better choice".

#include <array>
#include <cstdint>
#include <vector>

#include "grid/grid2d.hpp"
#include "simd/vecd.hpp"

namespace cats {

template <int S>
class ConstStar1D {
  static_assert(S >= 1 && S <= 4);

 public:
  static constexpr int kPoints = 2 * S + 1;

  struct Weights {
    double center = 0.0;
    std::array<double, S> xm{}, xp{};
  };

  // A 1-row Grid2D provides the aligned, ghost-padded storage.
  ConstStar1D(int width, const Weights& w)
      : w_(w), buf_{Grid2D<double>(width, 1, S), Grid2D<double>(width, 1, S)} {}

  int width() const { return buf_[0].width(); }
  int slope() const { return S; }
  double flops_per_point() const { return 4.0 * S + 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }

  template <class F>
  void init(F&& f, double bnd = 0.0) {
    buf_[0].fill(bnd);
    buf_[1].fill(bnd);
    for (int x = 0; x < width(); ++x) buf_[0].at(x, 0) = f(x);
  }

  const Grid2D<double>& grid_at(int t) const { return buf_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T) const {
    const Grid2D<double>& g = grid_at(T);
    out.clear();
    for (int x = 0; x < width(); ++x) out.push_back(g.at(x, 0));
  }

  void process_row(int t, int x0, int x1) {
    const int x = span<simd::VecD>(t, x0, x1);
    span<simd::ScalarD>(t, x, x1);
  }

  void process_row_scalar(int t, int x0, int x1) {
    span<simd::ScalarD>(t, x0, x1);
  }

 private:
  template <class V>
  int span(int t, int x0, int x1) {
    const double* c = buf_[(t - 1) & 1].row(0);
    double* o = buf_[t & 1].row(0);
    const V wc = V::broadcast(w_.center);
    V wxm[S], wxp[S];
    for (int k = 0; k < S; ++k) {
      wxm[k] = V::broadcast(w_.xm[static_cast<std::size_t>(k)]);
      wxp[k] = V::broadcast(w_.xp[static_cast<std::size_t>(k)]);
    }
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      V acc = wc * V::load(c + x);
      for (int k = 0; k < S; ++k) {
        acc = V::fma(wxm[k], V::load(c + x - (k + 1)), acc);
        acc = V::fma(wxp[k], V::load(c + x + (k + 1)), acc);
      }
      acc.store(o + x);
    }
    return x;
  }

  Weights w_;
  Grid2D<double> buf_[2];
};

}  // namespace cats
