#pragma once
// Fused 2D FDTD kernel (Section III-C).
//
// PluTo's fdtd-2d benchmark updates three fields per timestep:
//   ey(i,j) -= 0.5*(hz(i,j) - hz(i-1,j))
//   ex(i,j) -= 0.5*(hz(i,j) - hz(i,j-1))
//   hz(i,j) -= 0.7*(ex(i,j+1) - ex(i,j) + ey(i+1,j) - ey(i,j))
// where hz(t) reads ex/ey at timestep t with *forward* offsets. The paper
// fuses the three loops into one kernel for CATS. A literal in-place fusion
// carries same-timestep sequential dependencies that would serialize
// split-tiling in a general library, so we build the Jacobi-ized fusion
// (DESIGN.md §5): the two forward reads are expanded through their own update
// expressions, making every read a t-1 read of double-buffered fields:
//   eyN(a,b) = ey(a,b) - 0.5*(hz(a,b) - hz(a-1,b))        [t-1 values]
//   exN(a,b) = ex(a,b) - 0.5*(hz(a,b) - hz(a,b-1))
//   ey' = eyN(i,j);  ex' = exN(i,j)
//   hz' = hz(i,j) - 0.7*(exN(i,j+1) - ex' + eyN(i+1,j) - ey')
// 17 true flops per point (the unfused form does 11); slope 1; three field
// doubles per point live in the wavefront (state_doubles_per_point = 3),
// which shrinks TZ/BZ exactly as the paper describes for this test.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "grid/grid2d.hpp"
#include "simd/vecd.hpp"
#include "threads/first_touch.hpp"

namespace cats {

class Fdtd2D {
 public:
  Fdtd2D(int width, int height)
      : ex_{Grid2D<double>(width, height, 1, kDeferFirstTouch),
            Grid2D<double>(width, height, 1, kDeferFirstTouch)},
        ey_{Grid2D<double>(width, height, 1, kDeferFirstTouch),
            Grid2D<double>(width, height, 1, kDeferFirstTouch)},
        hz_{Grid2D<double>(width, height, 1, kDeferFirstTouch),
            Grid2D<double>(width, height, 1, kDeferFirstTouch)} {}

  int width() const { return hz_[0].width(); }
  int height() const { return hz_[0].height(); }
  int slope() const { return 1; }
  double flops_per_point() const { return 17.0; }
  double state_doubles_per_point() const { return 3.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }

  /// f(x, y) -> (ex0, ey0, hz0) initial fields; ghosts are 0 (PEC-style).
  template <class F>
  void init(F&& f) {
    for (int p = 0; p < 2; ++p) {
      ex_[p].fill(0.0);
      ey_[p].fill(0.0);
      hz_[p].fill(0.0);
    }
    for (int y = 0; y < height(); ++y)
      for (int x = 0; x < width(); ++x) {
        const auto [e1, e2, h] = f(x, y);
        ex_[0].at(x, y) = e1;
        ey_[0].at(x, y) = e2;
        hz_[0].at(x, y) = h;
      }
  }

  /// init() with NUMA-aware placement: all six field buffers are
  /// first-touched in parallel with the same row-slab partition and pinning
  /// policy the schemes use, then seeded with f. The span itself stays on
  /// unfused sub/mul arithmetic: the Jacobi-ized update has no a*b+c
  /// subexpression whose fusion would be shared by scalar and vector paths,
  /// so contracting it would only perturb the documented expression tree.
  template <class F>
  void parallel_init(const RunOptions& opt, F&& f) {
    const int W = width();
    first_touch_slabs(height(), 1, opt.threads, opt.affinity,
                      [&](int, int y0, int y1) {
                        for (int p = 0; p < 2; ++p) {
                          ex_[p].fill_rows(y0, y1, 0.0);
                          ey_[p].fill_rows(y0, y1, 0.0);
                          hz_[p].fill_rows(y0, y1, 0.0);
                        }
                        for (int y = std::max(y0, 0);
                             y < std::min(y1, height()); ++y)
                          for (int x = 0; x < W; ++x) {
                            const auto [e1, e2, h] = f(x, y);
                            ex_[0].at(x, y) = e1;
                            ey_[0].at(x, y) = e2;
                            hz_[0].at(x, y) = h;
                          }
                      });
  }

  const Grid2D<double>& ex_at(int t) const { return ex_[t & 1]; }
  const Grid2D<double>& ey_at(int t) const { return ey_[t & 1]; }
  const Grid2D<double>& hz_at(int t) const { return hz_[t & 1]; }

  void copy_result_to(std::vector<double>& out, int T) const {
    out.clear();
    for (const Grid2D<double>* g : {&ex_[T & 1], &ey_[T & 1], &hz_[T & 1]})
      for (int y = 0; y < height(); ++y)
        for (int x = 0; x < width(); ++x) out.push_back(g->at(x, y));
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
    const int p = (t - 1) & 1, d = t & 1;
    const double* exc = ex_[p].row(y);
    const double* eyc = ey_[p].row(y);
    const double* eyp = ey_[p].row(y + 1);
    const double* hzc = hz_[p].row(y);
    const double* hzm = hz_[p].row(y - 1);
    const double* hzp = hz_[p].row(y + 1);
    double* exd = ex_[d].row(y);
    double* eyd = ey_[d].row(y);
    double* hzd = hz_[d].row(y);
    const V half = V::broadcast(0.5);
    const V cfl = V::broadcast(0.7);
    int x = x0;
    for (; x + V::width <= x1; x += V::width) {
      const V hz0 = V::load(hzc + x);
      // ey' and ex' at (x, y)
      const V ey1 = V::load(eyc + x) - half * (hz0 - V::load(hzm + x));
      const V ex1 = V::load(exc + x) - half * (hz0 - V::load(hzc + x - 1));
      // exN at (x+1, y): ex - 0.5*(hz(x+1) - hz(x))
      const V hzr = V::load(hzc + x + 1);
      const V exr = V::load(exc + x + 1) - half * (hzr - hz0);
      // eyN at (x, y+1): ey - 0.5*(hz(y+1) - hz(y))
      const V hzu = V::load(hzp + x);
      const V eyu = V::load(eyp + x) - half * (hzu - hz0);
      const V hz1 = hz0 - cfl * ((exr - ex1) + (eyu - ey1));
      ey1.store(eyd + x);
      ex1.store(exd + x);
      hz1.store(hzd + x);
    }
    return x;
  }

  Grid2D<double> ex_[2], ey_[2], hz_[2];
};

}  // namespace cats
