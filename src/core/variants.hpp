#pragma once
// Design-choice variants used by the ablation benches. These implement the
// alternatives the paper argues AGAINST, so their cost can be measured:
//
// * run_diagonal_wavefront_2d: Wonnacott-style diagonal wavefronts
//   {x + y + t = const} instead of CATS's axis-aligned {y + t = const}.
//   The paper (Section II-B): "The reasons for choosing axis-aligned over
//   diagonal wavefronts are the much simpler indexing and more favorable
//   memory access pattern" — a diagonal wavefront visits one point per row,
//   so the unit-stride dimension cannot be vectorized and every access
//   changes the cache line.
//
// * run_cats2_dynamic: CATS2 with dynamic (work-stealing) diamond
//   assignment instead of the paper's a-priori compile-time thread->tile
//   mapping. The paper argues static assignment plus tile-to-tile waits is
//   enough because tiles are equal-sized; this variant measures what the
//   extra scheduling machinery costs/buys.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/geometry.hpp"
#include "core/options.hpp"
#include "core/stencil.hpp"
#include "threads/progress.hpp"
#include "threads/thread_pool.hpp"

namespace cats {

/// Diagonal-wavefront time skewing in 2D (single tile, serial traversal —
/// the ablation isolates the wavefront orientation, not parallelization).
/// Sweeps w = x + y + 2s*tau ascending; within a wavefront tau ascends; the
/// points of one (w, tau) level form an anti-diagonal x + y = const and are
/// processed point-by-point (there is no contiguous run to vectorize — that
/// is precisely the drawback being measured).
template <RowKernel2D K>
void run_diagonal_wavefront_2d(K& k, int T, int tz_param) {
  const int W = k.width(), H = k.height(), s = k.slope();
  const int tz_cap = std::max(1, std::min(tz_param, T));
  const std::int64_t s2 = 2ll * s;

  for (int t0 = 1; t0 <= T; t0 += tz_cap) {
    const int tz = std::min(tz_cap, T - t0 + 1);
    const std::int64_t w_hi = (W - 1) + (H - 1) + s2 * (tz - 1);
    for (std::int64_t w = 0; w <= w_hi; ++w) {
      const Range taus = intersect({ceil_div(w - (W - 1) - (H - 1), s2),
                                    floor_div(w, s2)},
                                   {0, tz - 1});
      for (std::int64_t tau = taus.lo; tau <= taus.hi; ++tau) {
        const std::int64_t c = w - s2 * tau;  // x + y on this level
        const std::int64_t x_lo = std::max<std::int64_t>(0, c - (H - 1));
        const std::int64_t x_hi = std::min<std::int64_t>(W - 1, c);
        for (std::int64_t x = x_lo; x <= x_hi; ++x) {
          k.process_row(t0 + static_cast<int>(tau),
                        static_cast<int>(c - x), static_cast<int>(x),
                        static_cast<int>(x) + 1);
        }
      }
    }
  }
}

/// CATS2 (2D) with dynamic diamond assignment: threads claim the next ready
/// diamond in the current row from a shared atomic cursor instead of the
/// static round-robin map. Synchronization cost: one fetch_add per diamond
/// plus the same two diamond waits. With no fixed owner to publish through,
/// each diamond gets its own ProgressCell, published once with 1.
template <RowKernel2D K>
void run_cats2_dynamic(K& k, int T, const RunOptions& opt, std::int64_t bz) {
  const int H = k.height();
  const int s = k.slope();
  const DiamondTiling dt{s, std::max<std::int64_t>(bz, 2ll * s), k.width(), 1, T};

  const Range ir = dt.i_range();
  const Range jr = dt.j_range();
  const Range rr = dt.r_range();
  const std::int64_t ni = ir.hi - ir.lo + 1;
  const std::int64_t nj = jr.hi - jr.lo + 1;
  const std::int64_t n_rows = rr.hi - rr.lo + 1;

  std::vector<ProgressCell> done(static_cast<std::size_t>(ni * nj));
  auto cell = [&](std::int64_t i, std::int64_t j) -> ProgressCell& {
    return done[static_cast<std::size_t>((i - ir.lo) * nj + (j - jr.lo))];
  };
  auto in_range = [&](std::int64_t i, std::int64_t j) {
    return i >= ir.lo && i <= ir.hi && j >= jr.lo && j <= jr.hi;
  };
  // One claim cursor per row; a thread may only move to row r+1 after row r
  // is fully claimed (it can still have to wait on its diamonds' cells, as
  // in the static scheme).
  std::vector<std::atomic<std::int64_t>> cursor(
      static_cast<std::size_t>(n_rows));
  for (auto& c : cursor) c.store(0);

  auto process_tube = [&](std::int64_t i, std::int64_t j) {
    const Range tr = dt.t_range(i, j);
    if (tr.empty()) return;
    const std::int64_t w_lo = s * tr.lo;
    const std::int64_t w_hi = H - 1 + s * tr.hi;
    for (std::int64_t w = w_lo; w <= w_hi; ++w) {
      const Range ts = intersect(tr, {ceil_div(w - H + 1, s), floor_div(w, s)});
      for (std::int64_t t = ts.lo; t <= ts.hi; ++t) {
        const Range px = dt.p_range(i, j, t);
        if (px.empty()) continue;
        k.process_row(static_cast<int>(t), static_cast<int>(w - s * t),
                      static_cast<int>(px.lo), static_cast<int>(px.hi + 1));
      }
    }
  };

  ThreadPool pool(std::max(1, opt.threads), opt.affinity);
  pool.run([&](int) {
    for (std::int64_t r = rr.lo; r <= rr.hi; ++r) {
      const std::int64_t ilo = std::max(ir.lo, jr.lo + r);
      const std::int64_t ihi = std::min(ir.hi, jr.hi + r);
      auto& cur = cursor[static_cast<std::size_t>(r - rr.lo)];
      for (;;) {
        // order: relaxed — work-stealing ticket; only atomicity matters, the
        // diamond's data ordering comes from its cells' publish/wait edges.
        const std::int64_t slot = cur.fetch_add(1, std::memory_order_relaxed);
        const std::int64_t i = ilo + slot;
        if (i > ihi) break;
        const std::int64_t j = i - r;
        if (dt.nonempty(i, j)) {
          if (in_range(i - 1, j) && dt.nonempty(i - 1, j)) {
            cell(i - 1, j).wait_ge(1);
          }
          if (in_range(i, j + 1) && dt.nonempty(i, j + 1)) {
            cell(i, j + 1).wait_ge(1);
          }
          process_tube(i, j);
        }
        cell(i, j).publish(1);
      }
    }
  });
}

}  // namespace cats
