#pragma once
// Multicore wavefront-diamond (MWD) group walker.
//
// An MWD plan (plan/emit.cpp emit_mwd) is a CATS2 diamond-tube schedule
// whose owners are thread *groups*: the diamond is sized against the pooled
// cache Z*m, and the m members of a group cooperate on each tube. This
// header is the cooperation schedule — a refinement of the tile's serial
// slab walk that the plan executor runs when the plan's group width
// TilePlan::mwd_group is m > 1 (plan/execute.hpp).
//
// Schedule. Each tube's timestep range [t0, t1] is cut into m contiguous
// *bands*, one per member, balanced by diamond cross-section area (the
// per-timestep |p_range| is independent of the wavefront, so equal-area
// bands equalize member work across the whole tube). Members then pipeline
// the tube's wavefronts with a one-wavefront stagger: in window W (all
// members run the identical window range [w_lo, w_hi + m - 1]), member k
// computes its band's slabs of wavefront w = W - k, every window opening
// with one team-barrier crossing and closing with the member's walker flush
// (end_tile) — flushed *before* the next barrier, so no lazily buffered
// fused group or unfenced NT store can leak past the ordering the barrier
// establishes. One final crossing after the last window orders all members'
// work before the group lead publishes the tile's DoneFlag.
//
// Why every intra-tube dependence is ordered. A slab (w, t) reads (and
// WAR-overwrites against) positions pos' in [pos - s, pos + s] at t - 1,
// i.e. producer slabs (w', t-1) with w' = pos' + s(t-1) in [w - 2s, w].
// Let k = band(t) and k' = band(t-1); bands are contiguous and ascending in
// t, so k' <= k. Two cases:
//   * k' < k: the producer runs in window w' + k' <= w + k - 1 < w + k, a
//     strictly earlier window, and the consumer's window-opening barrier
//     orders it (the producer's flush ran before that barrier).
//   * k' = k: same member. Either w' < w (an earlier window of the same
//     member: program order) or w' = w and the member walks its band's
//     timesteps ascending, so t - 1 precedes t in program order.
// Inter-tube dependences are the plan's Done edges, untouched: the lead
// acquires them before the first window and the first window's barrier
// propagates the acquisition to every member.
//
// Why fusion/TV/NT compose unchanged. A member's slabs are *full-width*
// chain links (the same boxes the serial walk produces, merely partitioned
// by timestep), walked at ascending t within one wavefront — exactly the
// chain shape WaveWalker2D/3D fuses (same wavefront, t one up, position s
// down). A chain never spans windows (the wavefront changes), so the
// per-window flush costs no fusion. Trailing (t == t1) slabs live in the
// last band only; their NT stores are fenced by that member's window flush
// before the final barrier and the lead's publish.
//
// Rejected alternatives (measured/proved during design): splitting each
// wavefront *spatially* across members breaks the temporal-fusion stagger
// proof in both shift directions; per-wavefront plan tiles explode the IR
// by orders of magnitude; tile-granular Done edges between member bands
// serialize the tube; a relative-position block partition of each
// wavefront's t-range violates the k' <= k band monotonicity the ordering
// argument needs.

#include <cstdint>
#include <vector>

#include "core/geometry.hpp"
#include "plan/plan.hpp"

namespace cats::wave {

/// Equal-area contiguous band partition of [tile.t0, tile.t1] over m
/// members: band[i] is the member owning timestep t0 + i, ascending in i.
/// Weights are diamond cross-sections |p_range(t)| (wavefront-independent),
/// greedily cut at the area quantiles total*k/m.
inline std::vector<int> mwd_band_partition(const DiamondTiling& dt,
                                           const plan_ir::Tile& tile, int m) {
  const int len = std::max(tile.t1 - tile.t0 + 1, 0);
  std::vector<int> band(static_cast<std::size_t>(len), 0);
  std::vector<std::int64_t> wts(static_cast<std::size_t>(len), 0);
  std::int64_t total = 0;
  for (int i = 0; i < len; ++i) {
    const Range pr = dt.p_range(tile.di, tile.dj, tile.t0 + i);
    wts[static_cast<std::size_t>(i)] = pr.empty() ? 0 : pr.hi - pr.lo + 1;
    total += wts[static_cast<std::size_t>(i)];
  }
  int k = 0;
  std::int64_t run = 0;
  for (int i = 0; i < len; ++i) {
    band[static_cast<std::size_t>(i)] = k;
    run += wts[static_cast<std::size_t>(i)];
    while (k + 1 < m && run * m >= total * (k + 1)) ++k;
  }
  return band;
}

/// Run member `member` of an m-wide group over one Scheme::Mwd DiamondTube
/// tile. `barrier()` must cross the group's TeamBarrier (and account the
/// crossing); `fn` is the member's private slab walker. Every member invokes
/// this with the identical tile, so barrier counts always match. The slab
/// stream replicates for_each_slab's DiamondTube enumeration exactly
/// (geometry, front hints at each wavefront's unclipped first timestep,
/// trailing at t1) restricted to the member's band — the union over members
/// is the verified serial walk, reordered only where the proof above orders
/// it. The final barrier is crossed here; the caller publishes after.
template <class Barrier, class F>
CATS_PLAN_NO_UNSWITCH inline void mwd_walk_tile(const plan_ir::TilePlan& p,
                                                const plan_ir::Tile& tile,
                                                int member, int m,
                                                Barrier&& barrier, F& fn) {
  const std::int64_t s = p.slope;
  const std::int64_t tiled = (p.dims == 2) ? p.nx : p.ny;
  const std::int64_t trav = (p.dims == 2) ? p.ny : p.nz;
  const DiamondTiling dt{static_cast<int>(s), p.bz, tiled, tile.t0, tile.t1};
  const Range tr{tile.t0, tile.t1};
  const std::vector<int> band = mwd_band_partition(dt, tile, m);
  const std::int64_t w_lo = s * tr.lo;
  const std::int64_t w_hi = trav - 1 + s * tr.hi;
  for (std::int64_t W = w_lo; W <= w_hi + m - 1; ++W) {
    barrier();
    const std::int64_t w = W - member;
    if (w >= w_lo && w <= w_hi) {
      const Range ts = intersect(tr, {ceil_div(w - trav + 1, s),
                                      floor_div(w, s)});
      for (std::int64_t t = ts.lo; t <= ts.hi; ++t) {
        if (band[static_cast<std::size_t>(t - tr.lo)] != member) continue;
        const Range pr = dt.p_range(tile.di, tile.dj, t);
        if (pr.empty()) continue;
        const std::int64_t pos = w - s * t;
        plan_ir::Box b;
        if (p.dims == 2) {
          b.xlo = pr.lo;
          b.xhi = pr.hi;
          b.ylo = b.yhi = pos;
        } else {
          b.ylo = pr.lo;
          b.yhi = pr.hi;
          b.zlo = b.zhi = pos;
          b.xlo = 0;
          b.xhi = p.nx - 1;
        }
        fn(plan_ir::Slab{static_cast<int>(t), b,
                         tile.front_hints && t == ts.lo, w,
                         static_cast<int>(t) == tile.t1});
      }
    }
    // Window flush BEFORE the next barrier: a fused group buffered across
    // it would execute after readers the barrier already released.
    if constexpr (requires { fn.end_tile(); }) fn.end_tile();
  }
  barrier();  // every member's work ordered before the lead's publish
}

}  // namespace cats::wave
