#pragma once
// TilePlan: the static schedule IR.
//
// Every scheme (naive, CATS1/2/3, PluTo-like) first *emits* its schedule as
// data — a list of tiles (space-time boxes with a thread owner and a fixed
// intra-tile traversal order) plus the synchronization the schedule performs
// (point-to-point tile-to-tile edges and global barrier phases) — and
// execution is then a walk of the emitted plan (plan/execute.hpp). The
// verifier (plan/verify.hpp) walks the *same* tiles through the *same* slab
// enumeration below, so what is checked is exactly what runs: the IR cannot
// drift from reality because reality is produced from the IR.
//
// Tiles are stored as compact geometry descriptors, not materialized point
// sets: a plan for a benchmark-sized run is a few thousand tiles regardless
// of the domain volume. `for_each_slab` expands a tile on demand into its
// ordered sequence of *slabs* — maximal boxes of points computed at one
// timestep with no intervening synchronization — which is the granularity at
// which kernels are invoked and dependences are checked.
//
// Coordinate conventions (matching core/geometry.hpp):
//   1D: x is both the compute row and the traversal dimension.
//   2D: x = unit-stride rows, y = traversal; CATS2 tiles x with diamonds.
//   3D: x = unit-stride rows, z = traversal; CATS2/3 tile y with diamonds,
//       CATS3 additionally tiles x with (x, t) parallelograms.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/geometry.hpp"
#include "core/options.hpp"

namespace cats::plan_ir {

/// Inclusive space box; unused dimensions are the degenerate range [0, 0].
struct Box {
  std::int64_t xlo = 0, xhi = -1;
  std::int64_t ylo = 0, yhi = 0;
  std::int64_t zlo = 0, zhi = 0;

  bool empty() const noexcept { return xhi < xlo || yhi < ylo || zhi < zlo; }
  std::int64_t cells() const noexcept {
    return empty() ? 0
                   : (xhi - xlo + 1) * (yhi - ylo + 1) * (zhi - zlo + 1);
  }
};

/// One kernel-granularity unit: the box of points computed at timestep t in
/// one uninterrupted stretch of a tile walk. `wavefront` groups the slabs
/// that the scheme keeps cache-resident together (u for CATS1 columns, w for
/// CATS2/3 tubes, t for rectangular tiles); the verifier's residency walk
/// sums each wavefront's working set.
struct Slab {
  int t = 0;
  Box box;
  std::int64_t wavefront = 0;
};

enum class TileKind : std::uint8_t {
  SkewedBlock,      ///< rectangular tile, optionally skewed by -s*t (naive, PluTo)
  WavefrontColumn,  ///< one CATS1 wavefront u inside a parallelogram tile
  DiamondTube,      ///< one CATS2 diamond tube / one CATS3 (diamond, q) tile
};

struct Tile {
  std::int32_t owner = 0;  ///< executing thread in [0, plan.threads)
  std::int32_t phase = 0;  ///< barrier phase in [0, plan.phases)
  /// Stats grouping: RunStats::tiles_processed increments once per group, on
  /// the tile with first_in_group set (a CATS1 chunk-tile spans many
  /// wavefront columns; a CATS3 diamond spans many q-tiles). A group of -1
  /// with first_in_group false contributes nothing (naive/PluTo blocks).
  std::int32_t group = -1;
  bool first_in_group = false;
  TileKind kind = TileKind::SkewedBlock;

  int t0 = 1, t1 = 0;  ///< inclusive timestep range (t0 = chunk base for columns)

  // WavefrontColumn: wavefront index u, local time range [tau_lo, tau_hi]
  // (timestep t0 + tau, traversal position u - s*tau). May be empty — the
  // column is still a tile its neighbour can wait on.
  std::int64_t u = 0;
  std::int64_t tau_lo = 0, tau_hi = -1;

  // DiamondTube: diamond coordinates (di, dj) in the DiamondTiling over the
  // tiled dimension; [t0, t1] is the diamond's clipped t-range. CATS3 tiles
  // additionally carry the x-parallelogram index q (has_q set).
  std::int64_t di = 0, dj = 0;
  std::int64_t q = 0;
  bool has_q = false;

  // SkewedBlock: pre-skew box `base`; slab at t is base shifted by -s*t in
  // every spatial dimension when `skew` is set (PluTo), unshifted otherwise
  // (naive), clipped to the domain.
  Box base;
  bool skew = false;
};

/// A recorded point-to-point synchronization: before running tile `to`, its
/// owner waits until the owner of `from` has published a tile index >=
/// `from`. Every owner publishes the index of each tile it finishes to its
/// one ProgressCell and runs its tiles in ascending index order, so the
/// wait is satisfied exactly when `from` is complete. The same edge serves
/// CATS1's split-tiling waits and the diamond waits of CATS2/CATS3/MWD.
struct SyncEdge {
  std::int32_t from = 0;
  std::int32_t to = 0;
};

/// Global synchronization performed after every phase (including the last,
/// matching the schemes: naive barriers after each timestep, CATS1 after
/// each chunk).
enum class PhaseSync : std::uint8_t {
  None,     ///< no global sync (CATS2/3/MWD: tile-to-tile edges only)
  Barrier,  ///< one barrier (naive, PluTo hyperplanes, CATS1 chunks)
};

struct TilePlan {
  // Problem geometry.
  int dims = 2;
  std::int64_t nx = 0, ny = 1, nz = 1;  ///< extents; unused dims are 1
  int T = 0;
  int slope = 1;

  // Schedule shape.
  Scheme scheme = Scheme::Naive;
  int threads = 1;  ///< worker count P after the scheme's own clamps
  int phases = 0;
  PhaseSync phase_sync = PhaseSync::None;

  // Tile parameters the emitter actually used (post-clamp).
  int tz = 0;
  std::int64_t bz = 0, bx = 0;
  /// MWD (Scheme::Mwd) group width g: `threads` above counts the diamond
  /// *groups*; the executor runs threads*g workers, g members pipelining the
  /// wavefronts of each shared tube. The residency certificate is granted
  /// against the pooled budget cache_bytes*g (Eq. 2 with Z*g). 1 elsewhere.
  int mwd_group = 1;

  // Cache model for residency certification (plan/verify.hpp). cache_bytes
  // is Z; cs_eff and elem_bytes follow core/selector.hpp. certify_residency
  // is set when the parameters came from Eq. 1 / Eq. 2 (not overrides);
  // `clamped` records that the selector hit its documented floor (TZ < 1 or
  // raw BZ < 2s) and the wavefront is allowed to exceed Z (warning, not
  // error).
  std::size_t cache_bytes = 0;
  double cs_eff = 0.0;
  double elem_bytes = 8.0;
  bool certify_residency = false;
  bool clamped = false;
  /// Tenants co-resident on the cache this plan was sized for (src/serve
  /// batching): cache_bytes above is already the *partitioned* share
  /// Z_full/cache_tenants, so the residency certificate holds under
  /// contention. 1 = the run owns the whole private cache.
  int cache_tenants = 1;

  std::vector<Tile> tiles;
  std::vector<SyncEdge> edges;

  std::int64_t domain_cells() const noexcept { return nx * ny * nz; }
};

namespace detail {

inline Box full_domain(const TilePlan& p) noexcept {
  return {0, p.nx - 1, 0, p.ny - 1, 0, p.nz - 1};
}

}  // namespace detail

/// Expand `tile` into its ordered slab sequence, invoking f(const Slab&) for
/// each. This enumeration *is* the tile's intra-tile traversal order: the
/// executor feeds it to the kernel in this order, and the verifier treats
/// earlier slabs as happening-before later slabs of the same tile.
///
/// GCC 12's loop unswitching emits wrong code for this function when it is
/// inlined into a caller whose callback conditionally stores (slabs are
/// silently skipped at -O3; UBSan-clean, disappears with
/// -fno-unswitch-loops). Keep the pass off here — correctness of both the
/// executor and the verifier rides on this enumeration.
#if defined(__GNUC__) && !defined(__clang__)
#define CATS_PLAN_NO_UNSWITCH __attribute__((optimize("no-unswitch-loops")))
#else
#define CATS_PLAN_NO_UNSWITCH
#endif
template <class F>
CATS_PLAN_NO_UNSWITCH inline void for_each_slab(const TilePlan& p,
                                                const Tile& tile, F&& f) {
  const std::int64_t s = p.slope;
  switch (tile.kind) {
    case TileKind::SkewedBlock: {
      for (int t = tile.t0; t <= tile.t1; ++t) {
        const std::int64_t st = tile.skew ? s * t : 0;
        Box b;
        b.xlo = std::max<std::int64_t>(tile.base.xlo - st, 0);
        b.xhi = std::min<std::int64_t>(tile.base.xhi - st, p.nx - 1);
        if (p.dims >= 2) {
          b.ylo = std::max<std::int64_t>(tile.base.ylo - st, 0);
          b.yhi = std::min<std::int64_t>(tile.base.yhi - st, p.ny - 1);
        }
        if (p.dims >= 3) {
          b.zlo = std::max<std::int64_t>(tile.base.zlo - st, 0);
          b.zhi = std::min<std::int64_t>(tile.base.zhi - st, p.nz - 1);
        }
        if (b.empty()) continue;
        f(Slab{t, b, t});
      }
      break;
    }

    case TileKind::WavefrontColumn: {
      for (std::int64_t tau = tile.tau_lo; tau <= tile.tau_hi; ++tau) {
        const int t = tile.t0 + static_cast<int>(tau);
        const std::int64_t pos = tile.u - s * tau;
        Box b = detail::full_domain(p);
        if (p.dims == 1) {
          b.xlo = b.xhi = pos;
        } else if (p.dims == 2) {
          b.ylo = b.yhi = pos;
        } else {
          b.zlo = b.zhi = pos;
        }
        f(Slab{t, b, tile.u});
      }
      break;
    }

    case TileKind::DiamondTube: {
      const std::int64_t tiled = (p.dims == 2) ? p.nx : p.ny;
      const std::int64_t trav = (p.dims == 2) ? p.ny : p.nz;
      const DiamondTiling dt{static_cast<int>(s), p.bz, tiled, tile.t0,
                             tile.t1};
      const Range tr{tile.t0, tile.t1};
      const std::int64_t w_lo = s * tr.lo;
      const std::int64_t w_hi = trav - 1 + s * tr.hi;
      for (std::int64_t w = w_lo; w <= w_hi; ++w) {
        const Range ts = intersect(tr, {ceil_div(w - trav + 1, s),
                                        floor_div(w, s)});
        for (std::int64_t t = ts.lo; t <= ts.hi; ++t) {
          const Range pr = dt.p_range(tile.di, tile.dj, t);
          if (pr.empty()) continue;
          const std::int64_t pos = w - s * t;
          Box b;
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
            if (tile.has_q) {
              b.xlo = std::max<std::int64_t>(tile.q * p.bx + s * t, 0);
              b.xhi = std::min<std::int64_t>((tile.q + 1) * p.bx + s * t,
                                             p.nx) - 1;
              if (b.xhi < b.xlo) continue;
            }
          }
          f(Slab{static_cast<int>(t), b, w});
        }
      }
      break;
    }
  }
}

}  // namespace cats::plan_ir
