#pragma once
// Plan emitters: one per scheme. Each defines its scheme's schedule — the
// tiles, their owners and the sync edges between them — as a TilePlan.
// Emission is pure geometry — no kernel, no threads — so a plan can be built
// and verified for any (dims, N, T, s, threads, TZ/BZ/BX) combination
// without running anything (tools/cats_plan_check sweeps thousands).
// emit_plan below is the single scheme -> emitter dispatch: run()
// (core/run.hpp) executes exactly the plan it returns (plan/kernel_walk.hpp),
// and the verifier, cats_plan_check and the benchmarks call the same
// function, so the plan they certify is the plan that runs.
//
// Extent arguments follow the kernel accessors: nx = width, ny = height,
// nz = depth; unused extents are 1. All emitters apply the schemes'
// parameter clamps (CATS1 tz in [1, T], thread count limited by tile width;
// CATS2/3 bz/bx floored at 2s; naive P capped by the outer extent), so the
// emitted plan records what truly runs.

#include <cstdint>

#include "core/selector.hpp"
#include "plan/plan.hpp"

namespace cats::plan_ir {

/// Naive scheme (Alg. 1): the entire domain advances one timestep at a time.
/// The outermost spatial loop is split into equal tiles, one per thread; the
/// inner loop is the kernel's hand-vectorized row. Threads synchronize with a
/// barrier after each timestep.
TilePlan emit_naive(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, int threads);

/// CATS1 (Alg. 2): one skewing dimension.
///
/// Time is cut into chunks of TZ timesteps (Eq. 1). Within a chunk, the
/// (traversal-dimension, time) plane is covered by parallelogram tiles — one
/// interval of the tile coordinate v = p - s*tau per thread. Each thread
/// sweeps its tile with ascending wavefronts u = p + s*tau; inside a
/// wavefront tau ascends. All cross-tile dependencies (reads and the WAR
/// hazard of the double-buffered field) point to the right neighbor in v at
/// wavefronts <= u, so a single acquire-wait "right neighbor completed
/// wavefront u" resolves them (split-tiling: the ProgressGE edges). Threads
/// synchronize globally only between chunks (barrier/reset/barrier).
///
/// In 2D the wavefront holds TZ full x-rows; in 3D it holds TZ full (x,y)
/// slices — which is why CATS1 in 3D falls back for large domains (Section
/// II-B) and the selector then picks CATS2. In 1D it is the whole scheme:
/// "for 1D problems CATS1 is the better choice".
TilePlan emit_cats1(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, int tz, int threads);

/// CATS2 (Alg. 3): two skewing dimensions — one tiled with diamonds, one
/// traversed by wavefronts.
///
/// The (tiling-dimension, time) plane is partitioned into diamonds of width
/// BZ (Eq. 2). Each diamond, extended along the traversal dimension, forms a
/// diamond tube; a skewed wavefront (u = p_traversal + s*t) sweeps through
/// the tube, keeping only CS wavefronts in cache although the tube is far
/// larger than the cache. Diamonds arranged side by side are independent; a
/// diamond starts once the two diamonds below it are done (per-diamond Done
/// edges, no global synchronization — Fig. 3).
///
/// Thread -> diamond assignment is a-priori round-robin within each diamond
/// row, matching the paper's static diamondSet(tid). In 2D the tiling
/// dimension is x and the traversal dimension y (per-level variable x
/// bounds, handled by the kernel's unaligned SIMD path); in 3D the tiling
/// dimension is y, the traversal dimension z, and rows span the full
/// fixed-bounds x extent (the paper's CATS(d-1) default).
TilePlan emit_cats2(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, std::int64_t bz,
                    int threads);

/// CATS3 (Section II-D, "Multiple Skewing"), 3D only (the selector clamps
/// CATS3 to CATS2 below three dimensions): one traversal dimension plus TWO
/// tiled dimensions — for domains so large (or caches so small) that even a
/// CATS2 diamond tube's wavefront cannot fit in cache.
///
/// The traversal dimension is z; y is tiled with diamonds (these are the
/// parallelized tiles, as in CATS2); x is additionally tiled with
/// *parallelograms* in the (x, t) plane — the paper: "the tiled and
/// parallelized dimensions use the diamond shape, whereas the tiled-only
/// dimensions may also use space dependent tiles like the parallelograms".
///
/// Inside one diamond tube the x-parallelograms are processed sequentially
/// from RIGHT to LEFT: slope-s dependencies in the (x, t) skew satisfy
/// dv >= 0 (reads come from the same or the right parallelogram at earlier
/// wavefronts), so finishing a whole right tile before starting its left
/// neighbor discharges both the reads and the double-buffer WAR hazard with
/// no extra synchronization. Cross-diamond dependencies are the usual two
/// Done edges. The wavefront that must stay cached is then
/// (diamond area) x BX instead of (diamond area) x W.
///
/// Each (diamond, x-parallelogram) pair is one plan tile: the Done waits
/// attach to a diamond's first (rightmost) q-tile, the Done publish to its
/// last, and the q-chain rides on the owner's program order.
TilePlan emit_cats3(std::int64_t nx, std::int64_t ny, std::int64_t nz, int T,
                    int slope, std::int64_t bz, std::int64_t bx, int threads);

/// Multicore wavefront-diamond, MWD (Malas et al.; 2D/3D — 1D dispatches to
/// CATS1).
///
/// CATS2 with one tile per thread sizes every diamond against a
/// *per-thread* cache share Z, which starves high-CS kernels (banded
/// matrices) and multiplies sync volume with the thread count. MWD instead
/// tiles the domain into `groups` diamond tubes sized against the *pooled*
/// share Z*group (Eq. 2 with Z*group: BZ grows by sqrt(group)) and backs
/// each tube with a `group`-member thread group that pipelines the tube's
/// interior wavefronts — member k computes wavefront w in window w + k, its
/// share of the timestep range fixed by an equal-area band partition
/// (wave/mwd.hpp has the schedule and its happens-before proof;
/// plan/execute.hpp runs it behind a per-group TeamBarrier with lead-only
/// Done waits/publishes).
///
/// The plan itself is group-agnostic: emit_cats2's DiamondTube tiles and
/// Done edges over `groups` owners, plus the group width in
/// TilePlan::mwd_group. The member pipeline is a refinement of each tile's
/// serial slab walk, so the static verifier's dependence/residency/deadlock
/// certificates apply verbatim, with residency granted at the pooled budget
/// Z*group.
TilePlan emit_mwd(int dims, std::int64_t nx, std::int64_t ny, std::int64_t nz,
                  int T, int slope, std::int64_t bz, int groups, int group);

/// PluTo-like baseline: classic multi-dimensional time skewing.
///
/// Stand-in for the code PluTo 0.4.2 generates for these stencil nests (the
/// real polyhedral tool is not available offline; see DESIGN.md §5). The
/// transformation PluTo applies to a Jacobi nest is:
///   * skew every spatial dimension by s*t,
///   * tile all dimensions including time with rectangular tiles
///     (baseline/pluto_params.hpp),
///   * run tiles on the same skewed hyperplane (sum of spatial tile indices)
///     in parallel, with a barrier between hyperplanes, time-tile bands
///     sequential.
/// run() walks these plans with the kernel's scalar row (process_row_scalar)
/// and relies on compiler auto-vectorization, matching the paper's note that
/// the generated code is not hand-vectorized. The 1D nest emits a
/// single-thread plan (each hyperplane holds one tile, so rectangular time
/// tiling offers a 1D Jacobi nest no parallelism).
TilePlan emit_pluto(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, int threads);

/// Everything select_scheme needs, without a kernel: the geometry plus the
/// kernel cost model (slope via `slope`, CS' via `cs_eff`, element size).
struct PlanRequest {
  int dims = 2;
  std::int64_t nx = 0, ny = 1, nz = 1;
  int T = 0;
  int slope = 1;
  double cs_eff = 2.8;     ///< effective_cs(kernel, opt.cs_slack)
  double elem_bytes = 8.0;
  RunOptions opt;          ///< scheme, threads, cache_bytes, overrides, ...
};

/// Run the full selection pipeline (select_scheme, then the overload below)
/// and emit the plan of the scheme that executes — including the
/// degenerate-cache fallback to naive and the dimensional clamps (CATS3 in
/// 2D -> CATS2, CATS2 in 1D -> CATS1).
TilePlan emit_plan(const PlanRequest& rq);

/// Emit the plan for a choice select_scheme already made for `rq` (run()
/// selects once and passes its choice): resolve_dispatch, the scheme's
/// emitter, then apply_cache_model — the residency-certification fields
/// (cache model, certify flag, `clamped` when a selector floor was hit).
TilePlan emit_plan(const PlanRequest& rq, const SchemeChoice& choice);

}  // namespace cats::plan_ir
