#include "plan/emit.hpp"

#include <algorithm>
#include <vector>

#include "baseline/pluto_params.hpp"
#include "check/check.hpp"

namespace cats::plan_ir {

namespace {

/// Traversal-dimension extent: the dimension wavefronts sweep along.
std::int64_t traversal_extent(int dims, std::int64_t nx, std::int64_t ny,
                              std::int64_t nz) {
  return dims == 1 ? nx : dims == 2 ? ny : nz;
}

TilePlan plan_shell(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, Scheme scheme) {
  TilePlan p;
  p.dims = dims;
  p.nx = nx;
  p.ny = dims >= 2 ? ny : 1;
  p.nz = dims >= 3 ? nz : 1;
  p.T = T;
  p.slope = slope;
  p.scheme = scheme;
  return p;
}

}  // namespace

TilePlan emit_naive(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, int threads) {
  TilePlan p = plan_shell(dims, nx, ny, nz, T, slope, Scheme::Naive);
  const std::int64_t outer = traversal_extent(dims, nx, ny, nz);
  const int P = static_cast<int>(
      std::clamp<std::int64_t>(threads, 1, std::max<std::int64_t>(outer, 1)));
  p.threads = P;
  p.phases = std::max(T, 0);
  p.phase_sync = PhaseSync::Barrier;
  for (int t = 1; t <= T; ++t) {
    for (int tid = 0; tid < P; ++tid) {
      const std::int64_t b0 = outer * tid / P;
      const std::int64_t b1 = outer * (tid + 1) / P;
      if (b1 <= b0) continue;
      Tile tile;
      tile.kind = TileKind::SkewedBlock;
      tile.owner = tid;
      tile.phase = t - 1;
      tile.t0 = tile.t1 = t;
      tile.base = detail::full_domain(p);
      if (dims == 1) {
        tile.base.xlo = b0;
        tile.base.xhi = b1 - 1;
      } else if (dims == 2) {
        tile.base.ylo = b0;
        tile.base.yhi = b1 - 1;
      } else {
        tile.base.zlo = b0;
        tile.base.zhi = b1 - 1;
      }
      p.tiles.push_back(tile);
    }
  }
  return p;
}

TilePlan emit_cats1(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, int tz, int threads) {
  TilePlan p = plan_shell(dims, nx, ny, nz, T, slope, Scheme::Cats1);
  const std::int64_t extent = traversal_extent(dims, nx, ny, nz);
  const int tz_cap = std::max(1, std::min(tz, T));
  // Tiles narrower than 2s would let dependencies skip over a tile; clamp
  // the thread count exactly as the sweep always has.
  const std::int64_t span = extent + 2ll * slope * (tz_cap - 1);
  const int P = static_cast<int>(std::clamp<std::int64_t>(
      std::min<std::int64_t>(threads, span / std::max(1, 2 * slope)), 1,
      threads));
  p.threads = P;
  p.tz = tz_cap;
  p.phase_sync = PhaseSync::BarrierResetBarrier;

  std::int32_t next_group = 0;
  std::vector<Range> ur(static_cast<std::size_t>(P));
  std::vector<std::int32_t> base(static_cast<std::size_t>(P));
  int phase = 0;
  for (int t0 = 1; t0 <= T; t0 += tz_cap, ++phase) {
    const int tz_c = std::min(tz_cap, T - t0 + 1);
    const Cats1Chunk chunk{slope, tz_c, extent, P};
    for (int tid = 0; tid < P; ++tid) {
      ur[static_cast<std::size_t>(tid)] = chunk.tile_u_range(tid);
      base[static_cast<std::size_t>(tid)] =
          static_cast<std::int32_t>(p.tiles.size());
      const Range r = ur[static_cast<std::size_t>(tid)];
      const std::int32_t group = r.empty() ? -1 : next_group++;
      for (std::int64_t u = r.lo; u <= r.hi; ++u) {
        Tile tile;
        tile.kind = TileKind::WavefrontColumn;
        tile.owner = tid;
        tile.phase = phase;
        tile.group = group;
        tile.first_in_group = u == r.lo;
        tile.publishes_progress = true;
        tile.front_hints = true;
        tile.t0 = t0;
        tile.t1 = t0 + tz_c - 1;
        tile.u = u;
        const Range taus = chunk.tau_range(tid, u);
        tile.tau_lo = taus.lo;
        tile.tau_hi = taus.hi;
        p.tiles.push_back(tile);
      }
    }
    // Split-tiling waits: before computing wavefront u, tile tid needs its
    // right neighbor past min(u, right's last wavefront).
    for (int tid = 0; tid + 1 < P; ++tid) {
      const Range mine = ur[static_cast<std::size_t>(tid)];
      const Range right = ur[static_cast<std::size_t>(tid + 1)];
      if (right.empty()) continue;
      for (std::int64_t u = std::max(mine.lo, right.lo); u <= mine.hi; ++u) {
        const std::int64_t bound = std::min(u, right.hi);
        SyncEdge e;
        e.kind = SyncEdge::Kind::ProgressGE;
        e.value = bound;
        e.from = base[static_cast<std::size_t>(tid + 1)] +
                 static_cast<std::int32_t>(bound - right.lo);
        e.to = base[static_cast<std::size_t>(tid)] +
               static_cast<std::int32_t>(u - mine.lo);
        p.edges.push_back(e);
      }
    }
  }
  p.phases = phase;
  return p;
}

namespace {

/// Shared CATS2/CATS3 diamond enumeration. emit_tiles(i, j, tr, owner) emits
/// the tile(s) of one non-empty diamond and returns {first index, last
/// index}: incoming done-waits attach to the first, the done-flag publish to
/// the last (they differ only for CATS3's q-tile chains).
template <class EmitTiles>
void emit_diamonds(TilePlan& p, const DiamondTiling& dt, int threads,
                   EmitTiles&& emit_tiles) {
  const Range ir = dt.i_range();
  const Range jr = dt.j_range();
  const Range rr = dt.r_range();
  const std::int64_t nj = jr.hi - jr.lo + 1;
  const std::int64_t ni = ir.hi - ir.lo + 1;
  // Index of each non-empty diamond's *publishing* tile; -1 = empty/absent.
  std::vector<std::int32_t> done_idx(static_cast<std::size_t>(ni * nj), -1);
  auto slot = [&](std::int64_t i, std::int64_t j) -> std::int32_t& {
    return done_idx[static_cast<std::size_t>((i - ir.lo) * nj + (j - jr.lo))];
  };
  auto in_range = [&](std::int64_t i, std::int64_t j) {
    return i >= ir.lo && i <= ir.hi && j >= jr.lo && j <= jr.hi;
  };

  const int P = std::max(1, threads);
  p.threads = P;
  for (std::int64_t r = rr.lo; r <= rr.hi; ++r) {
    const std::int64_t ilo = std::max(ir.lo, jr.lo + r);
    const std::int64_t ihi = std::min(ir.hi, jr.hi + r);
    for (std::int64_t i = ilo; i <= ihi; ++i) {
      const auto owner = static_cast<std::int32_t>((i - ilo) % P);
      const std::int64_t j = i - r;
      if (!dt.nonempty(i, j)) continue;
      const Range tr = dt.t_range(i, j);
      const auto [first, last] = emit_tiles(i, j, tr, owner);
      // Wait on the two diamonds below (Fig. 3); absent or empty neighbors
      // carry no dependency. Both waits fold into one edge set on the
      // consumer's first tile, mirroring the single aggregated wait.
      for (const auto [pi, pj] :
           {std::pair{i - 1, j}, std::pair{i, j + 1}}) {
        if (!in_range(pi, pj)) continue;
        const std::int32_t from = slot(pi, pj);
        if (from < 0) continue;
        p.edges.push_back({from, first, SyncEdge::Kind::Done, 0});
      }
      slot(i, j) = last;
    }
  }
}

}  // namespace

TilePlan emit_cats2(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, std::int64_t bz,
                    int threads) {
  TilePlan p = plan_shell(dims, nx, ny, nz, T, slope, Scheme::Cats2);
  p.bz = std::max<std::int64_t>(bz, 2ll * slope);
  p.phases = T > 0 ? 1 : 0;
  p.phase_sync = PhaseSync::None;
  p.threads = std::max(1, threads);
  if (T <= 0) return p;

  const std::int64_t tiled = dims == 2 ? nx : ny;
  const DiamondTiling dt{slope, p.bz, tiled, 1, T};
  std::int32_t next_group = 0;
  emit_diamonds(p, dt, threads,
                [&](std::int64_t i, std::int64_t j, Range tr,
                    std::int32_t owner) -> std::pair<std::int32_t, std::int32_t> {
                  Tile tile;
                  tile.kind = TileKind::DiamondTube;
                  tile.owner = owner;
                  tile.phase = 0;
                  tile.group = next_group++;
                  tile.first_in_group = true;
                  tile.publishes_done = true;
                  tile.front_hints = true;
                  tile.t0 = static_cast<int>(tr.lo);
                  tile.t1 = static_cast<int>(tr.hi);
                  tile.di = i;
                  tile.dj = j;
                  const auto idx = static_cast<std::int32_t>(p.tiles.size());
                  p.tiles.push_back(tile);
                  return {idx, idx};
                });
  return p;
}

TilePlan emit_mwd(int dims, std::int64_t nx, std::int64_t ny, std::int64_t nz,
                  int T, int slope, std::int64_t bz, int groups, int group) {
  TilePlan p = emit_cats2(dims, nx, ny, nz, T, slope, bz, groups);
  p.scheme = Scheme::Mwd;
  p.mwd_group = std::max(1, group);
  return p;
}

TilePlan emit_cats3(std::int64_t nx, std::int64_t ny, std::int64_t nz, int T,
                    int slope, std::int64_t bz, std::int64_t bx, int threads) {
  TilePlan p = plan_shell(3, nx, ny, nz, T, slope, Scheme::Cats3);
  p.bz = std::max<std::int64_t>(bz, 2ll * slope);
  p.bx = std::max<std::int64_t>(bx, 2ll * slope);
  p.phases = T > 0 ? 1 : 0;
  p.phase_sync = PhaseSync::None;
  p.threads = std::max(1, threads);
  if (T <= 0) return p;

  const DiamondTiling dt{slope, p.bz, ny, 1, T};
  std::int32_t next_group = 0;
  emit_diamonds(p, dt, threads,
                [&](std::int64_t i, std::int64_t j, Range tr,
                    std::int32_t owner) -> std::pair<std::int32_t, std::int32_t> {
                  // x-parallelograms vx = x - s*t relevant to this diamond's
                  // time range, processed right to left: slope-s reads in the
                  // (x, t) skew come from the same or the right parallelogram,
                  // so program order alone discharges them.
                  const std::int64_t q_lo = floor_div(0 - slope * tr.hi, p.bx);
                  const std::int64_t q_hi =
                      floor_div(nx - 1 - slope * tr.lo, p.bx);
                  const auto first = static_cast<std::int32_t>(p.tiles.size());
                  const std::int32_t group = next_group++;
                  for (std::int64_t q = q_hi; q >= q_lo; --q) {
                    Tile tile;
                    tile.kind = TileKind::DiamondTube;
                    tile.owner = owner;
                    tile.phase = 0;
                    tile.group = group;
                    tile.first_in_group = q == q_hi;
                    tile.publishes_done = q == q_lo;
                    tile.t0 = static_cast<int>(tr.lo);
                    tile.t1 = static_cast<int>(tr.hi);
                    tile.di = i;
                    tile.dj = j;
                    tile.q = q;
                    tile.has_q = true;
                    p.tiles.push_back(tile);
                  }
                  const auto last =
                      static_cast<std::int32_t>(p.tiles.size()) - 1;
                  return {first, last};
                });
  return p;
}

TilePlan emit_pluto(int dims, std::int64_t nx, std::int64_t ny,
                    std::int64_t nz, int T, int slope, int threads) {
  TilePlan p = plan_shell(dims, nx, ny, nz, T, slope, Scheme::PlutoLike);
  const PlutoParams prm = pluto_params();
  const std::int64_t s = slope;

  if (dims == 1) {
    // A 1D hyperplane holds a single tile: the transformed nest is a serial
    // pipeline, executed on the calling thread with no barriers.
    p.threads = 1;
    p.phases = T > 0 ? 1 : 0;
    p.phase_sync = PhaseSync::None;
    const int Bt = prm.bt2, Bj = prm.bx2;
    for (int tb = 0; tb * Bt < T; ++tb) {
      const int t_lo = tb * Bt + 1;
      const int t_hi = std::min((tb + 1) * Bt, T);
      const std::int64_t jp_lo = s * t_lo;
      const std::int64_t jp_hi = nx - 1 + s * t_hi;
      for (std::int64_t tj = floor_div(jp_lo, Bj); tj <= floor_div(jp_hi, Bj);
           ++tj) {
        Tile tile;
        tile.kind = TileKind::SkewedBlock;
        tile.skew = true;
        tile.owner = 0;
        tile.phase = 0;
        tile.t0 = t_lo;
        tile.t1 = t_hi;
        tile.base = {tj * Bj, (tj + 1) * Bj - 1, 0, 0, 0, 0};
        p.tiles.push_back(tile);
      }
    }
    return p;
  }

  const int P = std::max(1, threads);
  p.threads = P;
  p.phase_sync = PhaseSync::Barrier;
  int phase = 0;

  if (dims == 2) {
    const int Bt = prm.bt2, Bi = prm.by2, Bj = prm.bx2;
    for (int tb = 0; tb * Bt < T; ++tb) {
      const int t_lo = tb * Bt + 1;
      const int t_hi = std::min((tb + 1) * Bt, T);
      const std::int64_t ip_lo = s * t_lo, ip_hi = ny - 1 + s * t_hi;
      const std::int64_t jp_lo = s * t_lo, jp_hi = nx - 1 + s * t_hi;
      const std::int64_t ti_lo = floor_div(ip_lo, Bi),
                         ti_hi = floor_div(ip_hi, Bi);
      const std::int64_t tj_lo = floor_div(jp_lo, Bj),
                         tj_hi = floor_div(jp_hi, Bj);
      for (std::int64_t d = ti_lo + tj_lo; d <= ti_hi + tj_hi; ++d, ++phase) {
        std::int64_t slot = 0;
        for (std::int64_t ti = std::max(ti_lo, d - tj_hi);
             ti <= std::min(ti_hi, d - tj_lo); ++ti, ++slot) {
          const std::int64_t tj = d - ti;
          Tile tile;
          tile.kind = TileKind::SkewedBlock;
          tile.skew = true;
          tile.owner = static_cast<std::int32_t>(slot % P);
          tile.phase = phase;
          tile.t0 = t_lo;
          tile.t1 = t_hi;
          tile.base = {tj * Bj, (tj + 1) * Bj - 1, ti * Bi,
                       (ti + 1) * Bi - 1, 0, 0};
          p.tiles.push_back(tile);
        }
      }
    }
  } else {
    const int Bt = prm.bt3, Bz = prm.bz3, Bi = prm.by3, Bj = prm.bx3;
    for (int tb = 0; tb * Bt < T; ++tb) {
      const int t_lo = tb * Bt + 1;
      const int t_hi = std::min((tb + 1) * Bt, T);
      const std::int64_t sp_lo = s * t_lo;
      const std::int64_t zp_hi = nz - 1 + s * t_hi;
      const std::int64_t ip_hi = ny - 1 + s * t_hi;
      const std::int64_t jp_hi = nx - 1 + s * t_hi;
      const std::int64_t tz_lo = floor_div(sp_lo, Bz),
                         tz_hi = floor_div(zp_hi, Bz);
      const std::int64_t ti_lo = floor_div(sp_lo, Bi),
                         ti_hi = floor_div(ip_hi, Bi);
      const std::int64_t tj_lo = floor_div(sp_lo, Bj),
                         tj_hi = floor_div(jp_hi, Bj);
      for (std::int64_t d = tz_lo + ti_lo + tj_lo;
           d <= tz_hi + ti_hi + tj_hi; ++d, ++phase) {
        std::int64_t slot = 0;
        for (std::int64_t tz = tz_lo; tz <= tz_hi; ++tz) {
          for (std::int64_t ti = std::max(ti_lo, d - tz - tj_hi);
               ti <= std::min(ti_hi, d - tz - tj_lo); ++ti, ++slot) {
            const std::int64_t tj = d - tz - ti;
            Tile tile;
            tile.kind = TileKind::SkewedBlock;
            tile.skew = true;
            tile.owner = static_cast<std::int32_t>(slot % P);
            tile.phase = phase;
            tile.t0 = t_lo;
            tile.t1 = t_hi;
            tile.base = {tj * Bj, (tj + 1) * Bj - 1, ti * Bi,
                         (ti + 1) * Bi - 1, tz * Bz, (tz + 1) * Bz - 1};
            p.tiles.push_back(tile);
          }
        }
      }
    }
  }
  p.phases = phase;
  return p;
}

namespace {

KernelCosts request_costs(const PlanRequest& rq) {
  return {rq.slope, rq.cs_eff, rq.elem_bytes};
}

/// Fill a freshly emitted plan's cache-model / residency-certification
/// fields: the partitioned cache share (resolve_cache_bytes already divides
/// by opt.cache_tenants), the per-point cost model (CS', element bytes), and
/// per-scheme certify/clamped flags (certified only when the tile parameter
/// came from Eq. 1/2, `clamped` when the selector floor inflated it past the
/// cache bound). The certificate is what arms nt_store_eligible.
void apply_cache_model(TilePlan& p, Scheme scheme, const DomainShape& d,
                       const KernelCosts& costs, const RunOptions& opt) {
  // resolve_cache_bytes already divides Z by opt.cache_tenants (multi-tenant
  // shard batching, src/serve); the plan records both the partitioned share
  // and the divisor so the residency certificate is explicit about the
  // contended budget it certifies.
  const std::size_t z = resolve_cache_bytes(opt);
  p.cache_bytes = z;
  p.cache_tenants = opt.cache_tenants > 1 ? opt.cache_tenants : 1;
  p.cs_eff = costs.cs_eff;
  p.elem_bytes = costs.elem_bytes;
  switch (scheme) {
    case Scheme::Cats1:
      p.certify_residency = opt.tz_override == 0;
      p.clamped = p.certify_residency && compute_tz(z, d, costs) < 1;
      break;
    case Scheme::Cats2:
      p.certify_residency = opt.bz_override == 0;
      p.clamped = p.certify_residency &&
                  eq2_bz_raw(z, d, costs) < 2.0 * costs.slope;
      break;
    case Scheme::Cats3:
      p.certify_residency = opt.bz_override == 0 && opt.bx_override == 0;
      p.clamped = p.certify_residency &&
                  cats3_bz_raw(z, costs) < 2.0 * costs.slope;
      break;
    case Scheme::Mwd: {
      // The diamond is shared by the whole group, so the budget Eq. 2 sized
      // it against — and the one the verifier certifies — is the pooled Z*g.
      const auto g = static_cast<std::size_t>(std::max(1, p.mwd_group));
      p.certify_residency = opt.bz_override == 0;
      p.clamped = p.certify_residency &&
                  eq2_bz_raw(z * g, d, costs) < 2.0 * costs.slope;
      break;
    }
    default:
      break;
  }
}

}  // namespace

TilePlan emit_plan(const PlanRequest& rq) {
  const DomainShape d = domain_shape(rq.dims, rq.nx, rq.ny, rq.nz);
  return emit_plan(rq, select_scheme(d, request_costs(rq), rq.opt, rq.T));
}

TilePlan emit_plan(const PlanRequest& rq, const SchemeChoice& selected) {
  const SchemeChoice choice = resolve_dispatch(selected, rq.dims);
  TilePlan p;
  switch (choice.scheme) {
    case Scheme::Naive:
      p = emit_naive(rq.dims, rq.nx, rq.ny, rq.nz, rq.T, rq.slope,
                     rq.opt.threads);
      break;
    case Scheme::Cats1:
      p = emit_cats1(rq.dims, rq.nx, rq.ny, rq.nz, rq.T, rq.slope, choice.tz,
                     rq.opt.threads);
      break;
    case Scheme::Cats2:
      p = emit_cats2(rq.dims, rq.nx, rq.ny, rq.nz, rq.T, rq.slope, choice.bz,
                     rq.opt.threads);
      break;
    case Scheme::Cats3:
      p = emit_cats3(rq.nx, rq.ny, rq.nz, rq.T, rq.slope, choice.bz,
                     choice.bx, rq.opt.threads);
      break;
    case Scheme::Mwd: {
      // The selector's group width m tiles the pool exactly (mwd_group_width),
      // so threads/m groups of m members use every worker.
      const int m = std::max(1, choice.group);
      const int groups =
          std::max(1, (rq.opt.threads > 0 ? rq.opt.threads : 1) / m);
      p = emit_mwd(rq.dims, rq.nx, rq.ny, rq.nz, rq.T, rq.slope, choice.bz,
                   groups, m);
      break;
    }
    case Scheme::PlutoLike:
      p = emit_pluto(rq.dims, rq.nx, rq.ny, rq.nz, rq.T, rq.slope,
                     rq.opt.threads);
      break;
    case Scheme::Auto:
      CATS_CHECK(false, "select_scheme never returns Auto");
      break;
  }

  apply_cache_model(p, choice.scheme,
                    domain_shape(rq.dims, rq.nx, rq.ny, rq.nz),
                    request_costs(rq), rq.opt);
  return p;
}

}  // namespace cats::plan_ir
