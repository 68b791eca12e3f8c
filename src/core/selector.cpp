#include "core/selector.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench_harness/machine.hpp"
#include "check/check.hpp"
#include "sysinfo/cache_info.hpp"
#include "tune/db.hpp"

namespace cats {

DomainShape domain_shape(int dims, std::int64_t nx, std::int64_t ny,
                         std::int64_t nz) {
  if (dims == 1) return {nx, nx, 0, 1};
  if (dims == 2) return {nx * ny, ny, nx, 2};
  return {nx * ny * nz, nz, ny, 3};
}

double eq2_bz_raw(std::size_t cache_bytes, const DomainShape& d,
                  const KernelCosts& k) {
  const double zd = static_cast<double>(cache_bytes) / k.elem_bytes;
  const double bz2 = 2.0 * k.slope * zd * static_cast<double>(d.wmax) *
                     static_cast<double>(d.wmax2) /
                     (k.cs_eff * static_cast<double>(d.n));
  return std::sqrt(std::max(bz2, 0.0));
}

double cats3_bz_raw(std::size_t cache_bytes, const KernelCosts& k) {
  const double zd = static_cast<double>(cache_bytes) / k.elem_bytes;
  return std::cbrt(std::max(2.0 * k.slope * zd / k.cs_eff, 0.0));
}

int compute_tz(std::size_t cache_bytes, const DomainShape& d, const KernelCosts& k) {
  CATS_CHECK(k.slope >= 1, "stencil slope must be >= 1, got %d", k.slope);
  CATS_CHECK(k.cs_eff > 0.0, "effective cache slices CS must be > 0, got %g",
             k.cs_eff);
  CATS_CHECK(d.n > 0, "domain must be non-empty, got n=%lld",
             static_cast<long long>(d.n));
  const double zd = static_cast<double>(cache_bytes) / k.elem_bytes;
  const double tz = zd * static_cast<double>(d.wmax) /
                    (k.cs_eff * static_cast<double>(d.n));
  if (tz < 1.0) return 0;
  // Huge Z with a tiny N overflows the double -> int conversion (UB); any
  // chunk this tall is clamped to T by the callers anyway.
  if (tz >= static_cast<double>(std::numeric_limits<int>::max())) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(tz);
}

std::int64_t compute_bz(std::size_t cache_bytes, const DomainShape& d,
                        const KernelCosts& k) {
  CATS_CHECK(k.slope >= 1, "stencil slope must be >= 1, got %d", k.slope);
  CATS_CHECK(k.cs_eff > 0.0, "effective cache slices CS must be > 0, got %g",
             k.cs_eff);
  CATS_CHECK(d.n > 0, "domain must be non-empty, got n=%lld",
             static_cast<long long>(d.n));
  const auto bz = static_cast<std::int64_t>(eq2_bz_raw(cache_bytes, d, k));
  return std::max<std::int64_t>(bz, 2ll * k.slope);
}

std::int64_t compute_bz3(std::size_t cache_bytes, const KernelCosts& k) {
  CATS_CHECK(k.slope >= 1, "stencil slope must be >= 1, got %d", k.slope);
  CATS_CHECK(k.cs_eff > 0.0, "effective cache slices CS must be > 0, got %g",
             k.cs_eff);
  const auto bz = static_cast<std::int64_t>(cats3_bz_raw(cache_bytes, k));
  return std::max<std::int64_t>(bz, 2ll * k.slope);
}

std::size_t resolve_cache_bytes(const RunOptions& opt) {
  const std::size_t z =
      opt.cache_bytes ? opt.cache_bytes : detect_cache_info().last_private_bytes();
  // Multi-tenant cache partitioning (src/serve): co-resident jobs batched
  // onto one shard size their tiles against an equal share of Z so their
  // wavefronts stay resident under contention. A share too small for even a
  // minimal diamond degrades to the naive fallback like any degenerate Z.
  const int tenants = opt.cache_tenants > 1 ? opt.cache_tenants : 1;
  return z / static_cast<std::size_t>(tenants);
}

SchemeChoice select_scheme(const DomainShape& d, const KernelCosts& k,
                           const RunOptions& opt, int T) {
  const std::size_t z = resolve_cache_bytes(opt);

  switch (opt.scheme) {
    case Scheme::Naive:
      return {Scheme::Naive, 0, 0, 0};
    case Scheme::Cats1: {
      int tz = opt.tz_override ? opt.tz_override
                               : std::max(1, compute_tz(z, d, k));
      return {Scheme::Cats1, std::min(tz, T), 0, 0};
    }
    case Scheme::Cats2: {
      std::int64_t bz = opt.bz_override ? opt.bz_override : compute_bz(z, d, k);
      return {Scheme::Cats2, 0, std::max<std::int64_t>(bz, 2ll * k.slope), 0};
    }
    case Scheme::Cats3: {
      // CATS-k requires k distinct skewed dimensions: clamp to CATS2 in 2D.
      if (d.dims < 3) {
        std::int64_t bz = opt.bz_override ? opt.bz_override : compute_bz(z, d, k);
        return {Scheme::Cats2, 0, std::max<std::int64_t>(bz, 2ll * k.slope), 0};
      }
      std::int64_t bz = opt.bz_override ? opt.bz_override : compute_bz3(z, k);
      std::int64_t bx = opt.bx_override ? opt.bx_override : bz;
      return {Scheme::Cats3, 0, std::max<std::int64_t>(bz, 2ll * k.slope),
              std::max<std::int64_t>(bx, 2ll * k.slope)};
    }
    case Scheme::Mwd: {
      // Group-shared diamond (Malas et al.): the g members of one group pool
      // their private-cache shares, so Eq. 2 sizes the diamond against Z*g.
      const int g = mwd_group_width(opt.mwd_group, opt.threads);
      std::int64_t bz =
          opt.bz_override
              ? opt.bz_override
              : compute_bz(z * static_cast<std::size_t>(g), d, k);
      return {Scheme::Mwd, 0, std::max<std::int64_t>(bz, 2ll * k.slope), 0, g};
    }
    case Scheme::PlutoLike:
      return {Scheme::PlutoLike, 0, 0, 0};
    case Scheme::Auto:
      break;
  }

  // General CATS (Section II-D). 1D domains always use CATS1 (CATS0 would be
  // the naive scheme). Otherwise: CATS(k-1) while its wavefront spans at
  // least min_wavefront_timesteps, else CATS(k).
  const int tz = opt.tz_override ? opt.tz_override : compute_tz(z, d, k);
  // MWD opt-in: a requested group width > 1 moves the diamond branch of the
  // Auto path onto the group-shared budget Z*g (per-thread Z too small for
  // the working set is exactly what grouping fixes).
  const int g = d.dims >= 2 ? mwd_group_width(opt.mwd_group, opt.threads) : 1;
  const std::size_t z_grp = z * static_cast<std::size_t>(g);
  // Degenerate cache (Z below even one 2s-wide diamond's working set, e.g. a
  // deliberately tiny Z parameter): no wavefront of any CATS scheme can stay
  // resident, so time skewing only adds tile overhead — stream naively.
  // Unless a group pools enough cache for a shared diamond: then MWD rescues
  // the run from the naive fallback.
  if (d.dims >= 2 && tz == 0 && !opt.tz_override && !opt.bz_override &&
      eq2_bz_raw(z, d, k) < 2.0 * k.slope) {
    if (g > 1 && eq2_bz_raw(z_grp, d, k) >= 2.0 * k.slope) {
      return {Scheme::Mwd, 0, compute_bz(z_grp, d, k), 0, g};
    }
    return {Scheme::Naive, 0, 0, 0};
  }
  if (d.dims == 1 || tz >= opt.min_wavefront_timesteps || tz >= T) {
    return {Scheme::Cats1, std::max(1, std::min(tz, T)), 0, 0};
  }
  const std::int64_t bz =
      opt.bz_override ? opt.bz_override : compute_bz(g > 1 ? z_grp : z, d, k);
  // A CATS2 diamond spans BZ/s timesteps; when even that drops below the
  // rule-of-thumb depth (enormous 3D domains / tiny caches), move to CATS3.
  if (d.dims >= 3 && bz / k.slope < opt.min_wavefront_timesteps &&
      bz / k.slope < T) {
    const std::int64_t bz3 = compute_bz3(z, k);
    const std::int64_t bx =
        opt.bx_override ? opt.bx_override : bz3;
    return {Scheme::Cats3, 0, std::max<std::int64_t>(bz3, 2ll * k.slope),
            std::max<std::int64_t>(bx, 2ll * k.slope)};
  }
  if (g > 1) return {Scheme::Mwd, 0, bz, 0, g};
  return {Scheme::Cats2, 0, bz, 0};
}

SchemeChoice resolve_dispatch(const SchemeChoice& c, int dims) {
  if (dims == 1 &&
      (c.scheme == Scheme::Cats2 || c.scheme == Scheme::Cats3 ||
       c.scheme == Scheme::Mwd)) {
    return {Scheme::Cats1, std::max(1, c.tz), 0, 0};
  }
  if (dims == 2 && c.scheme == Scheme::Cats3) {
    return {Scheme::Cats2, 0, c.bz, 0};
  }
  return c;
}

RunOptions apply_tuning(const RunOptions& opt, const std::string& kernel_id,
                        const DomainShape& d) {
  if (opt.tuning == Tuning::Off || opt.scheme != Scheme::Auto) return opt;

  tune::DbKey key;
  key.machine = bench::machine_fingerprint();
  key.kernel = kernel_id;
  key.scheme_key = "auto";
  key.shape = tune::shape_bucket(d);
  key.threads = opt.threads;

  const std::string path =
      opt.tuning_db_path ? opt.tuning_db_path : tune::TuneDb::default_path();
  const std::optional<tune::DbEntry> e = tune::cached_lookup(path, key);
  if (!e) return opt;

  RunOptions tuned = opt;
  if (e->run_threads > 0 && e->run_threads <= opt.threads)
    tuned.threads = e->run_threads;
  // Affinity is advisory like everything else here: an unrecognized name
  // (newer DB) keeps the caller's policy, and pinning still degrades
  // gracefully at the ThreadPool if the recorded policy can't be applied.
  if (e->affinity == "none") tuned.affinity = AffinityPolicy::None;
  else if (e->affinity == "compact") tuned.affinity = AffinityPolicy::Compact;
  else if (e->affinity == "scatter") tuned.affinity = AffinityPolicy::Scatter;
  // Wave-engine knobs (src/wave): advisory like the rest — untuned entries
  // (pre-wave DBs) keep the caller's values.
  if (e->nt_stores >= 0) tuned.nt_stores = e->nt_stores != 0;
  if (e->unroll_t >= 0) tuned.unroll_t = e->unroll_t;
  if (e->temporal_vec >= 0) tuned.temporal_vec = e->temporal_vec != 0;
  if (e->mwd_group > 0 && e->mwd_group <= opt.threads)
    tuned.mwd_group = e->mwd_group;
  if (e->prefetch_dist >= 0) tuned.prefetch_dist = e->prefetch_dist;
  if (e->scheme == "Naive") {
    tuned.scheme = Scheme::Naive;
  } else if (e->scheme == "CATS1" && e->tz > 0) {
    tuned.scheme = Scheme::Cats1;
    tuned.tz_override = e->tz;
  } else if (e->scheme == "CATS2" && e->bz > 0) {
    tuned.scheme = Scheme::Cats2;
    tuned.bz_override = static_cast<int>(e->bz);
  } else if (e->scheme == "CATS3" && e->bz > 0) {
    tuned.scheme = Scheme::Cats3;
    tuned.bz_override = static_cast<int>(e->bz);
    tuned.bx_override = static_cast<int>(e->bx > 0 ? e->bx : e->bz);
  } else if (e->scheme == "MWD") {
    // bz == 0 is valid here: the tuner's MWD probes record "re-derive via
    // Eq. 2 at the pooled budget", which select_scheme does for override 0.
    tuned.scheme = Scheme::Mwd;
    if (e->bz > 0) tuned.bz_override = static_cast<int>(e->bz);
  }
  // Unrecognized scheme names (newer DB version) leave opt untouched.
  return tuned;
}

int sanitize_unroll_t(int unroll_t) {
  // 4 = wave::kMaxUnroll; kept literal so the selector layer does not pull in
  // the wave engine (a static_assert in engine.hpp pins the two together).
  constexpr int kMax = 4;
  if (unroll_t >= 0 && unroll_t <= kMax) return unroll_t;
  const int clamped = unroll_t < 0 ? 0 : kMax;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "cats: unroll_t=%d outside [0, %d]; clamped to %d "
                 "(0 = auto, 1 = off, 2..%d = fixed fuse depth)\n",
                 unroll_t, kMax, clamped, kMax);
  }
  return clamped;
}

int sanitize_mwd_group(int mwd_group, int threads, Scheme scheme) {
  if (mwd_group > 1 && scheme != Scheme::Mwd && scheme != Scheme::Auto) {
    static std::atomic<bool> noted{false};
    if (!noted.exchange(true)) {
      std::fprintf(stderr,
                   "cats: mwd_group=%d ignored: only Scheme::Mwd (or Auto, "
                   "which may pick it) groups threads over a shared diamond\n",
                   mwd_group);
    }
    return 1;
  }
  const int g = mwd_group_width(mwd_group, threads);
  if (g != (mwd_group < 1 ? 1 : mwd_group)) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "cats: mwd_group=%d does not tile threads=%d; clamped to "
                   "%d (largest divisor of the worker pool)\n",
                   mwd_group, threads, g);
    }
  }
  return g;
}

}  // namespace cats
