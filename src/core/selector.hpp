#pragma once
// General CATS scheme selection (Section II-D).
//
// Eq. 1:  TZ = floor( Zd * Wmax / (CS' * N) )          (CATS1 chunk height)
// Eq. 2:  BZ = floor( sqrt( 2s * Zd * Wmax * Wmax2 / (CS' * N) ) )
//                                                      (CATS2 diamond width)
// where Zd = usable cache size in doubles, CS' the effective per-point cache
// share (2s + slack, scaled by field count, plus NS for banded matrices),
// N the domain size, Wmax the traversed extent and Wmax2 the tiled extent.
//
// Rule of thumb: use CATS(k-1) unless its wavefront would span fewer than
// `min_wavefront_timesteps` (default 10); then switch to CATSk.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/options.hpp"

namespace cats {

struct DomainShape {
  std::int64_t n = 0;      ///< total points N
  std::int64_t wmax = 0;   ///< traversal-dimension extent
  std::int64_t wmax2 = 0;  ///< tiling-dimension extent (CATS2); 0 in 1D
  int dims = 2;
};

/// Shape of a dims-D box of nx x ny x nz points (extents beyond `dims` are
/// ignored): traversal along the outermost dimension, tiling along the next.
/// The one formula behind domain_shape(kernel) and plan emission.
DomainShape domain_shape(int dims, std::int64_t nx, std::int64_t ny,
                         std::int64_t nz);

struct KernelCosts {
  int slope = 1;
  double cs_eff = 2.8;     ///< effective CS' (see stencil.hpp effective_cs)
  double elem_bytes = 8.0; ///< storage bytes per element (4 for float)
};

struct SchemeChoice {
  Scheme scheme = Scheme::Naive;
  int tz = 0;           ///< CATS1 chunk height (when scheme == Cats1)
  std::int64_t bz = 0;  ///< CATS2/CATS3/MWD diamond width
  std::int64_t bx = 0;  ///< CATS3 x-parallelogram width
  int group = 0;        ///< MWD group width (0 when scheme != Mwd)
};

/// Eq. 1. Returns 0 when even one timestep does not fit; clamped to INT_MAX
/// for huge-cache/tiny-domain combinations (the untruncated double would
/// overflow the int conversion, which is UB).
int compute_tz(std::size_t cache_bytes, const DomainShape& d, const KernelCosts& k);

/// Eq. 2. Clamped below at 2s (minimum useful diamond).
std::int64_t compute_bz(std::size_t cache_bytes, const DomainShape& d,
                        const KernelCosts& k);

/// CATS3 sizing: with a diamond in (y,t) and a BX-wide x-parallelogram, the
/// wavefront holds CS' * BX * BZ^2/(2s) doubles; choosing BX = BZ (balanced)
/// gives BZ = cbrt(2s * Zd / CS'). Clamped below at 2s.
std::int64_t compute_bz3(std::size_t cache_bytes, const KernelCosts& k);

/// General CATS selection; honors opt.scheme / overrides / rule of thumb.
SchemeChoice select_scheme(const DomainShape& d, const KernelCosts& k,
                           const RunOptions& opt, int T);

/// Dimensional dispatch fallbacks applied after select_scheme: CATS2 in 1D
/// runs the CATS1 wavefront (CATS1 is CATS(d) there), CATS3 below 3D runs
/// CATS2/CATS1. run() and plan emission (src/plan/emit.cpp) share this so
/// the emitted plan is always the schedule that would actually execute.
SchemeChoice resolve_dispatch(const SchemeChoice& c, int dims);

/// Eq. 2 before the 2s floor, and the CATS3 (cube-root) analogue. The Auto
/// path uses the raw value to detect caches too small for any time skewing;
/// plan emission uses it to record that a selector output was clamp-inflated
/// past the cache bound (plan verification then downgrades the residency
/// violation to a warning).
double eq2_bz_raw(std::size_t cache_bytes, const DomainShape& d,
                  const KernelCosts& k);
double cats3_bz_raw(std::size_t cache_bytes, const KernelCosts& k);

/// opt.cache_bytes, or the detected per-core private L2 when 0.
std::size_t resolve_cache_bytes(const RunOptions& opt);

/// Empirical-tuning resolution (Section "Tuning" in DESIGN.md). When
/// opt.tuning != Off and opt.scheme == Auto, look the (machine fingerprint,
/// kernel_id, shape bucket, threads) key up in the persistent tuning DB and,
/// on a hit from THIS machine, return a copy of opt with the tuned scheme and
/// tile parameters applied as explicit settings. Misses — including a
/// missing/corrupt DB file or an entry recorded on another machine — return
/// opt unchanged, so Eq. 1/2 selection proceeds exactly as with tuning Off.
RunOptions apply_tuning(const RunOptions& opt, const std::string& kernel_id,
                        const DomainShape& d);

/// RunOptions::mwd_group sanitizer: same math as mwd_group_width
/// (clamp to [1, threads], then the largest divisor of threads), but with a
/// one-time stderr diagnostic when the request had to be adjusted, and a
/// one-time note when a non-default group is set on a scheme that ignores it
/// (every scheme except Mwd/Auto). Returns the effective group width.
int sanitize_mwd_group(int mwd_group, int threads, Scheme scheme);

}  // namespace cats
