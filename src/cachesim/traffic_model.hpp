#pragma once
// Analytic DRAM-traffic model for each scheme.
//
// These closed forms predict the main-memory bytes a scheme moves for a
// domain far larger than the cache; the test suite cross-checks them against
// the LRU cache simulator, and EXPERIMENTS.md uses them to explain the
// measured speedups. All counts follow the paper's Section II accounting:
// per output point a constant stencil reads NS values and writes one; the
// values themselves are reused out of cache, so steady-state DRAM traffic is
// "read each input domain once, write each output domain once" per *reload*
// of the domain, plus NS coefficient streams for banded matrices.

#include <cmath>
#include <cstdint>

namespace cats {

struct TrafficInput {
  double n = 0;          ///< domain points N
  int t_steps = 0;       ///< T
  double bands = 0;      ///< NS coefficient streams (0 for constant stencils)
  double state = 1.0;    ///< field elements per point (3 for FDTD)
  int slope = 1;
  double wmax = 0;       ///< traversal extent (CATS1 border term)
  int tiles = 1;         ///< parallel tiles (CATS1 border term)
  double elem_bytes = 8; ///< storage bytes per element (4 for float)
};

/// Naive scheme: the full domain streams through memory every sweep.
inline double naive_traffic_bytes(const TrafficInput& in) {
  return in.t_steps * (2.0 * in.state + in.bands) * in.n * in.elem_bytes;
}

/// CATS1: one domain read+write (plus coefficients) per TZ-chunk, plus the
/// skewed tile borders that are reloaded because the traversing wavefronts
/// constantly overwrite the cache (Section II-B: "basically no data reuse at
/// the tile borders"). Border volume per chunk ~ tiles * 2s * TZ * N / Wmax.
inline double cats1_traffic_bytes(const TrafficInput& in, int tz) {
  const double chunks = std::ceil(static_cast<double>(in.t_steps) / tz);
  const double per_chunk =
      (2.0 * in.state + in.bands) * in.n +
      (in.state + in.bands) * in.tiles * 2.0 * in.slope * tz * in.n / in.wmax;
  return chunks * per_chunk * in.elem_bytes;
}

/// CATS2: diamond rows advance the whole domain by BZ/(2s) timesteps per
/// sweep of the tiling dimension, so the domain streams ~ 2sT/BZ times, and
/// each diamond additionally reloads its skewed borders.
inline double cats2_traffic_bytes(const TrafficInput& in, std::int64_t bz) {
  const double rows = std::max(1.0, 2.0 * in.slope * in.t_steps /
                                        static_cast<double>(bz));
  // Border overhead: a diamond of width BZ shares ~2s-deep skewed edges with
  // its neighbors; the relative overhead per row is ~4s/BZ.
  const double border = 1.0 + 4.0 * in.slope / static_cast<double>(bz);
  return rows * (2.0 * in.state + in.bands) * in.n * in.elem_bytes * border;
}

/// Upper bound on achievable CATS speedup over naive for a bandwidth-bound
/// stencil: the ratio of their traffic (the paper's memory-wall argument).
inline double traffic_speedup_bound(double naive_bytes, double cats_bytes) {
  return naive_bytes / cats_bytes;
}

/// Write-allocate correction for the scheme formulas above. The closed forms
/// count "read each input once + write each output once", but a classic
/// store to a non-resident line first *reads* it for ownership (RFO), so the
/// write stream costs two DRAM transfers, not one. Of a scheme's modeled
/// bytes, the written fraction is state / (2*state + bands); doubling it
/// scales total traffic by (1 + that fraction): for a constant stencil
/// (state=1, bands=0) that is 3 instead of 2 transfers per point per pass.
inline double with_rfo_bytes(const TrafficInput& in, double scheme_bytes) {
  const double write_fraction = in.state / (2.0 * in.state + in.bands);
  return scheme_bytes * (1.0 + write_fraction);
}

/// Normalize a traffic estimate to DRAM bytes per point *update* (N*T
/// updates total) — the scalar bench reports next to MLUP/s.
inline double dram_bytes_per_point(const TrafficInput& in, double scheme_bytes) {
  return scheme_bytes / (in.n * in.t_steps);
}

}  // namespace cats
