#pragma once
// Single-shard job execution for the stencil service.
//
// execute_job() materializes a JobRequest as a concrete kernel (const2d ->
// ConstStar2D<1>, const3d -> ConstStar3D<1> with the default test weights),
// seeds it deterministically from global coordinates, runs cats::run under
// the shard's placement constraints, and reports scheme, timing, the
// analytic DRAM-traffic estimate (cachesim/traffic_model.hpp) and an FNV-1a
// checksum of the final grid. Because the initial condition is a pure
// function of (seed, x, y, z), any two executions of the same request — on
// one shard, batched with other tenants, or halo-split across shards
// (serve/halo.hpp) — must produce bit-identical grids, and the checksum
// makes that verifiable over the wire.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/selector.hpp"
#include "core/stats.hpp"
#include "serve/checksum.hpp"
#include "serve/job.hpp"

namespace cats::serve {

/// Shard-side execution context the scheduler resolves per dispatch.
struct ExecEnv {
  /// Explicit pin order (the shard's CPU slice); nullptr/empty = unpinned.
  const std::vector<int>* pin_cpus = nullptr;
  int threads = 1;        ///< default worker count for this dispatch
  int cache_tenants = 1;  ///< co-resident jobs sharing the shard's cache
  RunStats* stats = nullptr;  ///< shard-wide sync counters (optional)
};

/// Deterministic initial condition in [0, 1): splitmix64-style hash of the
/// seed and the *global* point coordinates. Identical across sharded and
/// unsharded executions by construction.
inline double init_value(std::uint64_t seed, std::int64_t x, std::int64_t y,
                         std::int64_t z) {
  std::uint64_t h = seed + 0x9E3779B97F4A7C15ULL;
  h += static_cast<std::uint64_t>(x) * 0xBF58476D1CE4E5B9ULL;
  h += static_cast<std::uint64_t>(y) * 0x94D049BB133111EBULL;
  h += static_cast<std::uint64_t>(z) * 0xD6E8FEB86659FD93ULL;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// RunOptions a job resolves to under `env` (threads clamp, pinning, tenant
/// cache share). Shared with the split executor (serve/halo.hpp)
/// so a per-shard block run uses exactly the single-shard option surface.
RunOptions job_run_options(const JobRequest& rq, const ExecEnv& env);

/// Analytic DRAM-traffic estimate for what a run chose (mirrors the bench
/// harness accounting): naive/CATS1/CATS2 closed forms from
/// cachesim/traffic_model.hpp, CATS3 approximated by the CATS2 form,
/// PlutoLike by naive, plus the RFO write-allocate correction.
/// `elem_bytes` is the storage size per point (4 for the fp32 families).
double model_bytes_for(const SchemeChoice& choice, std::int64_t n,
                       std::int64_t wmax, int t_steps, int tiles,
                       double elem_bytes = 8.0);

/// Run one job on one shard. `out_grid`, when non-null, receives the final
/// grid (x fastest) for bit-exactness tests. Never throws: allocation or
/// verification failures come back as JobStatus::Failed.
JobResult execute_job(const JobRequest& rq, const ExecEnv& env,
                      std::vector<double>* out_grid = nullptr);

}  // namespace cats::serve
