#pragma once
// Run options for the CATS library.
//
// Mirrors the paper's parameter list (Section III): "CATS takes as parameters
// the size of the last cache level, the slope of the stencil s, the memory
// size of a data type and optionally additional cache requirements, e.g., the
// matrix coefficients." Slope and cache requirements come from the kernel;
// everything else lives here.

#include <cstddef>
#include <vector>

#include "sysinfo/topology.hpp"  // AffinityPolicy

namespace cats {

struct RunStats;  // core/stats.hpp

namespace check {
class DepOracle;  // check/oracle.hpp
}  // namespace check

enum class Scheme {
  Auto,      ///< general CATS: pick CATS1/CATS2/CATS3 by Eq. 1/2 + rule of thumb
  Naive,     ///< Alg. 1: sweep the whole domain once per timestep
  Cats1,     ///< Alg. 2: parallelogram split-tiling + wavefront traversal
  Cats2,     ///< Alg. 3: diamond tubes + wavefront traversal
  Cats3,     ///< Sec. II-D: diamond tubes + sequential x-parallelograms (3D)
  PlutoLike, ///< baseline: multi-dimensional time-skewed tiling (see src/baseline)
  Mwd,       ///< multicore wavefront-diamond: a thread *group* shares one
             ///< diamond tube, members pipeline consecutive wavefronts inside
             ///< it (Malas et al.), sizing BZ against the group-shared Z*group
};

/// Empirical-tuning policy (src/tune). The paper's Eq. 1/2 are analytic; on
/// real machines the usable cache share and the best slack drift, so tuned
/// parameters measured by `cats_tune` can be persisted and reused.
enum class Tuning {
  Off,    ///< pure analytic selection (bit-identical to the pre-tuning library)
  UseDb,  ///< Scheme::Auto consults the tuning DB first, falls back to Eq. 1/2
  Search, ///< like UseDb; harnesses with a kernel factory (bench/common.hpp,
          ///< tune::search) run a pilot neighborhood search on a DB miss and
          ///< persist the winner. Inside run() itself (no factory: pilots
          ///< would advance the caller's simulation state) it acts as UseDb.
};

struct RunOptions {
  /// Worker threads (the caller is one of them).
  int threads = 1;

  /// Usable last-private-cache bytes per thread (Z in Eqs. 1-2).
  /// 0 = detect (per-core L2 on this machine).
  std::size_t cache_bytes = 0;

  /// CS = 2s + cs_slack; the paper conservatively chooses 0.8 after a cache
  /// miss analysis (Wonnacott's pessimistic choice corresponds to 1.0).
  double cs_slack = 0.8;

  /// Rule of thumb (Section II-D): switch from CATS(k-1) to CATSk when the
  /// CATS(k-1) wavefront would extend over fewer than this many timesteps.
  int min_wavefront_timesteps = 10;

  Scheme scheme = Scheme::Auto;

  /// Optional synchronization counters (see core/stats.hpp); not reset by
  /// run() so several runs can accumulate.
  RunStats* stats = nullptr;

  /// Test/ablation overrides; 0 = use Eq. 1 / Eq. 2.
  int tz_override = 0;  ///< CATS1 temporal tile height TZ
  int bz_override = 0;  ///< CATS2/CATS3 diamond width BZ
  int bx_override = 0;  ///< CATS3 x-parallelogram width BX

  /// Thread-pinning policy (opt-in). Compact keeps threads on consecutive
  /// physical cores of one node (shared-L3 locality, matches the per-core
  /// private-cache budget of Eq. 1/2); Scatter spreads them across NUMA
  /// nodes (maximum aggregate bandwidth). Degrades to None, with a one-time
  /// warning, where sysfs topology or sched_setaffinity is unavailable.
  AffinityPolicy affinity = AffinityPolicy::None;

  /// Dependence-oracle validation (src/check): attach an oracle and every
  /// scheme reports each computed row plus every ProgressCell and barrier
  /// crossing to it, so the full slope-s dependence rule — including
  /// cross-thread ordering through *recorded* happens-before edges — is
  /// checked per point. Inspect the oracle afterwards for violations.
  check::DepOracle* oracle = nullptr;

  /// Convenience validation mode: run() builds a temporary oracle sized to
  /// the kernel, validates the whole run (including completeness), and on
  /// any violation prints the diagnostics to stderr and aborts. Also forced
  /// for every run() by setting the CATS_VALIDATE environment variable.
  bool validate = false;

  /// Threads cooperating on one MWD diamond tube (Scheme::Mwd): the domain is
  /// tiled into threads/mwd_group diamond columns sized against the
  /// group-shared cache Z*mwd_group (Eq. 2 with the pooled budget), and the
  /// group's members pipeline consecutive wavefronts of the shared tube
  /// behind a team barrier. Clamped to the largest divisor of `threads` not
  /// exceeding the request (mwd_group_width below); 1 = one thread per
  /// diamond (CATS2-shaped schedule). Ignored by every other scheme.
  int mwd_group = 1;

  /// Tenants co-resident on this run's cache (stencil service, src/serve):
  /// Eq. 1/2 size tiles against the *partitioned* cache share Z/cache_tenants
  /// so concurrent jobs batched onto one shard do not evict each other's
  /// wavefronts. 1 (default) = the run owns the whole private cache. The
  /// emitted plan records the divisor and the verifier certifies residency
  /// at the reduced Z (plan/plan.hpp, plan/verify.hpp).
  int cache_tenants = 1;

  /// Explicit logical-CPU pin order for shard-constrained runs (src/serve):
  /// worker tid is bound to pin_cpus[tid % size]. Overrides `affinity` when
  /// non-null and non-empty; the pointee must outlive the run. Degrades to
  /// unpinned exactly like the policy path when sched_setaffinity fails.
  const std::vector<int>* pin_cpus = nullptr;

  /// Empirical-tuning policy; Off keeps selection purely analytic.
  Tuning tuning = Tuning::Off;

  /// Tuning DB location; nullptr = tune::TuneDb::default_path()
  /// ($CATS_TUNE_DB, else ~/.cache/cats/tune.json).
  const char* tuning_db_path = nullptr;
};

/// MWD group width: `group` clamped to [1, threads] and then reduced to the
/// largest divisor of `threads` not exceeding it, so threads/g groups of g
/// members tile the worker pool exactly (no idle remainder workers and no
/// group straddling the pool boundary). Pure; the selector applies it once
/// (SchemeChoice::group), plan emission records the result as
/// TilePlan::mwd_group, and the executor sizes the worker pool from that.
inline int mwd_group_width(int group, int threads) {
  const int cap = threads > 0 ? threads : 1;
  int g = group < 1 ? 1 : (group > cap ? cap : group);
  while (g > 1 && cap % g != 0) --g;
  return g;
}

}  // namespace cats
