#pragma once
// Cross-shard schedule IR: block-granular halo exchange between NUMA shards.
//
// One large domain can span several shards (src/serve): the outermost
// traversal dimension (y in 2D, z in 3D) is block-partitioned into per-shard
// subgrids, each extended by `halo` rows of *overlap* into its neighbors'
// territory. A shard computes `tb` timesteps of a block on the extended
// subgrid (deep-halo / overlapped tiling: exactness erodes inward from the
// extension edge at slope s per step, so after tb <= halo/s steps the owned
// rows are still bit-exact), then refreshes its halo rows from the
// neighbors' owned rows and proceeds to the next block. Inside a block each
// shard runs the full CATS machinery unchanged — temporal blocking composes
// with domain decomposition (Wittmann/Hager/Wellein, PAPERS.md).
//
// Mirroring the tile-plan philosophy (plan/plan.hpp), the whole cross-shard
// protocol is emitted as *data* first: per shard a program-order step list
// (Compute / Exchange) whose waits are lower bounds on the two per-shard
// monotone counters
//
//   Computed[i] >= b+1  — shard i finished computing block b
//   Copied[i]   >= b+1  — shard i finished reading its neighbors for block b
//
// and the executor (serve/halo.hpp) walks exactly these steps, mapping each
// wait onto a threads/progress.hpp ProgressCell::wait_ge and each publish
// onto ProgressCell::publish — the same tile-to-tile sync cells every plan
// edge waits on, now at shard boundaries. verify_shard_schedule checks
// the emitted protocol with no execution: both cross-shard dependence
// directions (flow: a halo refresh must wait for the producing neighbor's
// block; anti: a neighbor must not overwrite rows before this shard copied
// them), halo-width sufficiency, block parity, and deadlock freedom.

#include <cstdint>
#include <vector>

#include "plan/verify.hpp"

namespace cats::plan_ir {

/// Owned interval [lo, hi) of the split dimension (shard-ascending,
/// partitioning [0, extent)).
struct ShardDomain {
  std::int64_t lo = 0, hi = 0;

  std::int64_t rows() const { return hi - lo; }
};

/// The two per-shard progress counters of the halo protocol.
enum class ShardCell : std::uint8_t { Computed, Copied };

/// One wait_ge: block until `cell` of `shard` reaches `bound`.
struct ShardWait {
  ShardCell cell = ShardCell::Computed;
  std::int32_t shard = 0;
  std::int64_t bound = 0;
};

enum class ShardStepKind : std::uint8_t {
  Compute,   ///< run `tb` timesteps of the block on the extended subgrid
  Exchange,  ///< refresh halo rows from the neighbors' owned rows
};

/// One step of a shard's program order. After the step completes, the
/// shard's own cell (Computed for Compute, Copied for Exchange) is published
/// as block + 1.
struct ShardStep {
  ShardStepKind kind = ShardStepKind::Compute;
  std::int32_t block = 0;
  int tb = 0;                    ///< Compute only: timesteps in this block
  std::vector<ShardWait> waits;  ///< satisfied before the step runs
};

struct ShardSchedule {
  std::int64_t extent = 0;  ///< split-dimension extent (ny in 2D, nz in 3D)
  int T = 0;
  int slope = 1;
  int halo = 0;    ///< overlap rows per interior side; >= slope * max block
  std::vector<ShardDomain> owned;
  std::vector<int> block_steps;  ///< per block; all but the last even
  std::vector<std::vector<ShardStep>> program;  ///< per shard, program order

  int shards() const { return static_cast<int>(owned.size()); }
  int blocks() const { return static_cast<int>(block_steps.size()); }
};

/// Largest shard count the halo protocol admits for this domain: every
/// shard must own at least 2*slope rows (the minimum even block's halo), and
/// at least one row each.
int max_feasible_shards(std::int64_t extent, int slope);

/// Emit the block schedule for `shards` subgrids of [0, extent) over T
/// timesteps. `max_block` caps the per-block timestep count (0 = default 8);
/// blocks are even (run()'s double buffer must land back on parity 0 before
/// the next block) except possibly the last, and the cap is lowered until
/// the halo fits the smallest shard. Shard counts beyond
/// max_feasible_shards are clamped; shards == 1 emits a single halo-free
/// compute step per the trivial protocol.
ShardSchedule emit_shard_schedule(std::int64_t extent, int shards, int T,
                                  int slope, int max_block = 0);

/// Execution-free verification of an emitted (or hand-altered) schedule:
/// structure (owned partitions the extent, block parity, halo sufficiency),
/// cross-shard dependence coverage in both directions via the recorded
/// waits, and deadlock freedom by simulating the wait/publish protocol.
/// Reuses the tile-plan Diag vocabulary: MalformedPlan, CoverageGap,
/// DepUncovered, StuckWait.
VerifyReport verify_shard_schedule(const ShardSchedule& s,
                                   const VerifyOptions& opt = {});

}  // namespace cats::plan_ir
