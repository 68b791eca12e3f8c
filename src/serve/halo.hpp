#pragma once
// Cross-shard halo execution: one large job split over several NUMA shards.
//
// The executor walks a verified plan_ir::ShardSchedule (src/plan/shard.hpp)
// literally: one std::thread per shard builds the shard's extended subgrid
// (owned slices of the outermost dimension plus `halo` rows of overlap into
// each interior neighbor), then alternates Compute steps — a full cats::run
// of the block's timesteps on the subgrid, tiles sized by Eq. 1/2 against
// the shard's own cache — with Exchange steps that refresh the halo from the
// neighbors' owned rows. Every wait recorded in the schedule maps onto a
// ProgressCell::wait_ge and every step completion onto a publish — the same
// tile-to-tile cells every plan edge waits on, now spanning shard
// boundaries.
//
// Bit-exactness (asserted in tests/test_serve.cpp): the overlap rows are
// *recomputed* by both neighbors with identical arithmetic (deep halo), the
// initial condition is a function of global coordinates, and blocks are even
// so every exchange happens at buffer parity 0; the owned rows therefore
// match an unsharded run bit for bit, and the checksum over the shards'
// owned rows, taken in place in shard order, equals the single-shard one.

#include <vector>

#include "plan/shard.hpp"
#include "serve/exec.hpp"
#include "serve/job.hpp"

namespace cats::serve {

/// Per-shard placement a split run dispatches onto (one entry per schedule
/// shard, index-aligned). `cpus` empty = run the shard unpinned.
struct ShardSlot {
  std::vector<int> cpus;
  int threads = 1;
};

/// Execute `rq` split across sched.shards() subgrids. The schedule must have
/// passed verify_shard_schedule (the executor re-checks and fails the job
/// otherwise — "verified = executed"). `slots.size()` must equal the shard
/// count. `out_grid`, when non-null, receives the assembled global grid.
JobResult run_split_job(const JobRequest& rq,
                        const plan_ir::ShardSchedule& sched,
                        const std::vector<ShardSlot>& slots,
                        const ExecEnv& env,
                        std::vector<double>* out_grid = nullptr);

}  // namespace cats::serve
