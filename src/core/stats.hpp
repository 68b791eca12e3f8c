#pragma once
// Optional synchronization statistics.
//
// The paper's minimalist-parallelization argument rests on two empirical
// claims: split-tiling waits almost never fire ("in practice the thread tid
// does not have to wait") and per-diamond waits are short. Passing a
// RunStats through RunOptions makes the schemes count every wait that
// actually spun, so the claim can be checked on any machine/workload.
// Collection is wait-path-only (one branch on an already-loaded value), so
// the fast path is unaffected.

#include <atomic>
#include <cstdint>

#include "threads/sync_shim.hpp"

namespace cats {

/// Counter semantics (all relaxed atomics, accumulated across runs until
/// reset(); schemes add thread-local tallies once per pool job, so the
/// counters cost nothing inside the sweep loops):
///
/// - `wait_events`: point-to-point waits whose condition was NOT already
///   satisfied on the first probe — a CATS1 neighbor wait or a
///   CATS2/CATS3/MWD diamond-dependency wait (ProgressCell::wait_ge) that
///   actually blocked. Waits that pass immediately are not counted; the
///   paper predicts this number stays near zero for CATS1.
/// - `wait_spins`: total probe iterations (PAUSE-backoff or yield rounds)
///   across those blocking waits. A coarse, frequency-independent cost proxy.
/// - `wait_ns`: total wall-clock nanoseconds spent inside blocking waits
///   (steady_clock, measured on the slow path only). This is the number to
///   compare against runtime: spins of different backoff depth have wildly
///   different durations.
/// - `tiles_processed`: tiles whose points this thread actually computed —
///   non-empty parallelogram tiles in CATS1 (one per chunk per thread that
///   owned a non-empty u-range; threads idled by the P clamp or an empty
///   tile contribute nothing) and non-empty diamond tubes in CATS2/CATS3.
/// - `barriers`: barrier crossings, counted per participant (a P-thread
///   CATS1 chunk boundary adds P). Naive adds one per participant per
///   timestep; CATS2/CATS3 use no global barriers inside the sweep; MWD
///   members add one per wavefront window of their group's barrier.
/// - `team_wait_events`/`team_wait_spins`/`team_wait_ns`: the MWD group
///   barrier's idle-spin share of the wait_* totals above — group members
///   stalled at a wavefront-window barrier. Team crossings that blocked are
///   counted in BOTH the wait_* aggregates and this breakdown, so wait_ns
///   stays the single number for tile and team waits, and team_wait_ns
///   attributes how much of it is intra-tile (member imbalance) rather than
///   tile-to-tile (schedule dependencies).
/// - `barrier_wait_events`/`barrier_wait_ns`: phase-barrier crossings
///   (naive timesteps, PluTo hyperplanes, CATS1 chunks) that blocked, and
///   the wall-clock time they spent. Kept OUT of the wait_* aggregates, so
///   wait_ns still measures only tile-to-tile and team waits.
struct RunStats {
  std::atomic<std::int64_t> wait_events{0};
  std::atomic<std::int64_t> wait_spins{0};
  std::atomic<std::int64_t> wait_ns{0};
  std::atomic<std::int64_t> tiles_processed{0};
  std::atomic<std::int64_t> barriers{0};
  std::atomic<std::int64_t> team_wait_events{0};
  std::atomic<std::int64_t> team_wait_spins{0};
  std::atomic<std::int64_t> team_wait_ns{0};
  std::atomic<std::int64_t> barrier_wait_events{0};
  std::atomic<std::int64_t> barrier_wait_ns{0};

  void reset() {
    // order: relaxed — counters are reset before workers start and read
    // after they join; the pool's fork/join provides the ordering.
    wait_events.store(0, std::memory_order_relaxed);
    wait_spins.store(0, std::memory_order_relaxed);
    wait_ns.store(0, std::memory_order_relaxed);
    tiles_processed.store(0, std::memory_order_relaxed);
    barriers.store(0, std::memory_order_relaxed);
    team_wait_events.store(0, std::memory_order_relaxed);
    team_wait_spins.store(0, std::memory_order_relaxed);
    team_wait_ns.store(0, std::memory_order_relaxed);
    barrier_wait_events.store(0, std::memory_order_relaxed);
    barrier_wait_ns.store(0, std::memory_order_relaxed);
  }

  void add_wait(const WaitResult& w) {
    if (w.spins > 0) {
      // order: relaxed — independent counters; read only after the join.
      wait_events.fetch_add(1, std::memory_order_relaxed);
      wait_spins.fetch_add(w.spins, std::memory_order_relaxed);
      wait_ns.fetch_add(w.ns, std::memory_order_relaxed);
    }
  }
};

}  // namespace cats
