#pragma once
// Plan executor: runs an emitted TilePlan with real threads.
//
// The walk is completely generic — per thread, tiles in plan order grouped
// by phase; before each tile, wait out its incoming sync edges (all waits of
// one tile aggregate into at most one RunStats wait event, as the schemes
// always counted); expand the tile through the shared for_each_slab and hand
// each slab to the caller; publish the tile's plan index to the owner's
// ProgressCell; cross the phase barrier after every phase of a plan that
// asks for one. Because the slab enumeration and the sync edges are the
// plan's, executing a plan is exactly what the verifier reasons about
// (plan/verify.hpp).
//
// Every worker calls the one slab callback, which must therefore be safe to
// invoke concurrently (the kernel walk of plan/kernel_walk.hpp holds no
// state); a slab's kernel calls are complete when the callback returns, so
// the tile's publish needs nothing beyond its own release.
//
// MWD groups (plan/mwd.hpp): an MWD plan's owners are thread groups of
// plan.mwd_group members each, so the pool runs threads * mwd_group workers.
// Members pipeline each tube's wavefronts behind a per-group SpinBarrier;
// only the group lead (member 0) performs the tile's edge waits and
// publishes. Every other plan has one worker per owner.
//
// Synchronization objects: one ProgressCell per owner (every SyncEdge waits
// on its producer's owner cell; created only when the plan has edges), one
// SpinBarrier over all workers for phase boundaries, and one SpinBarrier per
// MWD group.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "check/oracle.hpp"
#include "core/options.hpp"
#include "core/stats.hpp"
#include "plan/mwd.hpp"
#include "plan/plan.hpp"
#include "threads/barrier.hpp"
#include "threads/progress.hpp"
#include "threads/thread_pool.hpp"

namespace cats::plan_ir {

namespace detail {

/// Incoming-edge index in CSR form: edges_in(t) lists the SyncEdge indices
/// targeting tile t, in plan edge order (the order the schemes waited in).
struct EdgeIndex {
  std::vector<std::int32_t> offsets;
  std::vector<std::int32_t> edge_ids;

  explicit EdgeIndex(const TilePlan& p) {
    offsets.assign(p.tiles.size() + 1, 0);
    for (const SyncEdge& e : p.edges) ++offsets[static_cast<std::size_t>(e.to) + 1];
    for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
    edge_ids.resize(p.edges.size());
    std::vector<std::int32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < p.edges.size(); ++i) {
      edge_ids[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(p.edges[i].to)]++)] =
          static_cast<std::int32_t>(i);
    }
  }
};

}  // namespace detail

/// Execute `plan`, invoking slab_fn(const Slab&) for every slab, on
/// plan.threads owners of plan.mwd_group workers each.
/// slab_fn runs on a worker thread with the dependence oracle (opt.oracle)
/// already bound, so kernels report rows the usual way via check::note_row.
template <class SlabFn>
void execute_plan(const TilePlan& plan, const RunOptions& opt,
                  SlabFn&& slab_fn) {
  const int P = plan.threads;
  const int m = std::max(1, plan.mwd_group);
  const int W = P * m;
  RunStats* stats = opt.stats;

  // Per-owner tile order: the plan's tile order restricted to one owner IS
  // that owner's program order. It ascends in tile index, so the values an
  // owner publishes to its cell only rise.
  std::vector<std::vector<std::int32_t>> order(static_cast<std::size_t>(P));
  for (std::size_t i = 0; i < plan.tiles.size(); ++i) {
    order[static_cast<std::size_t>(plan.tiles[i].owner)].push_back(
        static_cast<std::int32_t>(i));
  }
  const detail::EdgeIndex in(plan);

  ThreadPool pool(W, opt.affinity, nullptr, opt.pin_cpus);
  SpinBarrier bar(W);
  std::deque<SpinBarrier> team_bar;
  for (int i = 0; m > 1 && i < P; ++i) team_bar.emplace_back(m);
  std::vector<ProgressCell> progress(
      plan.edges.empty() ? 0 : static_cast<std::size_t>(P));

  pool.run([&](int wid) {
    const int tid = wid / m;     // plan-level owner (MWD group)
    const int member = wid % m;  // 0 == group lead
    const check::ScopedOracleThread oracle_bind(opt.oracle, wid);
    std::int64_t local_spins = 0, local_events = 0, local_ns = 0,
                 local_tiles = 0, local_barriers = 0;
    // Team-barrier idle-spin accounting (RunStats team_wait_* breakdown,
    // also folded into the wait_* aggregates at the flush below) and
    // phase-barrier idle time (barrier_wait_*, kept apart from wait_*).
    std::int64_t tw_spins = 0, tw_events = 0, tw_ns = 0;
    std::int64_t bw_events = 0, bw_ns = 0;
    auto team_cross = [&](SpinBarrier& tb) {
      const WaitResult w = tb.arrive_and_wait();
      ++local_barriers;
      if (w.spins > 0) {
        ++tw_events;
        tw_spins += w.spins;
        tw_ns += w.ns;
      }
    };
    const std::vector<std::int32_t>& mine =
        order[static_cast<std::size_t>(tid)];
    std::size_t next = 0;
    for (int phase = 0; phase < plan.phases; ++phase) {
      while (next < mine.size() &&
             plan.tiles[static_cast<std::size_t>(mine[next])].phase == phase) {
        const std::int32_t idx = mine[next];
        const Tile& tile = plan.tiles[static_cast<std::size_t>(idx)];
        if (member == 0) {
          WaitResult w;
          for (std::int32_t ei = in.offsets[static_cast<std::size_t>(idx)];
               ei < in.offsets[static_cast<std::size_t>(idx) + 1]; ++ei) {
            const SyncEdge& e =
                plan.edges[static_cast<std::size_t>(in.edge_ids[static_cast<std::size_t>(ei)])];
            const std::int32_t from_owner =
                plan.tiles[static_cast<std::size_t>(e.from)].owner;
            const WaitResult a =
                progress[static_cast<std::size_t>(from_owner)].wait_ge(e.from);
            w.spins += a.spins;
            w.ns += a.ns;
          }
          if (w.spins > 0) {
            ++local_events;
            local_spins += w.spins;
            local_ns += w.ns;
          }
        }
        if (m == 1) {
          for_each_slab(plan, tile, slab_fn);
        } else {
          // MWD group: members pipeline the tube's wavefronts in contiguous
          // time bands behind per-window barriers (schedule + ordering proof
          // in plan/mwd.hpp). The walk ends with a barrier, so the members'
          // work is ordered before the lead's publish below; the first
          // window's barrier releases the lead's acquired edge waits.
          SpinBarrier& tb = team_bar[static_cast<std::size_t>(tid)];
          mwd_walk_tile(plan, tile, member, m, [&] { team_cross(tb); },
                        slab_fn);
        }
        if (member == 0) {
          if (!progress.empty()) {
            progress[static_cast<std::size_t>(tid)].publish(idx);
          }
          if (tile.first_in_group) ++local_tiles;
        }
        ++next;
      }
      if (plan.phase_sync == PhaseSync::Barrier) {
        const WaitResult w = bar.arrive_and_wait();
        ++local_barriers;
        if (w.spins > 0) {
          ++bw_events;
          bw_ns += w.ns;
        }
      }
    }
    if (stats) {
      // Team-barrier stalls count in BOTH the wait_* aggregates and the
      // team_wait_* breakdown (core/stats.hpp).
      const std::int64_t ev = local_events + tw_events;
      const std::int64_t sp = local_spins + tw_spins;
      const std::int64_t ns = local_ns + tw_ns;
      // order: relaxed — independent counters, aggregated once per worker.
      stats->wait_events.fetch_add(ev, std::memory_order_relaxed);
      stats->wait_spins.fetch_add(sp, std::memory_order_relaxed);
      stats->wait_ns.fetch_add(ns, std::memory_order_relaxed);
      stats->tiles_processed.fetch_add(local_tiles, std::memory_order_relaxed);
      stats->barriers.fetch_add(local_barriers, std::memory_order_relaxed);
      stats->team_wait_events.fetch_add(tw_events, std::memory_order_relaxed);
      stats->team_wait_spins.fetch_add(tw_spins, std::memory_order_relaxed);
      stats->team_wait_ns.fetch_add(tw_ns, std::memory_order_relaxed);
      // order: relaxed — phase-barrier idle time, kept out of wait_*.
      stats->barrier_wait_events.fetch_add(bw_events,
                                           std::memory_order_relaxed);
      stats->barrier_wait_ns.fetch_add(bw_ns, std::memory_order_relaxed);
    }
  });
}

}  // namespace cats::plan_ir
