#pragma once
// Plan executor: runs an emitted TilePlan with real threads.
//
// The walk is completely generic — per thread, tiles in plan order grouped
// by phase; before each tile, wait out its incoming sync edges (all waits of
// one tile aggregate into at most one RunStats wait event, as the schemes
// always counted); expand the tile through the shared for_each_slab and hand
// each slab to the caller; publish the tile's ProgressCell value / DoneFlag;
// run the plan's global phase synchronization after every phase. Because the
// slab enumeration and the sync edges are the plan's, executing a plan is
// exactly what the verifier reasons about (plan/verify.hpp).
//
// Every worker calls the one slab callback, which must therefore be safe to
// invoke concurrently (the kernel walk of plan/kernel_walk.hpp holds no
// state); a slab's kernel calls are complete when the callback returns, so
// the tile's publish needs nothing beyond its own release.
//
// MWD groups (plan/mwd.hpp): an MWD plan's owners are thread groups of
// plan.mwd_group members each, so the pool runs threads * mwd_group workers.
// Members pipeline each tube's wavefronts behind a per-group TeamBarrier;
// only the group lead (member 0) performs the tile's edge waits and
// publishes. Every other plan has one worker per owner.
//
// Synchronization objects: one ProgressCell per owner (CATS1 split-tiling),
// one DoneFlag per tile (CATS2/3/MWD diamonds), one SpinBarrier over all
// workers for phase boundaries, one TeamBarrier per MWD group. All are
// created only when the plan uses them.

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
#include "threads/team_barrier.hpp"
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
  // that owner's program order.
  std::vector<std::vector<std::int32_t>> order(static_cast<std::size_t>(P));
  bool any_done = false, any_progress = false;
  for (std::size_t i = 0; i < plan.tiles.size(); ++i) {
    order[static_cast<std::size_t>(plan.tiles[i].owner)].push_back(
        static_cast<std::int32_t>(i));
    any_done |= plan.tiles[i].publishes_done;
    any_progress |= plan.tiles[i].publishes_progress;
  }
  const detail::EdgeIndex in(plan);

  ThreadPool pool(W, opt.affinity, nullptr, opt.pin_cpus);
  SpinBarrier bar(W);
  std::deque<TeamBarrier> team_bar;
  for (int i = 0; m > 1 && i < P; ++i) team_bar.emplace_back(m);
  std::vector<ProgressCell> progress(any_progress ? static_cast<std::size_t>(P)
                                                  : 0);
  std::vector<DoneFlag> done(any_done ? plan.tiles.size() : 0);

  pool.run([&](int wid) {
    const int tid = wid / m;     // plan-level owner (MWD group)
    const int member = wid % m;  // 0 == group lead
    const check::ScopedOracleThread oracle_bind(opt.oracle, wid);
    std::int64_t local_spins = 0, local_events = 0, local_ns = 0,
                 local_tiles = 0, local_barriers = 0;
    // TeamBarrier idle-spin accounting (RunStats team_wait_* breakdown,
    // also folded into the wait_* aggregates at the flush below).
    std::int64_t tw_spins = 0, tw_events = 0, tw_ns = 0;
    auto team_cross = [&](TeamBarrier& tb) {
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
            WaitResult a;
            if (e.kind == SyncEdge::Kind::Done) {
              a = done[static_cast<std::size_t>(e.from)].wait();
            } else {
              const std::int32_t from_owner =
                  plan.tiles[static_cast<std::size_t>(e.from)].owner;
              a = progress[static_cast<std::size_t>(from_owner)].wait_ge(e.value);
            }
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
          TeamBarrier& tb = team_bar[static_cast<std::size_t>(tid)];
          mwd_walk_tile(plan, tile, member, m, [&] { team_cross(tb); },
                        slab_fn);
        }
        if (member == 0) {
          if (tile.publishes_progress) {
            progress[static_cast<std::size_t>(tid)].publish(tile.u);
          }
          if (tile.publishes_done) done[static_cast<std::size_t>(idx)].set();
          if (tile.first_in_group) ++local_tiles;
        }
        ++next;
      }
      switch (plan.phase_sync) {
        case PhaseSync::None:
          break;
        case PhaseSync::Barrier:
          bar.arrive_and_wait();
          ++local_barriers;
          break;
        case PhaseSync::BarrierResetBarrier:
          // Everyone finishes, progress counters reset, then the next phase
          // starts (two barriers so no thread can observe a stale counter
          // from the previous phase).
          bar.arrive_and_wait();
          if (!progress.empty() && member == 0) {
            progress[static_cast<std::size_t>(tid)].reset();
          }
          bar.arrive_and_wait();
          local_barriers += 2;
          break;
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
    }
  });
}

}  // namespace cats::plan_ir
