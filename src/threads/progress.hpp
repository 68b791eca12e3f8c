#pragma once
// Tile-to-tile synchronization cell.
//
// CATS replaces global barriers inside a time chunk with point-to-point
// waits. Each plan owner publishes the plan index of every tile it finishes
// to its one ProgressCell, and a consumer waits until the producer's owner
// has published an index >= the producer tile (plan/execute.hpp). That one
// edge is CATS1's split-tiling wait on the right neighbour's wavefront and
// a diamond's wait on the two diamonds below it (CATS2, CATS3, MWD). An
// owner runs its tiles in ascending index order, so a cell's value only
// rises and never needs a reset. Cells are padded to a cache line to avoid
// false sharing.
//
// Waits use the shared adaptive ladder (threads/sync_shim.hpp), which
// measures its own wall-clock cost so RunStats can report wait *time*, not
// just an iteration count. The fast path (bound already reached) touches
// no clock.
//
// Validation: every publish and every satisfied wait reports a
// happens-before edge through the thread-local SyncObserver so the
// dependence oracle (src/check) can reconstruct the ordering the schedule
// actually established. The release hook fires before the releasing store;
// the acquire hook fires after the wait condition holds — including the
// fast path, where the edge is just as real.
//
// The cell is shim-templated (threads/sync_shim.hpp): the model checker
// (src/analysis) explores publish/wait_ge end-to-end under the weak-memory
// interpreter and proves each order below minimal.

#include <atomic>
#include <cstdint>

#include "threads/sync_shim.hpp"

namespace cats {

/// Orders of BasicProgressCell's sites, verified minimal by the checker:
/// weakening publish or the acquire load loses the happens-before edge a
/// plan SyncEdge assumes, and the checker's consumer scenario then reads
/// the producer's tile data racily (counterexample trace).
struct ProgressCellProdOrders {
  // order: release — pairs with wait_ge's acquire; waiters see all writes
  // up to the published tile.
  static constexpr std::memory_order publish() {
    return std::memory_order_release;
  }
  // order: acquire — pairs with publish's release.
  static constexpr std::memory_order wait() {
    return std::memory_order_acquire;
  }
};

/// Monotone progress counter: publish() with release, wait_ge() with acquire.
template <class Shim, class O = ProgressCellProdOrders>
struct alignas(64) BasicProgressCell {
  typename Shim::template Atomic<std::int64_t> value{INT64_MIN};

  void publish(std::int64_t v) {
    if (SyncObserver* o = Shim::observer()) o->on_release(this, v);
    value.store(v, O::publish());
  }

  /// Blocks until the published value reaches `bound`.
  WaitResult wait_ge(std::int64_t bound) const {
    const WaitResult r = detail::basic_adaptive_wait<Shim>(
        [&] { return value.load(O::wait()) >= bound; });
    if (SyncObserver* o = Shim::observer()) o->on_acquire(this, bound);
    return r;
  }
};

using ProgressCell = BasicProgressCell<RealSyncShim>;

}  // namespace cats
