#pragma once
// Sense-reversing barrier for a fixed set of persistent worker threads.
//
// Two kinds of crossing use it. The executor's phase barrier orders all
// workers between time chunks ("synchronize threads" in Alg. 1/2), and each
// MWD thread group (plan/mwd.hpp) crosses its own barrier once per
// wavefront window, so a member never starts window k+1 before every member
// has finished window k. Both wait on the one adaptive ladder
// (threads/sync_shim.hpp): spin briefly for the common fast case, yield
// afterwards so oversubscribed runs (more threads than cores) still make
// progress, and return the idle time as a WaitResult for RunStats.
//
// The two atomics sit on their own cache lines: group barriers live side by
// side in one container, and a member spinning on sense_ must not share a
// line with the arrivals of a neighbouring group.
//
// The observer hooks report a crossing as an all-to-all edge among the
// participants, so dependence-oracle runs (src/check) see every
// happens-before edge a phase or a window relies on.
//
// The body is templated on a substrate shim (threads/sync_shim.hpp) and an
// orders provider so the model checker (src/analysis) can run this exact
// algorithm under a simulated weak-memory interpreter and re-check every
// order one weakening step down. Production uses the alias at the bottom;
// the orders are `static constexpr`, so codegen is unchanged.

#include <atomic>

#include "threads/sync_shim.hpp"

namespace cats {

/// Memory orders of BasicSpinBarrier's five annotated sites, as verified
/// and proven minimal by `cats_analyze --minimality` (src/analysis): every
/// one-step weakening of arrive/sense_publish/sense_wait yields a
/// counterexample interleaving with a post-barrier data race.
struct SpinBarrierProdOrders {
  // order: relaxed — own thread observed sense_ last round; read-read
  // coherence pins the peek at/after that observation, and ordering comes
  // from the acq_rel arrival below and the release/acquire on sense_.
  static constexpr std::memory_order sense_peek() {
    return std::memory_order_relaxed;
  }
  // order: acq_rel — every arrival joins the prior arrivals' writes so the
  // last arriver's sense_ release publishes all pre-barrier effects.
  // Checker-minimal: acquire-only loses the release-sequence link between
  // arrivals, release-only leaves the last arriver blind to them.
  static constexpr std::memory_order arrive() {
    return std::memory_order_acq_rel;
  }
  // order: relaxed — only the last arriver writes; next round's arrivals
  // are ordered behind the sense_ release below.
  static constexpr std::memory_order count_reset() {
    return std::memory_order_relaxed;
  }
  // order: release — pairs with the acquire spin; departing waiters see
  // all pre-barrier writes.
  static constexpr std::memory_order sense_publish() {
    return std::memory_order_release;
  }
  // order: acquire — pairs with the last arriver's release of sense_.
  static constexpr std::memory_order sense_wait() {
    return std::memory_order_acquire;
  }
};

template <class Shim, class O = SpinBarrierProdOrders>
class BasicSpinBarrier {
 public:
  explicit BasicSpinBarrier(int participants) : n_(participants) {}

  BasicSpinBarrier(const BasicSpinBarrier&) = delete;
  BasicSpinBarrier& operator=(const BasicSpinBarrier&) = delete;

  /// Returns the idle-spin cost of this crossing: spins and ns are both 0
  /// for the last arriver and for waits whose first probe already passed.
  WaitResult arrive_and_wait() {
    SyncObserver* const obs = Shim::observer();
    if (obs) obs->on_barrier_arrive(this);
    const bool my_sense = !sense_.load(O::sense_peek());
    WaitResult r;
    if (count_.fetch_add(1, O::arrive()) == n_ - 1) {
      count_.store(0, O::count_reset());
      sense_.store(my_sense, O::sense_publish());
    } else {
      r = detail::basic_adaptive_wait<Shim>(
          [&] { return sense_.load(O::sense_wait()) == my_sense; });
    }
    if (obs) obs->on_barrier_leave(this);
    return r;
  }

 private:
  const int n_;
  alignas(64) typename Shim::template Atomic<int> count_{0};
  alignas(64) typename Shim::template Atomic<bool> sense_{false};
};

using SpinBarrier = BasicSpinBarrier<RealSyncShim>;

}  // namespace cats
