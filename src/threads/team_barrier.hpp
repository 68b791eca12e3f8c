#pragma once
// Sense-reversing barrier for one intra-tile *team*: the m members of an
// MWD thread group (plan/mwd.hpp), which share one diamond tube and
// pipeline its wavefronts. The group crosses this barrier once per
// wavefront window, so a member never starts window k+1 before every member
// has finished window k — the ordering the MWD band lemma relies on.
//
// Differences from SpinBarrier (threads/barrier.hpp):
//   * Instantiated per group and crossed once per *window*, not once per
//     chunk, so the hot fields are cache-line padded against false sharing
//     between neighbouring groups in a vector of barriers.
//   * m == 1 degenerates to a no-op (no atomics, no observer edges): a
//     one-member team is the classic per-tile executor and needs no intra-
//     tile ordering beyond program order.
//
// The observer hooks make the barrier SyncEdge-compatible for the
// dependence oracle (src/check): a crossing is an all-to-all edge among the
// team's members, reported exactly like SpinBarrier's phase barrier, so
// oracle runs see every intra-team happens-before edge the schedule relies
// on.
//
// Like SpinBarrier, the body is shim-templated so the model checker
// (src/analysis) explores this exact algorithm — including the n_ <= 1
// degenerate early-out — under the weak-memory interpreter.

#include <atomic>

#include "threads/progress.hpp"  // WaitResult
#include "threads/sync_shim.hpp"

namespace cats {

/// Orders of BasicTeamBarrier's sites; the algorithm and the minimality
/// argument are identical to SpinBarrierProdOrders (the checker sweeps both
/// primitives independently since they are distinct template bodies).
struct TeamBarrierProdOrders {
  // order: relaxed — own thread observed sense_ last round; ordering comes
  // from the acq_rel arrival below and the release/acquire on sense_.
  static constexpr std::memory_order sense_peek() {
    return std::memory_order_relaxed;
  }
  // order: acq_rel — every arrival joins the prior arrivals' writes so the
  // last arriver's sense_ release publishes all pre-barrier effects.
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

template <class Shim, class O = TeamBarrierProdOrders>
class BasicTeamBarrier {
 public:
  explicit BasicTeamBarrier(int participants) : n_(participants) {}

  BasicTeamBarrier(const BasicTeamBarrier&) = delete;
  BasicTeamBarrier& operator=(const BasicTeamBarrier&) = delete;

  int participants() const noexcept { return n_; }

  /// Returns the idle-spin cost of this crossing (spins/ns both 0 for the
  /// last arriver and for uncontended waits), structured like
  /// detail::basic_adaptive_wait: the clock starts only after the first
  /// failed sense check, so a member that never waits never touches it.
  WaitResult arrive_and_wait() {
    WaitResult r;
    if (n_ <= 1) return r;  // degenerate team: program order suffices
    SyncObserver* const obs = Shim::observer();
    if (obs) obs->on_barrier_arrive(this);
    const bool my_sense = !sense_.load(O::sense_peek());
    if (count_.fetch_add(1, O::arrive()) == n_ - 1) {
      count_.store(0, O::count_reset());
      sense_.store(my_sense, O::sense_publish());
      if (obs) obs->on_barrier_leave(this);
      return r;
    }
    if (sense_.load(O::sense_wait()) != my_sense) {
      const std::int64_t start = Shim::now_ns();
      int exponent = 0;
      do {
        if (++r.spins > kSpinLimit) {
          Shim::yield();
        } else {
          Shim::pause(exponent);
        }
      } while (sense_.load(O::sense_wait()) != my_sense);
      r.ns = Shim::now_ns() - start;
    }
    if (obs) obs->on_barrier_leave(this);
    return r;
  }

 private:
  // Slab barriers are crossed orders of magnitude more often than phase
  // barriers; keep the spin short — a team's members finish their row spans
  // within a few microseconds of each other by construction.
  static constexpr int kSpinLimit = 1024;
  const int n_;
  alignas(64) typename Shim::template Atomic<int> count_{0};
  alignas(64) typename Shim::template Atomic<bool> sense_{false};
};

using TeamBarrier = BasicTeamBarrier<RealSyncShim>;

}  // namespace cats
