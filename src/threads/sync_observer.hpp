#pragma once
// Observation hooks for the synchronization primitives (validation only).
//
// The dependence oracle (src/check) must see every happens-before edge the
// schedule actually establishes: a ProgressCell publish/wait_ge pair or a
// barrier crossing. Rather than coupling the threading substrate to the
// checker, the primitives report each crossing through a thread-local
// SyncObserver. Null (the default) costs one thread-local load and a
// predictable branch per *synchronization* operation — never per stencil
// point — so measured runs are unaffected.
//
// Hook placement matters for soundness: the release hook fires BEFORE the
// releasing store (so the observer's clock state is recorded by the time a
// waiter can observe the value), and the acquire hook fires AFTER the wait
// condition is satisfied (including the fast path where no spin occurred —
// the happens-before edge is real either way).

#include <cstdint>

namespace cats {

class SyncObserver {
 public:
  SyncObserver() = default;
  SyncObserver(const SyncObserver&) = delete;
  SyncObserver& operator=(const SyncObserver&) = delete;
  virtual ~SyncObserver() = default;

  /// Release side: this thread is about to make `value` visible via `cell`.
  virtual void on_release(const void* cell, std::int64_t value) = 0;
  /// Acquire side: a wait on `cell` was satisfied at bound `value`.
  virtual void on_acquire(const void* cell, std::int64_t value) = 0;
  /// Barrier entry (release of everything this thread did so far).
  virtual void on_barrier_arrive(const void* barrier) = 0;
  /// Barrier exit (acquire of everything every participant did).
  virtual void on_barrier_leave(const void* barrier) = 0;
};

namespace detail {
inline thread_local SyncObserver* t_sync_observer = nullptr;
}  // namespace detail

inline SyncObserver* sync_observer() noexcept {
  return detail::t_sync_observer;
}
inline void set_sync_observer(SyncObserver* o) noexcept {
  detail::t_sync_observer = o;
}

}  // namespace cats
