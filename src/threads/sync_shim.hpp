#pragma once
// Substrate shim for the synchronization primitives.
//
// Every primitive in src/threads is written against a small policy type
// rather than against std::atomic directly:
//
//   Shim::Atomic<T>   the atomic cell type (std::atomic<T> in production)
//   Shim::pause(e)    one backoff step of a spin loop (exponential PAUSE)
//   Shim::yield()     scheduler escalation after kWaitSpinLimit probes
//   Shim::observer()  the thread-local SyncObserver (validation hooks)
//   Shim::now_ns()    monotonic clock for WaitResult accounting
//
// Production instantiates each primitive with RealSyncShim below; the
// aliases (SpinBarrier, ProgressCell, ...) are unchanged, and because every
// memory order is a `static constexpr` of the default orders provider, the
// generated code is identical to the pre-shim hand-written primitives.
//
// The point of the indirection is src/analysis: the model checker
// re-instantiates the *same* primitive bodies over a simulated atomic type
// (analysis/sim_shim.hpp) whose loads enumerate every value the C++11
// memory model permits, and over a runtime orders provider so each
// annotated order can be weakened one step and re-checked. What the checker
// proves is therefore a statement about this exact code, not about a
// transliteration of it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "threads/cpu_pause.hpp"
#include "threads/sync_observer.hpp"

namespace cats {

struct RealSyncShim {
  template <class T>
  using Atomic = std::atomic<T>;

  static void pause(int& exponent) { backoff_pause(exponent); }
  static void yield() { std::this_thread::yield(); }
  static SyncObserver* observer() noexcept { return sync_observer(); }
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// Outcome of one wait: probe iterations and wall-clock nanoseconds spent.
/// Both are 0 when the condition already held on the first probe.
struct WaitResult {
  std::int64_t spins = 0;
  std::int64_t ns = 0;
};

/// Probes before a wait escalates from PAUSE backoff to yield.
inline constexpr int kWaitSpinLimit = 1024;

namespace detail {

/// The one wait ladder every primitive spins on (SpinBarrier's sense flip,
/// ProgressCell's bound): probes `satisfied()` with exponential PAUSE
/// backoff, escalating to yield after kWaitSpinLimit probes. The clock starts
/// only once the first probe fails, so uncontended waits cost one load.
/// Templated on the shim so simulated runs neither spin nor touch a real
/// clock (SimShim::pause parks the thread; now_ns() returns 0).
template <class Shim, class Satisfied>
WaitResult basic_adaptive_wait(Satisfied&& satisfied) {
  WaitResult r;
  if (satisfied()) return r;
  const std::int64_t start = Shim::now_ns();
  int exponent = 0;
  do {
    if (++r.spins > kWaitSpinLimit) {
      Shim::yield();
    } else {
      Shim::pause(exponent);
    }
  } while (!satisfied());
  r.ns = Shim::now_ns() - start;
  return r;
}

}  // namespace detail

}  // namespace cats
