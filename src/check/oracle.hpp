#pragma once
// Dynamic dependence oracle: a stencil-specific logical race detector.
//
// CATS reorders the space-time iteration domain aggressively (skewed
// wavefronts, split parallelogram tiles, diamond towers); every one of those
// schedules is correct iff each point update at timestep t happens-after all
// of its slope-s box neighbors at t-1 — including across the tile-to-tile
// ProgressCell hand-offs that replaced barriers. The oracle checks
// that rule directly, per point, against the synchronization the schedule
// *actually performed*:
//
//  * Shadow clock grid: per point, TWO packed slots indexed by timestep
//    parity (mirroring the double buffer) record (last timestep written,
//    writing thread, writer epoch) in one 64-bit atomic.
//  * Happens-before edges: every ProgressCell::publish/wait_ge and
//    SpinBarrier crossing is reported through SyncObserver
//    (threads/sync_observer.hpp) and folded into per-thread vector clocks —
//    the FastTrack representation: a write is the epoch (tid, c); a read by
//    thread r is ordered iff VC_r[tid] >= c.
//  * Each update of (p, t) then checks: own history advanced exactly through
//    t-1, (p, t) not computed before, every slope-s neighbor written at
//    exactly t-1 (behind = missing dependence, ahead = the double-buffered
//    input was already overwritten by a t+1 consumer), and every cross-thread
//    read ordered by a *recorded* publish/wait edge.
//
// This is far cheaper and more precise than TSan for schedule bugs: real
// thread-creation ordering does not mask a missing publish (the oracle only
// believes edges the schedule recorded), and a violation is reported as the
// exact (point, t, missing dependence, thread pair) instead of a raw memory
// race. Validation mode only: ~16 shadow bytes per point and a
// (2s+1)^d-load check per update.
//
// Bound-exact acquires: a cell keeps its releases as (value, clock) pairs in
// publish order, and a wait_ge(bound) joins the clock of the first release
// whose value is >= bound — the release the schedule guarantees, not
// whatever the producer happened to publish by the time the waiter looked.
// A plan's consumer waits on its producer owner's shared cell, so crediting
// the cell's latest clock would hide a deleted edge whenever the producer
// ran ahead. Published values must never fall (checked). Barriers stay
// cumulative: a crossing joins every participant's arrival.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "threads/sync_observer.hpp"

namespace cats::check {

enum class ViolationKind : std::uint8_t {
  OutOfDomain,      ///< scheme asked for a point outside the grid interior
  NotAdvanced,      ///< own history is not exactly at t-1 when computing t
  DoubleCompute,    ///< (p, t) computed a second time
  MissingDep,       ///< a slope-s neighbor has not reached t-1
  FutureOverwrite,  ///< a neighbor already ran t+1: the t-1 input is gone
  UnorderedRead,    ///< dependence value exists but no recorded HB edge
  Incomplete,       ///< final check: point never reached timestep T
};

const char* kind_name(ViolationKind k);

/// One violated dependence, precise enough to reproduce: the point being
/// computed, the offending neighbor (== the point itself for own-history
/// kinds), the stamp expected vs. found, and the thread pair involved.
struct Violation {
  ViolationKind kind{};
  int x = 0, y = 0, z = 0;     ///< point being computed
  int t = 0;                   ///< timestep being computed
  int nx = 0, ny = 0, nz = 0;  ///< offending neighbor
  int expected_t = 0;          ///< stamp the dependence rule requires
  int found_t = 0;             ///< stamp actually found
  int reader_tid = 0;          ///< thread performing the update
  int writer_tid = -1;         ///< thread that wrote found_t; -1 = initial data
  std::string to_string() const;
};

/// One recorded happens-before event (bounded log, for diagnostics/tests).
struct SyncEvent {
  enum class Kind : std::uint8_t { Release, Acquire, BarrierArrive, BarrierLeave };
  Kind kind{};
  int tid = 0;
  const void* cell = nullptr;
  std::int64_t value = 0;
};

class DepOracle final : public SyncObserver {
 public:
  /// Shadow a width x height x depth interior (height/depth 1 for lower
  /// dimensions) swept by up to `threads` workers with a slope-`slope`
  /// stencil. t must stay below 2^22 - 1 and threads below kMaxThreads.
  DepOracle(int width, int height, int depth, int slope, int threads);

  // --- instrumentation entry points ---------------------------------------

  /// Thread `tid` computes row [x0, x1) x {y} x {z} at timestep t. Checks the
  /// full dependence rule for every point, then stamps the points as written
  /// at t with this thread's current epoch.
  void on_row(int tid, int t, int y, int z, int x0, int x1);

  // SyncObserver: called on the bound thread (see ScopedOracleThread).
  void on_release(const void* cell, std::int64_t value) override;
  void on_acquire(const void* cell, std::int64_t value) override;
  void on_barrier_arrive(const void* barrier) override;
  void on_barrier_leave(const void* barrier) override;

  // --- results -------------------------------------------------------------

  bool ok() const { return violation_count() == 0; }
  std::int64_t violation_count() const;
  /// First kMaxViolations violations in detection order.
  std::vector<Violation> violations() const;
  std::int64_t points_checked() const {
    // order: relaxed — statistics counter; read after the run completes.
    return points_checked_.load(std::memory_order_relaxed);
  }
  std::int64_t release_count() const;
  std::int64_t acquire_count() const;
  std::int64_t barrier_count() const;
  /// Bounded happens-before event log (first kMaxEdges events).
  std::vector<SyncEvent> edges() const;

  /// Final sweep: every interior point must have reached timestep T exactly.
  /// Call once after the run; adds an Incomplete violation per point behind.
  void check_complete(int T);

  void print_report(std::FILE* out) const;

  static constexpr int kMaxThreads = 1022;
  static constexpr std::size_t kMaxViolations = 64;
  static constexpr std::size_t kMaxEdges = 1 << 16;

 private:
  // Packed shadow slot: bits [42,64) = stamp+1, [32,42) = writer+1 (0 =
  // initial data), [0,32) = writer's epoch at the write.
  static std::uint64_t pack(int t, int writer, std::uint32_t epoch) noexcept {
    return (static_cast<std::uint64_t>(t + 1) << 42) |
           (static_cast<std::uint64_t>(writer + 1) << 32) | epoch;
  }
  static int stamp_of(std::uint64_t v) noexcept {
    return static_cast<int>(v >> 42) - 1;
  }
  static int writer_of(std::uint64_t v) noexcept {
    return static_cast<int>((v >> 32) & 0x3ff) - 1;
  }
  static std::uint32_t epoch_of(std::uint64_t v) noexcept {
    return static_cast<std::uint32_t>(v);
  }

  std::atomic<std::uint64_t>& slot(int x, int y, int z, int parity) {
    return slots_[(((static_cast<std::size_t>(z) * h_ + y) * w_) + x) * 2 +
                  parity];
  }

  void add_violation(const Violation& v);
  void log_edge(SyncEvent::Kind kind, int tid, const void* cell,
                std::int64_t value);
  int bound_tid() const;

  int w_, h_, d_, s_, p_;
  std::vector<std::atomic<std::uint64_t>> slots_;  ///< 2 parity slots per point

  /// vc_[tid] is only ever touched by thread tid (reads in on_row, joins in
  /// on_acquire, increments in on_release) — no locking needed for access,
  /// the mutex below only guards the shared release/barrier maps and logs.
  std::vector<std::vector<std::uint32_t>> vc_;

  /// One publish to a cell: its value and the releaser's clock at the time.
  struct Release {
    std::int64_t value;
    std::vector<std::uint32_t> clock;
  };

  mutable std::mutex mu_;
  /// Per cell, its releases in publish order (values non-decreasing).
  std::unordered_map<const void*, std::vector<Release>> cell_releases_;
  /// Per barrier, the join of every arrival so far.
  std::unordered_map<const void*, std::vector<std::uint32_t>> barrier_clocks_;
  std::vector<Violation> violations_;
  std::int64_t total_violations_ = 0;
  std::vector<SyncEvent> edges_;
  std::int64_t releases_ = 0, acquires_ = 0, barriers_ = 0;
  std::atomic<std::int64_t> points_checked_{0};
};

/// True when the environment requests validation (CATS_VALIDATE set to
/// anything but "" or "0"); cached on first call. run() then wraps every
/// dispatch in a temporary oracle and aborts with a report on violation.
bool validate_env_enabled();

// ---------------------------------------------------------------------------
// Per-thread binding used by the schemes
// ---------------------------------------------------------------------------

struct OracleBinding {
  DepOracle* oracle = nullptr;
  int tid = 0;
};

namespace detail {
inline thread_local OracleBinding t_oracle_binding{};
}  // namespace detail

/// RAII: bind this thread to `oracle` as worker `tid` — routes note_row()
/// and the SyncObserver hooks to it. A null oracle is a no-op bind, so the
/// schemes install it unconditionally. Restores the previous binding (and
/// observer) on destruction, which keeps nested run() calls well-formed.
class ScopedOracleThread {
 public:
  ScopedOracleThread(DepOracle* oracle, int tid)
      : prev_(detail::t_oracle_binding), prev_observer_(sync_observer()) {
    detail::t_oracle_binding = {oracle, tid};
    set_sync_observer(oracle);
  }
  ScopedOracleThread(const ScopedOracleThread&) = delete;
  ScopedOracleThread& operator=(const ScopedOracleThread&) = delete;
  ~ScopedOracleThread() {
    detail::t_oracle_binding = prev_;
    set_sync_observer(prev_observer_);
  }

 private:
  OracleBinding prev_;
  SyncObserver* prev_observer_;
};

/// Schemes call this immediately before each kernel row invocation. Lower
/// dimensions pass 0 for the missing coordinates (1D: y = z = 0). One
/// thread-local load and branch when no oracle is bound.
inline void note_row(int t, int y, int z, int x0, int x1) {
  const OracleBinding& b = detail::t_oracle_binding;
  if (b.oracle != nullptr) b.oracle->on_row(b.tid, t, y, z, x0, x1);
}

}  // namespace cats::check
