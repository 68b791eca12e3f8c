#pragma once
// Operational C++11 weak-memory model: the value layer of the sync-protocol
// model checker (src/analysis, DESIGN.md §15).
//
// The interpreter executes one interleaving at a time under the explorer's
// strict handoff (analysis/explore.hpp). Per atomic location it keeps the
// full *modification order* as the append order of executed stores; per
// thread it keeps a vector clock. The rules, per executed operation:
//
//  * store(mo): appends a StoreRec stamped with the storing thread's clock.
//    If mo includes release, the store heads a release sequence and carries
//    a *message* clock (msg) = the thread's clock; a relaxed plain store
//    carries none (C++20 release sequences: a non-RMW store by any thread
//    breaks the sequence and starts none of its own).
//  * RMW: atomically reads the modification-order tail (no read choice —
//    atomicity pins it) and appends. An RMW *continues* every release
//    sequence containing its predecessor, so it inherits the predecessor's
//    msg and, if itself releasing, joins its own clock in.
//  * load(mo): the explorer enumerates every readable store — at/after the
//    thread's per-location coherence floor (the newest store it has read or
//    written there) and not *hidden* (no modification-order-later store
//    that happens-before the load; this is write-read coherence). If
//    mo includes acquire and the chosen store carries a msg, the reader
//    joins it (synchronizes-with the heads of every release sequence
//    containing that store).
//  * seq_cst is interpreted as acq_rel: the single total order S is not
//    modeled. That is conservative for the properties checked here (missing
//    happens-before edges can only be *more* likely without S); none of the
//    shipped primitives rely on seq_cst.
//  * non-atomic (data) accesses are not scheduling points; they are checked
//    for races directly: two accesses to the same data variable, at least
//    one a write, neither's clock ≤ the other's — exactly the "missing
//    happens-before edge" a weakened annotation produces.

#include <atomic>
#include <cstdint>
#include <vector>

namespace cats {
namespace analysis {

/// Vector clock over scenario threads plus one trailing component for the
/// setup context (world construction happens-before every thread start).
using Clock = std::vector<std::uint64_t>;

inline bool clock_leq(const Clock& a, const Clock& b) {
  if (a.size() > b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

inline void clock_join(Clock& a, const Clock& b) {
  if (a.size() < b.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] > a[i]) a[i] = b[i];
  }
}

inline bool mo_is_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

inline bool mo_is_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}

inline const char* mo_name(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

/// One store in a location's modification order (index = position).
struct StoreRec {
  int idx = 0;
  int thread = 0;  ///< storing thread; n = setup context
  long long value = 0;
  std::memory_order order = std::memory_order_relaxed;
  bool is_rmw = false;
  Clock vc;        ///< storing thread's clock at the store
  Clock msg;       ///< join of the clocks of all release-sequence heads
  bool has_msg = false;  ///< some release sequence contains this store
};

/// What a simulated thread is about to do (announced to the explorer).
enum class SimOpKind : std::uint8_t {
  None,
  Load,
  Store,
  RmwAdd,
  RmwXchg,
  Park,  ///< Shim::pause/yield inside a spin loop: block until a fresh
         ///< store lands on a location read since the last park
};

struct PendingOp {
  SimOpKind kind = SimOpKind::None;
  int loc = -1;
  std::memory_order mo = std::memory_order_relaxed;
  long long operand = 0;
};

}  // namespace analysis
}  // namespace cats
