#include "analysis/explore.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/sim_shim.hpp"
#include "analysis/weak_memory.hpp"
#include "check/check.hpp"

namespace cats {
namespace analysis {
namespace {

/// Thrown through a scenario body (and the primitive code inside it) to
/// unwind a worker when the explorer abandons the current execution.
struct AbortExecution {};

enum class Phase : std::uint8_t { Idle, Running, Announced, Parked, Finished };

struct Sim;

struct ThreadSlot {
  int tid = -1;
  Sim* sim = nullptr;

  // Handoff protocol (guarded by Sim::m).
  Phase phase = Phase::Idle;
  bool start = false;
  bool abort = false;
  PendingOp pending{};
  long long result = 0;

  // Memory-model state (touched only by the slot's thread while Running or
  // by the explorer while the slot is quiescent — strict handoff).
  Clock clock;
  std::vector<int> last_idx;     ///< per-location coherence floor
  std::vector<int> reads_since;  ///< locs loaded since last park/write
  std::vector<int> spin_set;     ///< valid while Parked
  std::vector<int> forced;       ///< wake-read locations (must read fresh)
};

struct LocState {
  std::string name;
  std::vector<StoreRec> hist;  ///< modification order = append order
};

struct DataState {
  std::string name;
  bool has_write = false;
  int writer = -1;
  Clock wvc;
  long long val = 0;
  std::vector<Clock> read_vc;  ///< per thread; empty clock = no read yet
};

struct DecisionPoint {
  char kind = 'S';  ///< 'S' thread choice, 'R' read-from choice
  int cur = 0;
  std::vector<int> options;  ///< tids ('S') or store indices ('R')
};

struct Sim {
  int n = 0;
  ExploreLimits lim;

  std::vector<LocState> locs;
  std::vector<DataState> data;
  std::vector<std::string> pending_names;
  std::vector<ThreadSlot> slots;
  ThreadSlot setup;

  std::vector<std::string> trace;
  int step = 0;
  bool cex_flag = false;
  std::string cex_reason;
  std::string run_error;

  std::vector<DecisionPoint> stack;
  std::size_t depth = 0;
  std::vector<char> asleep;
  long long pruned = 0;

  std::vector<std::function<void()>> bodies;
  std::vector<std::thread> workers;
  std::mutex m;
  std::condition_variable cv;
  bool shutting_down = false;

  void trace_op(int tid, const std::string& text) {
    std::ostringstream os;
    os << "#" << step << " T" << tid << "  " << text;
    trace.push_back(os.str());
  }
  void fail(const std::string& reason) {
    if (!cex_flag) {
      cex_flag = true;
      cex_reason = reason;
    }
  }
  const std::string& loc_name(int loc) const { return locs[(std::size_t)loc].name; }
  int ensure_loc_size(ThreadSlot& s) {
    if (s.last_idx.size() < locs.size()) s.last_idx.resize(locs.size(), 0);
    return 0;
  }
};

thread_local ThreadSlot* t_slot = nullptr;

// ---------------------------------------------------------------------------
// Worker side

long long announce_and_wait(ThreadSlot* s, const PendingOp& op) {
  Sim* sim = s->sim;
  std::unique_lock<std::mutex> lk(sim->m);
  s->pending = op;
  s->phase = Phase::Announced;
  sim->cv.notify_all();
  sim->cv.wait(lk, [&] { return s->phase == Phase::Running || s->abort; });
  if (s->abort) throw AbortExecution{};
  return s->result;
}

void worker_entry(Sim* sim, int tid) {
  ThreadSlot& s = sim->slots[(std::size_t)tid];
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(sim->m);
      sim->cv.wait(lk, [&] { return s.start || sim->shutting_down; });
      if (sim->shutting_down) return;
      s.start = false;
    }
    t_slot = &s;
    try {
      sim->bodies[(std::size_t)tid]();
    } catch (const AbortExecution&) {
    }
    t_slot = nullptr;
    {
      std::lock_guard<std::mutex> lk(sim->m);
      s.phase = Phase::Finished;
      sim->cv.notify_all();
    }
  }
}

/// Fail from inside a running body (data race / failed check): record the
/// counterexample, then unwind this thread. The explorer regains control
/// when the unwind reaches the worker loop (phase -> Finished).
[[noreturn]] void body_fail(Sim* sim, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lk(sim->m);
    sim->fail(reason);
  }
  throw AbortExecution{};
}

// ---------------------------------------------------------------------------
// Explorer side (all slots quiescent while these run)

bool store_hidden(const LocState& L, int idx, const Clock& reader) {
  for (int j = idx + 1; j < (int)L.hist.size(); ++j) {
    if (clock_leq(L.hist[(std::size_t)j].vc, reader)) return true;
  }
  return false;
}

/// Readable stores for a load by slot s: at/after the coherence floor
/// (strictly after, for a forced wake-read) and not hidden by a
/// happens-before-later store.
std::vector<int> read_candidates(Sim& sim, ThreadSlot& s, int loc, bool forced) {
  sim.ensure_loc_size(s);
  const LocState& L = sim.locs[(std::size_t)loc];
  const int lo = forced ? s.last_idx[(std::size_t)loc] + 1 : s.last_idx[(std::size_t)loc];
  std::vector<int> out;
  for (int i = lo; i < (int)L.hist.size(); ++i) {
    if (!store_hidden(L, i, s.clock)) out.push_back(i);
  }
  return out;
}

bool parked_enabled(Sim& sim, ThreadSlot& s) {
  sim.ensure_loc_size(s);
  for (int loc : s.spin_set) {
    const LocState& L = sim.locs[(std::size_t)loc];
    if ((int)L.hist.size() - 1 > s.last_idx[(std::size_t)loc]) return true;
  }
  return false;
}

bool is_write_kind(SimOpKind k) {
  return k == SimOpKind::Store || k == SimOpKind::RmwAdd ||
         k == SimOpKind::RmwXchg;
}

/// Dependence for sleep-set wakeups: the executed op (loc `eloc`, write or
/// not) vs a sleeping thread's pending op. Same location with at least one
/// write; a parked thread's pending counts as reads of its spin set.
bool dependent_with(const ThreadSlot& u, int eloc, bool ewrite) {
  if (u.phase == Phase::Parked) {
    if (!ewrite) return false;
    return std::find(u.spin_set.begin(), u.spin_set.end(), eloc) !=
           u.spin_set.end();
  }
  if (u.phase != Phase::Announced) return false;
  if (u.pending.loc != eloc) return false;
  return ewrite || is_write_kind(u.pending.kind);
}

void wake_sleepers(Sim& sim, int eloc, bool ewrite) {
  for (int tid = 0; tid < sim.n; ++tid) {
    if (sim.asleep[(std::size_t)tid] &&
        dependent_with(sim.slots[(std::size_t)tid], eloc, ewrite)) {
      sim.asleep[(std::size_t)tid] = false;
    }
  }
}

/// Pick the next value at the current decision depth, storing the options
/// on first visit. Returns -1 when options is empty (pruned subtree).
int decide(Sim& sim, char kind, std::vector<int> options) {
  if (sim.depth == sim.stack.size()) {
    DecisionPoint dp;
    dp.kind = kind;
    dp.options = std::move(options);
    sim.stack.push_back(std::move(dp));
  }
  DecisionPoint& dp = sim.stack[sim.depth];
  CATS_CHECK(dp.kind == kind, "analysis explorer: replay divergence at depth %d",
             (int)sim.depth);
  sim.depth++;
  if (dp.options.empty()) return -1;
  return dp.options[(std::size_t)dp.cur];
}

void grant(Sim& sim, ThreadSlot& s, long long result) {
  std::lock_guard<std::mutex> lk(sim.m);
  s.result = result;
  s.phase = Phase::Running;
  sim.cv.notify_all();
}

/// Block until no slot is Running, then convert Park announcements into the
/// Parked state (a park is not a visible memory action — no decision).
void wait_quiescent(Sim& sim) {
  std::unique_lock<std::mutex> lk(sim.m);
  sim.cv.wait(lk, [&] {
    for (const ThreadSlot& s : sim.slots) {
      if (s.phase == Phase::Running) return false;
    }
    return true;
  });
  for (ThreadSlot& s : sim.slots) {
    if (s.phase == Phase::Announced && s.pending.kind == SimOpKind::Park) {
      s.phase = Phase::Parked;
      s.spin_set = s.reads_since;
      s.reads_since.clear();
      s.forced.clear();
      sim.trace_op(s.tid, [&] {
        std::string t = "park {";
        for (std::size_t i = 0; i < s.spin_set.size(); ++i) {
          if (i) t += ",";
          t += sim.loc_name(s.spin_set[i]);
        }
        return t + "}";
      }());
    }
  }
}

void abort_all(Sim& sim) {
  {
    std::lock_guard<std::mutex> lk(sim.m);
    for (ThreadSlot& s : sim.slots) {
      if (s.phase != Phase::Finished && s.phase != Phase::Idle) s.abort = true;
    }
    sim.cv.notify_all();
  }
  std::unique_lock<std::mutex> lk(sim.m);
  sim.cv.wait(lk, [&] {
    for (const ThreadSlot& s : sim.slots) {
      if (s.phase != Phase::Finished && s.phase != Phase::Idle) return false;
    }
    return true;
  });
}

/// Execute slot s's announced load (read-from decision included) and grant
/// the value. Returns false when the read decision hit a pruned subtree.
bool exec_load(Sim& sim, ThreadSlot& s) {
  const PendingOp op = s.pending;
  const bool forced =
      std::find(s.forced.begin(), s.forced.end(), op.loc) != s.forced.end();
  std::vector<int> cands = read_candidates(sim, s, op.loc, forced);
  s.forced.clear();  // one fresh read per wake; round-2 stale peeks stay legal
  CATS_CHECK(!cands.empty(),
             "analysis explorer: load of %s has no readable store",
             sim.loc_name(op.loc).c_str());
  const int idx = decide(sim, 'R', std::move(cands));
  if (idx < 0) return false;
  LocState& L = sim.locs[(std::size_t)op.loc];
  const StoreRec& st = L.hist[(std::size_t)idx];
  s.last_idx[(std::size_t)op.loc] =
      std::max(s.last_idx[(std::size_t)op.loc], idx);
  s.clock[(std::size_t)s.tid]++;
  if (mo_is_acquire(op.mo) && st.has_msg) clock_join(s.clock, st.msg);
  if (std::find(s.reads_since.begin(), s.reads_since.end(), op.loc) ==
      s.reads_since.end()) {
    s.reads_since.push_back(op.loc);
  }
  std::ostringstream os;
  os << "load " << L.name << " (" << mo_name(op.mo) << ") = " << st.value
     << " [mo#" << idx << (forced ? ", wake-read" : "") << "]";
  sim.trace_op(s.tid, os.str());
  wake_sleepers(sim, op.loc, /*ewrite=*/false);
  grant(sim, s, st.value);
  return true;
}

void exec_store(Sim& sim, ThreadSlot& s) {
  const PendingOp op = s.pending;
  sim.ensure_loc_size(s);
  LocState& L = sim.locs[(std::size_t)op.loc];
  s.clock[(std::size_t)s.tid]++;
  StoreRec st;
  st.idx = (int)L.hist.size();
  st.thread = s.tid;
  st.value = op.operand;
  st.order = op.mo;
  st.vc = s.clock;
  st.has_msg = mo_is_release(op.mo);
  if (st.has_msg) st.msg = s.clock;
  L.hist.push_back(std::move(st));
  s.last_idx[(std::size_t)op.loc] = (int)L.hist.size() - 1;
  s.reads_since.clear();
  std::ostringstream os;
  os << "store " << L.name << " = " << op.operand << " (" << mo_name(op.mo)
     << ")";
  sim.trace_op(s.tid, os.str());
  wake_sleepers(sim, op.loc, /*ewrite=*/true);
  grant(sim, s, 0);
}

void exec_rmw(Sim& sim, ThreadSlot& s) {
  const PendingOp op = s.pending;
  sim.ensure_loc_size(s);
  LocState& L = sim.locs[(std::size_t)op.loc];
  const StoreRec& prev = L.hist.back();  // atomicity: read the tail
  s.clock[(std::size_t)s.tid]++;
  if (mo_is_acquire(op.mo) && prev.has_msg) clock_join(s.clock, prev.msg);
  const long long oldv = prev.value;
  const long long newv =
      op.kind == SimOpKind::RmwAdd ? oldv + op.operand : op.operand;
  StoreRec st;
  st.idx = (int)L.hist.size();
  st.thread = s.tid;
  st.value = newv;
  st.order = op.mo;
  st.is_rmw = true;
  st.vc = s.clock;
  // An RMW continues every release sequence containing its predecessor.
  st.has_msg = prev.has_msg || mo_is_release(op.mo);
  if (prev.has_msg) st.msg = prev.msg;
  if (mo_is_release(op.mo)) clock_join(st.msg, s.clock);
  L.hist.push_back(std::move(st));
  s.last_idx[(std::size_t)op.loc] = (int)L.hist.size() - 1;
  s.reads_since.clear();
  std::ostringstream os;
  os << (op.kind == SimOpKind::RmwAdd ? "fetch_add " : "exchange ") << L.name
     << " (" << mo_name(op.mo) << ") " << oldv << " -> " << newv;
  sim.trace_op(s.tid, os.str());
  wake_sleepers(sim, op.loc, /*ewrite=*/true);
  grant(sim, s, oldv);
}

enum class ExecStatus { Ok, Cex, Pruned, Error };

ExecStatus run_one_execution(Sim& sim, const Scenario& sc) {
  // Reset per-execution state.
  sim.locs.clear();
  sim.data.clear();
  sim.pending_names.clear();
  sim.trace.clear();
  sim.step = 0;
  sim.cex_flag = false;
  sim.cex_reason.clear();
  sim.depth = 0;
  sim.asleep.assign((std::size_t)sim.n, 0);
  {
    // The handoff fields are read by idle workers' wait predicates.
    std::lock_guard<std::mutex> lk(sim.m);
    for (ThreadSlot& s : sim.slots) {
      s.phase = Phase::Idle;
      s.start = false;
      s.abort = false;
      s.pending = PendingOp{};
    }
  }
  for (ThreadSlot& s : sim.slots) {
    s.clock.assign((std::size_t)sim.n + 1, 0);
    s.last_idx.clear();
    s.reads_since.clear();
    s.spin_set.clear();
    s.forced.clear();
  }
  sim.setup.clock.assign((std::size_t)sim.n + 1, 0);
  sim.setup.clock[(std::size_t)sim.n] = 1;

  // World construction on the explorer thread (setup context): initial
  // stores land with the setup clock, which every thread inherits.
  t_slot = &sim.setup;
  sim.bodies = sc.make();
  t_slot = nullptr;
  CATS_CHECK((int)sim.bodies.size() == sim.n,
             "scenario %s: %d bodies for %d threads", sc.name.c_str(),
             (int)sim.bodies.size(), sim.n);
  for (ThreadSlot& s : sim.slots) s.clock = sim.setup.clock;

  // Release the threads one at a time: a body may begin with plain data
  // accesses (traced, recorded in sim.data) before its first atomic op, so
  // each prelude must run alone to keep the strict handoff. Race verdicts
  // come from vector clocks, so the release order does not change them.
  for (ThreadSlot& s : sim.slots) {
    {
      std::lock_guard<std::mutex> lk(sim.m);
      s.start = true;
      s.phase = Phase::Running;
      sim.cv.notify_all();
    }
    wait_quiescent(sim);
  }

  for (;;) {
    wait_quiescent(sim);
    if (sim.cex_flag) {
      abort_all(sim);
      return ExecStatus::Cex;
    }
    bool all_finished = true;
    for (const ThreadSlot& s : sim.slots) {
      if (s.phase != Phase::Finished) all_finished = false;
    }
    if (all_finished) return ExecStatus::Ok;
    if (++sim.step > sim.lim.max_steps) {
      sim.run_error = "per-execution step cap exceeded (scenario " + sc.name +
                      "): spin loop not converging under park semantics?";
      abort_all(sim);
      return ExecStatus::Error;
    }

    // Enabled = announced ops (always executable) + parked threads with a
    // fresh store on some spin location.
    std::vector<int> enabled;
    for (int tid = 0; tid < sim.n; ++tid) {
      ThreadSlot& s = sim.slots[(std::size_t)tid];
      if (s.phase == Phase::Announced) enabled.push_back(tid);
      if (s.phase == Phase::Parked && parked_enabled(sim, s)) {
        enabled.push_back(tid);
      }
    }
    if (enabled.empty()) {
      std::ostringstream os;
      os << "deadlock: no enabled thread;";
      for (const ThreadSlot& s : sim.slots) {
        if (s.phase == Phase::Parked) {
          os << " T" << s.tid << " parked on {";
          for (std::size_t i = 0; i < s.spin_set.size(); ++i) {
            if (i) os << ",";
            os << sim.loc_name(s.spin_set[i]);
          }
          os << "}";
        }
      }
      sim.fail(os.str());
      abort_all(sim);
      return ExecStatus::Cex;
    }

    std::vector<int> cands;
    if (sim.depth == sim.stack.size()) {
      for (int tid : enabled) {
        if (!sim.asleep[(std::size_t)tid]) cands.push_back(tid);
      }
    }
    const int chosen = decide(sim, 'S', std::move(cands));
    {
      // Threads explored in earlier sibling subtrees sleep here.
      const DecisionPoint& dp = sim.stack[sim.depth - 1];
      for (int i = 0; i < dp.cur; ++i) {
        sim.asleep[(std::size_t)dp.options[(std::size_t)i]] = 1;
      }
    }
    if (chosen < 0) {
      sim.pruned++;
      abort_all(sim);
      return ExecStatus::Pruned;
    }

    ThreadSlot& s = sim.slots[(std::size_t)chosen];
    if (s.phase == Phase::Parked) {
      // Wake: resume from pause(); the spin loop's next probe must read a
      // fresh store (that is the wake reason), collapsed into this same
      // scheduling action so a wake is never a separate silent decision.
      sim.ensure_loc_size(s);
      s.forced.clear();
      for (int loc : s.spin_set) {
        if ((int)sim.locs[(std::size_t)loc].hist.size() - 1 >
            s.last_idx[(std::size_t)loc]) {
          s.forced.push_back(loc);
        }
      }
      sim.trace_op(s.tid, "wake");
      {
        std::lock_guard<std::mutex> lk(sim.m);
        s.phase = Phase::Running;
        sim.cv.notify_all();
      }
      wait_quiescent(sim);
      if (sim.cex_flag) {
        abort_all(sim);
        return ExecStatus::Cex;
      }
      if (s.phase != Phase::Announced) continue;  // finished during wake
    }
    switch (s.pending.kind) {
      case SimOpKind::Load:
        if (!exec_load(sim, s)) {
          sim.pruned++;
          abort_all(sim);
          return ExecStatus::Pruned;
        }
        break;
      case SimOpKind::Store:
        exec_store(sim, s);
        break;
      case SimOpKind::RmwAdd:
      case SimOpKind::RmwXchg:
        exec_rmw(sim, s);
        break;
      default:
        sim.run_error = "analysis explorer: unexpected pending op";
        abort_all(sim);
        return ExecStatus::Error;
    }
  }
}

Sim* g_active_sim = nullptr;  // one exploration at a time per process

ThreadSlot* require_slot() {
  CATS_CHECK(t_slot != nullptr,
             "analysis: sim_* called outside an active exploration");
  return t_slot;
}

}  // namespace

// ---------------------------------------------------------------------------
// sim_* entry points (analysis/sim_shim.hpp)

void sim_name_locs(std::initializer_list<const char*> names) {
  ThreadSlot* s = require_slot();
  for (const char* n : names) s->sim->pending_names.push_back(n);
}

int sim_new_loc(long long init) {
  ThreadSlot* s = require_slot();
  Sim* sim = s->sim;
  CATS_CHECK(s == &sim->setup,
             "analysis: atomic cells must be constructed in Scenario::make");
  LocState L;
  if (!sim->pending_names.empty()) {
    L.name = sim->pending_names.front();
    sim->pending_names.erase(sim->pending_names.begin());
  } else {
    L.name = "loc" + std::to_string(sim->locs.size());
  }
  sim->setup.clock[(std::size_t)sim->n]++;
  StoreRec st;
  st.idx = 0;
  st.thread = sim->n;
  st.value = init;
  st.vc = sim->setup.clock;
  L.hist.push_back(std::move(st));
  sim->locs.push_back(std::move(L));
  return (int)sim->locs.size() - 1;
}

long long sim_load(int loc, std::memory_order mo) {
  ThreadSlot* s = require_slot();
  if (s == &s->sim->setup) {
    return s->sim->locs[(std::size_t)loc].hist.back().value;
  }
  PendingOp op;
  op.kind = SimOpKind::Load;
  op.loc = loc;
  op.mo = mo;
  return announce_and_wait(s, op);
}

void sim_store(int loc, long long v, std::memory_order mo) {
  ThreadSlot* s = require_slot();
  PendingOp op;
  op.kind = SimOpKind::Store;
  op.loc = loc;
  op.mo = mo;
  op.operand = v;
  announce_and_wait(s, op);
}

long long sim_rmw_add(int loc, long long delta, std::memory_order mo) {
  ThreadSlot* s = require_slot();
  PendingOp op;
  op.kind = SimOpKind::RmwAdd;
  op.loc = loc;
  op.mo = mo;
  op.operand = delta;
  return announce_and_wait(s, op);
}

long long sim_rmw_xchg(int loc, long long v, std::memory_order mo) {
  ThreadSlot* s = require_slot();
  PendingOp op;
  op.kind = SimOpKind::RmwXchg;
  op.loc = loc;
  op.mo = mo;
  op.operand = v;
  return announce_and_wait(s, op);
}

void sim_park() {
  ThreadSlot* s = require_slot();
  PendingOp op;
  op.kind = SimOpKind::Park;
  announce_and_wait(s, op);
}

int sim_data_new(const char* name) {
  ThreadSlot* s = require_slot();
  Sim* sim = s->sim;
  CATS_CHECK(s == &sim->setup,
             "analysis: data vars must be constructed in Scenario::make");
  DataState d;
  d.name = name;
  d.read_vc.resize((std::size_t)sim->n);
  sim->data.push_back(std::move(d));
  return (int)sim->data.size() - 1;
}

long long sim_data_read(int id) {
  ThreadSlot* s = require_slot();
  Sim* sim = s->sim;
  DataState& d = sim->data[(std::size_t)id];
  if (s == &sim->setup) return d.val;
  s->clock[(std::size_t)s->tid]++;
  if (d.has_write && !clock_leq(d.wvc, s->clock)) {
    std::ostringstream os;
    os << "data race on " << d.name << ": T" << s->tid
       << " reads without happens-before edge from T" << d.writer
       << "'s write (=" << d.val << ")";
    sim->trace_op(s->tid, "RACE read " + d.name);
    body_fail(sim, os.str());
  }
  d.read_vc[(std::size_t)s->tid] = s->clock;
  sim->trace_op(s->tid, "read " + d.name + " = " + std::to_string(d.val));
  return d.val;
}

void sim_data_write(int id, long long v) {
  ThreadSlot* s = require_slot();
  Sim* sim = s->sim;
  DataState& d = sim->data[(std::size_t)id];
  if (s == &sim->setup) {
    d.has_write = true;
    d.writer = sim->n;
    sim->setup.clock[(std::size_t)sim->n]++;
    d.wvc = sim->setup.clock;
    d.val = v;
    return;
  }
  s->clock[(std::size_t)s->tid]++;
  if (d.has_write && !clock_leq(d.wvc, s->clock)) {
    std::ostringstream os;
    os << "data race on " << d.name << ": T" << s->tid
       << " writes without happens-before edge from T" << d.writer
       << "'s write";
    sim->trace_op(s->tid, "RACE write " + d.name);
    body_fail(sim, os.str());
  }
  for (int tid = 0; tid < sim->n; ++tid) {
    const Clock& rc = d.read_vc[(std::size_t)tid];
    if (!rc.empty() && !clock_leq(rc, s->clock)) {
      std::ostringstream os;
      os << "data race on " << d.name << ": T" << s->tid
         << " writes without happens-before edge from T" << tid << "'s read";
      sim->trace_op(s->tid, "RACE write " + d.name);
      body_fail(sim, os.str());
    }
  }
  d.has_write = true;
  d.writer = s->tid;
  d.wvc = s->clock;
  d.val = v;
  for (Clock& rc : d.read_vc) rc.clear();
  sim->trace_op(s->tid, "write " + d.name + " = " + std::to_string(v));
}

void sim_check(bool cond, const char* what) {
  ThreadSlot* s = require_slot();
  if (cond) return;
  Sim* sim = s->sim;
  sim->trace_op(s->tid, std::string("CHECK FAILED: ") + what);
  body_fail(sim, std::string("assertion failed: ") + what);
}

// ---------------------------------------------------------------------------

ExploreResult explore(const Scenario& sc, const ExploreLimits& lim) {
  CATS_CHECK(g_active_sim == nullptr,
             "analysis: nested explore() is not supported");
  Sim sim;
  g_active_sim = &sim;
  sim.n = sc.nthreads;
  sim.lim = lim;
  sim.slots.resize((std::size_t)sim.n);
  for (int tid = 0; tid < sim.n; ++tid) {
    sim.slots[(std::size_t)tid].tid = tid;
    sim.slots[(std::size_t)tid].sim = &sim;
  }
  sim.setup.tid = sim.n;
  sim.setup.sim = &sim;
  sim.workers.reserve((std::size_t)sim.n);
  for (int tid = 0; tid < sim.n; ++tid) {
    sim.workers.emplace_back(worker_entry, &sim, tid);
  }

  ExploreResult res;
  for (;;) {
    const ExecStatus st = run_one_execution(sim, sc);
    res.executions++;
    res.max_depth = std::max(res.max_depth, (int)sim.stack.size());
    if (st == ExecStatus::Cex) {
      Counterexample cx;
      cx.reason = "[" + sc.name + "] " + sim.cex_reason;
      cx.trace = sim.trace;
      res.cex.push_back(std::move(cx));
      break;
    }
    if (st == ExecStatus::Error) {
      res.error = sim.run_error;
      break;
    }
    // Backtrack: drop exhausted suffix, advance the deepest open choice.
    while (!sim.stack.empty() &&
           sim.stack.back().cur + 1 >= (int)sim.stack.back().options.size()) {
      sim.stack.pop_back();
    }
    if (sim.stack.empty()) break;
    sim.stack.back().cur++;
    if (res.executions >= lim.max_executions) {
      res.error = "execution cap exceeded (scenario " + sc.name + ", cap " +
                  std::to_string(lim.max_executions) +
                  "): state space not exhausted — refusing to call it verified";
      break;
    }
  }
  res.pruned = sim.pruned;
  res.ok = res.error.empty() && res.cex.empty();

  {
    std::lock_guard<std::mutex> lk(sim.m);
    sim.shutting_down = true;
    sim.cv.notify_all();
  }
  for (std::thread& w : sim.workers) w.join();
  g_active_sim = nullptr;
  return res;
}

}  // namespace analysis
}  // namespace cats
