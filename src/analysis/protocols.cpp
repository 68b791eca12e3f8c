#include "analysis/protocols.hpp"

#include <memory>

#include "analysis/sim_shim.hpp"
#include "check/check.hpp"
#include "threads/barrier.hpp"
#include "threads/pin_latch.hpp"
#include "threads/progress.hpp"

namespace cats {
namespace analysis {
namespace {

std::memory_order g_orders[kNumSites];

// Runtime order providers: same static-member-function contract as the
// *ProdOrders types, but reading the sweep's table, so one instantiation of
// each primitive covers every order configuration.
struct DynSb {
  static std::memory_order sense_peek() { return g_orders[kSbSensePeek]; }
  static std::memory_order arrive() { return g_orders[kSbArrive]; }
  static std::memory_order count_reset() { return g_orders[kSbCountReset]; }
  static std::memory_order sense_publish() { return g_orders[kSbSensePublish]; }
  static std::memory_order sense_wait() { return g_orders[kSbSenseWait]; }
};
struct DynPc {
  static std::memory_order publish() { return g_orders[kPcPublish]; }
  static std::memory_order wait() { return g_orders[kPcWait]; }
};
struct DynPl {
  static std::memory_order note() { return g_orders[kPlNote]; }
  static std::memory_order read() { return g_orders[kPlRead]; }
};

using SimSpinBarrier = BasicSpinBarrier<SimShim, DynSb>;
using SimProgressCell = BasicProgressCell<SimShim, DynPc>;
using SimPinLatch = BasicPinLatch<SimShim, DynPl>;

// ---------------------------------------------------------------------------
// Scenarios. Data handoffs use one fresh SimData per crossing so checks
// after barrier k never race the writes for barrier k+1.

Scenario barrier_scenario(int n, int crossings) {
  Scenario sc;
  sc.name = "SpinBarrier/n" + std::to_string(n) + "x" +
            std::to_string(crossings);
  sc.nthreads = n;
  sc.make = [n, crossings]() {
    struct World {
      explicit World(int nn) {
        sim_name_locs({"count_", "sense_"});
        bar = std::make_unique<SimSpinBarrier>(nn);
      }
      std::unique_ptr<SimSpinBarrier> bar;
      std::vector<std::unique_ptr<SimData>> d;
    };
    auto w = std::make_shared<World>(n);
    for (int c = 0; c < crossings; ++c) {
      for (int i = 0; i < n; ++i) {
        const std::string name =
            "d" + std::to_string(c) + "_" + std::to_string(i);
        w->d.push_back(std::make_unique<SimData>(name.c_str()));
      }
    }
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < n; ++i) {
      bodies.push_back([w, i, n, crossings] {
        for (int c = 0; c < crossings; ++c) {
          w->d[(std::size_t)(c * n + i)]->write(100 * c + i);
          w->bar->arrive_and_wait();
          for (int j = 0; j < n; ++j) {
            sim_check(w->d[(std::size_t)(c * n + j)]->read() == 100 * c + j,
                      "post-barrier read sees every participant's pre-barrier "
                      "write");
          }
        }
      });
    }
    return bodies;
  };
  return sc;
}

/// A plan SyncEdge: the producer owner publishes rising tile indices, the
/// consumer wait_ge's and reads the tile data published before each index.
Scenario progress_wait_scenario() {
  Scenario sc;
  sc.name = "ProgressCell/publish-wait_ge";
  sc.nthreads = 2;
  sc.make = []() {
    struct World {
      World() : d1("tile1"), d2("tile2") {
        sim_name_locs({"value"});
        cell = std::make_unique<SimProgressCell>();
      }
      std::unique_ptr<SimProgressCell> cell;
      SimData d1, d2;
    };
    auto w = std::make_shared<World>();
    std::vector<std::function<void()>> bodies;
    bodies.push_back([w] {
      w->d1.write(41);
      w->cell->publish(1);
      w->d2.write(42);
      w->cell->publish(2);
    });
    bodies.push_back([w] {
      w->cell->wait_ge(1);
      sim_check(w->d1.read() == 41, "wait_ge(1) orders tile1's data");
      w->cell->wait_ge(2);
      sim_check(w->d2.read() == 42, "wait_ge(2) orders tile2's data");
    });
    return bodies;
  };
  return sc;
}

/// The thread pool's pin handshake: caller + workers note() after pinning;
/// the caller reads count() only after a join edge from every worker
/// (modeled as ProgressCells at production orders — the same
/// release/acquire shape as thread join). Relaxed note/read must still
/// force count()==3.
Scenario pin_handshake_scenario() {
  Scenario sc;
  sc.name = "PinLatch/pin-handshake";
  sc.nthreads = 3;
  sc.make = []() {
    struct World {
      World() : dw1("w1pin"), dw2("w2pin") {
        sim_name_locs({"pinned_"});
        latch = std::make_unique<SimPinLatch>();
        sim_name_locs({"join1"});
        j1 = std::make_unique<BasicProgressCell<SimShim>>();
        sim_name_locs({"join2"});
        j2 = std::make_unique<BasicProgressCell<SimShim>>();
      }
      std::unique_ptr<SimPinLatch> latch;
      std::unique_ptr<BasicProgressCell<SimShim>> j1, j2;
      SimData dw1, dw2;
    };
    auto w = std::make_shared<World>();
    std::vector<std::function<void()>> bodies;
    bodies.push_back([w] {
      w->latch->note();
      w->j1->wait_ge(1);
      w->j2->wait_ge(1);
      sim_check(w->latch->count() == 3,
                "post-join count() sees every pinned participant");
      sim_check(w->dw1.read() == 1, "join orders worker 1's writes");
      sim_check(w->dw2.read() == 2, "join orders worker 2's writes");
    });
    bodies.push_back([w] {
      w->dw1.write(1);
      w->latch->note();
      w->j1->publish(1);
    });
    bodies.push_back([w] {
      w->dw2.write(2);
      w->latch->note();
      w->j2->publish(1);
    });
    return bodies;
  };
  return sc;
}

}  // namespace

// ---------------------------------------------------------------------------

const std::vector<SiteInfo>& site_table() {
  static const std::vector<SiteInfo> t = {
      {kSbSensePeek, "SpinBarrier", "sense_peek",
       SpinBarrierProdOrders::sense_peek(), 'l'},
      {kSbArrive, "SpinBarrier", "arrive", SpinBarrierProdOrders::arrive(),
       'r'},
      {kSbCountReset, "SpinBarrier", "count_reset",
       SpinBarrierProdOrders::count_reset(), 's'},
      {kSbSensePublish, "SpinBarrier", "sense_publish",
       SpinBarrierProdOrders::sense_publish(), 's'},
      {kSbSenseWait, "SpinBarrier", "sense_wait",
       SpinBarrierProdOrders::sense_wait(), 'l'},
      {kPcPublish, "ProgressCell", "publish",
       ProgressCellProdOrders::publish(), 's'},
      {kPcWait, "ProgressCell", "wait", ProgressCellProdOrders::wait(), 'l'},
      {kPlNote, "PinLatch", "note", PinLatchProdOrders::note(), 'r'},
      {kPlRead, "PinLatch", "read", PinLatchProdOrders::read(), 'l'},
  };
  return t;
}

std::memory_order& site_order(SiteId id) { return g_orders[id]; }

void reset_site_orders() {
  for (const SiteInfo& si : site_table()) g_orders[si.id] = si.prod;
}

std::vector<std::memory_order> order_weakenings(std::memory_order mo,
                                                char op) {
  switch (mo) {
    case std::memory_order_seq_cst:
      return {op == 'r' ? std::memory_order_acq_rel
              : op == 'l' ? std::memory_order_acquire
                          : std::memory_order_release};
    case std::memory_order_acq_rel:
      return {std::memory_order_acquire, std::memory_order_release};
    case std::memory_order_acquire:
    case std::memory_order_release:
      return {std::memory_order_relaxed};
    default:
      return {};
  }
}

std::vector<Scenario> scenarios_for_primitive(const char* prim,
                                              bool thorough) {
  const std::string p = prim;
  std::vector<Scenario> out;
  if (p == "SpinBarrier") {
    out.push_back(barrier_scenario(2, 2));
    if (thorough) out.push_back(barrier_scenario(3, 1));
  } else if (p == "ProgressCell") {
    out.push_back(progress_wait_scenario());
  } else if (p == "PinLatch") {
    out.push_back(pin_handshake_scenario());
  } else {
    CATS_CHECK(false, "unknown primitive %s", prim);
  }
  return out;
}

std::vector<PrimCheck> check_all_primitives(const ExploreLimits& lim) {
  reset_site_orders();
  std::vector<PrimCheck> out;
  for (const char* prim : {"SpinBarrier", "ProgressCell", "PinLatch"}) {
    for (Scenario& sc : scenarios_for_primitive(prim, /*thorough=*/true)) {
      PrimCheck pc;
      pc.scenario = sc.name;
      pc.result = explore(sc, lim);
      out.push_back(std::move(pc));
    }
  }
  return out;
}

namespace {

/// Run every scenario of `prim` under the current g_orders.
void run_prim_into(const char* prim, MinFinding& f, const ExploreLimits& lim) {
  f.safe = true;
  for (Scenario& sc : scenarios_for_primitive(prim, /*thorough=*/false)) {
    ExploreResult r = explore(sc, lim);
    f.executions += r.executions;
    if (!r.error.empty()) {
      f.safe = false;
      f.error = r.error;
      return;
    }
    if (r.has_cex()) {
      f.safe = false;
      f.cex_reason = r.cex[0].reason;
      f.cex_trace = r.cex[0].trace;
      return;
    }
  }
}

}  // namespace

std::vector<MinFinding> minimality_sweep(const ExploreLimits& lim) {
  std::vector<MinFinding> out;
  for (const SiteInfo& si : site_table()) {
    for (std::memory_order weak : order_weakenings(si.prod, si.op)) {
      reset_site_orders();
      g_orders[si.id] = weak;
      MinFinding f;
      f.prim = si.prim;
      f.site = si.site;
      f.prod = si.prod;
      f.varied = weak;
      run_prim_into(si.prim, f, lim);
      out.push_back(std::move(f));
    }
  }
  // Historical-strength audit: the pin latch shipped acq_rel/acquire; the
  // relaxed production orders are the checker-justified downgrade. Verify
  // the strengthened variant still passes (it must — strengthening is
  // monotone) so the report can state "acq_rel bought nothing".
  {
    reset_site_orders();
    g_orders[kPlNote] = std::memory_order_acq_rel;
    g_orders[kPlRead] = std::memory_order_acquire;
    MinFinding f;
    f.prim = "PinLatch";
    f.site = "note+read (historical acq_rel/acquire)";
    f.prod = std::memory_order_relaxed;
    f.varied = std::memory_order_acq_rel;
    f.strengthening = true;
    run_prim_into("PinLatch", f, lim);
    out.push_back(std::move(f));
  }
  reset_site_orders();
  return out;
}

ExploreResult check_with_site_order(SiteId site, std::memory_order mo,
                                    const ExploreLimits& lim) {
  reset_site_orders();
  g_orders[site] = mo;
  const SiteInfo* info = nullptr;
  for (const SiteInfo& si : site_table()) {
    if (si.id == site) info = &si;
  }
  CATS_CHECK(info != nullptr, "unknown site id %d", (int)site);
  ExploreResult merged;
  merged.ok = true;
  for (Scenario& sc : scenarios_for_primitive(info->prim, false)) {
    ExploreResult r = explore(sc, lim);
    merged.executions += r.executions;
    merged.pruned += r.pruned;
    merged.max_depth = std::max(merged.max_depth, r.max_depth);
    if (!r.error.empty() && merged.error.empty()) merged.error = r.error;
    for (Counterexample& cx : r.cex) merged.cex.push_back(std::move(cx));
    if (!merged.cex.empty() || !merged.error.empty()) break;
  }
  merged.ok = merged.error.empty() && merged.cex.empty();
  reset_site_orders();
  return merged;
}

}  // namespace analysis
}  // namespace cats
