#pragma once
// Empirical neighborhood search around the analytic CATS parameters.
//
// The analytic Eq. 1/2/CATS3 values from core/selector.cpp seed a bounded
// grid of candidate configurations (TZ / BZ / BX scaled by a few factors,
// plus cross-scheme alternatives); each candidate is timed on short pilot
// runs of a *fresh* kernel built by the caller's factory, and the fastest
// wins. Related work (Malas et al.; Wittmann et al.) reports 1.5-2x
// sensitivity around the analytic optimum, which a dozen pilots recover.
//
// search() needs a kernel factory because pilot runs advance a kernel's
// simulation state — the library never pilots on the caller's live kernel.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_harness/machine.hpp"
#include "bench_harness/timing.hpp"
#include "core/run.hpp"
#include "sysinfo/topology.hpp"
#include "tune/db.hpp"

namespace cats::tune {

struct TuneConfig {
  int pilot_t = 16;      ///< minimum timesteps per pilot run
  int max_pilot_t = 48;  ///< pilot-length cap (pilots grow to fit 2x seed TZ)
  int reps = 2;          ///< pilots per candidate; minimum is kept
  double budget_seconds = 20.0;  ///< stop evaluating new candidates after this
  bool cross_scheme = true;      ///< also try the neighboring CATS scheme
  bool tune_threads = true;      ///< re-time the winner at threads/2
  bool tune_affinity = true;     ///< re-time the winner under each pin policy
};

/// One point of the search grid. `threads` 0 = the caller's thread count;
/// `affinity` -1 = the caller's policy, else an AffinityPolicy value;
/// `mwd_group` 0 = the caller's RunOptions value.
struct Candidate {
  Scheme scheme = Scheme::Auto;
  int tz = 0;
  std::int64_t bz = 0;
  std::int64_t bx = 0;
  int threads = 0;
  int affinity = -1;
  int mwd_group = 0;
};

struct Measured {
  Candidate cand;
  double seconds = 0.0;
};

struct TuneResult {
  Candidate best;
  double best_seconds = 0.0;
  double analytic_seconds = 0.0;  ///< the seed configuration's pilot time
  std::vector<Measured> all;      ///< every evaluated candidate (for reports)
  DbEntry entry;                  ///< ready to put() into a TuneDb
  DbKey key;                      ///< under this key
};

/// Candidate grid around the analytic seed (seed itself is element 0).
/// Deduplicated, clamped to legal parameter ranges; bounded size (~a dozen).
std::vector<Candidate> neighborhood(const SchemeChoice& seed,
                                    const DomainShape& d, int slope, int T,
                                    const TuneConfig& cfg);

/// Options that force exactly `c` through select_scheme().
RunOptions options_for_candidate(const RunOptions& base, const Candidate& c);

const char* candidate_scheme_name(const Candidate& c);

/// Time pilots for every candidate and return the winner. `make` must return
/// a freshly initialized kernel by value each call.
template <class MakeKernel>
TuneResult search(MakeKernel&& make, int T, const RunOptions& base,
                  const TuneConfig& cfg = {}) {
  RunOptions opt = base;
  opt.tuning = Tuning::Off;  // the search itself must not consult the DB
  opt.scheme = Scheme::Auto;

  TuneResult res;
  {
    auto k0 = make();
    // Seed from the production T (so the analytic TZ is not capped by the
    // pilot length), then grow the pilot until the 2x-TZ candidate is
    // distinguishable from the seed — a pilot shorter than a candidate's
    // chunk height would silently time a clamped configuration.
    const SchemeChoice seed = plan(k0, T, opt);
    const int pilot_t =
        std::max(1, std::min({T, std::max(cfg.pilot_t, 2 * seed.tz),
                              std::max(cfg.pilot_t, cfg.max_pilot_t)}));
    const DomainShape d = domain_shape(k0);
    const std::vector<Candidate> cands =
        neighborhood(seed, d, k0.slope(), pilot_t, cfg);

    auto time_candidate = [&](const Candidate& c) {
      const RunOptions copt = options_for_candidate(opt, c);
      double secs = 1e300;
      for (int r = 0; r < std::max(1, cfg.reps); ++r) {
        auto k = make();
        bench::Timer t;
        run(k, pilot_t, copt);
        secs = std::min(secs, t.seconds());
      }
      return secs;
    };

    bench::Timer budget;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (i > 0 && budget.seconds() > cfg.budget_seconds) break;
      const double secs = time_candidate(cands[i]);
      res.all.push_back({cands[i], secs});
      if (i == 0) res.analytic_seconds = secs;
      if (res.all.size() == 1 || secs < res.best_seconds) {
        res.best = cands[i];
        res.best_seconds = secs;
      }
    }

    // Thread-count axis: time the winning tile configuration at half the
    // workers. Fewer threads can win when split tiles get too narrow or the
    // machine's shared cache is oversubscribed.
    if (cfg.tune_threads && opt.threads > 1 &&
        budget.seconds() <= cfg.budget_seconds) {
      Candidate half = res.best;
      half.threads = opt.threads / 2;
      const double secs = time_candidate(half);
      res.all.push_back({half, secs});
      if (secs < res.best_seconds) {
        res.best = half;
        res.best_seconds = secs;
      }
    }

    // Affinity axis: re-time the winning configuration under each pinning
    // policy. Only worth probing when the topology is known and has more
    // than one CPU — on unknown topologies pinning degrades to unpinned,
    // so every policy would time the same thing.
    if (cfg.tune_affinity && system_topology().known &&
        system_topology().cpus.size() > 1 &&
        budget.seconds() <= cfg.budget_seconds) {
      for (AffinityPolicy p :
           {AffinityPolicy::None, AffinityPolicy::Compact,
            AffinityPolicy::Scatter}) {
        if (p == base.affinity) continue;  // the grid already timed this one
        Candidate c = res.best;
        c.affinity = static_cast<int>(p);
        const double secs = time_candidate(c);
        res.all.push_back({c, secs});
        if (secs < res.best_seconds) {
          res.best = c;
          res.best_seconds = secs;
        }
      }
    }

    // MWD group-width axis: pooling g threads on one diamond trades tube
    // parallelism for sqrt(g) wider diamonds (plan/emit.hpp emit_mwd).
    // Only widths that tile the worker pool are legal (mwd_group_width),
    // and the knob only matters when the candidate runs Scheme::Mwd — so
    // probe it on an explicit MWD switch of the winner, against the pool
    // the winner runs (the thread axis above may have halved it). Each
    // probe sticks only if it wins.
    const int mwd_pool = res.best.threads > 0 ? res.best.threads : opt.threads;
    if (d.dims >= 2 && mwd_pool > 1) {
      for (int gw : {2, 4}) {
        if (gw > mwd_pool || mwd_pool % gw != 0) continue;
        if (budget.seconds() > cfg.budget_seconds) break;
        Candidate c = res.best;
        c.scheme = Scheme::Mwd;
        c.tz = 0;
        c.bx = 0;
        c.bz = 0;  // re-derive via Eq. 2 at the pooled budget Z*gw
        c.mwd_group = gw;
        const double secs = time_candidate(c);
        res.all.push_back({c, secs});
        if (secs < res.best_seconds) {
          res.best = c;
          res.best_seconds = secs;
        }
      }
    }

    res.key.machine = bench::machine_fingerprint();
    res.key.kernel = kernel_tuning_id(k0);
    res.key.scheme_key = "auto";
    res.key.shape = shape_bucket(d);
    res.key.threads = opt.threads;
  }

  res.entry.scheme = candidate_scheme_name(res.best);
  res.entry.tz = res.best.tz;
  res.entry.bz = res.best.bz;
  res.entry.bx = res.best.bx;
  res.entry.run_threads = res.best.threads;
  res.entry.affinity =
      res.best.affinity < 0
          ? ""
          : affinity_policy_name(static_cast<AffinityPolicy>(res.best.affinity));
  res.entry.mwd_group = res.best.mwd_group;
  res.entry.pilot_seconds = res.best_seconds;
  res.entry.analytic_seconds = res.analytic_seconds;
  res.entry.cache_bytes = base.cache_bytes;
  res.entry.cs_slack = base.cs_slack;
  return res;
}

/// search() + persist: stores the winner under its key in the DB at `path`
/// (default_path() when empty), saves the file and invalidates the run-time
/// lookup cache so the very next UseDb run sees it. Returns the result.
template <class MakeKernel>
TuneResult search_and_store(MakeKernel&& make, int T, const RunOptions& base,
                            std::string path = {}, const TuneConfig& cfg = {}) {
  if (path.empty())
    path = base.tuning_db_path ? base.tuning_db_path : TuneDb::default_path();
  TuneResult res = search(make, T, base, cfg);
  TuneDb db;
  db.load(path);  // merge with existing entries; a corrupt file starts fresh
  db.put(res.key, res.entry);
  db.save(path);
  invalidate_cache();
  return res;
}

}  // namespace cats::tune
