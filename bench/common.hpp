#pragma once
// Shared helpers for the figure/table benchmark binaries.
//
// Environment knobs:
//   CATS_BENCH_FULL=1      paper-scale sweeps (up to 128M elements, ~GiB data)
//   CATS_BENCH_TINY=1      smallest-size smoke run (CI; correctness, not perf)
//   CATS_BENCH_THREADS=N   worker threads (default: hardware concurrency)
//   CATS_BENCH_CACHE_KB=N  cache parameter Z for CATS (default: detected L2)
//   CATS_BENCH_REPS=N      repetitions per point, median reported (default 1)
//   CATS_BENCH_JSON=path   machine-readable BENCH_*.json output
//   CATS_BENCH_AFFINITY=none|compact|scatter  thread-pinning policy
//
// CLI flags (override the environment): --json <path>,
// --affinity none|compact|scatter.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness/report.hpp"
#include "bench_harness/timing.hpp"
#include "cachesim/traffic_model.hpp"
#include "core/run.hpp"
#include "core/stats.hpp"
#include "simd/vecd.hpp"
#include "sysinfo/topology.hpp"

namespace cats::bench {

struct BenchConfig {
  bool full = false;
  bool tiny = false;
  int threads = 1;
  std::size_t cache_bytes = 0;  // 0 = detect
  int reps = 1;
  AffinityPolicy affinity = AffinityPolicy::None;
};

inline int env_int(const char* name, int dflt) {
  if (const char* v = std::getenv(name)) {
    const int x = std::atoi(v);
    if (x > 0) return x;
  }
  return dflt;
}

inline AffinityPolicy parse_affinity(const char* v) {
  if (v && std::strcmp(v, "compact") == 0) return AffinityPolicy::Compact;
  if (v && std::strcmp(v, "scatter") == 0) return AffinityPolicy::Scatter;
  return AffinityPolicy::None;
}

inline BenchConfig bench_config(int argc = 0, char** argv = nullptr) {
  BenchConfig c;
  c.full = std::getenv("CATS_BENCH_FULL") != nullptr;
  c.tiny = std::getenv("CATS_BENCH_TINY") != nullptr;
  c.threads = env_int("CATS_BENCH_THREADS",
                      static_cast<int>(std::thread::hardware_concurrency()));
  if (c.threads < 1) c.threads = 1;
  c.cache_bytes = static_cast<std::size_t>(env_int("CATS_BENCH_CACHE_KB", 0)) * 1024;
  c.reps = env_int("CATS_BENCH_REPS", 1);
  if (const char* j = std::getenv("CATS_BENCH_JSON")) json_log().enable(j);
  c.affinity = parse_affinity(std::getenv("CATS_BENCH_AFFINITY"));
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_log().enable(argv[i + 1]);
    if (std::strcmp(argv[i], "--affinity") == 0)
      c.affinity = parse_affinity(argv[i + 1]);
  }
  json_log().add_context("affinity", affinity_policy_name(c.affinity));
  json_log().add_context("isa", simd::kIsaName);
  return c;
}

inline RunOptions options_for(const BenchConfig& c, Scheme s) {
  RunOptions opt;
  opt.threads = c.threads;
  opt.cache_bytes = c.cache_bytes;
  opt.scheme = s;
  opt.affinity = c.affinity;
  return opt;
}

/// Analytic DRAM bytes for one timed configuration, RFO-corrected
/// (cachesim/traffic_model.hpp). This scalar is the *model's* figure, not a
/// measurement.
template <class K>
double model_dram_bytes(const K& k, int T, const RunOptions& opt,
                        const SchemeChoice& c) {
  const DomainShape d = domain_shape(k);
  TrafficInput in;
  in.n = static_cast<double>(d.n);
  in.t_steps = T;
  in.bands = k.extra_cache_doubles_per_point();
  in.state = k.state_doubles_per_point();
  in.slope = k.slope();
  in.wmax = std::max(1.0, static_cast<double>(d.wmax));
  in.tiles = opt.threads;
  in.elem_bytes = kernel_element_bytes(k);
  double bytes = 0.0;
  switch (c.scheme) {
    case Scheme::Cats1:
      bytes = cats1_traffic_bytes(in, std::max(1, c.tz));
      break;
    case Scheme::Cats2:
    case Scheme::Cats3:
    case Scheme::Mwd:  // c.bz already carries the pooled-budget diamond width
      bytes = cats2_traffic_bytes(
          in, std::max<std::int64_t>(2ll * in.slope, c.bz));
      break;
    default:
      bytes = naive_traffic_bytes(in);
      break;
  }
  return with_rfo_bytes(in, bytes);
}

/// Median wall seconds of `reps` runs; make_kernel() -> fresh initialized
/// kernel each rep (the run mutates it). With --json enabled, the timed
/// runs' synchronization wait time (RunStats::wait_ns and barrier_wait_ns
/// over all reps) is accumulated into the report's scalars, along with the
/// analytic DRAM traffic ("model_dram_bytes", one rep's worth per timed
/// configuration) and the matching update count ("model_updates" = N*T);
/// their ratio is the modeled effective DRAM bytes per point update.
template <class MakeKernel>
double time_scheme(MakeKernel&& make_kernel, int T, const RunOptions& opt,
                   int reps, SchemeChoice* choice_out = nullptr) {
  RunOptions ropt = opt;
  RunStats wait_stats;
  if (json_log().enabled() && !ropt.stats) ropt.stats = &wait_stats;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  SchemeChoice last{};
  for (int r = 0; r < reps; ++r) {
    auto k = make_kernel();
    Timer timer;
    last = run(k, T, ropt);
    samples.push_back(timer.seconds());
    if (choice_out) *choice_out = last;
  }
  if (ropt.stats == &wait_stats) {
    json_log().bump_scalar("wait_ns", static_cast<double>(wait_stats.wait_ns));
    json_log().bump_scalar("wait_events",
                           static_cast<double>(wait_stats.wait_events));
    // Intra-tile share of the wait aggregates above (MWD group-barrier
    // crossings, core/stats.hpp): member imbalance inside MWD groups, as
    // opposed to tile-to-tile edge waits.
    json_log().bump_scalar("team_wait_ns",
                           static_cast<double>(wait_stats.team_wait_ns));
    json_log().bump_scalar("team_wait_events",
                           static_cast<double>(wait_stats.team_wait_events));
    // Phase-barrier idle time, outside the wait aggregates above.
    json_log().bump_scalar("barrier_wait_ns",
                           static_cast<double>(wait_stats.barrier_wait_ns));
    json_log().bump_scalar(
        "barrier_wait_events",
        static_cast<double>(wait_stats.barrier_wait_events));
  }
  if (json_log().enabled()) {
    const auto k = make_kernel();
    json_log().bump_scalar("model_dram_bytes",
                           model_dram_bytes(k, T, ropt, last));
    json_log().bump_scalar(
        "model_updates", static_cast<double>(domain_shape(k).n) * T);
  }
  return summarize(samples).median;
}

inline double gflops(double n_points, int T, double flops_per_point,
                     double secs) {
  return n_points * T * flops_per_point / secs / 1e9;
}

inline double gupdates(double n_points, int T, double secs) {
  return n_points * T / secs / 1e9;
}

/// Side lengths whose square/cube is close to `million * 1e6` elements.
inline int side_2d(double million) {
  return static_cast<int>(std::sqrt(million * 1e6) + 0.5);
}
inline int side_3d(double million) {
  return static_cast<int>(std::cbrt(million * 1e6) + 0.5);
}

/// The paper doubles element counts between graph points.
inline std::vector<double> size_series(double lo_millions, double hi_millions) {
  std::vector<double> s;
  for (double m = lo_millions; m <= hi_millions * 1.01; m *= 2.0) s.push_back(m);
  return s;
}

/// Size sweep honoring the three run modes: tiny (CI smoke) collapses to a
/// single sub-million point, full is the paper-scale doubling series, and the
/// default is a reduced series that still shows the cache transition.
inline std::vector<double> sweep_sizes(const BenchConfig& c, double full_lo,
                                       double full_hi, double dflt_lo,
                                       double dflt_hi) {
  if (c.tiny) return {0.25};
  return c.full ? size_series(full_lo, full_hi)
                : size_series(dflt_lo, dflt_hi);
}

}  // namespace cats::bench
