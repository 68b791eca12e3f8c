#pragma once
// A library workload drives cats::run() the way a user does: construct the
// kernel, first-touch it with parallel_init, run T steps with Scheme::Auto on
// every core, read the result. One such solve is a "job". Each job is
// verified (verify.hpp) outside the timed spans.

#include <memory>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "core/stats.hpp"
#include "layers.hpp"
#include "plan/emit.hpp"
#include "trace.hpp"
#include "verify.hpp"
#include "workload.hpp"

namespace catsbench {

struct LibConfig {
  std::string name;
  int n[3] = {1, 1, 1};
  int T = 1;
};

struct Rep {
  double alloc_s = 0.0, init_s = 0.0, run_s = 0.0;
  bool ok = true;
  std::string error;

  double setup_s() const { return alloc_s + init_s; }
  double latency_s() const { return setup_s() + run_s; }
};

struct Pass {
  std::vector<Rep> reps;

  std::vector<double> collect(double (Rep::*f)() const) const {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back((r.*f)());
    return v;
  }
  std::vector<double> run_s() const {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.run_s);
    return v;
  }
};

template <class Tr>
class LibWorkload {
 public:
  using K = typename Tr::K;

  LibWorkload(LibConfig cfg, const Host& host, std::uint64_t seed)
      : cfg_(std::move(cfg)), host_(host), seed_(seed) {
    probes_ = make_probes(cfg_.n, Tr::kDims, cfg_.T, 1, seed_);
  }

  const LibConfig& config() const { return cfg_; }
  std::int64_t points() const {
    return static_cast<std::int64_t>(cfg_.n[0]) * cfg_.n[1] * cfg_.n[2];
  }
  double updates() const { return static_cast<double>(points()) * cfg_.T; }
  /// Bytes of one time buffer's interior, and of every array per point.
  std::uint64_t buffer_bytes() const {
    return static_cast<std::uint64_t>(points()) * sizeof(typename Tr::Elem);
  }
  std::uint64_t working_set_bytes() const { return buffer_bytes() * Tr::kFields; }

  /// RunOptions of every timed run: all cores, everything else default.
  cats::RunOptions options() const {
    cats::RunOptions opt;
    opt.threads = host_.threads;
    return opt;
  }

  /// Reference hashes of every probe box, from run_reference on sub-grids.
  void prepare_reference() {
    probe_ref_.clear();
    for (const Probe& p : probes_) {
      const int sub[3] = {p.hi[0] - p.lo[0], p.hi[1] - p.lo[1], p.hi[2] - p.lo[2]};
      auto k = Tr::make(sub);
      Tr::init(*k, nullptr, seed_, p.lo);
      const double work = static_cast<double>(p.points()) * cfg_.T;
      reference_run<Tr>(*k, cfg_.T, work > 2e8 ? host_.threads : 1);
      probe_ref_.push_back(hash_exact<Tr>(*k, cfg_.T, p, p.lo));
    }
  }

  /// All probe hashes chained: the workload's reference checksum.
  std::uint64_t reference_checksum() const {
    std::uint64_t h = kFnvOffset;
    for (const std::uint64_t r : probe_ref_) h = (h ^ r) * kFnvPrime;
    return h;
  }
  std::size_t probe_count() const { return probes_.size(); }

  /// One job. With `keep` the kernel outlives the call (layer probes read
  /// it); at most one kernel is alive at any time.
  Rep rep(Tracer& tr, cats::RunStats* stats, bool keep) {
    kept_.reset();
    Rep r;
    cats::RunOptions opt = options();
    opt.stats = stats;
    std::unique_ptr<K> k;
    {
      Scoped job(tr, "job");
      {
        Scoped s(tr, "grid.alloc", job.id());
        k = Tr::make(cfg_.n);
        r.alloc_s = s.stop();
      }
      {
        Scoped s(tr, "grid.first_touch", job.id());
        Tr::init(*k, &opt, seed_, kOrigin);
        r.init_s = s.stop();
      }
      {
        Scoped s(tr, "run", job.id());
        choice_ = cats::resolve_dispatch(cats::run(*k, cfg_.T, opt), Tr::kDims);
        r.run_s = s.stop();
      }
    }
    {
      Scoped s(tr, "verify");
      check(*k, r);
    }
    if (keep) kept_ = std::move(k);
    return r;
  }

  /// Jobs until `budget` seconds of wall time have passed (at least one).
  Pass pass(double budget, Tracer& tr, cats::RunStats* stats, bool keep_last) {
    Pass p;
    const Clock::time_point t0 = Clock::now();
    do {
      p.reps.push_back(rep(tr, stats, keep_last));
    } while (seconds_between(t0, Clock::now()) < budget && p.reps.size() < 10000);
    return p;
  }

  K* kept() { return kept_.get(); }
  void release() { kept_.reset(); }
  const cats::SchemeChoice& choice() const { return choice_; }

 private:
  static constexpr int kOrigin[3] = {0, 0, 0};

  void check(const K& k, Rep& r) {
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      if (hash_exact<Tr>(k, cfg_.T, probes_[i], kOrigin) != probe_ref_[i]) {
        r.ok = false;
        r.error = "probe " + std::to_string(i) + " differs from run_reference";
        return;
      }
    }
    const GridHash g = grid_hash<Tr>(k, cfg_.T, host_.threads);
    if (!g.finite) {
      r.ok = false;
      r.error = "non-finite value in the result grid";
    } else if (!have_grid_hash_) {
      grid_hash_ = g.hash;
      have_grid_hash_ = true;
    } else if (g.hash != grid_hash_) {
      r.ok = false;
      r.error = "full-grid hash differs from the first job's";
    }
  }

  LibConfig cfg_;
  Host host_;
  std::uint64_t seed_;
  std::vector<Probe> probes_;
  std::vector<std::uint64_t> probe_ref_;
  bool have_grid_hash_ = false;
  std::uint64_t grid_hash_ = 0;
  cats::SchemeChoice choice_{};
  std::unique_ptr<K> kept_;
};

/// Count a pass's jobs into the outcome; failed jobs record their error.
inline void tally(const Pass& p, Outcome& out) {
  for (const Rep& r : p.reps) {
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      out.fail(r.error);
    }
  }
}

/// MLUP/s of the pass: N*T over the median run() wall time.
inline double pass_mlups(const Pass& p, double updates) {
  return updates / quantile(p.run_s(), 0.5) / 1e6;
}

/// Per-layer metrics measured on a library workload's traced pass and its
/// kept kernel. `mlups_untraced` is the untraced pass's figure.
template <class Tr>
void library_layer_metrics(LibWorkload<Tr>& w, const Pass& traced,
                           const cats::RunStats& st, Tracer& tr,
                           const Host& host, double mlups_untraced,
                           Outcome& out) {
  auto median_of = [&](const char* span) { return quantile(tr.durations(span), 0.5); };
  const int T = w.config().T;
  const double nt = w.updates();
  const cats::RunOptions opt = w.options();
  const int layers = tr.begin("layers");

  out.add("grid.alloc_s", median_of("grid.alloc"), "s",
          summarize(tr.durations("grid.alloc")));
  out.add("grid.first_touch_s", median_of("grid.first_touch"), "s",
          summarize(tr.durations("grid.first_touch")));

  auto& k = *w.kept();
  cats::SchemeChoice exec{};
  for (int i = 0; i < 201; ++i) {
    Scoped s(tr, "core.select", layers);
    exec = cats::resolve_dispatch(cats::plan(k, T, opt), Tr::kDims);
  }
  out.add("core.select_us", median_of("core.select") * 1e6, "us");
  out.add("core.tz", exec.scheme == cats::Scheme::Cats1 ? exec.tz : 0, "count");
  out.add("core.bz", exec.scheme == cats::Scheme::Cats1 ? 0.0 : static_cast<double>(exec.bz),
          "count");

  cats::plan_ir::PlanRequest prq;
  prq.dims = Tr::kDims;
  prq.nx = w.config().n[0];
  prq.ny = w.config().n[1];
  prq.nz = w.config().n[2];
  prq.T = T;
  prq.slope = k.slope();
  prq.cs_eff = cats::effective_cs(k, opt.cs_slack);
  prq.elem_bytes = cats::kernel_element_bytes(k);
  prq.opt = opt;
  std::size_t tiles = 0, edges = 0;
  const Clock::time_point e0 = Clock::now();
  for (int i = 0; i < 21 && (i < 3 || seconds_between(e0, Clock::now()) < 0.5); ++i) {
    Scoped s(tr, "plan.emit", layers);
    const cats::plan_ir::TilePlan plan = cats::plan_ir::emit_plan(prq);
    tiles = plan.tiles.size();
    edges = plan.edges.size();
  }
  out.add("plan.emit_ms", median_of("plan.emit") * 1e3, "ms");
  out.add("plan.tiles", static_cast<double>(tiles), "count");
  out.add("plan.sync_edges", static_cast<double>(edges), "count");

  out.add("threads.pool_start_us", pool_start_us(host.threads, tr, layers), "us");
  double run_total = 0.0;
  for (const Rep& r : traced.reps) run_total += r.run_s;
  const double thread_s = run_total * host.threads;
  const double reps = static_cast<double>(traced.reps.size());
  out.add("threads.wait_frac", static_cast<double>(st.wait_ns.load()) * 1e-9 / thread_s, "frac");
  out.add("threads.wait_events", static_cast<double>(st.wait_events.load()) / reps, "count");
  out.add("threads.team_wait_frac", static_cast<double>(st.team_wait_ns.load()) * 1e-9 / thread_s,
          "frac");
  out.add("threads.barriers", static_cast<double>(st.barriers.load()) / reps, "count");
  out.add("threads.tiles_processed", static_cast<double>(st.tiles_processed.load()) / reps,
          "count");

  // 1-thread naive baseline on the same grid, 2 steps per sample.
  {
    cats::RunOptions naive;
    naive.threads = 1;
    naive.scheme = cats::Scheme::Naive;
    std::vector<double> mlups;
    const Clock::time_point b0 = Clock::now();
    do {
      Scoped s(tr, "baseline.naive_t1", layers);
      cats::run(k, 2, naive);
      mlups.push_back(static_cast<double>(w.points()) * 2 / s.stop() / 1e6);
    } while (seconds_between(b0, Clock::now()) < 0.3);
    out.add("baseline.naive_t1_mlups", quantile(mlups, 0.5), "MLUP/s", summarize(mlups));
  }
  const cats::TrafficInput in = traffic_input(k, T, host.threads);
  const double k_flops = k.flops_per_point();
  w.release();  // the machine profile below allocates beyond the LLC

  const cats::bench::MachineProfile m = measure_machine(host, tr, layers);
  out.add("machine.sys_bw_gbps", m.sys_bw_gbps, "GB/s");
  out.add("machine.l2_bw_gbps", m.l2_bw_gbps, "GB/s");
  out.add("machine.stencil_gflops", m.stencil_dp_gflops, "GFLOP/s");

  double row = 0.0;
  {
    Scoped s(tr, "kernels.row", layers);
    row = row_mlups<Tr>(host);
  }
  // Single-core roofline without a DRAM term: cache streaming at the L2
  // copy rate (scaled to the element size) against the stencil flop rate
  // (fp32 packs twice the lanes).
  const double elem_scale = in.elem_bytes / 8.0;
  const double cache_bytes = cats::kernel_cache_bytes(in) * elem_scale;
  const double flops = nt * k_flops * elem_scale;
  const double roof_mlups = nt / cats::predict_runtime(m, 0.0, cache_bytes, flops).seconds() / 1e6;
  out.add("kernels.row_mlups", row, "MLUP/s");
  out.add("kernels.roofline_mlups", roof_mlups, "MLUP/s");
  out.add("kernels.row_roofline_frac", row / roof_mlups, "frac");
  out.add("kernels.run_over_row", mlups_untraced / (row * host.threads), "frac");

  // Whole-run prediction: the private-cache and compute terms scale with the
  // cores; the DRAM term uses the measured (single-core) copy bandwidth.
  cats::bench::MachineProfile all = m;
  all.l2_bw_gbps *= host.threads;
  all.stencil_dp_gflops *= host.threads;
  const double model_bytes = model_dram_bytes(in, exec);
  const double run_med = quantile(traced.run_s(), 0.5);
  const double pred_mlups =
      nt / cats::predict_runtime(all, model_bytes, cache_bytes, flops).seconds() / 1e6;
  out.add("traffic.model_bpp", model_bytes / nt, "B/pt");
  out.add("traffic.bpp_ceiling", run_med * m.sys_bw_gbps * 1e9 / nt, "B/pt");
  out.add("traffic.predicted_mlups", pred_mlups, "MLUP/s");
  out.add("traffic.pred_over_meas", pred_mlups / mlups_untraced, "frac");
  tr.end(layers);
}

}  // namespace catsbench
