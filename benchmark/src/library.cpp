// The three library workloads. Sizes are pinned, and each workload states
// the cache regime it claims; the regime guard fails the workload when the
// detected caches put the pinned size outside that regime.
//
//   dram3d        ConstStar3D<1> fp64 544^3, T=40: each time buffer is
//                 >= 4x the LLC, so naive is DRAM-bound and Auto picks CATS2.
//   dram2d_f32    FloatStar2D<1> fp32 17760^2, T=64: the same DRAM regime
//                 through CATS1, the fp32 row body and E=4 sizing.
//   llc_banded2d  Banded2D<1> fp64 1184^2, T=2000: 7 arrays per point fit the
//                 LLC but not the L2s, so the banded row body bounds the run.

#include <malloc.h>

#include "families.hpp"
#include "library.hpp"

namespace catsbench {

namespace {

enum class Regime { Dram, Llc };

struct RegimeCheck {
  bool ok = true;
  std::string claim;
};

/// Dram: every time buffer is at least 4x the LLC. Llc: the whole working
/// set fits half the LLC yet exceeds 4x the summed L2s.
RegimeCheck check_regime(Regime claim, std::uint64_t buffer_bytes,
                         std::uint64_t ws_bytes, const Host& host) {
  RegimeCheck rc;
  if (claim == Regime::Dram) {
    rc.claim = "dram: buffer >= 4x LLC";
    rc.ok = buffer_bytes >= 4 * host.llc();
  } else {
    rc.claim = "llc: 4x L2 total <= working set <= LLC/2";
    rc.ok = ws_bytes >= 4 * host.l2_total() && ws_bytes <= host.llc() / 2;
  }
  return rc;
}

template <class Tr>
Outcome run_lib(const LibConfig& cfg, Regime claim, const Args& args,
                const Host& host) {
  Outcome out;
  LibWorkload<Tr> w(cfg, host, args.seed);
  const RegimeCheck rc = check_regime(claim, w.buffer_bytes(), w.working_set_bytes(), host);
  out.detail.raw("size", JsonObject()
                             .integer("nx", cfg.n[0])
                             .integer("ny", cfg.n[1])
                             .integer("nz", cfg.n[2])
                             .integer("T", cfg.T)
                             .integer("threads", host.threads)
                             .dump());
  out.detail.raw("regime", JsonObject()
                               .str("claim", rc.claim)
                               .integer("buffer_bytes", static_cast<long long>(w.buffer_bytes()))
                               .integer("working_set_bytes",
                                        static_cast<long long>(w.working_set_bytes()))
                               .integer("l2_total_bytes", static_cast<long long>(host.l2_total()))
                               .integer("llc_bytes", static_cast<long long>(host.llc()))
                               .boolean("regime_ok", rc.ok)
                               .dump());
  if (!rc.ok) {
    out.fail("regime_ok=false: " + cfg.name + " does not meet \"" + rc.claim +
             "\" on this host");
    return out;
  }
  // The traced pass also profiles bandwidth over two arrays of 2x LLC.
  const std::uint64_t need =
      std::max(w.working_set_bytes(), args.trace ? 4 * host.llc() : 0) + (256u << 20);
  const std::uint64_t avail = mem_available_bytes();
  if (avail != 0 && avail < need) {
    out.fail("needs " + std::to_string(need >> 20) + " MiB, only " +
             std::to_string(avail >> 20) + " MiB available");
    return out;
  }

  w.prepare_reference();
  out.detail.raw("checksums", JsonObject().str(cfg.name, hex64(w.reference_checksum())).dump());
  out.detail.integer("probes", static_cast<long long>(w.probe_count()));
  // The default seed's reference, stored in checksums.json, pins the
  // reference arithmetic itself; it is recomputed whatever the seed.
  std::uint64_t default_sum = w.reference_checksum();
  if (args.seed != kDefaultSeed) {
    LibWorkload<Tr> d(cfg, host, kDefaultSeed);
    d.prepare_reference();
    default_sum = d.reference_checksum();
  }
  out.detail.raw("default_checksums", JsonObject().str(cfg.name, hex64(default_sum)).dump());

  Tracer off(false, cfg.name);
  Pass warm;
  warm.reps.push_back(w.rep(off, nullptr, false));  // discarded: cold caches and pages
  tally(warm, out);

  if (!args.trace) {
    reset_peak_rss();
    const Pass p = w.pass(args.seconds, off, nullptr, false);
    tally(p, out);
    std::vector<double> mlups;
    for (const Rep& r : p.reps) mlups.push_back(w.updates() / r.run_s / 1e6);
    const std::vector<double> setup = p.collect(&Rep::setup_s);
    const Summary lat = summarize(p.collect(&Rep::latency_s));
    out.add("mlups", pass_mlups(p, w.updates()), "MLUP/s", summarize(mlups));
    out.add("setup_s", quantile(setup, 0.5), "s", summarize(setup));
    out.add("rss_mib", peak_rss_mib(), "MiB");
    out.add("job_latency_s_p50", lat.median, "s", lat);
  } else {
    const Pass u = w.pass(args.seconds / 2, off, nullptr, false);
    tally(u, out);
    Tracer tr(true, cfg.name);
    cats::RunStats st;
    const Pass t = w.pass(args.seconds / 2, tr, &st, true);
    tally(t, out);
    const double mlups_u = pass_mlups(u, w.updates());
    const double mlups_t = pass_mlups(t, w.updates());
    library_layer_metrics(w, t, st, tr, host, mlups_u, out);

    // A library job's "execution" is run(); materializing it is construct
    // plus first touch. The service-only counters do not apply here.
    std::vector<double> overhead;
    for (const Rep& r : t.reps) overhead.push_back(r.latency_s() - r.run_s);
    out.add("serve.exec_s_p50", quantile(t.run_s(), 0.5), "s");
    out.add("serve.materialize_s_p50", quantile(t.collect(&Rep::setup_s), 0.5), "s");
    out.add("serve.overhead_s_p50", quantile(overhead, 0.5), "s");
    out.add("serve.latency_s_p95", quantile(t.collect(&Rep::latency_s), 0.95), "s");
    for (const char* name : {"serve.shard_busy_frac", "serve.batched_frac", "serve.wait_frac"})
      out.add(name, 0.0, "frac");
    out.add("serve.rejected", 0.0, "count");
    out.add("trace.overhead_frac", (mlups_u - mlups_t) / mlups_u, "frac");

    out.detail.raw("trace_self_s", [&] {
      JsonObject o;
      for (const auto& [name, s] : tr.self_seconds()) o.num(name, s);
      return o.dump();
    }());
    const std::string path = args.out_dir + "/trace-" + cfg.name + ".json";
    if (tr.write_chrome(path)) out.detail.str("trace_file", path);
  }
  out.detail.str("scheme", cats::scheme_name(w.choice().scheme));
  out.detail.integer("tz", w.choice().tz);
  out.detail.integer("bz", static_cast<long long>(w.choice().bz));
  return out;
}

}  // namespace

Outcome run_library_workload(const Args& args, const Host& host) {
  // Every job's grids get fresh pages, as a program's one construction
  // does. Otherwise glibc serves later jobs from the heap the previous job
  // freed: set-up then skips the first touch, and the peak RSS depends on
  // heap fragmentation. (The DRAM grids are mmapped either way.)
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  if (args.workload == "dram3d")
    return run_lib<Const3d>({"dram3d", {544, 544, 544}, 40}, Regime::Dram, args, host);
  if (args.workload == "dram2d_f32")
    return run_lib<Float2d>({"dram2d_f32", {17760, 17760, 1}, 64}, Regime::Dram, args, host);
  return run_lib<Banded2d>({"llc_banded2d", {1184, 1184, 1}, 2000}, Regime::Llc, args, host);
}

}  // namespace catsbench
