// Consolidated perf-tracking suite: one pinned-size run per kernel family x
// scheme configuration, emitting a single machine-readable report
// (`--json BENCH_10.json`) with MLUP/s and modeled DRAM bytes/point per row.
// CI runs it under CATS_BENCH_TINY at several thread counts and
// tools/bench_compare.py diffs the MLUP/s columns against the checked-in
// baseline, grouped per precision and per thread count (the report's
// "threads" context keys the groups; the fp32 family carries its own
// naive/plain anchors).
//
// Each CATS2 family is measured three ways: "cats2_plain" disables the wave
// engine (unroll_t=1, no NT stores, no software prefetch), "cats2_wave"
// enables it (temporal fusion, NT trailing stores, prefetch), and "cats2_tv"
// additionally runs the fused chain through the temporally-vectorized
// micro-kernel (RunOptions::temporal_vec, wave/temporal_vec.hpp). The
// wave/plain ratio is the wave engine's speedup, the tv/wave ratio the
// register-window gain, and const2d_f32 vs const2d at equal config the fp32
// precision gain.
//
// MWD row: "mwd_g2" pools pairs of threads over shared diamonds
// (RunOptions::mwd_group = 2, plan/emit.hpp emit_mwd) at the wave
// configuration, raced against "cats2_wave". It degrades gracefully at
// THREADS=1 (the group width clamps to 1), so single-thread baselines stay
// comparable across the matrix.

#include "common.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/banded3d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const2d_f32.hpp"
#include "kernels/const3d.hpp"

using namespace cats;
using namespace cats::bench;

namespace {

struct SchemeConfig {
  const char* name;
  Scheme scheme;
  int unroll_t;       // RunOptions::unroll_t (0 = auto-fuse)
  bool nt_stores;
  int prefetch_dist;
  bool temporal_vec;  // RunOptions::temporal_vec (register-window chains)
  int mwd_group;      // RunOptions::mwd_group (MWD shared-diamond groups)
};

constexpr SchemeConfig kConfigs[] = {
    {"naive", Scheme::Naive, 1, false, 0, false, 0},
    {"pluto", Scheme::PlutoLike, 1, false, 0, false, 0},
    {"cats1", Scheme::Cats1, 0, false, 4, false, 0},
    {"cats2_plain", Scheme::Cats2, 1, false, 0, false, 0},
    {"cats2_wave", Scheme::Cats2, 0, true, 4, false, 0},
    {"cats2_tv", Scheme::Cats2, 0, true, 4, true, 0},
    {"mwd_g2", Scheme::Mwd, 0, true, 4, false, 2},
};

RunOptions suite_options(const BenchConfig& cfg, const SchemeConfig& sc) {
  RunOptions opt = options_for(cfg, sc.scheme);
  opt.tuning = Tuning::Off;  // pinned configs; tuning would blur the diff
  opt.unroll_t = sc.unroll_t;
  opt.nt_stores = sc.nt_stores;
  opt.prefetch_dist = sc.prefetch_dist;
  opt.temporal_vec = sc.temporal_vec;
  if (sc.mwd_group > 0) {
    // Clamp like run() would (largest divisor of the pool) so a THREADS=1
    // matrix leg times the degenerate single-worker MWD, not a warning.
    opt.mwd_group = mwd_group_width(sc.mwd_group, opt.threads);
  }
  return opt;
}

template <class MakeKernel>
void bench_kernel(Table& table, const char* kernel, MakeKernel&& make, int T,
                  const BenchConfig& cfg, double n) {
  for (const SchemeConfig& sc : kConfigs) {
    const RunOptions opt = suite_options(cfg, sc);
    SchemeChoice choice{};
    const double secs = time_scheme(make, T, opt, cfg.reps, &choice);
    const auto k = make();
    const double bpp = model_dram_bytes(k, T, opt, choice) / (n * T);
    table.add_row({kernel, sc.name, fmt_fixed(secs, 4),
                   fmt_fixed(n * T / secs / 1e6, 1), fmt_fixed(bpp, 2),
                   scheme_name(choice.scheme)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig cfg = bench_config(argc, argv);
  print_banner(std::cout, "Bench suite: scheme x kernel perf matrix");
  json_log().set_title("bench_suite");
  // Thread count keys the baseline comparison groups (bench_compare.py
  // normalizes MLUP/s within one thread count only).
  json_log().add_context("threads", std::to_string(cfg.threads));

  // Pinned sizes so successive runs are directly comparable. Tiny is sized
  // for the CI comparison gate, not minimality: each timed point must take
  // tens of milliseconds, or virtualized-clock jitter swamps the 15%
  // regression tolerance (sub-5ms tiny points vary +-30% run to run).
  const double m2 = cfg.tiny ? 1.0 : (cfg.full ? 16.0 : 4.0);
  const double m3 = cfg.tiny ? 1.0 : (cfg.full ? 16.0 : 4.0);
  const int T = cfg.tiny ? 24 : 50;
  const int side2 = side_2d(m2), side3 = side_3d(m3);
  const double n2 = static_cast<double>(side2) * side2;
  const double n3 = static_cast<double>(side3) * side3 * side3;
  std::cout << "threads=" << cfg.threads << " 2D side=" << side2
            << " 3D side=" << side3 << " T=" << T << "\n\n";

  Table table({"kernel", "config", "secs", "MLUP/s", "model B/pt", "scheme"});

  bench_kernel(table, "const2d", [&] {
    ConstStar2D<1> k(side2, side2, default_star2d_weights<1>());
    k.parallel_init(options_for(cfg, Scheme::Naive),
                    [](int x, int y) { return 0.01 * x + 0.02 * y; }, 1.0);
    return k;
  }, T, cfg, n2);

  bench_kernel(table, "const2d_f32", [&] {
    FloatStar2D<1> k(side2, side2, default_star2d_weights<1, float>());
    k.parallel_init(options_for(cfg, Scheme::Naive),
                    [](int x, int y) { return 0.01f * x + 0.02f * y; }, 1.0f);
    return k;
  }, T, cfg, n2);

  bench_kernel(table, "banded2d", [&] {
    Banded2D<1> k(side2, side2);
    k.parallel_init(options_for(cfg, Scheme::Naive),
                    [](int x, int y) { return 0.01 * x + 0.02 * y; }, 1.0);
    k.init_bands([](int b, int x, int y) {
      return (b == 0 ? 0.5 : 0.125) * (1.0 + 1e-3 * ((x ^ y) & 7));
    });
    return k;
  }, T, cfg, n2);

  bench_kernel(table, "const3d", [&] {
    ConstStar3D<1> k(side3, side3, side3, default_star3d_weights<1>());
    k.parallel_init(
        options_for(cfg, Scheme::Naive),
        [](int x, int y, int z) { return 0.01 * x + 0.02 * y - 0.005 * z; },
        1.0);
    return k;
  }, T, cfg, n3);

  bench_kernel(table, "banded3d", [&] {
    Banded3D<1> k(side3, side3, side3);
    k.parallel_init(
        options_for(cfg, Scheme::Naive),
        [](int x, int y, int z) { return 0.01 * x + 0.02 * y - 0.005 * z; },
        1.0);
    k.init_bands([](int b, int x, int y, int z) {
      return (b == 0 ? 0.5 : 0.08) * (1.0 + 1e-3 * ((x ^ y ^ z) & 7));
    });
    return k;
  }, T, cfg, n3);

  table.print(std::cout);

  // Speedup summaries: wave engine over plain (the PR 5 acceptance
  // numbers), temporal vectorization over the spatial wave path, and the
  // fp32 family over fp64 at equal configuration.
  const auto& rows = table.rows();
  const auto mlups_of = [&](const std::string& kernel,
                            const std::string& config) {
    for (const auto& r : rows) {
      if (r[0] == kernel && r[1] == config) return std::atof(r[3].c_str());
    }
    return 0.0;
  };
  const auto ratio_line = [&](const std::string& label, double base,
                              double x) {
    std::cout << label << " " << fmt_fixed(base > 0 ? x / base : 0.0, 2)
              << "x (" << fmt_fixed(base, 1) << " -> " << fmt_fixed(x, 1)
              << " MLUP/s)\n";
  };
  for (const char* kernel :
       {"const2d", "const2d_f32", "banded2d", "const3d", "banded3d"}) {
    const double plain = mlups_of(kernel, "cats2_plain");
    const double wave = mlups_of(kernel, "cats2_wave");
    const double tv = mlups_of(kernel, "cats2_tv");
    ratio_line(std::string(kernel) + ": wave engine speedup", plain, wave);
    ratio_line(std::string(kernel) + ": temporal vec speedup", wave, tv);
  }
  for (const char* config : {"naive", "cats2_plain", "cats2_wave", "cats2_tv"}) {
    ratio_line(std::string("const2d_f32/") + config + ": fp32 speedup",
               mlups_of("const2d", config), mlups_of("const2d_f32", config));
  }
  // The MWD race: shared-diamond groups vs one diamond per thread.
  for (const char* kernel :
       {"const2d", "const2d_f32", "banded2d", "const3d", "banded3d"}) {
    ratio_line(std::string(kernel) + ": MWD over cats2_wave",
               mlups_of(kernel, "cats2_wave"), mlups_of(kernel, "mwd_g2"));
  }
  return 0;
}
