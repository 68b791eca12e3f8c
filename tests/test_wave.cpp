// Wave-engine tests (src/wave): the fused temporal drivers and the NT-store
// write-back path are pure execution-order changes, so every configuration
// must reproduce the unroll_t=1 / plain-store result bit for bit — the same
// per-lane arithmetic runs either way, only the schedule differs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "helpers.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/banded3d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const2d_f32.hpp"
#include "kernels/const3d.hpp"
#include "kernels/fdtd2d.hpp"
#include "simd/vecd.hpp"
#include "wave/microkernel.hpp"

using namespace cats;
using cats::test::expect_bit_equal;

namespace {

// Small cache + overrides force multi-chunk/multi-tile plans on tiny
// domains, so trailing wavefronts and chunk seams all occur.
RunOptions wave_options(Scheme s, int threads = 2) {
  RunOptions opt;
  opt.scheme = s;
  opt.threads = threads;
  opt.cache_bytes = 32 * 1024;
  return opt;
}

template <class MakeKernel>
std::vector<double> run_dump(MakeKernel&& make, int T, const RunOptions& opt) {
  auto k = make();
  run(k, T, opt);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

// Reference = wave features off: no fusion, plain stores.
RunOptions plain_options(Scheme s, int threads = 2) {
  RunOptions opt = wave_options(s, threads);
  opt.unroll_t = 1;
  opt.nt_stores = false;
  return opt;
}

template <class MakeKernel>
void check_unrolls(MakeKernel&& make, int T, const char* label) {
  for (Scheme s : {Scheme::Cats1, Scheme::Cats2}) {
    const std::vector<double> want = run_dump(make, T, plain_options(s));
    for (int u : {0, 2, 3, 4}) {  // 0 = auto (engine default)
      RunOptions opt = wave_options(s);
      opt.unroll_t = u;
      expect_bit_equal(run_dump(make, T, opt), want,
                       (std::string(label) + " " + scheme_name(s) +
                        " unroll=" + std::to_string(u))
                           .c_str());
    }
  }
}

template <class MakeKernel>
void check_nt(MakeKernel&& make, int T, const char* label) {
  for (Scheme s : {Scheme::Cats1, Scheme::Cats2}) {
    for (int u : {1, 0}) {  // NT alone, and NT composed with fusion
      RunOptions ref = plain_options(s);
      ref.unroll_t = u;
      const std::vector<double> want = run_dump(make, T, ref);
      RunOptions opt = ref;
      opt.nt_stores = true;
      expect_bit_equal(run_dump(make, T, opt), want,
                       (std::string(label) + " " + scheme_name(s) +
                        " nt unroll=" + std::to_string(u))
                           .c_str());
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Temporal fusion: every unroll depth, every kernel family, bit-exact
// ---------------------------------------------------------------------------

TEST(WaveFusion, Const2DAllUnrolls) {
  check_unrolls(
      [] {
        ConstStar2D<1> k(73, 59, default_star2d_weights<1>());
        k.init(cats::test::init2d, 0.2);
        return k;
      },
      14, "const2d");
}

TEST(WaveFusion, Banded2DAllUnrolls) {
  check_unrolls(
      [] {
        Banded2D<1> k(61, 47);
        k.init(cats::test::init2d, 0.1);
        k.init_bands(cats::test::band_coeff);
        return k;
      },
      12, "banded2d");
}

TEST(WaveFusion, Const3DAllUnrolls) {
  check_unrolls(
      [] {
        ConstStar3D<1> k(23, 19, 17, default_star3d_weights<1>());
        k.init(cats::test::init3d, -0.1);
        return k;
      },
      9, "const3d");
}

TEST(WaveFusion, Banded3DAllUnrolls) {
  check_unrolls(
      [] {
        Banded3D<1> k(21, 17, 15);
        k.init(cats::test::init3d, 0.05);
        k.init_bands(cats::test::band_coeff3);
        return k;
      },
      8, "banded3d");
}

TEST(WaveFusion, Slope2KernelFuses) {
  // Wider stencils stress the stagger bound (s = 2 rows between stages).
  check_unrolls(
      [] {
        ConstStar2D<2> k(81, 63, default_star2d_weights<2>());
        k.init(cats::test::init2d, -0.3);
        return k;
      },
      10, "const2d-s2");
}

TEST(WaveFusion, NonFusableKernelUnaffected) {
  // Fdtd2D opts out of fusion (multi-field updates); unroll_t must be a
  // silent no-op for it, not a crash or a numeric change.
  auto make = [] {
    Fdtd2D k(47, 39);
    k.init([](int x, int y) {
      return std::tuple{0.01 * x, 0.02 * y, std::sin(0.2 * x - 0.1 * y)};
    });
    return k;
  };
  const std::vector<double> want = run_dump(make, 11, plain_options(Scheme::Cats2));
  RunOptions opt = wave_options(Scheme::Cats2);
  opt.unroll_t = 4;
  expect_bit_equal(run_dump(make, 11, opt), want, "fdtd unroll");
}

// ---------------------------------------------------------------------------
// 2D chunk stagger: rows several 4 KiB chunks wide
// ---------------------------------------------------------------------------

namespace {

/// Drive wave::run_fused_2d on one kernel and the same stages as whole-row
/// process_row / process_row_nt calls in stage order on a twin, over ragged
/// slices: x0 at every offset 0..16 (every alignment mod both vector widths),
/// lengths from below one vector to beyond two chunks, 2-4 stages each one
/// timestep up and s rows down, and NT on the last stage in half the
/// groups. Both grids must be bit-equal at both parities.
template <class K, class MakeKernel>
void check_chunk_stagger(MakeKernel&& make, const char* label) {
  K a = make();
  K b = make();
  const int S = a.slope();
  const int width = a.width();
  const int height = a.height();
  ASSERT_GE(width, 2600);  // >= 5 fp64 / >= 2 fp32 chunks per row
  const std::array<int, 12> lens = {3,    9,    17,   65,   511,  513,
                                    1023, 1025, 1500, 2047, 2049, 2600};
  int ymid = 4 * S;
  int t0 = 1;
  int group = 0;
  for (int off = 0; off <= 16; ++off) {
    for (const int len : lens) {
      for (const int n : {2, 3, 4}) {
        wave::WaveStage st[4];
        int built = 0;
        for (int g = 0; g < n; ++g) {
          const int x0 = off + g;
          const int x1 = std::min(off + len - g, width);
          if (x0 >= x1) break;
          st[built++] = wave::WaveStage{t0 + g, ymid - g * S, x0, x1,
                                        g == n - 1 && group % 2 == 0};
        }
        ++group;
        if (built < 2) continue;
        wave::run_fused_2d(a, st, built);
        for (int g = 0; g < built; ++g) {
          if (st[g].nt) {
            b.process_row_nt(st[g].t, st[g].y, st[g].x0, st[g].x1);
          } else {
            b.process_row(st[g].t, st[g].y, st[g].x0, st[g].x1);
          }
        }
        // Rotate t so both buffer parities are written; keep y interior.
        t0 = (t0 % 4) + 1;
        ymid = 4 * S + (ymid + 3) % (height - 8 * S);
      }
    }
  }
  simd::store_fence();
  std::vector<double> wa, wb;
  for (int parity : {0, 1}) {
    a.copy_result_to(wa, parity);
    b.copy_result_to(wb, parity);
    expect_bit_equal(wa, wb,
                     (std::string(label) + " parity" + std::to_string(parity))
                         .c_str());
  }
}

}  // namespace

TEST(WaveFusion, ChunkStaggerMatchesSequentialStages) {
  constexpr int kW = 2640, kH = 40;
  check_chunk_stagger<ConstStar2D<1>>(
      [] {
        ConstStar2D<1> k(kW, kH, default_star2d_weights<1>());
        k.init(cats::test::init2d, 0.2);
        return k;
      },
      "const2d");
  check_chunk_stagger<ConstStar2D<2>>(
      [] {
        ConstStar2D<2> k(kW, kH, default_star2d_weights<2>());
        k.init(cats::test::init2d, -0.4);
        return k;
      },
      "const2d-s2");
  check_chunk_stagger<Banded2D<1>>(
      [] {
        Banded2D<1> k(kW, kH);
        k.init(cats::test::init2d, 0.1);
        k.init_bands(cats::test::band_coeff);
        return k;
      },
      "banded2d");
  check_chunk_stagger<FloatStar2D<1>>(
      [] {
        FloatStar2D<1> k(kW, kH, default_star2d_weights<1, float>());
        k.init(
            [](int x, int y) {
              return static_cast<float>(cats::test::init2d(x, y));
            },
            0.25f);
        return k;
      },
      "const2d_f32");
}

TEST(WaveFusion, WideRowsAllUnrolls) {
  // CATS1 walks whole rows, so at >= 3 chunks per row every fused group
  // staggers across chunk seams; tz >= 4 lets the deepest unroll form.
  constexpr int kW = 3100, kH = 24, kT = 12;
  auto check = [&](auto make, const char* label) {
    RunOptions opt = plain_options(Scheme::Cats1, 2);
    opt.cache_bytes = 2 * 1024 * 1024;
    const auto k0 = make();
    const SchemeChoice c = plan(k0, kT, opt);
    ASSERT_EQ(c.scheme, Scheme::Cats1) << label;
    ASSERT_GE(c.tz, 4) << label;
    const std::vector<double> want = run_dump(make, kT, opt);
    for (int u : {0, 2, 4}) {
      RunOptions fused = opt;
      fused.unroll_t = u;
      expect_bit_equal(run_dump(make, kT, fused), want,
                       (std::string(label) + " unroll=" + std::to_string(u))
                           .c_str());
    }
  };
  check(
      [] {
        ConstStar2D<1> k(kW, kH, default_star2d_weights<1>());
        k.init(cats::test::init2d, 0.2);
        return k;
      },
      "const2d");
  check(
      [] {
        FloatStar2D<1> k(kW, kH, default_star2d_weights<1, float>());
        k.init(
            [](int x, int y) {
              return static_cast<float>(cats::test::init2d(x, y));
            },
            0.25f);
        return k;
      },
      "const2d_f32");
  check(
      [] {
        Banded2D<1> k(kW, kH);
        k.init(cats::test::init2d, 0.1);
        k.init_bands(cats::test::band_coeff);
        return k;
      },
      "banded2d");
}

// ---------------------------------------------------------------------------
// NT stores: value-identical to plain stores, alone and with fusion
// ---------------------------------------------------------------------------

TEST(WaveNt, Const2DNtEquivalence) {
  check_nt(
      [] {
        ConstStar2D<1> k(73, 59, default_star2d_weights<1>());
        k.init(cats::test::init2d, 0.2);
        return k;
      },
      14, "const2d");
}

TEST(WaveNt, Banded3DNtEquivalence) {
  check_nt(
      [] {
        Banded3D<1> k(21, 17, 15);
        k.init(cats::test::init3d, 0.05);
        k.init_bands(cats::test::band_coeff3);
        return k;
      },
      8, "banded3d");
}

TEST(WaveNt, NaiveSchemeIgnoresNt) {
  // Naive plans are never NT-eligible (no residency certificate): the flag
  // must be inert rather than corrupting the streaming sweep.
  auto make = [] {
    ConstStar2D<1> k(64, 48, default_star2d_weights<1>());
    k.init(cats::test::init2d);
    return k;
  };
  const std::vector<double> want = run_dump(make, 10, plain_options(Scheme::Naive));
  RunOptions opt = plain_options(Scheme::Naive);
  opt.nt_stores = true;
  expect_bit_equal(run_dump(make, 10, opt), want, "naive nt");
}
