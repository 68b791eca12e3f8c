// Wave-engine tests (src/wave): the register-tiled temporal micro-kernels
// and the NT-store write-back path are pure execution-order changes, so
// every configuration must reproduce the unroll_t=1 / plain-store result
// bit for bit — the same per-lane arithmetic runs either way, only the
// schedule differs.

#include <gtest/gtest.h>

#include <vector>

#include "core/run.hpp"
#include "helpers.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/banded3d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"
#include "kernels/fdtd2d.hpp"

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
