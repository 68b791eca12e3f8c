// Master 2D integration tests: every scheme must reproduce the serial
// reference bit-exactly, across sizes, T, thread counts, slopes, cache sizes
// (forcing many/degenerate chunks and diamonds), and kernels.

#include <gtest/gtest.h>

#include <tuple>

#include "core/reference.hpp"
#include "core/run.hpp"
#include "helpers.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/fdtd2d.hpp"

using namespace cats;
using cats::test::expect_bit_equal;

namespace {

template <int S>
std::vector<double> reference_const2d(int W, int H, int T) {
  ConstStar2D<S> k(W, H, default_star2d_weights<S>());
  k.init(cats::test::init2d, 0.25);
  run_reference(k, T);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

template <int S>
std::vector<double> scheme_const2d(int W, int H, int T, const RunOptions& opt) {
  ConstStar2D<S> k(W, H, default_star2d_weights<S>());
  k.init(cats::test::init2d, 0.25);
  run(k, T, opt);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Parameterized sweep: scheme x threads x (W,H,T) x cache KiB
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<Scheme, int, std::tuple<int, int, int>, int>;

class Schemes2DSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Schemes2DSweep, BitExactVsReference) {
  const auto [scheme, threads, shape, cache_kib] = GetParam();
  const auto [W, H, T] = shape;
  RunOptions opt;
  opt.scheme = scheme;
  opt.threads = threads;
  opt.cache_bytes = static_cast<std::size_t>(cache_kib) * 1024;
  const auto want = reference_const2d<1>(W, H, T);
  const auto got = scheme_const2d<1>(W, H, T, opt);
  expect_bit_equal(got, want, scheme_name(scheme));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, Schemes2DSweep,
    ::testing::Combine(
        ::testing::Values(Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                          Scheme::PlutoLike, Scheme::Auto),
        ::testing::Values(1, 3, 4),
        ::testing::Values(std::tuple{37, 23, 7},   // odd sizes, T below chunk
                          std::tuple{64, 64, 20},  // powers of two
                          std::tuple{101, 53, 33}, // T not divisible by TZ
                          std::tuple{16, 128, 11}),// tall & narrow
        ::testing::Values(8, 64)));                // tiny + small cache

// ---------------------------------------------------------------------------
// Targeted cases
// ---------------------------------------------------------------------------

TEST(Schemes2D, HigherSlopes) {
  for (int threads : {1, 4}) {
    RunOptions opt;
    opt.threads = threads;
    opt.cache_bytes = 32 * 1024;
    for (Scheme s : {Scheme::Cats1, Scheme::Cats2, Scheme::PlutoLike}) {
      opt.scheme = s;
      expect_bit_equal(scheme_const2d<2>(61, 47, 13, opt),
                       reference_const2d<2>(61, 47, 13), "slope2");
      expect_bit_equal(scheme_const2d<3>(53, 41, 9, opt),
                       reference_const2d<3>(53, 41, 9), "slope3");
    }
  }
}

TEST(Schemes2D, DegenerateChunkAndDiamondSizes) {
  const auto want = reference_const2d<1>(40, 30, 12);
  RunOptions opt;
  opt.threads = 2;
  opt.scheme = Scheme::Cats1;
  for (int tz : {1, 2, 5, 12, 100}) {  // 1 = per-timestep; 100 > T
    opt.tz_override = tz;
    expect_bit_equal(scheme_const2d<1>(40, 30, 12, opt), want, "tz");
  }
  opt.scheme = Scheme::Cats2;
  opt.tz_override = 0;
  for (int bz : {2, 3, 7, 64, 1000}) {  // min diamond .. one diamond covers all
    opt.bz_override = bz;
    expect_bit_equal(scheme_const2d<1>(40, 30, 12, opt), want, "bz");
  }
}

TEST(Schemes2D, ExtremeAspectRatios) {
  // Wide-short and tall-thin domains stress the traversal/tiling dimension
  // choices (Section II-C discusses swapping them for small tiling extents).
  for (auto [W, H, T] : {std::tuple{512, 8, 9}, std::tuple{8, 512, 9},
                         std::tuple{256, 3, 5}}) {
    const auto want = reference_const2d<1>(W, H, T);
    for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                     Scheme::PlutoLike, Scheme::Auto}) {
      RunOptions opt;
      opt.scheme = s;
      opt.threads = 4;
      opt.cache_bytes = 8 * 1024;
      expect_bit_equal(scheme_const2d<1>(W, H, T, opt), want, scheme_name(s));
    }
  }
}

TEST(Schemes2D, MoreThreadsThanTilesOrRows) {
  RunOptions opt;
  opt.threads = 16;
  opt.cache_bytes = 16 * 1024;
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2}) {
    opt.scheme = s;
    expect_bit_equal(scheme_const2d<1>(12, 9, 5, opt),
                     reference_const2d<1>(12, 9, 5), scheme_name(s));
  }
}

TEST(Schemes2D, ThreadsBelowOneClampToOne) {
  for (int threads : {0, -3}) {
    RunOptions opt;
    opt.threads = threads;
    expect_bit_equal(scheme_const2d<1>(200, 200, 20, opt),
                     reference_const2d<1>(200, 200, 20), "threads<1");
  }
}

TEST(Schemes2D, SingleTimestepAndZeroTimesteps) {
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                   Scheme::PlutoLike}) {
    RunOptions opt;
    opt.scheme = s;
    opt.threads = 2;
    opt.cache_bytes = 32 * 1024;
    expect_bit_equal(scheme_const2d<1>(33, 21, 1, opt),
                     reference_const2d<1>(33, 21, 1), "T=1");
    expect_bit_equal(scheme_const2d<1>(33, 21, 0, opt),
                     reference_const2d<1>(33, 21, 0), "T=0");
  }
}

TEST(Schemes2D, BandedMatrixAllSchemes) {
  auto make = [](Banded2D<1>& k) {
    k.init(cats::test::init2d, 0.1);
    k.init_bands(cats::test::band_coeff);
  };
  Banded2D<1> ref(49, 35);
  make(ref);
  run_reference(ref, 14);
  std::vector<double> want;
  ref.copy_result_to(want, 14);

  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                   Scheme::PlutoLike, Scheme::Auto}) {
    Banded2D<1> k(49, 35);
    make(k);
    RunOptions opt;
    opt.scheme = s;
    opt.threads = 3;
    opt.cache_bytes = 48 * 1024;
    run(k, 14, opt);
    std::vector<double> got;
    k.copy_result_to(got, 14);
    expect_bit_equal(got, want, scheme_name(s));
  }
}

TEST(Schemes2D, FdtdAllSchemes) {
  auto fields = [](int x, int y) {
    return std::tuple{cats::test::init2d(x, y), cats::test::init2d(y, x),
                      std::cos(0.11 * x - 0.07 * y)};
  };
  Fdtd2D ref(44, 31);
  ref.init(fields);
  run_reference(ref, 12);
  std::vector<double> want;
  ref.copy_result_to(want, 12);

  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                   Scheme::PlutoLike, Scheme::Auto}) {
    Fdtd2D k(44, 31);
    k.init(fields);
    RunOptions opt;
    opt.scheme = s;
    opt.threads = 4;
    opt.cache_bytes = 32 * 1024;
    run(k, 12, opt);
    std::vector<double> got;
    k.copy_result_to(got, 12);
    expect_bit_equal(got, want, scheme_name(s));
  }
}

TEST(Schemes2D, AutoReportsWhatItRan) {
  ConstStar2D<1> k(64, 64, default_star2d_weights<1>());
  k.init(cats::test::init2d);
  RunOptions opt;
  opt.cache_bytes = 1 << 20;
  const SchemeChoice c = run(k, 5, opt);
  EXPECT_TRUE(c.scheme == Scheme::Cats1 || c.scheme == Scheme::Cats2);
  if (c.scheme == Scheme::Cats1) {
    EXPECT_GT(c.tz, 0);
  }
}
