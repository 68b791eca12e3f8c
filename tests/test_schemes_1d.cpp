// 1D integration tests: naive / CATS1 / PluTo-like on 1D star stencils.
// The paper: 1D domains always use CATS1 (CATS0 would be the naive scheme).

#include <gtest/gtest.h>

#include "core/reference.hpp"
#include "core/run.hpp"
#include "helpers.hpp"
#include "kernels/const1d.hpp"

using namespace cats;
using cats::test::expect_bit_equal;

namespace {

template <int S>
typename ConstStar1D<S>::Weights weights_1d() {
  typename ConstStar1D<S>::Weights w;
  w.center = 0.5;
  for (int k = 0; k < S; ++k) {
    const auto i = static_cast<std::size_t>(k);
    w.xm[i] = 0.25 / S * 1.01;
    w.xp[i] = 0.25 / S * 0.99;
  }
  return w;
}

template <int S>
std::vector<double> reference_1d(int W, int T) {
  ConstStar1D<S> k(W, weights_1d<S>());
  k.init([](int x) { return cats::test::init2d(x, 3); }, 0.5);
  run_reference(k, T);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

template <int S>
std::vector<double> scheme_1d(int W, int T, const RunOptions& opt) {
  ConstStar1D<S> k(W, weights_1d<S>());
  k.init([](int x) { return cats::test::init2d(x, 3); }, 0.5);
  run(k, T, opt);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

}  // namespace

TEST(Schemes1D, AllSchemesBitExact) {
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::PlutoLike,
                   Scheme::Auto}) {
    for (int threads : {1, 4}) {
      RunOptions opt;
      opt.scheme = s;
      opt.threads = threads;
      opt.cache_bytes = 4 * 1024;
      expect_bit_equal(scheme_1d<1>(501, 37, opt), reference_1d<1>(501, 37),
                       scheme_name(s));
    }
  }
}

TEST(Schemes1D, HigherSlope) {
  RunOptions opt;
  opt.threads = 3;
  opt.cache_bytes = 2 * 1024;
  for (Scheme s : {Scheme::Cats1, Scheme::PlutoLike}) {
    opt.scheme = s;
    expect_bit_equal(scheme_1d<3>(257, 21, opt), reference_1d<3>(257, 21),
                     scheme_name(s));
  }
}

TEST(Schemes1D, AutoAlwaysPicksCats1) {
  ConstStar1D<1> k(1 << 16, weights_1d<1>());
  k.init([](int x) { return 0.001 * x; });
  RunOptions opt;
  opt.cache_bytes = 1024;  // tiny: TZ formula < 10, but 1D never falls through
  const SchemeChoice c = plan(k, 100, opt);
  EXPECT_EQ(c.scheme, Scheme::Cats1);
  EXPECT_GE(c.tz, 1);
}

TEST(Schemes1D, Cats2RequestFallsBackToCats1) {
  // CATS2, CATS3 and MWD need a second dimension: run() executes the CATS1
  // wavefront, yet returns the selector's unresolved choice, as plan() does.
  for (Scheme s : {Scheme::Cats2, Scheme::Cats3, Scheme::Mwd}) {
    RunOptions opt;
    opt.scheme = s;
    opt.threads = 2;
    ConstStar1D<1> k(300, weights_1d<1>());
    k.init([](int x) { return cats::test::init2d(x, 3); }, 0.5);
    const SchemeChoice want = plan(k, 15, opt);
    const SchemeChoice got = run(k, 15, opt);
    EXPECT_EQ(got.scheme, want.scheme) << scheme_name(s);
    EXPECT_NE(got.scheme, Scheme::Cats1) << scheme_name(s);
    EXPECT_EQ(got.tz, want.tz) << scheme_name(s);
    EXPECT_EQ(got.bz, want.bz) << scheme_name(s);
    EXPECT_EQ(got.bx, want.bx) << scheme_name(s);
    EXPECT_EQ(got.group, want.group) << scheme_name(s);
    EXPECT_EQ(resolve_dispatch(got, 1).scheme, Scheme::Cats1);
    std::vector<double> out;
    k.copy_result_to(out, 15);
    expect_bit_equal(out, reference_1d<1>(300, 15), scheme_name(s));
  }
}

TEST(Schemes1D, DegenerateSizes) {
  RunOptions opt;
  opt.scheme = Scheme::Cats1;
  opt.threads = 8;  // more threads than useful tiles
  opt.tz_override = 5;
  expect_bit_equal(scheme_1d<1>(17, 23, opt), reference_1d<1>(17, 23),
                   "tiny-1d");
  expect_bit_equal(scheme_1d<1>(17, 1, opt), reference_1d<1>(17, 1), "T1-1d");
}
