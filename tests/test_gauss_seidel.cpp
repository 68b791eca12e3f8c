// In-place Gauss-Seidel/SOR under time skewing (the paper's one-copy
// remark). GS results are fixed by the dependence structure, not the
// traversal, so the serial CATS1 wavefront must reproduce the row-major
// reference bit-exactly — and run() must refuse to parallelize such kernels.

#include <gtest/gtest.h>

#include <cmath>

#include "core/reference.hpp"
#include "core/run.hpp"
#include "helpers.hpp"
#include "kernels/const2d.hpp"
#include "kernels/gauss_seidel2d.hpp"

using namespace cats;
using cats::test::expect_bit_equal;

namespace {

GaussSeidel2D::Weights sor_weights() {
  GaussSeidel2D::Weights w;
  w.relax = 1.3;
  w.xm = 0.26;
  w.xp = 0.24;
  w.ym = 0.27;
  w.yp = 0.23;
  return w;
}

std::vector<double> reference_gs(int W, int H, int T) {
  GaussSeidel2D k(W, H, sor_weights());
  k.init(cats::test::init2d, 0.5);
  run_reference(k, T);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

}  // namespace

TEST(GaussSeidel, TraitDetected) {
  EXPECT_TRUE(kernel_sequential_deps<GaussSeidel2D>());
  EXPECT_FALSE(kernel_sequential_deps<ConstStar2D<1>>());
}

TEST(GaussSeidel, SerialCats1MatchesRowMajorReference) {
  const auto want = reference_gs(61, 47, 17);
  for (Scheme s : {Scheme::Auto, Scheme::Cats1, Scheme::Cats2,
                   Scheme::PlutoLike, Scheme::Naive}) {
    GaussSeidel2D k(61, 47, sor_weights());
    k.init(cats::test::init2d, 0.5);
    RunOptions opt;
    opt.scheme = s;
    opt.threads = 4;  // must be ignored: sequential-deps kernels serialize
    opt.cache_bytes = 16 * 1024;
    const SchemeChoice planned = plan(k, 17, opt);
    const SchemeChoice c = run(k, 17, opt);
    EXPECT_TRUE(c.scheme == Scheme::Cats1 || c.scheme == Scheme::Naive);
    // plan() reports the serialized choice run() executes.
    EXPECT_EQ(planned.scheme, c.scheme) << scheme_name(s);
    EXPECT_EQ(planned.tz, c.tz) << scheme_name(s);
    EXPECT_EQ(planned.bz, c.bz) << scheme_name(s);
    EXPECT_EQ(planned.bx, c.bx) << scheme_name(s);
    EXPECT_EQ(planned.group, c.group) << scheme_name(s);
    std::vector<double> got;
    k.copy_result_to(got, 17);
    expect_bit_equal(got, want, scheme_name(s));
  }
}

TEST(GaussSeidel, TinyChunksStillExact) {
  const auto want = reference_gs(40, 33, 11);
  for (int tz : {1, 2, 5, 11, 99}) {
    GaussSeidel2D k(40, 33, sor_weights());
    k.init(cats::test::init2d, 0.5);
    RunOptions opt;
    opt.tz_override = tz;
    run(k, 11, opt);
    std::vector<double> got;
    k.copy_result_to(got, 11);
    expect_bit_equal(got, want, "gs-tz");
  }
}

TEST(GaussSeidel, SorConvergesOnLaplace) {
  // Physical sanity: SOR on the Laplace equation contracts toward the
  // boundary value; after many sweeps the interior approaches 1.0.
  GaussSeidel2D::Weights w;  // symmetric Laplace stencil, omega = 1.5
  w.relax = 1.5;
  GaussSeidel2D k(33, 33, w);
  k.init([](int, int) { return 0.0; }, /*boundary=*/1.0);
  RunOptions opt;
  run(k, 600, opt);
  EXPECT_NEAR(k.grid().at(16, 16), 1.0, 1e-5);
  EXPECT_NEAR(k.grid().at(3, 28), 1.0, 1e-5);
}

TEST(GaussSeidel, SingleCopyStateDeclared) {
  GaussSeidel2D k(8, 8, sor_weights());
  EXPECT_DOUBLE_EQ(k.state_doubles_per_point(), 0.5);  // one copy, not two
  EXPECT_DOUBLE_EQ(k.flops_per_point(), 10.0);
}
