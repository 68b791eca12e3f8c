// Selector tests: Eq. 1 / Eq. 2 arithmetic (including the paper's worked
// example) and the general-CATS rule of thumb.

#include <gtest/gtest.h>

#include <cmath>

#include "core/run.hpp"
#include "core/selector.hpp"
#include "core/stencil.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/fdtd2d.hpp"
#include "plan/emit.hpp"

using namespace cats;

TEST(Eq1, PaperWorkedExample) {
  // Section II-B: 128KiB cache, CS = 3, 500^2 doubles -> TZ = 10
  // (3 * 10 * 500 * 8B = 120KB < 128KiB).
  const DomainShape d{500 * 500, 500, 500, 2};
  const KernelCosts k{1, 3.0};
  EXPECT_EQ(compute_tz(128 * 1024, d, k), 10);
}

TEST(Eq1, ScalesLinearlyWithCache) {
  const DomainShape d{1000 * 1000, 1000, 1000, 2};
  const KernelCosts k{1, 2.8};
  const int tz1 = compute_tz(1 << 20, d, k);
  const int tz2 = compute_tz(1 << 21, d, k);
  EXPECT_NEAR(tz2, 2 * tz1, 1);
  EXPECT_EQ(compute_tz(0, d, k), 0);
}

TEST(Eq1, ZeroWhenWavefrontDoesNotFit) {
  // 3D-style shape: wavefront = W*H doubles per timestep, tiny cache.
  const DomainShape d{256ll * 256 * 256, 256, 256, 3};
  const KernelCosts k{1, 2.8};
  EXPECT_EQ(compute_tz(64 * 1024, d, k), 0);
}

TEST(Eq2, TwoDimensionalFormula) {
  // In 2D Wmax*Wmax2 = N, so BZ = floor(sqrt(2 s Zd / CS)).
  const DomainShape d{4000ll * 4000, 4000, 4000, 2};
  const KernelCosts k{1, 2.8};
  const std::size_t z = 2 * 1024 * 1024;
  const auto zd = static_cast<double>(z) / 8.0;
  const auto expect = static_cast<std::int64_t>(std::sqrt(2.0 * zd / 2.8));
  EXPECT_EQ(compute_bz(z, d, k), expect);
}

TEST(Eq2, ClampedToMinimumDiamond) {
  const DomainShape d{1 << 20, 1024, 1024, 2};
  const KernelCosts k{3, 6.8};
  EXPECT_EQ(compute_bz(1, d, k), 6);  // 2s
}

TEST(EffectiveCs, ConstBandedFdtd) {
  ConstStar2D<1> c(8, 8, default_star2d_weights<1>());
  EXPECT_DOUBLE_EQ(effective_cs(c, 0.8), 2.8);
  ConstStar2D<2> c2(8, 8, default_star2d_weights<2>());
  EXPECT_DOUBLE_EQ(effective_cs(c2, 0.8), 4.8);

  Banded2D<1> b(8, 8);
  // CS + NS: the paper's banded-matrix correction (NS = 5 bands in 2D).
  EXPECT_DOUBLE_EQ(effective_cs(b, 0.8), 2.8 + 5.0);

  Fdtd2D f(8, 8);
  // Three live fields scale the wavefront share.
  EXPECT_DOUBLE_EQ(effective_cs(f, 0.8), 3.0 * 2.8);
}

TEST(Selector, AutoPicksCats1WhenWavefrontDeepEnough) {
  const DomainShape d{500 * 500, 500, 500, 2};
  const KernelCosts k{1, 2.8};
  RunOptions opt;
  opt.cache_bytes = 2 * 1024 * 1024;
  const SchemeChoice c = select_scheme(d, k, opt, 100);
  EXPECT_EQ(c.scheme, Scheme::Cats1);
  EXPECT_GE(c.tz, opt.min_wavefront_timesteps);
  EXPECT_LE(c.tz, 100);
}

TEST(Selector, AutoSwitchesToCats2InLarge3D) {
  // 256^3: the CATS1 wavefront holds W*H*TZ doubles -> TZ < 10 for a 2MiB
  // cache, so the general scheme must pick CATS2 (Section II-C).
  const DomainShape d{256ll * 256 * 256, 256, 256, 3};
  const KernelCosts k{1, 2.8};
  RunOptions opt;
  opt.cache_bytes = 2 * 1024 * 1024;
  const SchemeChoice c = select_scheme(d, k, opt, 100);
  EXPECT_EQ(c.scheme, Scheme::Cats2);
  EXPECT_GE(c.bz, 2);
}

TEST(Selector, TzCappedByTotalTimesteps) {
  const DomainShape d{100 * 100, 100, 100, 2};
  const KernelCosts k{1, 2.8};
  RunOptions opt;
  opt.cache_bytes = 64 * 1024 * 1024;  // huge: TZ formula >> T
  const SchemeChoice c = select_scheme(d, k, opt, 7);
  EXPECT_EQ(c.scheme, Scheme::Cats1);
  EXPECT_EQ(c.tz, 7);
}

TEST(Selector, OneDimensionalAlwaysCats1) {
  const DomainShape d{1 << 20, 1 << 20, 0, 1};
  const KernelCosts k{1, 2.8};
  RunOptions opt;
  opt.cache_bytes = 4096;  // tiny: tz formula small
  const SchemeChoice c = select_scheme(d, k, opt, 100);
  EXPECT_EQ(c.scheme, Scheme::Cats1);
  EXPECT_GE(c.tz, 1);
}

TEST(Selector, ExplicitSchemeAndOverridesRespected) {
  const DomainShape d{512 * 512, 512, 512, 2};
  const KernelCosts k{1, 2.8};
  RunOptions opt;
  opt.cache_bytes = 1 << 20;

  opt.scheme = Scheme::Naive;
  EXPECT_EQ(select_scheme(d, k, opt, 10).scheme, Scheme::Naive);

  opt.scheme = Scheme::Cats1;
  opt.tz_override = 4;
  EXPECT_EQ(select_scheme(d, k, opt, 10).tz, 4);

  opt.scheme = Scheme::Cats2;
  opt.bz_override = 24;
  EXPECT_EQ(select_scheme(d, k, opt, 10).bz, 24);

  opt.scheme = Scheme::PlutoLike;
  EXPECT_EQ(select_scheme(d, k, opt, 10).scheme, Scheme::PlutoLike);
}

TEST(Selector, ResolveCacheBytes) {
  RunOptions opt;
  opt.cache_bytes = 12345;
  EXPECT_EQ(resolve_cache_bytes(opt), 12345u);
  opt.cache_bytes = 0;
  EXPECT_GT(resolve_cache_bytes(opt), 0u);  // detection always yields something
}

TEST(Selector, BandedMatrixShrinksTz) {
  const DomainShape d{1000 * 1000, 1000, 1000, 2};
  const std::size_t z = 2 * 1024 * 1024;
  const int tz_const = compute_tz(z, d, {1, 2.8});
  const int tz_banded = compute_tz(z, d, {1, 2.8 + 5.0});
  EXPECT_LT(tz_banded, tz_const);
  EXPECT_GT(tz_banded, 0);
}

TEST(Selector, DegenerateTinyCacheFallsBackToNaive) {
  // A cache too small for even a minimal 2s-wide diamond: compute_tz yields 0
  // and no CATS scheme can keep a wavefront resident, so Auto streams naively
  // instead of paying tile overhead for nothing.
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  const KernelCosts k{1, 2.8};
  RunOptions opt;
  opt.cache_bytes = 16;  // two doubles
  EXPECT_EQ(compute_tz(opt.cache_bytes, d, k), 0);
  const SchemeChoice c = select_scheme(d, k, opt, 100);
  EXPECT_EQ(c.scheme, Scheme::Naive);

  // Overrides disable the fallback: the caller asked for specific tiles.
  opt.bz_override = 8;
  EXPECT_EQ(select_scheme(d, k, opt, 100).scheme, Scheme::Cats2);
}

TEST(Selector, SmallButUsableCacheStillTimeSkews) {
  // Slightly above degenerate: TZ = 0 but a >= 2s diamond fits, so the
  // rule of thumb moves to CATS2 rather than Naive (unchanged behavior).
  const DomainShape d{1 << 20, 1 << 10, 1 << 10, 2};
  const KernelCosts k{1, 2.8};
  RunOptions opt;
  opt.cache_bytes = 1024;
  EXPECT_EQ(compute_tz(opt.cache_bytes, d, k), 0);
  const SchemeChoice c = select_scheme(d, k, opt, 100);
  EXPECT_EQ(c.scheme, Scheme::Cats2);
  EXPECT_GE(c.bz, 2);
}

TEST(Selector, WmaxBelowTwoSlope) {
  // Thinner than one diamond in the traversal dimension (wmax < 2s): the
  // formulas must stay finite and the clamps keep every parameter legal.
  const DomainShape d{4 * 4096, 4, 4096, 2};  // wmax = 4 < 2s = 6
  const KernelCosts k{3, 6.8};
  const std::size_t z = 1 << 20;
  EXPECT_GE(compute_tz(z, d, k), 0);
  EXPECT_GE(compute_bz(z, d, k), 6);  // clamped at 2s
  RunOptions opt;
  opt.cache_bytes = z;
  const SchemeChoice c = select_scheme(d, k, opt, 100);
  EXPECT_TRUE(c.scheme == Scheme::Cats1 || c.scheme == Scheme::Cats2);
  if (c.scheme == Scheme::Cats1) EXPECT_GE(c.tz, 1);
  if (c.scheme == Scheme::Cats2) EXPECT_GE(c.bz, 6);
}

TEST(Selector, Float32ElementBytesScaleEq1Eq2) {
  // elem_bytes = 4 doubles Zd, so TZ doubles and BZ scales by sqrt(2).
  const DomainShape d{1000 * 1000, 1000, 1000, 2};
  const std::size_t z = 2 * 1024 * 1024;
  const KernelCosts k64{1, 2.8, 8.0};
  const KernelCosts k32{1, 2.8, 4.0};
  EXPECT_NEAR(compute_tz(z, d, k32), 2 * compute_tz(z, d, k64), 1);
  EXPECT_NEAR(static_cast<double>(compute_bz(z, d, k32)),
              std::sqrt(2.0) * static_cast<double>(compute_bz(z, d, k64)), 2.0);
}

TEST(Selector, Cats3BzClampedBelowAtTwoSlope) {
  const KernelCosts k{2, 4.8};
  EXPECT_EQ(compute_bz3(1, k), 4);  // 2s floor with a 1-byte cache
  EXPECT_GT(compute_bz3(64 * 1024 * 1024, k), 4);

  // Explicit CATS3 selection in 3D honors the same clamp on both BZ and BX.
  const DomainShape d{256ll * 256 * 256, 256, 256, 3};
  RunOptions opt;
  opt.scheme = Scheme::Cats3;
  opt.cache_bytes = 1;
  const SchemeChoice c = select_scheme(d, k, opt, 100);
  EXPECT_EQ(c.scheme, Scheme::Cats3);
  EXPECT_EQ(c.bz, 4);
  EXPECT_EQ(c.bx, 4);
}

/// A bz_override below the 2s minimum diamond is clamped on the Auto path
/// too: plan() (and so run()'s returned choice) reports the width the
/// emitted plan executes, for CATS2 and for the MWD branch.
template <int S>
void expect_auto_bz_matches_plan(int group) {
  ConstStar2D<S> k(1024, 1024, default_star2d_weights<S>());
  RunOptions opt;
  opt.cache_bytes = 64 * 1024;
  opt.bz_override = 2 * S - 1;
  opt.threads = group;
  opt.mwd_group = group;
  const int T = 32;
  const SchemeChoice c = plan(k, T, opt);
  EXPECT_EQ(c.scheme, group > 1 ? Scheme::Mwd : Scheme::Cats2);
  const plan_ir::TilePlan p = plan_ir::emit_plan(plan_request(k, T, opt), c);
  EXPECT_EQ(c.bz, p.bz) << "slope " << S << " group " << group;
  EXPECT_EQ(c.bz, 2 * S);
}

TEST(Selector, AutoClampsBzOverrideLikeExplicitCats2) {
  expect_auto_bz_matches_plan<1>(1);
  expect_auto_bz_matches_plan<2>(1);
  expect_auto_bz_matches_plan<1>(2);
  expect_auto_bz_matches_plan<2>(2);
}
