// MWD (multicore wavefront-diamond) integration and verifier tests.
//
// Positive: MWD reproduces the serial reference bit-exactly across kernel
// families, group widths, unroll factors, NT stores (2D and 3D) and
// temporal vectorization; a full run under the dependence oracle is clean
// with every point checked exactly once; every emitted MWD plan verifies
// clean at the pooled group budget. Negative: severing one wavefront Done
// edge from an MWD plan yields the exact DepUncovered pair, and an
// oversized shared diamond yields the residency diagnostics with the pooled
// Z*g limit.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "check/oracle.hpp"
#include "core/reference.hpp"
#include "core/run.hpp"
#include "core/selector.hpp"
#include "helpers.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/banded3d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"
#include "kernels/fdtd2d.hpp"
#include "plan/emit.hpp"
#include "plan/verify.hpp"
#include "wave/mwd.hpp"

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
std::vector<double> mwd_const2d(int W, int H, int T, const RunOptions& opt) {
  ConstStar2D<S> k(W, H, default_star2d_weights<S>());
  k.init(cats::test::init2d, 0.25);
  const SchemeChoice c = run(k, T, opt);
  EXPECT_EQ(c.scheme, Scheme::Mwd);
  std::vector<double> out;
  k.copy_result_to(out, T);
  return out;
}

RunOptions mwd_options(int threads, int group, std::size_t cache_bytes) {
  RunOptions opt;
  opt.scheme = Scheme::Mwd;
  opt.threads = threads;
  opt.mwd_group = group;
  opt.cache_bytes = cache_bytes;
  return opt;
}

const plan_ir::Diag* find_kind(const plan_ir::VerifyReport& r,
                               plan_ir::DiagKind k) {
  for (const plan_ir::Diag& d : r.diags) {
    if (d.kind == k) return &d;
  }
  return nullptr;
}

std::string dump(const plan_ir::VerifyReport& r) {
  std::string out = r.summary();
  for (const plan_ir::Diag& d : r.diags) out += "\n  " + d.to_string();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bit-exactness: group widths x threads x shapes x cache sizes
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<int, int, std::tuple<int, int, int>, int>;

class MwdSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MwdSweep, BitExactVsReference) {
  const auto [group, threads, shape, cache_kib] = GetParam();
  const auto [W, H, T] = shape;
  const RunOptions opt = mwd_options(
      threads, group, static_cast<std::size_t>(cache_kib) * 1024);
  expect_bit_equal(mwd_const2d<1>(W, H, T, opt), reference_const2d<1>(W, H, T),
                   "mwd");
}

INSTANTIATE_TEST_SUITE_P(
    GroupWidths, MwdSweep,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4),  // 3 does not divide 4: clamps to 2
        ::testing::Values(4),
        ::testing::Values(std::tuple{37, 23, 7},    // odd sizes
                          std::tuple{64, 64, 20},   // powers of two
                          std::tuple{16, 128, 11}), // tall & narrow
        ::testing::Values(8, 64)));                 // tiny + small cache

// ---------------------------------------------------------------------------
// Option cross: unroll x NT stores x temporal vectorization
// ---------------------------------------------------------------------------

TEST(Mwd, WaveOptionCross) {
  const auto want = reference_const2d<1>(48, 40, 12);
  for (int u : {0, 1, 3}) {
    for (bool nt : {false, true}) {
      for (bool tv : {false, true}) {
        RunOptions opt = mwd_options(4, 2, 32 * 1024);
        opt.unroll_t = u;
        opt.nt_stores = nt;
        opt.temporal_vec = tv;
        const std::string label = "u=" + std::to_string(u) +
                                  " nt=" + std::to_string(nt) +
                                  " tv=" + std::to_string(tv);
        expect_bit_equal(mwd_const2d<1>(48, 40, 12, opt), want, label.c_str());
      }
    }
  }
}

TEST(Mwd, HigherSlopes) {
  RunOptions opt = mwd_options(4, 2, 32 * 1024);
  ConstStar2D<2> k2(61, 47, default_star2d_weights<2>());
  k2.init(cats::test::init2d, 0.25);
  run(k2, 13, opt);
  ConstStar2D<2> ref2(61, 47, default_star2d_weights<2>());
  ref2.init(cats::test::init2d, 0.25);
  run_reference(ref2, 13);
  std::vector<double> got, want;
  k2.copy_result_to(got, 13);
  ref2.copy_result_to(want, 13);
  expect_bit_equal(got, want, "slope2");
}

TEST(Mwd, DegenerateDiamondSizes) {
  const auto want = reference_const2d<1>(40, 30, 12);
  for (int bz : {2, 3, 7, 64, 1000}) {  // min diamond .. one covers the domain
    RunOptions opt = mwd_options(4, 2, 32 * 1024);
    opt.bz_override = bz;
    expect_bit_equal(mwd_const2d<1>(40, 30, 12, opt), want, "bz");
  }
}

// ---------------------------------------------------------------------------
// Kernel families
// ---------------------------------------------------------------------------

TEST(Mwd, Banded2D) {
  auto make = [](Banded2D<1>& k) {
    k.init(cats::test::init2d, 0.1);
    k.init_bands(cats::test::band_coeff);
  };
  Banded2D<1> ref(49, 35);
  make(ref);
  run_reference(ref, 14);
  std::vector<double> want;
  ref.copy_result_to(want, 14);

  for (int group : {2, 4}) {
    Banded2D<1> k(49, 35);
    make(k);
    run(k, 14, mwd_options(4, group, 48 * 1024));
    std::vector<double> got;
    k.copy_result_to(got, 14);
    expect_bit_equal(got, want, "banded2d");
  }
}

TEST(Mwd, Fdtd2D) {
  auto fields = [](int x, int y) {
    return std::tuple{cats::test::init2d(x, y), cats::test::init2d(y, x),
                      std::cos(0.11 * x - 0.07 * y)};
  };
  Fdtd2D ref(44, 31);
  ref.init(fields);
  run_reference(ref, 12);
  std::vector<double> want;
  ref.copy_result_to(want, 12);

  Fdtd2D k(44, 31);
  k.init(fields);
  run(k, 12, mwd_options(4, 2, 32 * 1024));
  std::vector<double> got;
  k.copy_result_to(got, 12);
  expect_bit_equal(got, want, "fdtd2d");
}

TEST(Mwd, Const3D) {
  ConstStar3D<1> ref(18, 14, 22, default_star3d_weights<1>());
  ref.init(cats::test::init3d, 0.25);
  run_reference(ref, 9);
  std::vector<double> want;
  ref.copy_result_to(want, 9);

  for (int group : {2, 4}) {
    ConstStar3D<1> k(18, 14, 22, default_star3d_weights<1>());
    k.init(cats::test::init3d, 0.25);
    const SchemeChoice c = run(k, 9, mwd_options(4, group, 32 * 1024));
    EXPECT_EQ(c.scheme, Scheme::Mwd);
    std::vector<double> got;
    k.copy_result_to(got, 9);
    expect_bit_equal(got, want, "const3d");
  }
}

TEST(Mwd, Banded3D) {
  auto make = [](Banded3D<1>& k) {
    k.init(cats::test::init3d, 0.1);
    k.init_bands(cats::test::band_coeff3);
  };
  Banded3D<1> ref(16, 12, 20);
  make(ref);
  run_reference(ref, 8);
  std::vector<double> want;
  ref.copy_result_to(want, 8);

  for (bool nt : {false, true}) {
    // NT on: every member fences its own trailing stores before the group's
    // final barrier and the lead's publish (wave/mwd.hpp).
    RunOptions opt = mwd_options(4, 2, 32 * 1024);
    opt.nt_stores = nt;
    Banded3D<1> k(16, 12, 20);
    make(k);
    if (nt) {
      // Not vacuous: the plan run() executes arms the streaming stores.
      EXPECT_TRUE(plan_ir::nt_store_eligible(
          plan_ir::emit_plan(plan_request(k, 8, opt))));
    }
    run(k, 8, opt);
    std::vector<double> got;
    k.copy_result_to(got, 8);
    expect_bit_equal(got, want, nt ? "banded3d nt" : "banded3d");
  }
}

// ---------------------------------------------------------------------------
// Group-width clamping (RunOptions::mwd_group sanitizer)
// ---------------------------------------------------------------------------

TEST(Mwd, GroupWidthIsLargestDivisorOfPool) {
  EXPECT_EQ(mwd_group_width(0, 4), 1);
  EXPECT_EQ(mwd_group_width(1, 4), 1);
  EXPECT_EQ(mwd_group_width(2, 4), 2);
  EXPECT_EQ(mwd_group_width(3, 4), 2);   // 3 does not divide 4
  EXPECT_EQ(mwd_group_width(4, 4), 4);
  EXPECT_EQ(mwd_group_width(16, 4), 4);  // capped at the pool
  EXPECT_EQ(mwd_group_width(5, 6), 3);   // largest divisor below the request
  EXPECT_EQ(mwd_group_width(2, 1), 1);
  EXPECT_EQ(mwd_group_width(2, 0), 1);
}

TEST(Mwd, SanitizerRejectsGroupOnOtherSchemes) {
  // Schemes that ignore the knob run ungrouped (one-time stderr note).
  EXPECT_EQ(sanitize_mwd_group(2, 4, Scheme::Cats2), 1);
  EXPECT_EQ(sanitize_mwd_group(4, 4, Scheme::Naive), 1);
  // Mwd and Auto keep (clamped) widths: Auto may pick MWD.
  EXPECT_EQ(sanitize_mwd_group(2, 4, Scheme::Mwd), 2);
  EXPECT_EQ(sanitize_mwd_group(3, 4, Scheme::Mwd), 2);
  EXPECT_EQ(sanitize_mwd_group(2, 4, Scheme::Auto), 2);
}

// ---------------------------------------------------------------------------
// Member band partition properties (wave/mwd.hpp)
// ---------------------------------------------------------------------------

TEST(Mwd, BandPartitionCoversMonotonically) {
  const plan_ir::TilePlan p =
      plan_ir::emit_mwd(2, 64, 40, 1, 9, 1, /*bz=*/8, /*groups=*/2,
                        /*group=*/4);
  ASSERT_FALSE(p.tiles.empty());
  for (const plan_ir::Tile& tile : p.tiles) {
    const DiamondTiling dt{static_cast<int>(p.slope), p.bz, p.nx,
                           tile.t0, tile.t1};
    for (int m : {1, 2, 4}) {
      const std::vector<int> band = wave::mwd_band_partition(dt, tile, m);
      ASSERT_EQ(band.size(), static_cast<std::size_t>(tile.t1 - tile.t0 + 1));
      int prev = 0;
      for (const int b : band) {
        // In range and non-decreasing with t: the monotonicity the window
        // pipeline's ordering proof rests on.
        EXPECT_GE(b, prev);
        EXPECT_LT(b, m);
        prev = b;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dependence oracle: every point computed once, all edges honored
// ---------------------------------------------------------------------------

TEST(Mwd, OracleClean2D) {
  const int W = 56, H = 40, T = 10;
  for (int group : {2, 4}) {
    ConstStar2D<1> k(W, H, default_star2d_weights<1>());
    k.init(cats::test::init2d);
    check::DepOracle oracle(W, H, 1, k.slope(), 4);
    RunOptions opt = mwd_options(4, group, 16 * 1024);
    opt.oracle = &oracle;
    run(k, T, opt);
    oracle.check_complete(T);
    EXPECT_TRUE(oracle.ok()) << "group=" << group;
    EXPECT_EQ(oracle.points_checked(), static_cast<std::int64_t>(W) * H * T);
    // The member handoff rides the same Done flags as tile-to-tile sync.
    EXPECT_GT(oracle.release_count(), 0);
    EXPECT_GT(oracle.acquire_count(), 0);
  }
}

TEST(Mwd, OracleClean3D) {
  const int W = 14, H = 10, D = 18, T = 6;
  ConstStar3D<1> k(W, H, D, default_star3d_weights<1>());
  k.init(cats::test::init3d);
  check::DepOracle oracle(W, H, D, k.slope(), 4);
  RunOptions opt = mwd_options(4, 2, 16 * 1024);
  opt.oracle = &oracle;
  run(k, T, opt);
  oracle.check_complete(T);
  EXPECT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.points_checked(),
            static_cast<std::int64_t>(W) * H * D * T);
}

// ---------------------------------------------------------------------------
// Static verifier: positive and negative
// ---------------------------------------------------------------------------

TEST(Mwd, EmittedPlansVerifyClean) {
  for (int dims : {2, 3}) {
    for (int group : {1, 2, 4}) {
      for (int threads : {2, 4}) {
        for (const std::size_t z : {std::size_t{256}, std::size_t{32768}}) {
          plan_ir::PlanRequest rq;
          rq.dims = dims;
          rq.nx = dims == 2 ? 32 : 14;
          rq.ny = dims == 2 ? 24 : 10;
          rq.nz = dims == 3 ? 12 : 1;
          rq.T = 7;
          rq.slope = 1;
          rq.opt.scheme = Scheme::Mwd;
          rq.opt.threads = threads;
          rq.opt.mwd_group = group;
          rq.opt.cache_bytes = z;
          const plan_ir::TilePlan p = plan_ir::emit_plan(rq);
          const plan_ir::VerifyReport rep = plan_ir::verify_plan(p);
          EXPECT_TRUE(rep.ok())
              << "dims=" << dims << " group=" << group
              << " threads=" << threads << " Z=" << z << "\n" << dump(rep);
        }
      }
    }
  }
}

TEST(Mwd, SeveredDoneEdgeYieldsDepUncovered) {
  plan_ir::TilePlan p =
      plan_ir::emit_mwd(2, 32, 24, 1, 6, 1, /*bz=*/8, /*groups=*/2,
                        /*group=*/2);
  ASSERT_FALSE(p.edges.empty());
  EXPECT_TRUE(plan_ir::verify_plan(p).ok()) << dump(plan_ir::verify_plan(p));
  // Sever every wait of the first group-1 tile that waits on a group-0
  // producer. Its same-owner program-order predecessors are base diamonds
  // with no waits of their own, so no transitive happens-before path to the
  // cross-group producer survives and the diamond dependence must surface
  // as uncovered.
  int victim = -1;
  for (const plan_ir::SyncEdge& e : p.edges) {
    if (p.tiles[static_cast<std::size_t>(e.to)].owner == 1 &&
        p.tiles[static_cast<std::size_t>(e.from)].owner == 0 &&
        (victim < 0 || e.to < victim)) {
      victim = e.to;
    }
  }
  ASSERT_GE(victim, 0);
  std::vector<plan_ir::SyncEdge> kept;
  for (const plan_ir::SyncEdge& e : p.edges) {
    if (e.to != victim) kept.push_back(e);
  }
  ASSERT_LT(kept.size(), p.edges.size());
  p.edges = std::move(kept);
  const plan_ir::VerifyReport rep = plan_ir::verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const plan_ir::Diag* d = find_kind(rep, plan_ir::DiagKind::DepUncovered);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_EQ(d->tile_a, victim);  // consumer: the tile whose waits were cut
}

TEST(Mwd, OversizedSharedDiamondReportsPooledBudget) {
  // Diamonds sized for a far larger cache: the residency certificate must
  // fail against the *pooled* Z*g budget and say so in the diagnostic.
  plan_ir::TilePlan p =
      plan_ir::emit_mwd(2, 32, 24, 1, 8, 1, /*bz=*/8, /*groups=*/2,
                        /*group=*/2);
  p.cache_bytes = 64;
  p.cs_eff = 2.8;
  p.elem_bytes = 8.0;
  p.certify_residency = true;

  const plan_ir::VerifyReport rep = plan_ir::verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const plan_ir::Diag* d =
      find_kind(rep, plan_ir::DiagKind::WavefrontOverflow);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_FALSE(d->warning);
  EXPECT_NE(d->detail.find("pooled x2"), std::string::npos) << d->detail;
  // Pooling doubles the allowance vs the same plan verified as CATS2 —
  // the limit embeds Z*g = 128, not 64.
  EXPECT_GT(d->limit, 128);
  EXPECT_GT(d->bytes, d->limit);
  EXPECT_NE(find_kind(rep, plan_ir::DiagKind::BzExceedsEq2), nullptr)
      << dump(rep);
}
