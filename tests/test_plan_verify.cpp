// Static schedule-verifier tests (plan/verify.hpp).
//
// Positive: every plan the emitters produce — all schemes, 1/2/3-D, serial
// and threaded, healthy and degenerate caches — verifies clean. Negative:
// hand-built broken plans (a dropped sync edge, overlapping tiles, an
// oversized wavefront, a sync cycle, unsatisfiable waits, Eq. 1 violations)
// each produce their precise diagnostic: the dependence pair, the tile ids,
// or the wavefront bytes against Z.

#include <gtest/gtest.h>

#include <cmath>

#include "plan/emit.hpp"
#include "plan/verify.hpp"

using namespace cats;
using namespace cats::plan_ir;

namespace {

Tile block(int owner, int phase, int t0, int t1, Box base) {
  Tile t;
  t.kind = TileKind::SkewedBlock;
  t.owner = owner;
  t.phase = phase;
  t.t0 = t0;
  t.t1 = t1;
  t.base = base;
  return t;
}

TilePlan shell_1d(std::int64_t nx, int T, int threads) {
  TilePlan p;
  p.dims = 1;
  p.nx = nx;
  p.T = T;
  p.slope = 1;
  p.threads = threads;
  p.phases = 1;
  p.phase_sync = PhaseSync::None;
  return p;
}

const Diag* find_kind(const VerifyReport& r, DiagKind k) {
  for (const Diag& d : r.diags) {
    if (d.kind == k) return &d;
  }
  return nullptr;
}

std::string dump(const VerifyReport& r) {
  std::string out = r.summary();
  for (const Diag& d : r.diags) out += "\n  " + d.to_string();
  return out;
}

}  // namespace

TEST(PlanVerify, EmittedPlansVerifyClean) {
  const Scheme schemes[] = {Scheme::Auto,  Scheme::Naive, Scheme::Cats1,
                            Scheme::Cats2, Scheme::Cats3, Scheme::PlutoLike};
  int checked = 0;
  for (int dims = 1; dims <= 3; ++dims) {
    for (const Scheme sc : schemes) {
      for (const int threads : {1, 3}) {
        for (const std::size_t z : {std::size_t{256}, std::size_t{32768}}) {
          PlanRequest rq;
          rq.dims = dims;
          rq.nx = dims == 1 ? 40 : dims == 2 ? 32 : 14;
          rq.ny = dims >= 2 ? (dims == 2 ? 24 : 10) : 1;
          rq.nz = dims == 3 ? 12 : 1;
          rq.T = 7;
          rq.slope = 1;
          rq.opt.scheme = sc;
          rq.opt.threads = threads;
          rq.opt.cache_bytes = z;
          const TilePlan p = emit_plan(rq);
          const VerifyReport rep = verify_plan(p);
          EXPECT_TRUE(rep.ok())
              << "scheme=" << static_cast<int>(sc) << " dims=" << dims
              << " threads=" << threads << " Z=" << z << "\n" << dump(rep);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 3 * 6 * 2 * 2);
}

TEST(PlanVerify, DroppedSyncEdgeYieldsExactDependencePair) {
  // Two full-domain timestep tiles on different threads with no edge and no
  // barrier between them: t=2 may start before t=1 finished.
  TilePlan p = shell_1d(8, 2, 2);
  p.tiles.push_back(block(0, 0, 1, 1, {0, 7, 0, 0, 0, 0}));
  p.tiles.push_back(block(1, 0, 2, 2, {0, 7, 0, 0, 0, 0}));

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  EXPECT_EQ(rep.errors(), 1u) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::DepUncovered);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_EQ(d->tile_a, 1);  // consumer: the t=2 tile
  EXPECT_EQ(d->tile_b, 0);  // producer: the t=1 tile
  EXPECT_EQ(d->t, 2);
  EXPECT_EQ(d->x, 0);  // first uncovered point
  EXPECT_EQ(d->nx, 0);

  // Recording the edge the executor would wait on fixes it...
  p.edges.push_back({0, 1});
  EXPECT_TRUE(verify_plan(p).ok()) << dump(verify_plan(p));

  // ...and so does splitting the tiles into barrier-separated phases.
  p.edges.clear();
  p.tiles[1].phase = 1;
  p.phases = 2;
  p.phase_sync = PhaseSync::Barrier;
  EXPECT_TRUE(verify_plan(p).ok()) << dump(verify_plan(p));
}

TEST(PlanVerify, OverlappingTilesYieldTileOverlap) {
  TilePlan p = shell_1d(8, 1, 1);
  p.tiles.push_back(block(0, 0, 1, 1, {0, 4, 0, 0, 0, 0}));
  p.tiles.push_back(block(0, 0, 1, 1, {3, 7, 0, 0, 0, 0}));

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::TileOverlap);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_EQ(d->tile_a, 0);
  EXPECT_EQ(d->tile_b, 1);
  EXPECT_EQ(d->t, 1);
  EXPECT_EQ(d->x, 3);  // first shared point
  // Overlap already explains the cell-count mismatch; no gap diagnostic.
  EXPECT_EQ(find_kind(rep, DiagKind::CoverageGap), nullptr) << dump(rep);
}

TEST(PlanVerify, MissingCellsYieldCoverageGap) {
  TilePlan p = shell_1d(8, 1, 1);
  p.tiles.push_back(block(0, 0, 1, 1, {0, 5, 0, 0, 0, 0}));

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::CoverageGap);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_EQ(d->t, 1);
  EXPECT_EQ(d->bytes, 6);  // cells computed
  EXPECT_EQ(d->limit, 8);  // cells required
}

TEST(PlanVerify, WavefrontColumnOutsideDomain) {
  TilePlan p = shell_1d(8, 1, 1);
  Tile t;
  t.kind = TileKind::WavefrontColumn;
  t.t0 = 1;
  t.tau_lo = 0;
  t.tau_hi = 0;
  t.u = 9;  // traversal position 9 in a width-8 domain
  p.tiles.push_back(t);

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::OutOfDomain);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_EQ(d->tile_a, 0);
  EXPECT_EQ(d->t, 1);
  EXPECT_EQ(d->x, 9);
}

TEST(PlanVerify, MutualEdgesYieldSyncCycle) {
  TilePlan p = shell_1d(8, 1, 2);
  p.tiles.push_back(block(0, 0, 1, 1, {0, 3, 0, 0, 0, 0}));
  p.tiles.push_back(block(1, 0, 1, 1, {4, 7, 0, 0, 0, 0}));
  p.edges.push_back({0, 1});
  p.edges.push_back({1, 0});

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::SyncCycle);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_NE(d->tile_a, d->tile_b);
  EXPECT_TRUE(d->tile_a == 0 || d->tile_a == 1);
  EXPECT_TRUE(d->tile_b == 0 || d->tile_b == 1);
}

TEST(PlanVerify, OversizedWavefrontReportsBytesAgainstCache) {
  // A certified CATS2 plan whose diamonds were sized for a far larger cache:
  // the measured wavefront working set must be reported against Z plus the
  // documented bz-cell discretization allowance.
  TilePlan p = emit_cats2(2, 32, 24, 1, 8, 1, /*bz=*/8, 2);
  p.cache_bytes = 64;
  p.cs_eff = 2.8;
  p.elem_bytes = 8.0;
  p.certify_residency = true;

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::WavefrontOverflow);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_FALSE(d->warning);
  EXPECT_EQ(d->bytes, rep.stats.max_wavefront_bytes);
  const auto allowance =
      static_cast<std::int64_t>(std::ceil(2.8 * (8.0 * 1.0) * 8.0));
  EXPECT_EQ(d->limit, 64 + allowance);
  EXPECT_GT(d->bytes, d->limit);
  // Oversizing also violates Eq. 2 itself for this cache model.
  EXPECT_NE(find_kind(rep, DiagKind::BzExceedsEq2), nullptr) << dump(rep);

  // A selector-clamped plan downgrades the overflow to an advisory warning.
  p.clamped = true;
  const VerifyReport rep2 = verify_plan(p);
  const Diag* d2 = find_kind(rep2, DiagKind::WavefrontOverflow);
  ASSERT_NE(d2, nullptr) << dump(rep2);
  EXPECT_TRUE(d2->warning);
}

TEST(PlanVerify, TzAboveEq1IsFlagged) {
  TilePlan p = emit_cats1(1, 64, 1, 1, 8, 1, /*tz=*/8, 1);
  p.cache_bytes = 64;  // Zd = 8 doubles: Eq. 1 allows TZ = 2
  p.cs_eff = 2.8;
  p.elem_bytes = 8.0;
  p.certify_residency = true;

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::TzExceedsEq1);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_EQ(d->bytes, 8);  // plan TZ
  EXPECT_EQ(d->limit, 2);  // Eq. 1 bound for this cache model
}

TEST(PlanVerify, MalformedOwnerAborts) {
  TilePlan p = shell_1d(8, 1, 1);
  p.tiles.push_back(block(3, 0, 1, 1, {0, 7, 0, 0, 0, 0}));  // owner 3 of 1

  const VerifyReport rep = verify_plan(p);
  EXPECT_FALSE(rep.ok()) << dump(rep);
  const Diag* d = find_kind(rep, DiagKind::MalformedPlan);
  ASSERT_NE(d, nullptr) << dump(rep);
  EXPECT_EQ(d->tile_a, 0);
}
