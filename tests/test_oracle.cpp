// Dependence-oracle tests (src/check).
//
// Positive: every scheme, serial and threaded, over probe kernels in 1D/2D/3D
// must produce a clean oracle report with every point checked exactly once
// per timestep — including the completeness sweep — and the threaded CATS
// schemes must actually record happens-before edges.
//
// Negative: intentionally broken schedules (a skipped neighbor row, tiles in
// reversed order, a recomputed row, a missing publish) must each be reported
// as the *exact* violated dependence — kind, point, timestep, offending
// neighbor, thread pair — not merely "something failed".

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "baseline/cache_oblivious.hpp"
#include "check/oracle.hpp"
#include "check/probe_kernel.hpp"
#include "core/run.hpp"
#include "kernels/const2d.hpp"
#include "threads/progress.hpp"

using namespace cats;
using check::DepOracle;
using check::Violation;
using check::ViolationKind;

namespace {

RunOptions probe_options(Scheme scheme, int threads, DepOracle* oracle) {
  RunOptions opt;
  opt.scheme = scheme;
  opt.threads = threads;
  opt.cache_bytes = 32 * 1024;
  opt.oracle = oracle;
  // Force small tiles so even tiny domains split across tiles/chunks.
  opt.tz_override = 4;
  opt.bz_override = 8;
  opt.bx_override = 8;
  return opt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Positive: all schemes validate clean
// ---------------------------------------------------------------------------

TEST(OraclePositive, AllSchemes1D) {
  const int W = 48, T = 11;
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::PlutoLike}) {
    for (int p : {1, 4}) {
      check::ProbeKernel1D k(W, 1);
      DepOracle oracle(W, 1, 1, k.slope(), p);
      run(k, T, probe_options(s, p, &oracle));
      oracle.check_complete(T);
      EXPECT_TRUE(oracle.ok()) << scheme_name(s) << " p=" << p;
      EXPECT_EQ(oracle.points_checked(), static_cast<std::int64_t>(W) * T)
          << scheme_name(s) << " p=" << p;
    }
  }
}

TEST(OraclePositive, AllSchemes2D) {
  const int W = 24, H = 40, T = 9;
  for (Scheme s :
       {Scheme::Naive, Scheme::Cats1, Scheme::Cats2, Scheme::PlutoLike}) {
    for (int p : {1, 4}) {
      check::ProbeKernel2D k(W, H, 1);
      DepOracle oracle(W, H, 1, k.slope(), p);
      run(k, T, probe_options(s, p, &oracle));
      oracle.check_complete(T);
      EXPECT_TRUE(oracle.ok()) << scheme_name(s) << " p=" << p;
      EXPECT_EQ(oracle.points_checked(),
                static_cast<std::int64_t>(W) * H * T)
          << scheme_name(s) << " p=" << p;
    }
  }
}

TEST(OraclePositive, AllSchemes3D) {
  const int W = 12, H = 20, D = 20, T = 7;
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2, Scheme::Cats3,
                   Scheme::PlutoLike}) {
    for (int p : {1, 4}) {
      check::ProbeKernel3D k(W, H, D, 1);
      DepOracle oracle(W, H, D, k.slope(), p);
      run(k, T, probe_options(s, p, &oracle));
      oracle.check_complete(T);
      EXPECT_TRUE(oracle.ok()) << scheme_name(s) << " p=" << p;
      EXPECT_EQ(oracle.points_checked(),
                static_cast<std::int64_t>(W) * H * D * T)
          << scheme_name(s) << " p=" << p;
    }
  }
}

TEST(OraclePositive, CacheObliviousBaseline) {
  const int T = 10;
  check::ProbeKernel2D k(24, 32, 1);
  DepOracle oracle(24, 32, 1, k.slope(), 1);
  run_cache_oblivious(k, T, &oracle);
  oracle.check_complete(T);
  EXPECT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.points_checked(), 24ll * 32 * T);
}

TEST(OraclePositive, SlopeTwoStencil) {
  const int W = 40, T = 8;
  for (Scheme s : {Scheme::Cats1, Scheme::Cats2}) {
    check::ProbeKernel2D k(W, W, 2);
    DepOracle oracle(W, W, 1, k.slope(), 4);
    run(k, T, probe_options(s, 4, &oracle));
    oracle.check_complete(T);
    EXPECT_TRUE(oracle.ok()) << scheme_name(s);
  }
}

// Threaded CATS1 synchronizes through ProgressCell publishes and chunk
// barriers; the oracle must see those happens-before edges, or the clean
// report above would be vacuous.
TEST(OraclePositive, ThreadedCats1RecordsEdges) {
  check::ProbeKernel2D k(24, 64, 1);
  DepOracle oracle(24, 64, 1, k.slope(), 4);
  run(k, 8, probe_options(Scheme::Cats1, 4, &oracle));
  EXPECT_TRUE(oracle.ok());
  EXPECT_GT(oracle.release_count(), 0);
  EXPECT_GT(oracle.acquire_count(), 0);
  EXPECT_GT(oracle.barrier_count(), 0);
  EXPECT_FALSE(oracle.edges().empty());
}

TEST(OraclePositive, ThreadedCats2RecordsDiamondEdges) {
  check::ProbeKernel2D k(64, 24, 1);
  DepOracle oracle(64, 24, 1, k.slope(), 4);
  run(k, 8, probe_options(Scheme::Cats2, 4, &oracle));
  EXPECT_TRUE(oracle.ok());
  EXPECT_GT(oracle.release_count(), 0);  // owner cells' publishes
  EXPECT_GT(oracle.acquire_count(), 0);  // diamond waits on them
}

// opt.validate wraps the run in a temporary oracle and aborts on violation;
// a correct schedule over a real kernel must pass straight through and still
// produce the right numbers.
TEST(OraclePositive, ValidateModeRealKernel) {
  ConstStar2D<1> ref(20, 28, default_star2d_weights<1>());
  ref.init([](int x, int y) { return 0.01 * x - 0.02 * y; }, 0.25);
  ConstStar2D<1> k(20, 28, default_star2d_weights<1>());
  k.init([](int x, int y) { return 0.01 * x - 0.02 * y; }, 0.25);

  RunOptions plain;
  plain.scheme = Scheme::Cats2;
  plain.threads = 4;
  plain.cache_bytes = 32 * 1024;
  run(ref, 6, plain);

  RunOptions validated = plain;
  validated.validate = true;
  run(k, 6, validated);

  std::vector<double> want, got;
  ref.copy_result_to(want, 6);
  k.copy_result_to(got, 6);
  EXPECT_EQ(want, got);
}

// ---------------------------------------------------------------------------
// Negative: injected schedule bugs, each caught as the exact dependence
// ---------------------------------------------------------------------------

// Skip one row's point at t=1, then advance everything to t=2: the points
// beside the hole are missing their t=1 neighbor, the hole itself never
// advanced.
TEST(OracleNegative, SkippedNeighborIsCaughtPrecisely) {
  const int W = 8;
  DepOracle oracle(W, 1, 1, /*slope=*/1, 1);
  oracle.on_row(0, 1, 0, 0, 0, 3);      // t=1: x in [0,3)
  oracle.on_row(0, 1, 0, 0, 4, W);      // t=1: x in [4,8) — x=3 skipped
  oracle.on_row(0, 2, 0, 0, 0, W);      // t=2: full row over the hole

  EXPECT_FALSE(oracle.ok());
  const std::vector<Violation> vs = oracle.violations();
  ASSERT_EQ(vs.size(), 3u);

  // x=2 at t=2 reads the never-written neighbor x=3.
  EXPECT_EQ(vs[0].kind, ViolationKind::MissingDep);
  EXPECT_EQ(vs[0].x, 2);
  EXPECT_EQ(vs[0].t, 2);
  EXPECT_EQ(vs[0].nx, 3);
  EXPECT_EQ(vs[0].expected_t, 1);
  EXPECT_EQ(vs[0].found_t, -1);     // t=1's parity slot was never written
  EXPECT_EQ(vs[0].writer_tid, -1);  // still initial data

  // x=3 itself is asked to compute t=2 with no t=1 in its history.
  EXPECT_EQ(vs[1].kind, ViolationKind::NotAdvanced);
  EXPECT_EQ(vs[1].x, 3);
  EXPECT_EQ(vs[1].expected_t, 1);
  EXPECT_EQ(vs[1].found_t, -1);

  // x=4 reads the hole from the other side.
  EXPECT_EQ(vs[2].kind, ViolationKind::MissingDep);
  EXPECT_EQ(vs[2].x, 4);
  EXPECT_EQ(vs[2].nx, 3);
}

// Two tiles processed in reverse dependence order (the "reversed diamond"
// bug): the right tile runs through t=2 first, then the left tile starts
// t=1. The right tile's t=2 misses its left neighbor, and the left tile's
// t=1 finds its input overwritten by the right tile's t=2 (the
// double-buffer WAR hazard).
TEST(OracleNegative, ReversedTileOrderIsCaught) {
  const int W = 8;
  DepOracle oracle(W, 1, 1, /*slope=*/1, 1);
  oracle.on_row(0, 1, 0, 0, 4, W);  // right tile, t=1
  oracle.on_row(0, 2, 0, 0, 4, W);  // right tile, t=2 — too early
  oracle.on_row(0, 1, 0, 0, 0, 4);  // left tile, t=1 — too late

  EXPECT_FALSE(oracle.ok());
  const std::vector<Violation> vs = oracle.violations();
  ASSERT_EQ(vs.size(), 2u);

  // Right tile's x=4 computes t=2 before its left neighbor reached t=1.
  EXPECT_EQ(vs[0].kind, ViolationKind::MissingDep);
  EXPECT_EQ(vs[0].x, 4);
  EXPECT_EQ(vs[0].t, 2);
  EXPECT_EQ(vs[0].nx, 3);
  EXPECT_EQ(vs[0].expected_t, 1);

  // Left tile's x=3 computes t=1 but x=4 already holds t=2 in the slot that
  // should still carry the t=0 input.
  EXPECT_EQ(vs[1].kind, ViolationKind::FutureOverwrite);
  EXPECT_EQ(vs[1].x, 3);
  EXPECT_EQ(vs[1].t, 1);
  EXPECT_EQ(vs[1].nx, 4);
  EXPECT_EQ(vs[1].expected_t, 0);
  EXPECT_EQ(vs[1].found_t, 2);
}

TEST(OracleNegative, DoubleComputeIsCaught) {
  const int W = 6;
  DepOracle oracle(W, 1, 1, /*slope=*/1, 1);
  oracle.on_row(0, 1, 0, 0, 0, W);
  oracle.on_row(0, 1, 0, 0, 2, 3);  // x=2 recomputed at t=1

  EXPECT_FALSE(oracle.ok());
  const std::vector<Violation> vs = oracle.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, ViolationKind::DoubleCompute);
  EXPECT_EQ(vs[0].x, 2);
  EXPECT_EQ(vs[0].t, 1);
  EXPECT_EQ(vs[0].found_t, 1);
}

// Thread 1 consumes thread 0's t=1 values without any recorded publish/wait
// edge: every value exists, so only the happens-before check can object —
// and it must name the exact thread pair.
TEST(OracleNegative, MissingPublishIsCaught) {
  const int W = 6;
  DepOracle oracle(W, 1, 1, /*slope=*/1, 2);
  std::thread a([&] { oracle.on_row(0, 1, 0, 0, 0, W); });
  a.join();  // real ordering — but no edge recorded with the oracle
  std::thread b([&] { oracle.on_row(1, 2, 0, 0, 0, W); });
  b.join();

  EXPECT_FALSE(oracle.ok());
  const std::vector<Violation> vs = oracle.violations();
  ASSERT_FALSE(vs.empty());
  for (const Violation& v : vs) {
    EXPECT_EQ(v.kind, ViolationKind::UnorderedRead);
    EXPECT_EQ(v.t, 2);
    EXPECT_EQ(v.reader_tid, 1);
    EXPECT_EQ(v.writer_tid, 0);
  }
}

// Positive twin of the above: the same cross-thread hand-off through a real
// ProgressCell publish/wait_ge is clean.
TEST(OraclePositive, PublishedHandOffIsClean) {
  const int W = 6;
  DepOracle oracle(W, 1, 1, /*slope=*/1, 2);
  ProgressCell cell;
  std::thread a([&] {
    const check::ScopedOracleThread bind(&oracle, 0);
    oracle.on_row(0, 1, 0, 0, 0, W);
    cell.publish(1);
  });
  std::thread b([&] {
    const check::ScopedOracleThread bind(&oracle, 1);
    cell.wait_ge(1);
    oracle.on_row(1, 2, 0, 0, 0, W);
  });
  a.join();
  b.join();
  EXPECT_TRUE(oracle.ok()) << oracle.violation_count() << " violations";
  EXPECT_EQ(oracle.release_count(), 1);
  EXPECT_EQ(oracle.acquire_count(), 1);
}

// An acquire credits only the release that reached its bound. The producer
// publishes 1, computes more rows, publishes 2 and is joined; a consumer
// that waited for 1 and reads those later rows races on them, however far
// the producer had run ahead when the wait was satisfied.
TEST(OracleNegative, AcquireCreditsOnlyTheBoundRelease) {
  const int W = 6;
  DepOracle oracle(W, 2, 1, /*slope=*/1, 2);
  ProgressCell cell;
  std::thread a([&] {
    const check::ScopedOracleThread bind(&oracle, 0);
    oracle.on_row(0, 1, 0, 0, 0, W);
    cell.publish(1);
    oracle.on_row(0, 1, 1, 0, 0, W);
    cell.publish(2);
  });
  a.join();
  std::thread b([&] {
    const check::ScopedOracleThread bind(&oracle, 1);
    cell.wait_ge(1);  // the cell already holds 2
    oracle.on_row(1, 2, 1, 0, 0, W);
  });
  b.join();

  EXPECT_EQ(oracle.release_count(), 2);
  EXPECT_EQ(oracle.acquire_count(), 1);
  const std::vector<Violation> vs = oracle.violations();
  ASSERT_FALSE(vs.empty());
  bool saw_later_row = false;
  for (const Violation& v : vs) {
    EXPECT_EQ(v.kind, ViolationKind::UnorderedRead) << v.to_string();
    EXPECT_EQ(v.t, 2);
    EXPECT_EQ(v.reader_tid, 1);
    EXPECT_EQ(v.writer_tid, 0);
    saw_later_row |= v.ny == 1;
  }
  EXPECT_TRUE(saw_later_row);
}

TEST(OracleNegative, IncompleteScheduleIsCaught) {
  const int W = 4;
  DepOracle oracle(W, 1, 1, /*slope=*/1, 1);
  oracle.on_row(0, 1, 0, 0, 0, W);
  oracle.on_row(0, 2, 0, 0, 0, 2);  // x=2,3 never reach T=2
  oracle.check_complete(2);

  const std::vector<Violation> vs = oracle.violations();
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].kind, ViolationKind::Incomplete);
  EXPECT_EQ(vs[0].x, 2);
  EXPECT_EQ(vs[0].expected_t, 2);
  EXPECT_EQ(vs[0].found_t, 0);  // parity-0 slot still holds initial data
  EXPECT_EQ(vs[1].x, 3);
}

TEST(OracleNegative, OutOfDomainRowIsCaught) {
  DepOracle oracle(8, 4, 1, /*slope=*/1, 1);
  oracle.on_row(0, 1, /*y=*/4, 0, 0, 8);  // y == height
  EXPECT_FALSE(oracle.ok());
  const std::vector<Violation> vs = oracle.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, ViolationKind::OutOfDomain);
  EXPECT_EQ(vs[0].y, 4);
  EXPECT_EQ(oracle.points_checked(), 0);
}

TEST(OracleDiagnostics, ToStringNamesTheDependence) {
  const int W = 8;
  DepOracle oracle(W, 1, 1, /*slope=*/1, 1);
  oracle.on_row(0, 1, 0, 0, 0, 3);
  oracle.on_row(0, 1, 0, 0, 4, W);
  oracle.on_row(0, 2, 0, 0, 0, W);
  const std::vector<Violation> vs = oracle.violations();
  ASSERT_FALSE(vs.empty());
  const std::string s = vs[0].to_string();
  EXPECT_NE(s.find("missing-dep"), std::string::npos) << s;
  EXPECT_NE(s.find("(2,0,0)"), std::string::npos) << s;
  EXPECT_NE(s.find("(3,0,0)"), std::string::npos) << s;
  EXPECT_NE(s.find("t=2"), std::string::npos) << s;
}
