// Synchronization-statistics tests: the counters exist to check the paper's
// "threads practically never wait" claim, so verify they count sanely.

#include <gtest/gtest.h>

#include "core/run.hpp"
#include "core/stats.hpp"
#include "helpers.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const3d.hpp"

using namespace cats;

TEST(RunStats, SingleThreadNeverWaits) {
  RunStats stats;
  ConstStar2D<1> k(64, 64, default_star2d_weights<1>());
  k.init(cats::test::init2d);
  RunOptions opt;
  opt.scheme = Scheme::Cats1;
  opt.threads = 1;
  opt.cache_bytes = 16 * 1024;
  opt.stats = &stats;
  run(k, 10, opt);
  EXPECT_EQ(stats.wait_events.load(), 0);  // no neighbor to wait on
  EXPECT_EQ(stats.wait_spins.load(), 0);
  EXPECT_GT(stats.tiles_processed.load(), 0);
  EXPECT_GT(stats.barriers.load(), 0);
  // A lone participant is always the last arriver at its phase barrier.
  EXPECT_EQ(stats.barrier_wait_events.load(), 0);
  EXPECT_EQ(stats.barrier_wait_ns.load(), 0);
}

TEST(RunStats, Cats2CountsDiamonds) {
  RunStats stats;
  ConstStar2D<1> k(80, 60, default_star2d_weights<1>());
  k.init(cats::test::init2d);
  RunOptions opt;
  opt.scheme = Scheme::Cats2;
  opt.threads = 1;
  opt.bz_override = 10;
  opt.stats = &stats;
  run(k, 10, opt);
  // Diamond count ~ (W + 2sT)/BZ per row x ~2sT/BZ rows; just sanity-bound.
  EXPECT_GT(stats.tiles_processed.load(), 4);
  EXPECT_EQ(stats.wait_events.load(), 0);  // serial: everything is ready
}

TEST(RunStats, MultiThreadWaitsAreBounded) {
  RunStats stats;
  ConstStar2D<1> k(96, 80, default_star2d_weights<1>());
  k.init(cats::test::init2d);
  RunOptions opt;
  opt.scheme = Scheme::Cats2;
  opt.threads = 4;
  opt.bz_override = 8;
  opt.stats = &stats;
  run(k, 12, opt);
  // Waits may fire (oversubscribed host), but never more than once per tile
  // pair — the counter cannot exceed the number of diamonds processed.
  EXPECT_LE(stats.wait_events.load(), stats.tiles_processed.load());
}

TEST(RunStats, AccumulatesAcrossRuns) {
  RunStats stats;
  for (int r = 0; r < 3; ++r) {
    ConstStar2D<1> k(64, 48, default_star2d_weights<1>());
    k.init(cats::test::init2d);
    RunOptions opt;
    opt.scheme = Scheme::Cats1;
    opt.threads = 1;
    opt.tz_override = 4;
    opt.stats = &stats;
    run(k, 8, opt);
  }
  EXPECT_EQ(stats.tiles_processed.load(), 3 * 2);  // ceil(8/4) chunks x 3 runs
  EXPECT_EQ(stats.barriers.load(), 3 * 2);  // one barrier per chunk
  stats.reset();
  EXPECT_EQ(stats.tiles_processed.load(), 0);
  EXPECT_EQ(stats.barriers.load(), 0);
}
