// Threading substrate tests: pool dispatch, barrier, progress cells.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "threads/barrier.hpp"
#include "threads/progress.hpp"
#include "threads/thread_pool.hpp"

using namespace cats;

TEST(ThreadPool, RunsEveryTidExactlyOnce) {
  for (int n : {1, 2, 4, 8}) {
    ThreadPool pool(n);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int r = 0; r < 50; ++r) {
    pool.run([&](int) { total++; });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([](int tid) {
        if (tid == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Pool must remain usable afterwards.
  std::atomic<int> n{0};
  pool.run([&](int) { n++; });
  EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPool, PropagatesCallerException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run([](int tid) {
        if (tid == 0) throw std::logic_error("caller");
      }),
      std::logic_error);
  std::atomic<int> n{0};
  pool.run([&](int) { n++; });
  EXPECT_EQ(n.load(), 2);
}

TEST(SpinBarrier, OrdersPhases) {
  const int n = 4, rounds = 200;
  ThreadPool pool(n);
  SpinBarrier bar(n);
  std::vector<std::atomic<int>> counters(rounds);
  std::atomic<bool> violation{false};
  pool.run([&](int) {
    for (int r = 0; r < rounds; ++r) {
      counters[static_cast<std::size_t>(r)]++;
      bar.arrive_and_wait();
      // After the barrier every participant must have incremented round r.
      if (counters[static_cast<std::size_t>(r)].load() != n) violation = true;
      bar.arrive_and_wait();
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST(SpinBarrier, SoloCrossingReportsNoWait) {
  SpinBarrier solo(1);
  for (int r = 0; r < 3; ++r) {
    const WaitResult w = solo.arrive_and_wait();
    EXPECT_EQ(w.spins, 0);
    EXPECT_EQ(w.ns, 0);
  }
}

TEST(SpinBarrier, BlockedCrossingReportsItsWait) {
  // Member 1 sleeps before arriving, so whichever member arrives first
  // spins while the other is away: exactly one crossing blocked, and its
  // WaitResult carries the idle time. The last arriver reports nothing.
  ThreadPool pool(2);
  SpinBarrier bar(2);
  std::vector<WaitResult> got(2);
  pool.run([&](int tid) {
    if (tid == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    got[static_cast<std::size_t>(tid)] = bar.arrive_and_wait();
  });
  int blocked = 0;
  for (const WaitResult& w : got) {
    if (w.spins == 0) {
      EXPECT_EQ(w.ns, 0);
      continue;
    }
    ++blocked;
    EXPECT_GT(w.ns, 0);
  }
  EXPECT_EQ(blocked, 1);
}

TEST(ProgressCell, WaitSeesPublishedValue) {
  ProgressCell cell;
  cell.publish(41);
  const WaitResult w = cell.wait_ge(41);  // must not block
  EXPECT_EQ(w.spins, 0);
  EXPECT_EQ(cell.wait_ge(7).spins, 0);  // a lower bound is already reached
}

TEST(ProgressCell, ProducerConsumerOrdering) {
  ThreadPool pool(2);
  ProgressCell cell;
  std::vector<int> data(1000, 0);
  std::atomic<bool> ok{true};
  pool.run([&](int tid) {
    if (tid == 0) {
      for (int i = 0; i < 1000; ++i) {
        data[static_cast<std::size_t>(i)] = i + 1;
        cell.publish(i);
      }
    } else {
      for (int i = 0; i < 1000; ++i) {
        cell.wait_ge(i);
        if (data[static_cast<std::size_t>(i)] != i + 1) ok = false;
      }
    }
  });
  EXPECT_TRUE(ok.load());
}
