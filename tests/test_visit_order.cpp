// Dependency-order property tests.
//
// A checking kernel stamps each cell with the last timestep computed for it
// and, before "computing" (x, y[, z], t), asserts that
//   * the cell itself has been advanced exactly through t-1, and
//   * every box-neighborhood input (|dx|,|dy|,|dz| <= s) has a stamp >= t-1.
// Running it under every scheme with multiple threads validates the whole
// synchronization design (split-tiling waits, diamond waits, barriers)
// and that each space-time point is computed exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/run.hpp"

using namespace cats;

namespace {

class OrderCheck2D {
 public:
  OrderCheck2D(int w, int h, int slope)
      : w_(w), h_(h), s_(slope),
        stamp_(static_cast<std::size_t>(w) * h) {
    for (auto& a : stamp_) a.store(0);
  }

  int width() const { return w_; }
  int height() const { return h_; }
  int slope() const { return s_; }
  double flops_per_point() const { return 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }
  void copy_result_to(std::vector<double>& out, int) const { out.clear(); }

  void process_row(int t, int y, int x0, int x1) {
    for (int x = x0; x < x1; ++x) {
      if (at(x, y).load(std::memory_order_acquire) != t - 1) own_bad_++;
      for (int dy = -s_; dy <= s_; ++dy)
        for (int dx = -s_; dx <= s_; ++dx) {
          const int nx = x + dx, ny = y + dy;
          if (nx < 0 || nx >= w_ || ny < 0 || ny >= h_) continue;
          if (at(nx, ny).load(std::memory_order_acquire) < t - 1) dep_bad_++;
        }
      at(x, y).store(t, std::memory_order_release);
      visits_++;
    }
  }
  void process_row_scalar(int t, int y, int x0, int x1) {
    process_row(t, y, x0, x1);
  }

  long own_violations() const { return own_bad_.load(); }
  long dep_violations() const { return dep_bad_.load(); }
  long visits() const { return visits_.load(); }

 private:
  std::atomic<int>& at(int x, int y) {
    return stamp_[static_cast<std::size_t>(y) * w_ + x];
  }

  int w_, h_, s_;
  std::vector<std::atomic<int>> stamp_;
  std::atomic<long> own_bad_{0}, dep_bad_{0}, visits_{0};
};

class OrderCheck3D {
 public:
  OrderCheck3D(int w, int h, int d, int slope)
      : w_(w), h_(h), d_(d), s_(slope),
        stamp_(static_cast<std::size_t>(w) * h * d) {
    for (auto& a : stamp_) a.store(0);
  }

  int width() const { return w_; }
  int height() const { return h_; }
  int depth() const { return d_; }
  int slope() const { return s_; }
  double flops_per_point() const { return 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }
  void copy_result_to(std::vector<double>& out, int) const { out.clear(); }

  void process_row(int t, int y, int z, int x0, int x1) {
    for (int x = x0; x < x1; ++x) {
      if (at(x, y, z).load(std::memory_order_acquire) != t - 1) own_bad_++;
      for (int dz = -s_; dz <= s_; ++dz)
        for (int dy = -s_; dy <= s_; ++dy)
          for (int dx = -s_; dx <= s_; ++dx) {
            const int nx = x + dx, ny = y + dy, nz = z + dz;
            if (nx < 0 || nx >= w_ || ny < 0 || ny >= h_ || nz < 0 || nz >= d_)
              continue;
            if (at(nx, ny, nz).load(std::memory_order_acquire) < t - 1)
              dep_bad_++;
          }
      at(x, y, z).store(t, std::memory_order_release);
      visits_++;
    }
  }
  void process_row_scalar(int t, int y, int z, int x0, int x1) {
    process_row(t, y, z, x0, x1);
  }

  long own_violations() const { return own_bad_.load(); }
  long dep_violations() const { return dep_bad_.load(); }
  long visits() const { return visits_.load(); }

 private:
  std::atomic<int>& at(int x, int y, int z) {
    return stamp_[(static_cast<std::size_t>(z) * h_ + y) * w_ + x];
  }

  int w_, h_, d_, s_;
  std::vector<std::atomic<int>> stamp_;
  std::atomic<long> own_bad_{0}, dep_bad_{0}, visits_{0};
};

static_assert(RowKernel2D<OrderCheck2D>);
static_assert(RowKernel3D<OrderCheck3D>);

}  // namespace

namespace {

class OrderCheck1D {
 public:
  OrderCheck1D(int w, int slope)
      : w_(w), s_(slope), stamp_(static_cast<std::size_t>(w)) {
    for (auto& a : stamp_) a.store(0);
  }

  int width() const { return w_; }
  int slope() const { return s_; }
  double flops_per_point() const { return 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return 0.0; }
  void copy_result_to(std::vector<double>& out, int) const { out.clear(); }

  void process_row(int t, int x0, int x1) {
    for (int x = x0; x < x1; ++x) {
      if (stamp_[static_cast<std::size_t>(x)].load(std::memory_order_acquire) !=
          t - 1)
        own_bad_++;
      for (int dx = -s_; dx <= s_; ++dx) {
        const int nx = x + dx;
        if (nx < 0 || nx >= w_) continue;
        if (stamp_[static_cast<std::size_t>(nx)].load(
                std::memory_order_acquire) < t - 1)
          dep_bad_++;
      }
      stamp_[static_cast<std::size_t>(x)].store(t, std::memory_order_release);
      visits_++;
    }
  }
  void process_row_scalar(int t, int x0, int x1) { process_row(t, x0, x1); }

  long own_violations() const { return own_bad_.load(); }
  long dep_violations() const { return dep_bad_.load(); }
  long visits() const { return visits_.load(); }

 private:
  int w_, s_;
  std::vector<std::atomic<int>> stamp_;
  std::atomic<long> own_bad_{0}, dep_bad_{0}, visits_{0};
};

static_assert(RowKernel1D<OrderCheck1D>);

}  // namespace

TEST(VisitOrder1D, AllSchemesRespectDependencies) {
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::PlutoLike}) {
    for (int threads : {1, 4}) {
      const int W = 211, T = 15;
      OrderCheck1D k(W, 2);
      RunOptions opt;
      opt.scheme = s;
      opt.threads = threads;
      opt.cache_bytes = 2 * 1024;
      run(k, T, opt);
      EXPECT_EQ(k.own_violations(), 0) << scheme_name(s) << " t=" << threads;
      EXPECT_EQ(k.dep_violations(), 0) << scheme_name(s) << " t=" << threads;
      EXPECT_EQ(k.visits(), static_cast<long>(W) * T);
    }
  }
}

TEST(VisitOrder2D, AllSchemesRespectDependencies) {
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2,
                   Scheme::PlutoLike}) {
    for (int threads : {1, 4}) {
      for (int slope : {1, 2}) {
        const int W = 53, H = 41, T = 12;
        OrderCheck2D k(W, H, slope);
        RunOptions opt;
        opt.scheme = s;
        opt.threads = threads;
        opt.cache_bytes = 8 * 1024;  // force many chunks / small diamonds
        run(k, T, opt);
        EXPECT_EQ(k.own_violations(), 0)
            << scheme_name(s) << " threads=" << threads << " s=" << slope;
        EXPECT_EQ(k.dep_violations(), 0)
            << scheme_name(s) << " threads=" << threads << " s=" << slope;
        EXPECT_EQ(k.visits(), static_cast<long>(W) * H * T);
      }
    }
  }
}

TEST(VisitOrder3D, AllSchemesRespectDependencies) {
  for (Scheme s : {Scheme::Naive, Scheme::Cats1, Scheme::Cats2, Scheme::Cats3,
                   Scheme::PlutoLike}) {
    for (int threads : {1, 4}) {
      const int W = 18, H = 15, D = 17, T = 8;
      OrderCheck3D k(W, H, D, 1);
      RunOptions opt;
      opt.scheme = s;
      opt.threads = threads;
      opt.cache_bytes = 8 * 1024;
      run(k, T, opt);
      EXPECT_EQ(k.own_violations(), 0) << scheme_name(s) << " t=" << threads;
      EXPECT_EQ(k.dep_violations(), 0) << scheme_name(s) << " t=" << threads;
      EXPECT_EQ(k.visits(), static_cast<long>(W) * H * D * T);
    }
  }
}

TEST(VisitOrder2D, ForcedTinyTilesStillOrdered) {
  const int W = 31, H = 29, T = 10;
  for (int tz : {1, 2, 3}) {
    OrderCheck2D k(W, H, 1);
    RunOptions opt;
    opt.scheme = Scheme::Cats1;
    opt.threads = 4;
    opt.tz_override = tz;
    run(k, T, opt);
    EXPECT_EQ(k.dep_violations(), 0) << "tz=" << tz;
    EXPECT_EQ(k.visits(), static_cast<long>(W) * H * T);
  }
  for (int bz : {2, 3, 5}) {
    OrderCheck2D k(W, H, 1);
    RunOptions opt;
    opt.scheme = Scheme::Cats2;
    opt.threads = 4;
    opt.bz_override = bz;
    run(k, T, opt);
    EXPECT_EQ(k.dep_violations(), 0) << "bz=" << bz;
    EXPECT_EQ(k.visits(), static_cast<long>(W) * H * T);
  }
}

TEST(VisitOrder3D, Cats3TinyTilesStillOrdered) {
  const int W = 14, H = 12, D = 13, T = 7;
  for (int bz : {2, 4}) {
    for (int bx : {2, 5}) {
      OrderCheck3D k(W, H, D, 1);
      RunOptions opt;
      opt.scheme = Scheme::Cats3;
      opt.threads = 4;
      opt.bz_override = bz;
      opt.bx_override = bx;
      run(k, T, opt);
      EXPECT_EQ(k.own_violations(), 0) << "bz=" << bz << " bx=" << bx;
      EXPECT_EQ(k.dep_violations(), 0) << "bz=" << bz << " bx=" << bx;
      EXPECT_EQ(k.visits(), static_cast<long>(W) * H * D * T);
    }
  }
}
