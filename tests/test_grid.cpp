// Grid substrate tests: alignment, indexing, ghost handling, and the
// huge-page mapping behind buffers of kHugeMinBytes and more.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"
#include "kernels/const2d_f32.hpp"
#include "kernels/const3d.hpp"

using namespace cats;

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kHugePage = 2 * kMiB;

std::uintptr_t addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

/// Bytes of [lo, hi) that /proc/self/maps lists as mapped.
std::size_t mapped_bytes(std::uintptr_t lo, std::uintptr_t hi) {
  std::ifstream maps("/proc/self/maps");
  std::size_t total = 0;
  for (std::string line; std::getline(maps, line);) {
    unsigned long a = 0, b = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &a, &b) != 2) continue;
    const std::uintptr_t s = std::max<std::uintptr_t>(a, lo);
    const std::uintptr_t e = std::min<std::uintptr_t>(b, hi);
    if (s < e) total += e - s;
  }
  return total;
}

/// The bracketed entry of the THP setting, e.g. "madvise" out of
/// "always [madvise] never"; "unknown" when the file is unreadable.
std::string thp_mode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(f, line);
  const auto a = line.find('['), b = line.find(']');
  return a != std::string::npos && b > a ? line.substr(a + 1, b - a - 1)
                                         : "unknown";
}

/// AnonHugePages (kB) of the mapping in /proc/self/smaps that contains p.
long anon_huge_kb(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    unsigned long a = 0, b = 0;
    char dash = 0;
    if (std::sscanf(line.c_str(), "%lx%c%lx", &a, &dash, &b) == 3 &&
        dash == '-') {
      inside = a <= addr(p) && addr(p) < b;
    } else if (inside && line.rfind("AnonHugePages:", 0) == 0) {
      long kb = -1;
      std::sscanf(line.c_str(), "AnonHugePages: %ld", &kb);
      return kb;
    }
  }
  return -1;
}

}  // namespace

TEST(AlignedBuffer, IsAlignedAndSized) {
  AlignedBuffer<double> b(1001);
  EXPECT_EQ(b.size(), 1001u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kAlign, 0u);
}

TEST(AlignedBuffer, EmptyIsSafe) {
  AlignedBuffer<double> b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, SizeOverflowThrows) {
  EXPECT_THROW((void)AlignedBuffer<double>(SIZE_MAX / 4), std::bad_alloc);
  EXPECT_THROW((void)AlignedBuffer<double>(SIZE_MAX / sizeof(double)),
               std::bad_alloc);
  EXPECT_THROW((void)AlignedBuffer<float>(SIZE_MAX / sizeof(float)),
               std::bad_alloc);
  // pitch, rows and planes are 2^30 each: slice * planes wraps to 0.
  constexpr int k2to30 = 1 << 30;
  EXPECT_THROW((void)Grid3D<double>(k2to30 - 9, k2to30 - 2, k2to30 - 2, 1,
                                    kDeferFirstTouch),
               std::bad_alloc);
}

TEST(AlignedBuffer, LargeBufferIsAlignedSizedAndWritable) {
  const std::size_t n = 40 * kMiB / sizeof(double);
  AlignedBuffer<double> b(n);
  ASSERT_NE(b.data(), nullptr);
  EXPECT_EQ(b.size(), n);
  EXPECT_EQ(addr(b.data()) % kAlign, 0u);
  EXPECT_EQ(mapped_bytes(addr(b.data()), addr(b.data() + n)), n * sizeof(double));
  b[0] = 1.0;
  b[n - 1] = 2.0;
  EXPECT_EQ(b[0], 1.0);
  EXPECT_EQ(b[n - 1], 2.0);
}

TEST(AlignedBuffer, LargeBufferMovesKeepOneOwnerAndUnmap) {
  const std::size_t n = 40 * kMiB / sizeof(double);
  const std::size_t bytes = n * sizeof(double);
  AlignedBuffer<double> a(n);
  double* const p = a.data();
  a[n - 1] = 3.0;

  AlignedBuffer<double> b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[n - 1], 3.0);

  AlignedBuffer<double> c(n);
  double* const q = c.data();
  c = std::move(b);  // releases c's own mapping, adopts b's
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c[n - 1], 3.0);
  EXPECT_EQ(mapped_bytes(addr(q), addr(q) + bytes), 0u);
  EXPECT_EQ(mapped_bytes(addr(p), addr(p) + bytes), bytes);

  c = AlignedBuffer<double>();
  EXPECT_EQ(mapped_bytes(addr(p), addr(p) + bytes), 0u);
}

TEST(AlignedBuffer, LargeBuffersOfOneThreadAreStaggered) {
  std::vector<AlignedBuffer<char>> bufs;
  bufs.reserve(16);
  std::set<std::uintptr_t> offsets;
  for (std::size_t i = 0; i < 16; ++i) {
    bufs.emplace_back(kHugeMinBytes + i * 1000);
    offsets.insert(addr(bufs.back().data()) % kHugePage);
  }
  EXPECT_EQ(offsets.size(), 16u);
}

// Constructed only, never initialised: no page of these grids is touched.
TEST(AlignedBuffer, KernelTimeBuffersAreStaggered) {
  auto check = [](const auto& g0, const auto& g1, const char* what) {
    ASSERT_GE(g0.size() * sizeof(*g0.data()), kHugeMinBytes) << what;
    EXPECT_NE(addr(g0.data()) % kHugePage, addr(g1.data()) % kHugePage)
        << what;
  };
  const ConstStar2D<1> c2(2048, 2100, {});
  check(c2.grid_at(0), c2.grid_at(1), "ConstStar2D<1> 2048x2100");
  const FloatStar2D<1> f2(4096, 2100, {});
  check(f2.grid_at(0), f2.grid_at(1), "FloatStar2D<1> 4096x2100");
  const ConstStar3D<1> c3(208, 208, 208, {});
  check(c3.grid_at(0), c3.grid_at(1), "ConstStar3D<1> 208^3");
}

// Informational: huge-page backing depends on the host's THP setting and
// on fragmentation, so it is logged, not asserted.
TEST(AlignedBuffer, LogsHugePageBacking) {
  AlignedBuffer<char> b(64 * kMiB);
  std::memset(b.data(), 1, b.size());
  std::printf("[   INFO   ] THP mode: %s; AnonHugePages of a touched 64 MiB "
              "buffer: %ld kB\n",
              thp_mode().c_str(), anon_huge_kb(b.data()));
  EXPECT_EQ(b[b.size() - 1], 1);
}

#if defined(__SANITIZE_ADDRESS__)
// The mapping bypasses ASan's allocator; the poisoned tail must still trap.
// 40 MiB plus one element, so the write lands inside the last mapped page
// instead of past the mapping.
TEST(AlignedBufferDeathTest, LargeBufferOverrunTrapsUnderAsan) {
  AlignedBuffer<double> b(40 * kMiB / sizeof(double) + 1);
  EXPECT_DEATH(
      {
        volatile double* p = b.data();
        p[b.size()] = 1.0;
      },
      "use-after-poison");
}
#endif

TEST(Grid2D, RowStartsAligned) {
  for (int ghost : {0, 1, 2, 3}) {
    Grid2D<double> g(37, 11, ghost);
    for (int y = -ghost; y < g.height() + ghost; ++y) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(y)) % kAlign, 0u)
          << "ghost=" << ghost << " y=" << y;
    }
  }
}

TEST(Grid2D, IndexingRoundTrips) {
  Grid2D<double> g(13, 7, 2);
  double v = 0.0;
  for (int y = -2; y < 9; ++y)
    for (int x = -2; x < 15; ++x) g.at(x, y) = v += 1.0;
  v = 0.0;
  for (int y = -2; y < 9; ++y)
    for (int x = -2; x < 15; ++x) EXPECT_EQ(g.at(x, y), v += 1.0);
}

TEST(Grid2D, GhostFillLeavesInterior) {
  Grid2D<double> g(8, 5, 2);
  g.fill_interior([](int x, int y) { return x * 100.0 + y; });
  g.fill_ghost(-1.0);
  for (int y = -2; y < 7; ++y)
    for (int x = -2; x < 10; ++x) {
      if (x >= 0 && x < 8 && y >= 0 && y < 5)
        EXPECT_EQ(g.at(x, y), x * 100.0 + y);
      else
        EXPECT_EQ(g.at(x, y), -1.0);
    }
}

TEST(Grid2D, RowPointerMatchesAt) {
  Grid2D<double> g(16, 4, 1);
  g.fill_interior([](int x, int y) { return x + 1000.0 * y; });
  for (int y = 0; y < 4; ++y) {
    const double* r = g.row(y);
    for (int x = -1; x < 17; ++x) EXPECT_EQ(r[x], g.at(x, y));
  }
}

TEST(Grid3D, RowStartsAlignedAndIndexed) {
  Grid3D<double> g(19, 5, 4, 2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(0, 0)) % kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(3, 2)) % kAlign, 0u);
  g.fill_interior([](int x, int y, int z) { return x + 100.0 * y + 10000.0 * z; });
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 19; ++x)
        EXPECT_EQ(g.row(y, z)[x], x + 100.0 * y + 10000.0 * z);
}

TEST(Grid3D, GhostShell) {
  Grid3D<double> g(4, 3, 2, 1);
  g.fill(7.0);
  g.fill_ghost(0.0);
  EXPECT_EQ(g.at(0, 0, 0), 7.0);
  EXPECT_EQ(g.at(-1, 0, 0), 0.0);
  EXPECT_EQ(g.at(4, 2, 1), 0.0);
  EXPECT_EQ(g.at(0, -1, 0), 0.0);
  EXPECT_EQ(g.at(0, 0, 2), 0.0);
  EXPECT_EQ(g.at(3, 2, 1), 7.0);
}

TEST(Grid2D, FloatStorageAlignedAndIndexed) {
  Grid2D<float> g(21, 6, 2);
  for (int y = -2; y < 8; ++y) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(y)) % kAlign, 0u);
  }
  g.fill_interior([](int x, int y) { return static_cast<float>(x - y); });
  EXPECT_EQ(g.at(20, 5), 15.0f);
  EXPECT_EQ(g.at(0, 0), 0.0f);
}

TEST(Grid2D, InitialZero) {
  Grid2D<double> g(5, 5, 1);
  for (int y = -1; y < 6; ++y)
    for (int x = -1; x < 6; ++x) EXPECT_EQ(g.at(x, y), 0.0);
}
