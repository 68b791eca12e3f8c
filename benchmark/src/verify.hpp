#pragma once
// Output verification for the library workloads.
//
// A full serial reference (core/reference.hpp) of a DRAM-sized grid costs
// tens of seconds, far more than a timed run. Jacobi stencils have a finite
// dependence cone, though: after T steps of a slope-s stencil a point depends
// only on initial values within distance s*T. So a small sub-grid that
// reproduces the initial condition (and, where it touches the domain edge,
// the boundary) computes exactly the same bits as the full run on every
// point more than s*T away from its artificial edges. Each workload checks a
// fixed set of such probe boxes — domain corners, edge-crossing boxes and
// seed-placed interior boxes — bit for bit against run_reference on the
// sub-grid. Where the cone covers the domain (llc_banded2d), the probe is
// the whole grid. On top of that, every rep's full-grid hash must equal the
// first rep's (a race anywhere shows up as a changed hash) and every value
// must be finite.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/reference.hpp"

namespace catsbench {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// splitmix64 finalizer: derives independent per-purpose values from the
/// workload seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the 8 bytes of `d`, identical to serve::fnv1a's per-element
/// step, so a region hashed here matches the service's grid checksum.
inline std::uint64_t fnv1a_step(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// Half-open box in global coordinates plus the sub-box whose values are
/// exact on a sub-grid covering `lo..hi`. Unused dimensions are [0, 1).
struct Probe {
  int lo[3] = {0, 0, 0}, hi[3] = {1, 1, 1};
  int elo[3] = {0, 0, 0}, ehi[3] = {1, 1, 1};

  std::int64_t points() const {
    return static_cast<std::int64_t>(hi[0] - lo[0]) * (hi[1] - lo[1]) *
           (hi[2] - lo[2]);
  }
};

/// Probe boxes for a dims-D domain `n` after T steps of a slope-`s` stencil.
/// Kinds per dimension: 0 = low edge, 1 = high edge, 2 = interior at a
/// seed-drawn position. A dimension no wider than the cone plus the exact
/// window is covered whole.
std::vector<Probe> make_probes(const int n[3], int dims, int T, int s,
                               std::uint64_t seed);

/// Row structure of a grid: rows are split across threads along the outer
/// dimension (z in 3D, y in 2D); each outer index holds `inner` rows.
template <class Tr>
int outer_extent(const typename Tr::K& k) {
  if constexpr (Tr::kDims == 3) {
    return k.depth();
  } else {
    return k.height();
  }
}
template <class Tr>
int inner_extent(const typename Tr::K& k) {
  if constexpr (Tr::kDims == 3) {
    return k.height();
  } else {
    return 1;
  }
}

/// Serial reference on `k` (run_reference), or the same per-row scalar body
/// swept by `threads` threads with a barrier after every timestep. Both
/// compute each point from the identical expression, so they agree bit for
/// bit; the threaded form only bounds the cost of whole-grid probes.
template <class Tr>
void reference_run(typename Tr::K& k, int T, int threads) {
  if (threads <= 1) {
    cats::run_reference(k, T);
    return;
  }
  const int outer = outer_extent<Tr>(k);
  const int inner = inner_extent<Tr>(k);
  std::barrier sync(threads);
  auto body = [&](int tid) {
    const int r0 = static_cast<int>(static_cast<std::int64_t>(outer) * tid / threads);
    const int r1 = static_cast<int>(static_cast<std::int64_t>(outer) * (tid + 1) / threads);
    for (int t = 1; t <= T; ++t) {
      for (int o = r0; o < r1; ++o)
        for (int i = 0; i < inner; ++i) {
          if constexpr (Tr::kDims == 3) {
            k.process_row_scalar(t, i, o, 0, k.width());
          } else {
            k.process_row_scalar(t, o, 0, k.width());
          }
        }
      sync.arrive_and_wait();
    }
  };
  std::vector<std::jthread> workers;
  for (int tid = 1; tid < threads; ++tid) workers.emplace_back(body, tid);
  body(0);
}

/// FNV-1a over the exact region of `p` (values widened to double, x
/// fastest) read from a grid whose origin sits at global `origin`.
template <class Tr>
std::uint64_t hash_exact(const typename Tr::K& k, int T, const Probe& p,
                         const int origin[3], std::uint64_t h = kFnvOffset) {
  for (int z = p.elo[2]; z < p.ehi[2]; ++z)
    for (int y = p.elo[1]; y < p.ehi[1]; ++y) {
      const auto* row = Tr::row(k, T, y - origin[1], z - origin[2]);
      for (int x = p.elo[0]; x < p.ehi[0]; ++x)
        h = fnv1a_step(h, static_cast<double>(row[x - origin[0]]));
    }
  return h;
}

struct GridHash {
  std::uint64_t hash = 0;
  bool finite = true;
};

/// Whole-grid hash of timestep T over `threads` fixed row chunks (64-bit
/// FNV per element, chunk hashes chained in order), plus a finiteness
/// check. Deterministic for a given grid and thread count.
template <class Tr>
GridHash grid_hash(const typename Tr::K& k, int T, int threads) {
  const int outer = outer_extent<Tr>(k);
  const int inner = inner_extent<Tr>(k);
  threads = std::max(1, std::min(threads, outer));
  std::vector<std::uint64_t> part(static_cast<std::size_t>(threads));
  std::vector<char> finite(static_cast<std::size_t>(threads), 1);
  auto body = [&](int tid) {
    const int r0 = static_cast<int>(static_cast<std::int64_t>(outer) * tid / threads);
    const int r1 = static_cast<int>(static_cast<std::int64_t>(outer) * (tid + 1) / threads);
    std::uint64_t h = kFnvOffset;
    bool ok = true;
    for (int o = r0; o < r1; ++o)
      for (int i = 0; i < inner; ++i) {
        const auto* row = Tr::kDims == 3 ? Tr::row(k, T, i, o) : Tr::row(k, T, o, 0);
        for (int x = 0; x < k.width(); ++x) {
          const double v = static_cast<double>(row[x]);
          ok = ok && std::isfinite(v);
          std::uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof bits);
          h = (h ^ bits) * kFnvPrime;
        }
      }
    part[static_cast<std::size_t>(tid)] = h;
    finite[static_cast<std::size_t>(tid)] = ok ? 1 : 0;
  };
  {
    std::vector<std::jthread> workers;
    for (int tid = 1; tid < threads; ++tid) workers.emplace_back(body, tid);
    body(0);
  }
  GridHash g{kFnvOffset, true};
  for (int tid = 0; tid < threads; ++tid) {
    g.hash = (g.hash ^ part[static_cast<std::size_t>(tid)]) * kFnvPrime;
    g.finite = g.finite && finite[static_cast<std::size_t>(tid)] != 0;
  }
  return g;
}

}  // namespace catsbench
