#include "verify.hpp"

namespace catsbench {

namespace {

/// Exact window width per probe dimension.
constexpr int kWindow = 16;

}  // namespace

std::vector<Probe> make_probes(const int n[3], int dims, int T, int s,
                               std::uint64_t seed) {
  // Corners, boxes crossing edges in mixed directions, and interior boxes.
  static constexpr int kinds3[][3] = {{0, 0, 0}, {1, 1, 1}, {0, 2, 1},
                                      {1, 0, 2}, {2, 1, 0}, {2, 2, 2},
                                      {2, 2, 2}};
  static constexpr int kinds2[][3] = {{0, 0, 0}, {1, 1, 0}, {0, 1, 0},
                                      {1, 0, 0}, {2, 0, 0}, {1, 2, 0},
                                      {2, 2, 0}, {2, 2, 0}};
  const int count = dims == 3 ? 7 : 8;
  const std::int64_t reach = static_cast<std::int64_t>(s) * T;
  std::vector<Probe> out;
  std::uint64_t rng = mix64(seed ^ 0x50524F4245ULL);
  for (int i = 0; i < count; ++i) {
    Probe p;
    bool whole = true;
    for (int d = 0; d < dims; ++d) {
      const int kind = dims == 3 ? kinds3[i][d] : kinds2[i][d];
      if (n[d] <= 2 * reach + kWindow + 2) {
        p.lo[d] = p.elo[d] = 0;
        p.hi[d] = p.ehi[d] = n[d];
        continue;
      }
      whole = false;
      const int r = static_cast<int>(reach);
      int e0 = 0;
      if (kind == 0) {
        e0 = 0;
      } else if (kind == 1) {
        e0 = n[d] - kWindow;
      } else {
        rng = mix64(rng);
        const std::uint64_t span =
            static_cast<std::uint64_t>(n[d] - 2 * r - kWindow + 1);
        e0 = r + static_cast<int>(rng % span);
      }
      p.elo[d] = e0;
      p.ehi[d] = e0 + kWindow;
      p.lo[d] = std::max(0, e0 - r);
      p.hi[d] = std::min(n[d], e0 + kWindow + r);
    }
    out.push_back(p);
    if (whole) break;  // the cone covers the domain: one whole-grid probe
  }
  return out;
}

}  // namespace catsbench
