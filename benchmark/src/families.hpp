#pragma once
// Kernel families the workloads drive, with the initial condition every
// workload shares: u(x, y, z, 0) = serve::init_value(seed, x, y, z) in
// global coordinates (rounded once to fp32 for the fp32 family), exactly as
// the stencil service seeds its jobs.

#include <cstdint>
#include <memory>

#include "core/options.hpp"
#include "kernels/banded2d.hpp"
#include "kernels/const2d.hpp"
#include "kernels/const2d_f32.hpp"
#include "kernels/const3d.hpp"
#include "serve/exec.hpp"

namespace catsbench {

inline double init_at(std::uint64_t seed, int x, int y, int z) {
  return cats::serve::init_value(seed, x, y, z);
}

/// Band coefficients of llc_banded2d at global (x, y): a seed-drawn center
/// weight and four neighbor weights whose row sum is 0.99, so thousands of
/// steps neither overflow nor decay into denormals.
inline double band_coeff(std::uint64_t seed, int b, int x, int y) {
  const std::uint64_t bseed = seed ^ 0xBA4DEDULL;
  const double center = 0.3 + 0.2 * init_at(bseed, x, y, 0);
  if (b == 0) return center;
  double w[4];
  double sum = 0.0;
  for (int i = 0; i < 4; ++i) {
    w[i] = 1.0 + 0.25 * init_at(bseed, x, y, i + 1);
    sum += w[i];
  }
  return (0.99 - center) * w[b - 1] / sum;
}

/// Traits shape shared by every family: the kernel type K, element type,
/// dimensionality, element arrays per point (two time buffers plus any
/// coefficient bands), a factory, initialization at a global offset
/// (parallel first touch when `opt` is given, serial otherwise) and row
/// access.
struct Const3d {
  using K = cats::ConstStar3D<1>;
  using Elem = double;
  static constexpr int kDims = 3;
  static constexpr int kFields = 2;
  static std::unique_ptr<K> make(const int n[3]) {
    return std::make_unique<K>(n[0], n[1], n[2],
                               cats::default_star3d_weights<1>());
  }
  static void init(K& k, const cats::RunOptions* opt, std::uint64_t seed,
                   const int o[3]) {
    auto f = [&](int x, int y, int z) {
      return init_at(seed, x + o[0], y + o[1], z + o[2]);
    };
    if (opt != nullptr) {
      k.parallel_init(*opt, f);
    } else {
      k.init(f);
    }
  }
  static const Elem* row(const K& k, int t, int y, int z) {
    return k.grid_at(t).row(y, z);
  }
};

template <class T>
struct Const2dOf {
  using K = cats::ConstStar2D<1, T>;
  using Elem = T;
  static constexpr int kDims = 2;
  static constexpr int kFields = 2;
  static std::unique_ptr<K> make(const int n[3]) {
    return std::make_unique<K>(n[0], n[1], cats::default_star2d_weights<1, T>());
  }
  static void init(K& k, const cats::RunOptions* opt, std::uint64_t seed,
                   const int o[3]) {
    auto f = [&](int x, int y) {
      return static_cast<T>(init_at(seed, x + o[0], y + o[1], 0));
    };
    if (opt != nullptr) {
      k.parallel_init(*opt, f);
    } else {
      k.init(f);
    }
  }
  static const Elem* row(const K& k, int t, int y, int) {
    return k.grid_at(t).row(y);
  }
};

using Const2d = Const2dOf<double>;
using Float2d = Const2dOf<float>;

struct Banded2d {
  using K = cats::Banded2D<1>;
  using Elem = double;
  static constexpr int kDims = 2;
  static constexpr int kFields = 2 + K::kBands;
  static std::unique_ptr<K> make(const int n[3]) {
    return std::make_unique<K>(n[0], n[1]);
  }
  static void init(K& k, const cats::RunOptions* opt, std::uint64_t seed,
                   const int o[3]) {
    auto f = [&](int x, int y) { return init_at(seed, x + o[0], y + o[1], 0); };
    if (opt != nullptr) {
      k.parallel_init(*opt, f);
    } else {
      k.init(f);
    }
    k.init_bands([&](int b, int x, int y) {
      return band_coeff(seed, b, x + o[0], y + o[1]);
    });
  }
  static const Elem* row(const K& k, int t, int y, int) {
    return k.grid_at(t).row(y);
  }
};

}  // namespace catsbench
