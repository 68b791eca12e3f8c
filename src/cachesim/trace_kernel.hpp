#pragma once
// Trace kernels: RowKernel-conforming wrappers that replay a stencil's
// memory footprint into a CacheModel instead of doing arithmetic. Running a
// scheme (single-threaded) over a trace kernel yields the scheme's simulated
// miss count, which the tests compare against the analytic traffic model
// (traffic_model.hpp) and against other schemes.

#include <cstdint>
#include <vector>

#include "cachesim/cache_model.hpp"
#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"

namespace cats {

/// Slope-S star-stencil footprint in 2D: reads rows y, y+-k of the source
/// buffer over [x0-S, x1+S) plus optional per-band coefficient rows, writes
/// the destination row. Buffer layout mirrors the real kernels (two parity
/// buffers with ghost rings) so addresses behave identically.
class TraceStar2D {
 public:
  TraceStar2D(int width, int height, int slope, int bands, CacheModel* cache)
      : s_(slope), bands_(bands), cache_(cache),
        buf_{Grid2D<double>(width, height, slope),
             Grid2D<double>(width, height, slope)} {
    coeff_.reserve(static_cast<std::size_t>(bands));
    for (int b = 0; b < bands; ++b) coeff_.emplace_back(width, height, slope);
  }

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int slope() const { return s_; }
  double flops_per_point() const { return 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return bands_; }

  void copy_result_to(std::vector<double>& out, int) const { out.clear(); }

  void process_row(int t, int y, int x0, int x1) {
    const Grid2D<double>& src = buf_[(t - 1) & 1];
    Grid2D<double>& dst = buf_[t & 1];
    const std::size_t len = static_cast<std::size_t>(x1 - x0 + 2 * s_) * 8;
    // Center row and the 2S neighbor rows of the source.
    touch(addr_of(src, x0 - s_, y), len);
    for (int k = 1; k <= s_; ++k) {
      touch(addr_of(src, x0 - s_, y - k), len);
      touch(addr_of(src, x0 - s_, y + k), len);
    }
    for (int b = 0; b < bands_; ++b) {
      touch(addr_of(coeff_[static_cast<std::size_t>(b)], x0, y),
            static_cast<std::size_t>(x1 - x0) * 8);
    }
    cache_->write_range(addr_of(dst, x0, y),
                        static_cast<std::size_t>(x1 - x0) * 8);
  }

  void process_row_scalar(int t, int y, int x0, int x1) {
    process_row(t, y, x0, x1);
  }

 private:
  static std::uint64_t addr_of(const Grid2D<double>& g, int x, int y) {
    return reinterpret_cast<std::uint64_t>(g.data()) + g.index(x, y) * 8;
  }
  void touch(std::uint64_t addr, std::size_t len) {
    cache_->access_range(addr, len);
  }

  int s_, bands_;
  CacheModel* cache_;
  Grid2D<double> buf_[2];
  std::vector<Grid2D<double>> coeff_;
};

/// 3D analogue of TraceStar2D.
class TraceStar3D {
 public:
  TraceStar3D(int width, int height, int depth, int slope, int bands,
              CacheModel* cache)
      : s_(slope), bands_(bands), cache_(cache),
        buf_{Grid3D<double>(width, height, depth, slope),
             Grid3D<double>(width, height, depth, slope)} {
    coeff_.reserve(static_cast<std::size_t>(bands));
    for (int b = 0; b < bands; ++b) coeff_.emplace_back(width, height, depth, slope);
  }

  int width() const { return buf_[0].width(); }
  int height() const { return buf_[0].height(); }
  int depth() const { return buf_[0].depth(); }
  int slope() const { return s_; }
  double flops_per_point() const { return 1.0; }
  double state_doubles_per_point() const { return 1.0; }
  double extra_cache_doubles_per_point() const { return bands_; }

  void copy_result_to(std::vector<double>& out, int) const { out.clear(); }

  void process_row(int t, int y, int z, int x0, int x1) {
    const Grid3D<double>& src = buf_[(t - 1) & 1];
    Grid3D<double>& dst = buf_[t & 1];
    const std::size_t len = static_cast<std::size_t>(x1 - x0 + 2 * s_) * 8;
    touch(addr_of(src, x0 - s_, y, z), len);
    for (int k = 1; k <= s_; ++k) {
      touch(addr_of(src, x0 - s_, y - k, z), len);
      touch(addr_of(src, x0 - s_, y + k, z), len);
      touch(addr_of(src, x0 - s_, y, z - k), len);
      touch(addr_of(src, x0 - s_, y, z + k), len);
    }
    for (int b = 0; b < bands_; ++b) {
      touch(addr_of(coeff_[static_cast<std::size_t>(b)], x0, y, z),
            static_cast<std::size_t>(x1 - x0) * 8);
    }
    cache_->write_range(addr_of(dst, x0, y, z),
                        static_cast<std::size_t>(x1 - x0) * 8);
  }

  void process_row_scalar(int t, int y, int z, int x0, int x1) {
    process_row(t, y, z, x0, x1);
  }

 private:
  static std::uint64_t addr_of(const Grid3D<double>& g, int x, int y, int z) {
    return reinterpret_cast<std::uint64_t>(g.data()) + g.index(x, y, z) * 8;
  }
  void touch(std::uint64_t addr, std::size_t len) {
    cache_->access_range(addr, len);
  }

  int s_, bands_;
  CacheModel* cache_;
  Grid3D<double> buf_[2];
  std::vector<Grid3D<double>> coeff_;
};

}  // namespace cats
