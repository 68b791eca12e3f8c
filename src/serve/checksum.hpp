#pragma once
// Checksums of served grids: FNV-1a-64 over the bytes of each value as a
// double, in copy_result_to order (x fastest, then y, then z).
//
// The checksum is computed straight from the kernel's final grid rows
// (GridDigest, digest_rows), so a served job never copies its grid just to
// hash it. fnv1a_bytes is exact FNV-1a; built with AVX-512 VBMI/BW/DQ and
// PCLMUL it runs the byte chain as bit-sliced SIMD (DESIGN.md §13), and
// otherwise it is the scalar loop fnv1a_scalar, which also serves as the
// tests' reference.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/grid2d.hpp"
#include "grid/grid3d.hpp"

namespace cats::serve {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;  // 2^40 + 0x1B3

/// FNV-1a-64 over n bytes, continuing from state h (the definition).
inline std::uint64_t fnv1a_scalar(std::uint64_t h, const unsigned char* p,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// FNV-1a-64 over the bytes of a double vector (the served checksum of a
/// grid copied out with copy_result_to).
std::uint64_t fnv1a(const std::vector<double>& v);

/// Same value as fnv1a_scalar(h, p, n) for every input.
std::uint64_t fnv1a_bytes(std::uint64_t h, const void* p, std::size_t n);

/// The fnv1a_bytes body this build compiled: "avx512vbmi+clmul" or "scalar".
const char* fnv1a_path();

/// Streaming digest of a job's final grid, fed one interior row at a time in
/// copy_result_to order. It keeps the FNV-1a checksum, the value at linear
/// index points/2 (JobResult::sample) and, only when `out_grid` is
/// non-null, a copy of the grid widened to double.
class GridDigest {
 public:
  GridDigest(std::int64_t points, std::vector<double>* out_grid);

  void row(const double* p, int n);
  /// fp32 rows are widened to double first, exactly as copy_result_to does.
  void row(const float* p, int n);

  std::uint64_t checksum() const { return h_; }
  double sample() const { return sample_; }

 private:
  template <class T>
  void note(const T* p, int n);

  std::uint64_t h_ = kFnv1aOffset;
  std::int64_t seen_ = 0;
  std::int64_t mid_;
  double sample_ = 0.0;
  std::vector<double>* out_;
};

/// Feed the interior rows of 2D slices y in [y0, y1) to `d`.
template <class T>
void digest_rows(const Grid2D<T>& g, int y0, int y1, GridDigest& d) {
  for (int y = y0; y < y1; ++y) d.row(g.row(y), g.width());
}

/// Feed the interior rows of 3D planes z in [z0, z1) to `d`.
template <class T>
void digest_rows(const Grid3D<T>& g, int z0, int z1, GridDigest& d) {
  for (int z = z0; z < z1; ++z)
    for (int y = 0; y < g.height(); ++y) d.row(g.row(y, z), g.width());
}

}  // namespace cats::serve
