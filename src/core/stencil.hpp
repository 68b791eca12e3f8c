#pragma once
// Kernel concepts: the contract between iteration schemes and stencil math.
//
// A *row kernel* owns its fields (grids, coefficient arrays, double buffers)
// and computes one contiguous unit-stride run of points at a given timestep:
//
//   k.process_row(t, y, x0, x1)        (2D)
//   k.process_row(t, y, z, x0, x1)     (3D)
//
// computes interior points (x in [x0,x1), y[, z]) at timestep t from values
// at t-1 (kernels select src/dst by parity of t). Schemes guarantee the call
// order respects slope-s Jacobi dependencies; any scheme can therefore drive
// any kernel. process_row is the hand-vectorized path; process_row_scalar is
// the plain-C path used by the PluTo-like baseline (the paper's PluTo code is
// auto-vectorized only).

#include <concepts>
#include <cstddef>
#include <vector>

namespace cats {

template <class K>
concept RowKernelCommon = requires(const K ck, K k, std::vector<double>& out,
                                   int T) {
  { ck.slope() } -> std::convertible_to<int>;
  { ck.flops_per_point() } -> std::convertible_to<double>;
  /// Field doubles per spatial point that a wavefront keeps live (1 for a
  /// scalar Jacobi field, 3 for FDTD's three fields). Scales CS in Eq. 1/2.
  { ck.state_doubles_per_point() } -> std::convertible_to<double>;
  /// Additional cache doubles per point, e.g. NS matrix bands; the paper
  /// replaces CS by CS + NS for banded matrices.
  { ck.extra_cache_doubles_per_point() } -> std::convertible_to<double>;
  /// Dump the timestep-T result (all fields) for verification; T selects the
  /// live double-buffer parity.
  k.copy_result_to(out, T);
};

template <class K>
concept RowKernel1D = RowKernelCommon<K> &&
    requires(const K ck, K k, int t, int x0, int x1) {
      { ck.width() } -> std::convertible_to<int>;
      k.process_row(t, x0, x1);
      k.process_row_scalar(t, x0, x1);
    } && !requires(const K ck) { ck.height(); };

template <class K>
concept RowKernel2D = RowKernelCommon<K> &&
    requires(const K ck, K k, int t, int y, int x0, int x1) {
      { ck.width() } -> std::convertible_to<int>;
      { ck.height() } -> std::convertible_to<int>;
      k.process_row(t, y, x0, x1);
      k.process_row_scalar(t, y, x0, x1);
    };

template <class K>
concept RowKernel3D = RowKernelCommon<K> &&
    requires(const K ck, K k, int t, int y, int z, int x0, int x1) {
      { ck.width() } -> std::convertible_to<int>;
      { ck.height() } -> std::convertible_to<int>;
      { ck.depth() } -> std::convertible_to<int>;
      k.process_row(t, y, z, x0, x1);
      k.process_row_scalar(t, y, z, x0, x1);
    };

/// Effective cache-share factor CS' (elements that must stay resident per
/// wavefront point): CS' = state * (2s + slack) + extra.
template <class K>
double effective_cs(const K& k, double cs_slack) {
  return k.state_doubles_per_point() * (2.0 * k.slope() + cs_slack) +
         k.extra_cache_doubles_per_point();
}

/// Kernels with same-timestep spatial dependencies (Gauss-Seidel-style
/// in-place updates) declare `static constexpr bool sequential_spatial_deps
/// = true`. Such kernels are legal only under traversals whose order
/// dominates row-major within each timestep — the serial CATS1 wavefront or
/// the serial naive sweep; run() enforces this (one thread, no split tiles).
template <class K>
constexpr bool kernel_sequential_deps() {
  if constexpr (requires { K::sequential_spatial_deps; }) {
    return K::sequential_spatial_deps;
  } else {
    return false;
  }
}

/// Bytes per stored element — the paper lists "the memory size of a data
/// type" among CATS's parameters. Kernels with non-double storage expose an
/// element_bytes() member; everything else defaults to sizeof(double).
template <class K>
double kernel_element_bytes(const K&) {
  return 8.0;
}

template <class K>
  requires requires(const K k) {
    { k.element_bytes() } -> std::convertible_to<double>;
  }
double kernel_element_bytes(const K& k) {
  return k.element_bytes();
}

}  // namespace cats
