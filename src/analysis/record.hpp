#pragma once
// Recording element/vector types for the symbolic footprint analyzer
// (src/analysis/footprint.hpp; DESIGN.md §15).
//
// The kernels are templated on their element type and pull all SIMD types
// from simd::vec_traits<T>, so instantiating a kernel with RecElem64 /
// RecElem32 swaps every vector load/store for a *recording* operation: the
// address, width and access kind flow to the installed AccessHook, no real
// arithmetic happens, and the instantiated body is otherwise the untouched
// production source — same loop structure, same span logic, same
// store-flavor selection. RecElem64 has sizeof(double) and RecVec64
// the production VecD width (RecElem32 likewise mirrors float/VecF), so
// grid pitches, alignment and vector coverage are bit-for-bit the
// production layout.

#include <cstddef>
#include <cstdint>

#include "simd/vecd.hpp"

namespace cats {
namespace analysis {

enum class AccessKind : std::uint8_t {
  Load,             ///< unaligned-capable vector/scalar load
  LoadAligned,      ///< load_aligned: must be naturally vector-aligned
  Store,            ///< plain (cached) store
  StoreAligned,     ///< store_aligned: must be naturally vector-aligned
};

/// Per-thread access sink. The footprint checker installs itself here for
/// the duration of a drive; with no hook installed, recording types are
/// inert (so recording kernels can be constructed/initialized freely).
struct AccessHook {
  void* ctx = nullptr;
  void (*fn)(void* ctx, const void* p, int bytes, AccessKind k) = nullptr;
};
// constinit: the hook is statically initialized, so no TLS init function
// exists to be called (or tested for) on each access. With a plain extern
// thread_local, GCC 12 under UBSan branches on the flags of the weak
// init-symbol test and reports a null AccessHook access that never happens.
// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
extern constinit thread_local AccessHook g_access_hook;

inline void record_access(const void* p, int bytes, AccessKind k) {
  if (g_access_hook.fn != nullptr) g_access_hook.fn(g_access_hook.ctx, p, bytes, k);
}

/// 8-byte recording element (fp64 layout twin). The payload keeps sizeof
/// identical to double — grid pitch/lead/alignment math is unchanged — and
/// the double conversions let untouched init/copy_result_to code compile.
struct RecElem64 {
  double v = 0.0;
  RecElem64() = default;
  // NOLINTNEXTLINE(google-explicit-constructor) — mirrors double's implicit role
  RecElem64(double d) : v(d) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator double() const { return v; }
};
static_assert(sizeof(RecElem64) == sizeof(double));

/// 4-byte recording element (fp32 layout twin): half the element stride,
/// double the lanes — the precision axis of the footprint matrix.
struct RecElem32 {
  float v = 0.0F;
  RecElem32() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  RecElem32(double d) : v(static_cast<float>(d)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator double() const { return static_cast<double>(v); }
};
static_assert(sizeof(RecElem32) == sizeof(float));

/// Recording twin of VecD/VecF at the production lane width W. Carries no
/// value; every memory operation reports its exact address span.
template <class E, int W>
struct RecVec {
  static constexpr int width = W;
  using elem_t = E;

  static RecVec load(const E* p) {
    record_access(p, W * static_cast<int>(sizeof(E)), AccessKind::Load);
    return {};
  }
  static RecVec load_aligned(const E* p) {
    record_access(p, W * static_cast<int>(sizeof(E)), AccessKind::LoadAligned);
    return {};
  }
  static RecVec broadcast(E) { return {}; }
  static RecVec zero() { return {}; }
  void store(E* p) const {
    record_access(p, W * static_cast<int>(sizeof(E)), AccessKind::Store);
  }
  void store_aligned(E* p) const {
    record_access(p, W * static_cast<int>(sizeof(E)), AccessKind::StoreAligned);
  }
  friend RecVec operator+(RecVec, RecVec) { return {}; }
  friend RecVec operator-(RecVec, RecVec) { return {}; }
  friend RecVec operator*(RecVec, RecVec) { return {}; }
  static RecVec fma(RecVec, RecVec, RecVec) { return {}; }
  double hsum() const { return 0.0; }
};

/// Recording twin of ScalarD/ScalarF (width-1 loads/stores).
template <class E>
using RecScalar = RecVec<E, 1>;

using RecVec64 = RecVec<RecElem64, simd::VecD::width>;
using RecScalar64 = RecScalar<RecElem64>;
using RecVec32 = RecVec<RecElem32, simd::VecF::width>;
using RecScalar32 = RecScalar<RecElem32>;

}  // namespace analysis
}  // namespace cats

namespace cats::simd {

/// Kernels instantiated with a recording element type pull recording SIMD
/// types through the same traits the production types come from — the
/// kernel source is untouched; only this mapping changes.
template <>
struct vec_traits<cats::analysis::RecElem64> {
  using Vec = cats::analysis::RecVec64;
  using Scalar = cats::analysis::RecScalar64;
};
template <>
struct vec_traits<cats::analysis::RecElem32> {
  using Vec = cats::analysis::RecVec32;
  using Scalar = cats::analysis::RecScalar32;
};

}  // namespace cats::simd
