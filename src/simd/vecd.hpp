#pragma once
// Double-precision SIMD vector wrapper.
//
// The paper hand-vectorizes the inner stencil loop with SSE2 so that the
// kernel keeps up with L2 bandwidth ("the vectorization ensures that the
// kernel remains memory-bound but cannot accelerate the execution beyond
// that"). We wrap the widest vector the compile target offers (SSE2 is the
// guaranteed x86-64 baseline, AVX2/AVX-512 when -march allows) behind one
// type so kernels are written once.

#include <cmath>
#include <cstddef>

#if defined(__AVX512F__)
#include <immintrin.h>
#elif defined(__AVX2__) || defined(__AVX__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(__x86_64__)
#include <emmintrin.h>
#define CATS_SSE2_ONLY 1
#else
#define CATS_SCALAR_ONLY 1
#endif

namespace cats::simd {

#if defined(__AVX512F__)

inline constexpr int kWidth = 8;
struct VecD {
  static constexpr int width = 8;
  using elem_t = double;
  __m512d v;
  static VecD load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static VecD load_aligned(const double* p) { return {_mm512_load_pd(p)}; }
  static VecD broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static VecD zero() { return {_mm512_setzero_pd()}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  void store_aligned(double* p) const { _mm512_store_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm512_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  double hsum() const { return _mm512_reduce_add_pd(v); }
};
inline constexpr const char* kIsaName = "AVX-512F";

#elif defined(__AVX2__) || defined(__AVX__)

inline constexpr int kWidth = 4;
struct VecD {
  static constexpr int width = 4;
  using elem_t = double;
  __m256d v;
  static VecD load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecD load_aligned(const double* p) { return {_mm256_load_pd(p)}; }
  static VecD broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void store_aligned(double* p) const { _mm256_store_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) {
#if defined(__FMA__)
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
    return a * b + c;
#endif
  }
  double hsum() const {
    __m128d lo = _mm256_castpd256_pd128(v);
    __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
  }
};
inline constexpr const char* kIsaName = "AVX2";

#elif defined(CATS_SSE2_ONLY)

inline constexpr int kWidth = 2;
struct VecD {
  static constexpr int width = 2;
  using elem_t = double;
  __m128d v;
  static VecD load(const double* p) { return {_mm_loadu_pd(p)}; }
  static VecD load_aligned(const double* p) { return {_mm_load_pd(p)}; }
  static VecD broadcast(double x) { return {_mm_set1_pd(x)}; }
  static VecD zero() { return {_mm_setzero_pd()}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  void store_aligned(double* p) const { _mm_store_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) { return a * b + c; }
  double hsum() const {
    return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
  }
};
inline constexpr const char* kIsaName = "SSE2";

#else  // portable fallback

inline constexpr int kWidth = 1;
struct VecD {
  static constexpr int width = 1;
  using elem_t = double;
  double v;
  static VecD load(const double* p) { return {*p}; }
  static VecD load_aligned(const double* p) { return {*p}; }
  static VecD broadcast(double x) { return {x}; }
  static VecD zero() { return {0.0}; }
  void store(double* p) const { *p = v; }
  void store_aligned(double* p) const { *p = v; }
  friend VecD operator+(VecD a, VecD b) { return {a.v + b.v}; }
  friend VecD operator-(VecD a, VecD b) { return {a.v - b.v}; }
  friend VecD operator*(VecD a, VecD b) { return {a.v * b.v}; }
  static VecD fma(VecD a, VecD b, VecD c) { return {a.v * b.v + c.v}; }
  double hsum() const { return v; }
};
inline constexpr const char* kIsaName = "scalar";

#endif

// Single-precision vector with the same interface (CATS takes "the memory
// size of a data type" as a parameter — float doubles every wavefront's
// reach, which Eq. 1/2 account for via the kernel's element_bytes()).
#if defined(__AVX512F__)

struct VecF {
  static constexpr int width = 16;
  using elem_t = float;
  __m512 v;
  static VecF load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static VecF load_aligned(const float* p) { return {_mm512_load_ps(p)}; }
  static VecF broadcast(float x) { return {_mm512_set1_ps(x)}; }
  static VecF zero() { return {_mm512_setzero_ps()}; }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  void store_aligned(float* p) const { _mm512_store_ps(p, v); }
  friend VecF operator+(VecF a, VecF b) { return {_mm512_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm512_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm512_mul_ps(a.v, b.v)}; }
  static VecF fma(VecF a, VecF b, VecF c) {
    return {_mm512_fmadd_ps(a.v, b.v, c.v)};
  }
};

#elif defined(__AVX2__) || defined(__AVX__)

struct VecF {
  static constexpr int width = 8;
  using elem_t = float;
  __m256 v;
  static VecF load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static VecF load_aligned(const float* p) { return {_mm256_load_ps(p)}; }
  static VecF broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static VecF zero() { return {_mm256_setzero_ps()}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  void store_aligned(float* p) const { _mm256_store_ps(p, v); }
  friend VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
  static VecF fma(VecF a, VecF b, VecF c) {
#if defined(__FMA__)
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
    return a * b + c;
#endif
  }
};

#elif defined(CATS_SSE2_ONLY)

struct VecF {
  static constexpr int width = 4;
  using elem_t = float;
  __m128 v;
  static VecF load(const float* p) { return {_mm_loadu_ps(p)}; }
  static VecF load_aligned(const float* p) { return {_mm_load_ps(p)}; }
  static VecF broadcast(float x) { return {_mm_set1_ps(x)}; }
  static VecF zero() { return {_mm_setzero_ps()}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }
  void store_aligned(float* p) const { _mm_store_ps(p, v); }
  friend VecF operator+(VecF a, VecF b) { return {_mm_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm_mul_ps(a.v, b.v)}; }
  static VecF fma(VecF a, VecF b, VecF c) { return a * b + c; }
};

#else

struct VecF {
  static constexpr int width = 1;
  using elem_t = float;
  float v;
  static VecF load(const float* p) { return {*p}; }
  static VecF load_aligned(const float* p) { return {*p}; }
  static VecF broadcast(float x) { return {x}; }
  static VecF zero() { return {0.0f}; }
  void store(float* p) const { *p = v; }
  void store_aligned(float* p) const { *p = v; }
  friend VecF operator+(VecF a, VecF b) { return {a.v + b.v}; }
  friend VecF operator-(VecF a, VecF b) { return {a.v - b.v}; }
  friend VecF operator*(VecF a, VecF b) { return {a.v * b.v}; }
  static VecF fma(VecF a, VecF b, VecF c) { return {a.v * b.v + c.v}; }
};

#endif

/// Scalar float twin of VecF (see ScalarD below for the rationale).
struct ScalarF {
  static constexpr int width = 1;
  float v;
  static ScalarF load(const float* p) { return {*p}; }
  static ScalarF load_aligned(const float* p) { return {*p}; }
  static ScalarF broadcast(float x) { return {x}; }
  static ScalarF zero() { return {0.0f}; }
  void store(float* p) const { *p = v; }
  void store_aligned(float* p) const { *p = v; }
  friend ScalarF operator+(ScalarF a, ScalarF b) { return {a.v + b.v}; }
  friend ScalarF operator-(ScalarF a, ScalarF b) { return {a.v - b.v}; }
  friend ScalarF operator*(ScalarF a, ScalarF b) { return {a.v * b.v}; }
  static ScalarF fma(ScalarF a, ScalarF b, ScalarF c) {
#if defined(__FMA__) || defined(__AVX512F__)
    return {std::fmaf(a.v, b.v, c.v)};
#else
    return {a.v * b.v + c.v};
#endif
  }
};

/// Scalar twin of VecD with the identical interface. Kernels implement their
/// inner loop once, templated on the vector type; instantiating with ScalarD
/// yields the scalar path. Because both instantiations execute the same
/// operation tree per lane (and the build disables FP contraction), the SIMD
/// and scalar paths produce bit-identical results — the basis of the
/// bit-exact verification tests.
///
/// fma() preserves that pairing: exactly when the active VecD fuses
/// (hardware FMA present: __FMA__ or AVX-512), ScalarD uses std::fma, whose
/// single correctly-rounded step is bitwise identical to each vfmadd lane.
/// Otherwise both sides fall back to the same unfused multiply-add. Either
/// way the two paths stay bit-identical in every build configuration.
struct ScalarD {
  static constexpr int width = 1;
  double v;
  static ScalarD load(const double* p) { return {*p}; }
  static ScalarD load_aligned(const double* p) { return {*p}; }
  static ScalarD broadcast(double x) { return {x}; }
  static ScalarD zero() { return {0.0}; }
  void store(double* p) const { *p = v; }
  void store_aligned(double* p) const { *p = v; }
  friend ScalarD operator+(ScalarD a, ScalarD b) { return {a.v + b.v}; }
  friend ScalarD operator-(ScalarD a, ScalarD b) { return {a.v - b.v}; }
  friend ScalarD operator*(ScalarD a, ScalarD b) { return {a.v * b.v}; }
  static ScalarD fma(ScalarD a, ScalarD b, ScalarD c) {
#if defined(__FMA__) || defined(__AVX512F__)
    return {std::fma(a.v, b.v, c.v)};
#else
    return {a.v * b.v + c.v};
#endif
  }
  double hsum() const { return v; }
};

/// Element-type -> vector-family map. Kernels templated on their element type
/// (ConstStar2D<S, T>) pull their wide and scalar-twin vector types from
/// here so the one stencil body serves both precisions.
template <class T>
struct vec_traits;
template <>
struct vec_traits<double> {
  using Vec = VecD;
  using Scalar = ScalarD;
};
template <>
struct vec_traits<float> {
  using Vec = VecF;
  using Scalar = ScalarF;
};

}  // namespace cats::simd
