#include "serve/checksum.hpp"

#include <algorithm>
#include <bit>

#if defined(__AVX512VBMI__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__PCLMUL__)
#define CATS_FNV1A_VECTOR 1
#include <immintrin.h>
#endif

namespace cats::serve {

static_assert(std::endian::native == std::endian::little,
              "a double's checksum bytes are its in-memory bytes");

namespace {

#if defined(CATS_FNV1A_VECTOR)

// FNV-1a steps h <- (h ^ b) * P. With l = h mod 2^8 and x = l ^ b,
// h ^ b = h + (x - l), so the state splits into
//   (a) the low byte, l' = x * 0xB3 mod 2^8 (P mod 2^8 = 0xB3): serial;
//   (b) h_n = h_0 P^n + sum_i (x_i - l_i) P^(n-i): linear once every l_i
//       is known.
// 0xB3 is odd, so bit k of l' is l_k ^ b_k ^ phi_k(x mod 2^k) with
// phi_k(y) = bit k of y * 0xB3. Bit k of every l_i in a 64-byte group is
// therefore a prefix XOR of values known once bits 0..k-1 are: one table
// permute, one byte test and one carry-less multiply by all-ones per level,
// plus a 1-bit carry into the next group. (b) runs as Horner in 64 u64
// lanes (one per byte position) stepped by P^64.

constexpr std::uint64_t pow_prime(unsigned e) {
  std::uint64_t r = 1;
  std::uint64_t b = kFnv1aPrime;
  for (; e != 0; e >>= 1) {
    if ((e & 1U) != 0) r *= b;
    b *= b;
  }
  return r;
}

constexpr int kBlockGroups = 32;  // 2 KiB per block

struct Tables {
  /// phi[k][y] = ((y mod 2^k) * 0xB3) & 2^k.
  alignas(64) std::uint8_t phi[8][128] = {};
  /// P^(64 - j) for byte position j of a group.
  alignas(64) std::uint64_t pos_pow[64] = {};
  /// P^(64 g).
  std::uint64_t group_pow[kBlockGroups + 1] = {};
};

constexpr Tables make_tables() {
  Tables t;
  for (int k = 0; k < 8; ++k)
    for (int y = 0; y < 128; ++y)
      t.phi[k][y] = static_cast<std::uint8_t>(
          ((y & ((1 << k) - 1)) * 0xB3) & (1 << k));
  for (int j = 0; j < 64; ++j)
    t.pos_pow[j] = pow_prime(static_cast<unsigned>(64 - j));
  for (int g = 0; g <= kBlockGroups; ++g)
    t.group_pow[g] = pow_prime(static_cast<unsigned>(64 * g));
  return t;
}

constexpr Tables kTables = make_tables();

/// Inclusive prefix XOR over the 64 mask bits.
inline std::uint64_t prefix_xor(std::uint64_t m) {
  const __m128i r =
      _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(m)),
                           _mm_set1_epi64x(-1), 0x00);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(r));
}

/// Level K over a block from state h: set bit K of x_i = l_i ^ b_i for
/// every byte i, given bits 0..K-1 in xs. The carry (bit K of the current
/// low byte, as 0 or ~0) is all that links one group to the next, so a
/// level pass is throughput-bound rather than a chain through the group.
template <int K>
inline void level(std::uint64_t h, const unsigned char* p, unsigned char* xs,
                  int groups) {
  const __m512i bit = _mm512_set1_epi8(static_cast<char>(1 << K));
  const __m512i lo = _mm512_load_si512(kTables.phi[K]);
  const __m512i hi = _mm512_load_si512(kTables.phi[K] + 64);
  std::uint64_t carry = ((h >> K) & 1U) != 0 ? ~0ULL : 0;
  for (int g = 0; g < groups; ++g) {
    const __m512i b = _mm512_loadu_si512(p + 64 * g);
    const __mmask64 bk = _mm512_test_epi8_mask(b, bit);
    __m512i x = _mm512_setzero_si512();
    __mmask64 m = bk;  // phi_0 = 0
    if constexpr (K > 0) {
      x = _mm512_load_si512(xs + 64 * g);
      // x < 2^K <= 64 indexes one table half until the last level.
      const __m512i phi = K < 7 ? _mm512_permutexvar_epi8(x, lo)
                                : _mm512_permutex2var_epi8(lo, x, hi);
      m = _mm512_test_epi8_mask(_mm512_xor_si512(b, phi), bit);
    }
    const std::uint64_t pre = prefix_xor(m);
    const std::uint64_t ell = (pre << 1) ^ carry;
    carry ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(pre) >> 63);
    _mm512_store_si512(xs + 64 * g, _mm512_mask_add_epi8(x, ell ^ bk, x, bit));
  }
}

/// `groups` (1..kBlockGroups) whole 64-byte groups from state h.
std::uint64_t hash_groups(std::uint64_t h, const unsigned char* p,
                          int groups) {
  alignas(64) unsigned char xs[64 * kBlockGroups];
  level<0>(h, p, xs, groups);
  level<1>(h, p, xs, groups);
  level<2>(h, p, xs, groups);
  level<3>(h, p, xs, groups);
  level<4>(h, p, xs, groups);
  level<5>(h, p, xs, groups);
  level<6>(h, p, xs, groups);
  level<7>(h, p, xs, groups);

  __m512i acc[8];
  for (__m512i& a : acc) a = _mm512_setzero_si512();
  const __m512i p64 =
      _mm512_set1_epi64(static_cast<long long>(kTables.group_pow[1]));
  alignas(64) unsigned char ls[64];
  for (int g = 0; g < groups; ++g) {
    const unsigned char* x = xs + 64 * g;
    _mm512_store_si512(ls, _mm512_xor_si512(_mm512_load_si512(x),
                                            _mm512_loadu_si512(p + 64 * g)));
    for (int a = 0; a < 8; ++a) {
      const __m512i xq = _mm512_cvtepu8_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + 8 * a)));
      const __m512i lq = _mm512_cvtepu8_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(ls + 8 * a)));
      acc[a] = _mm512_add_epi64(_mm512_mullo_epi64(acc[a], p64),
                                _mm512_sub_epi64(xq, lq));
    }
  }
  __m512i sum = _mm512_setzero_si512();
  for (int a = 0; a < 8; ++a)
    sum = _mm512_add_epi64(
        sum, _mm512_mullo_epi64(acc[a],
                                _mm512_load_si512(kTables.pos_pow + 8 * a)));
  // Sum the lanes unsigned: GCC's _mm512_reduce_add_epi64 adds as signed
  // long long, which overflows here.
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, sum);
  std::uint64_t total = h * kTables.group_pow[groups];
  for (const std::uint64_t v : lanes) total += v;
  return total;
}

#endif  // CATS_FNV1A_VECTOR

}  // namespace

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
#if defined(CATS_FNV1A_VECTOR)
  while (n >= 64) {
    const int groups =
        static_cast<int>(std::min<std::size_t>(n / 64, kBlockGroups));
    h = hash_groups(h, b, groups);
    b += 64 * groups;
    n -= 64 * static_cast<std::size_t>(groups);
  }
#endif
  return fnv1a_scalar(h, b, n);
}

const char* fnv1a_path() {
#if defined(CATS_FNV1A_VECTOR)
  return "avx512vbmi+clmul";
#else
  return "scalar";
#endif
}

GridDigest::GridDigest(std::int64_t points, std::vector<double>* out_grid)
    : mid_(points / 2), out_(out_grid) {
  if (out_ != nullptr) {
    out_->clear();
    out_->reserve(static_cast<std::size_t>(points));
  }
}

template <class T>
void GridDigest::note(const T* p, int n) {
  if (mid_ >= seen_ && mid_ < seen_ + n)
    sample_ = static_cast<double>(p[mid_ - seen_]);
  seen_ += n;
  if (out_ != nullptr)
    for (int i = 0; i < n; ++i) out_->push_back(static_cast<double>(p[i]));
}

void GridDigest::row(const double* p, int n) {
  h_ = fnv1a_bytes(h_, p, static_cast<std::size_t>(n) * sizeof(double));
  note(p, n);
}

void GridDigest::row(const float* p, int n) {
  constexpr int kChunk = 256;  // one 2 KiB block of doubles
  alignas(64) double wide[kChunk];
  for (int i0 = 0; i0 < n; i0 += kChunk) {
    const int m = std::min(kChunk, n - i0);
    for (int i = 0; i < m; ++i) wide[i] = static_cast<double>(p[i0 + i]);
    h_ = fnv1a_bytes(h_, wide, static_cast<std::size_t>(m) * sizeof(double));
  }
  note(p, n);
}

std::uint64_t fnv1a(const std::vector<double>& v) {
  return fnv1a_bytes(kFnv1aOffset, v.data(), v.size() * sizeof(double));
}

}  // namespace cats::serve
