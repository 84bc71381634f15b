// AVX2 / AVX-512 backends for the Harvey lazy-reduction NTT butterflies.
//
// Each backend executes the exact same sequence of unsigned 64-bit
// operations as the scalar reference in ntt.cc — conditional subtraction to
// [0, 2q), lazy Shoup product in [0, 2q), sums in [0, 4q), full reduction in
// the final pass — just 4 or 8 residues per instruction, so the outputs are
// bit-identical by construction (the differential test enforces it).
//
// On a CPU with AVX-512 IFMA and a prime below 2^50, the AVX-512 backend
// runs an IFMA variant instead: the same butterflies with the lazy product
// taken from 52-bit multiply-adds (three vpmadd52 per product, against the
// DQ path's seven 32-bit partial products and two vpmullq). Its lazy values
// may differ from the scalar ones by q between stages; the fully reduced
// outputs cannot (see the comment above ForwardTailStageIfma).
//
// Stages whose butterfly span t is narrower than a vector cannot load a
// contiguous run of u's or v's, so they get dedicated shuffle passes: a
// window of two vectors is permuted into a u-vector and a v-vector, the
// ordinary wide butterfly runs, and the results are permuted back before
// the store. Per element that is the same arithmetic in the same order —
// only the lane gathering differs — so bit-identity is untouched, and the
// narrow stages (a fixed 2–3 of log2(n) passes that would otherwise run
// scalar) stop dominating the profile. The per-block twiddles of a narrow
// stage are contiguous in the tables, which is what makes the single
// twiddle load + expansion below work.

#include "he/ntt.h"
#include "he/simd_math.h"

namespace vfps::he {

#ifdef VFPS_SIMD_X86

namespace {

// Lane index tables for the narrow-span (t < vector width) shuffle passes.
// For span t, a 16-lane window holds 16/(2t) whole blocks; *U/*V gather the
// u and v halves of those blocks out of the two loaded vectors (operand
// indices 0-7 = first vector, 8-15 = second), *OutA/*OutB interleave the
// butterfly results back into window order, and *W expands the contiguous
// per-block twiddles to one per lane. For t=4 the gather pattern is its own
// inverse, so kTail4U/kTail4V double as the scatter tables.
alignas(64) constexpr uint64_t kTail4U[8] = {0, 1, 2, 3, 8, 9, 10, 11};
alignas(64) constexpr uint64_t kTail4V[8] = {4, 5, 6, 7, 12, 13, 14, 15};
alignas(64) constexpr uint64_t kTail4W[8] = {0, 0, 0, 0, 1, 1, 1, 1};
alignas(64) constexpr uint64_t kTail2U[8] = {0, 1, 4, 5, 8, 9, 12, 13};
alignas(64) constexpr uint64_t kTail2V[8] = {2, 3, 6, 7, 10, 11, 14, 15};
alignas(64) constexpr uint64_t kTail2OutA[8] = {0, 1, 8, 9, 2, 3, 10, 11};
alignas(64) constexpr uint64_t kTail2OutB[8] = {4, 5, 12, 13, 6, 7, 14, 15};
alignas(64) constexpr uint64_t kTail2W[8] = {0, 0, 1, 1, 2, 2, 3, 3};
alignas(64) constexpr uint64_t kTail1U[8] = {0, 2, 4, 6, 8, 10, 12, 14};
alignas(64) constexpr uint64_t kTail1V[8] = {1, 3, 5, 7, 9, 11, 13, 15};
alignas(64) constexpr uint64_t kTail1OutA[8] = {0, 8, 1, 9, 2, 10, 3, 11};
alignas(64) constexpr uint64_t kTail1OutB[8] = {4, 12, 5, 13, 6, 14, 7, 15};

inline void ScalarForwardButterfly(uint64_t* a, size_t j, size_t t, uint64_t w,
                                   uint64_t ws, uint64_t q, uint64_t two_q) {
  uint64_t u = a[j];
  if (u >= two_q) u -= two_q;
  const uint64_t v = MulModShoupLazy(a[j + t], w, ws, q);
  a[j] = u + v;
  a[j + t] = u + two_q - v;
}

inline void ScalarInverseButterfly(uint64_t* a, size_t j, size_t t, uint64_t w,
                                   uint64_t ws, uint64_t q, uint64_t two_q) {
  const uint64_t u = a[j];
  const uint64_t v = a[j + t];
  uint64_t s = u + v;
  if (s >= two_q) s -= two_q;
  a[j] = s;
  a[j + t] = MulModShoupLazy(u + two_q - v, w, ws, q);
}

// A narrow stage's lane tables in registers (span t ∈ {1, 2, 4}): u and v
// gather the u and v halves of the window's blocks, a and b interleave the
// results back, and w expands the per-block twiddles to one per lane.
struct TailIdx512 {
  __m512i u, v, a, b, w;
  bool expand;

  VFPS_TARGET_AVX512 explicit TailIdx512(size_t t) : expand(t != 1) {
    switch (t) {
      case 4:
        u = a = _mm512_load_si512(kTail4U);
        v = b = _mm512_load_si512(kTail4V);
        w = _mm512_load_si512(kTail4W);
        break;
      case 2:
        u = _mm512_load_si512(kTail2U);
        v = _mm512_load_si512(kTail2V);
        a = _mm512_load_si512(kTail2OutA);
        b = _mm512_load_si512(kTail2OutB);
        w = _mm512_load_si512(kTail2W);
        break;
      default:  // t == 1: twiddles are already one per lane.
        u = _mm512_load_si512(kTail1U);
        v = _mm512_load_si512(kTail1V);
        a = _mm512_load_si512(kTail1OutA);
        b = _mm512_load_si512(kTail1OutB);
        w = _mm512_setzero_si512();
        break;
    }
  }

  // The twiddles of the window starting at a + k, one per lane of the
  // u-vector. The t=4 and t=2 loads read up to 6 slots past the stage's own
  // range, which stays inside the size-n tables (absolute index <= n/2 + 3).
  VFPS_TARGET_AVX512 __m512i Twiddles(const uint64_t* base, size_t k,
                                      size_t two_t) const {
    const __m512i x = _mm512_loadu_si512(base + k / two_t);
    return expand ? _mm512_permutexvar_epi64(w, x) : x;
  }
};

// One whole narrow stage (t ∈ {1, 2, 4}) over a[0, n), n ≥ 16. w_base /
// ws_base point at the stage's first twiddle (roots + m resp. inv_roots + h).
VFPS_TARGET_AVX512 void ForwardTailStageAvx512(uint64_t* a, size_t n, size_t t,
                                               const uint64_t* w_base,
                                               const uint64_t* ws_base,
                                               __m512i vq, __m512i v2q) {
  const TailIdx512 idx(t);
  const size_t two_t = 2 * t;
  for (size_t k = 0; k < n; k += 16) {
    const __m512i x0 = _mm512_loadu_si512(a + k);
    const __m512i x1 = _mm512_loadu_si512(a + k + 8);
    __m512i u = _mm512_permutex2var_epi64(x0, idx.u, x1);
    const __m512i x = _mm512_permutex2var_epi64(x0, idx.v, x1);
    const __m512i vw = idx.Twiddles(w_base, k, two_t);
    const __m512i vws = idx.Twiddles(ws_base, k, two_t);
    u = detail::Avx512CSub(u, v2q);
    const __m512i v = detail::Avx512MulModShoupLazy(x, vw, vws, vq);
    const __m512i lo = _mm512_add_epi64(u, v);
    const __m512i hi = _mm512_add_epi64(u, _mm512_sub_epi64(v2q, v));
    _mm512_storeu_si512(a + k, _mm512_permutex2var_epi64(lo, idx.a, hi));
    _mm512_storeu_si512(a + k + 8, _mm512_permutex2var_epi64(lo, idx.b, hi));
  }
}

VFPS_TARGET_AVX512 void InverseTailStageAvx512(uint64_t* a, size_t n, size_t t,
                                               const uint64_t* w_base,
                                               const uint64_t* ws_base,
                                               __m512i vq, __m512i v2q) {
  const TailIdx512 idx(t);
  const size_t two_t = 2 * t;
  for (size_t k = 0; k < n; k += 16) {
    const __m512i x0 = _mm512_loadu_si512(a + k);
    const __m512i x1 = _mm512_loadu_si512(a + k + 8);
    const __m512i u = _mm512_permutex2var_epi64(x0, idx.u, x1);
    const __m512i v = _mm512_permutex2var_epi64(x0, idx.v, x1);
    const __m512i vw = idx.Twiddles(w_base, k, two_t);
    const __m512i vws = idx.Twiddles(ws_base, k, two_t);
    __m512i s = _mm512_add_epi64(u, v);
    s = detail::Avx512CSub(s, v2q);
    const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(u, v2q), v);
    const __m512i dm = detail::Avx512MulModShoupLazy(d, vw, vws, vq);
    _mm512_storeu_si512(a + k, _mm512_permutex2var_epi64(s, idx.a, dm));
    _mm512_storeu_si512(a + k + 8, _mm512_permutex2var_epi64(s, idx.b, dm));
  }
}

// One whole narrow stage (t ∈ {1, 2}) over a[0, n), n ≥ 8, for AVX2. The
// 128-bit-lane shuffles are spelled per span; twiddle loads are exact
// (2 resp. 4 per 8-element window), no over-read.
VFPS_TARGET_AVX2 void ForwardTailStageAvx2(uint64_t* a, size_t n, size_t t,
                                           const uint64_t* w_base,
                                           const uint64_t* ws_base, __m256i vq,
                                           __m256i v2q) {
  for (size_t k = 0; k < n; k += 8) {
    const __m256i x0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
    const __m256i x1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k + 4));
    __m256i u, x, vw, vws;
    if (t == 2) {
      // Blocks are [u0 u1 v0 v1]; gather low halves vs high halves.
      u = _mm256_permute2x128_si256(x0, x1, 0x20);
      x = _mm256_permute2x128_si256(x0, x1, 0x31);
      const __m128i wp = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(w_base + k / 4));
      const __m128i wsp = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(ws_base + k / 4));
      vw = _mm256_permute4x64_epi64(_mm256_castsi128_si256(wp), 0x50);
      vws = _mm256_permute4x64_epi64(_mm256_castsi128_si256(wsp), 0x50);
    } else {  // t == 1: even lanes are u's, odd lanes are v's.
      u = _mm256_blend_epi32(_mm256_permute4x64_epi64(x0, 0x08),
                             _mm256_permute4x64_epi64(x1, 0x80), 0xF0);
      x = _mm256_blend_epi32(_mm256_permute4x64_epi64(x0, 0x0D),
                             _mm256_permute4x64_epi64(x1, 0xD0), 0xF0);
      vw = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(w_base + k / 2));
      vws = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ws_base + k / 2));
    }
    u = detail::Avx2CSub(u, v2q);
    const __m256i v = detail::Avx2MulModShoupLazy(x, vw, vws, vq);
    const __m256i lo = _mm256_add_epi64(u, v);
    const __m256i hi = _mm256_add_epi64(u, _mm256_sub_epi64(v2q, v));
    __m256i out_a, out_b;
    if (t == 2) {
      out_a = _mm256_permute2x128_si256(lo, hi, 0x20);
      out_b = _mm256_permute2x128_si256(lo, hi, 0x31);
    } else {
      const __m256i even = _mm256_unpacklo_epi64(lo, hi);
      const __m256i odd = _mm256_unpackhi_epi64(lo, hi);
      out_a = _mm256_permute2x128_si256(even, odd, 0x20);
      out_b = _mm256_permute2x128_si256(even, odd, 0x31);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + k), out_a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + k + 4), out_b);
  }
}

VFPS_TARGET_AVX2 void InverseTailStageAvx2(uint64_t* a, size_t n, size_t t,
                                           const uint64_t* w_base,
                                           const uint64_t* ws_base, __m256i vq,
                                           __m256i v2q) {
  for (size_t k = 0; k < n; k += 8) {
    const __m256i x0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
    const __m256i x1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k + 4));
    __m256i u, v, vw, vws;
    if (t == 2) {
      u = _mm256_permute2x128_si256(x0, x1, 0x20);
      v = _mm256_permute2x128_si256(x0, x1, 0x31);
      const __m128i wp = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(w_base + k / 4));
      const __m128i wsp = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(ws_base + k / 4));
      vw = _mm256_permute4x64_epi64(_mm256_castsi128_si256(wp), 0x50);
      vws = _mm256_permute4x64_epi64(_mm256_castsi128_si256(wsp), 0x50);
    } else {
      u = _mm256_blend_epi32(_mm256_permute4x64_epi64(x0, 0x08),
                             _mm256_permute4x64_epi64(x1, 0x80), 0xF0);
      v = _mm256_blend_epi32(_mm256_permute4x64_epi64(x0, 0x0D),
                             _mm256_permute4x64_epi64(x1, 0xD0), 0xF0);
      vw = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(w_base + k / 2));
      vws = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ws_base + k / 2));
    }
    __m256i s = _mm256_add_epi64(u, v);
    s = detail::Avx2CSub(s, v2q);
    const __m256i d = _mm256_sub_epi64(_mm256_add_epi64(u, v2q), v);
    const __m256i dm = detail::Avx2MulModShoupLazy(d, vw, vws, vq);
    __m256i out_a, out_b;
    if (t == 2) {
      out_a = _mm256_permute2x128_si256(s, dm, 0x20);
      out_b = _mm256_permute2x128_si256(s, dm, 0x31);
    } else {
      const __m256i even = _mm256_unpacklo_epi64(s, dm);
      const __m256i odd = _mm256_unpackhi_epi64(s, dm);
      out_a = _mm256_permute2x128_si256(even, odd, 0x20);
      out_b = _mm256_permute2x128_si256(even, odd, 0x31);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + k), out_a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + k + 4), out_b);
  }
}

VFPS_TARGET_AVX2 void ForwardAvx2Impl(uint64_t* a, size_t n, uint64_t q,
                                      const uint64_t* roots,
                                      const uint64_t* roots_shoup) {
  const uint64_t two_q = 2 * q;
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  const __m256i v2q = _mm256_set1_epi64x(static_cast<int64_t>(two_q));
  size_t t = n;
  for (size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    if (t < 4 && n >= 8) {
      ForwardTailStageAvx2(a, n, t, roots + m, roots_shoup + m, vq, v2q);
      continue;
    }
    for (size_t i = 0; i < m; ++i) {
      const size_t j1 = 2 * i * t;
      const uint64_t w = roots[m + i];
      const uint64_t ws = roots_shoup[m + i];
      if (t >= 4) {
        const __m256i vw = _mm256_set1_epi64x(static_cast<int64_t>(w));
        const __m256i vws = _mm256_set1_epi64x(static_cast<int64_t>(ws));
        for (size_t j = j1; j < j1 + t; j += 4) {
          __m256i u = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
          u = detail::Avx2CSub(u, v2q);
          const __m256i x =
              _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j + t));
          const __m256i v = detail::Avx2MulModShoupLazy(x, vw, vws, vq);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j),
                              _mm256_add_epi64(u, v));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j + t),
                              _mm256_add_epi64(u, _mm256_sub_epi64(v2q, v)));
        }
      } else {
        for (size_t j = j1; j < j1 + t; ++j) {
          ScalarForwardButterfly(a, j, t, w, ws, q, two_q);
        }
      }
    }
  }
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + i));
    v = detail::Avx2CSub(v, v2q);
    v = detail::Avx2CSub(v, vq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i), v);
  }
  for (; i < n; ++i) {
    uint64_t v = a[i];
    if (v >= two_q) v -= two_q;
    if (v >= q) v -= q;
    a[i] = v;
  }
}

VFPS_TARGET_AVX2 void InverseAvx2Impl(uint64_t* a, size_t n, uint64_t q,
                                      const uint64_t* inv_roots,
                                      const uint64_t* inv_roots_shoup,
                                      uint64_t n_inv, uint64_t n_inv_shoup) {
  const uint64_t two_q = 2 * q;
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  const __m256i v2q = _mm256_set1_epi64x(static_cast<int64_t>(two_q));
  size_t t = 1;
  for (size_t m = n; m > 1; m >>= 1) {
    size_t j1 = 0;
    const size_t h = m >> 1;
    if (t < 4 && n >= 8) {
      InverseTailStageAvx2(a, n, t, inv_roots + h, inv_roots_shoup + h, vq,
                           v2q);
      t <<= 1;
      continue;
    }
    for (size_t i = 0; i < h; ++i) {
      const uint64_t w = inv_roots[h + i];
      const uint64_t ws = inv_roots_shoup[h + i];
      if (t >= 4) {
        const __m256i vw = _mm256_set1_epi64x(static_cast<int64_t>(w));
        const __m256i vws = _mm256_set1_epi64x(static_cast<int64_t>(ws));
        for (size_t j = j1; j < j1 + t; j += 4) {
          const __m256i u =
              _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
          const __m256i v =
              _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j + t));
          __m256i s = _mm256_add_epi64(u, v);
          s = detail::Avx2CSub(s, v2q);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), s);
          const __m256i d =
              _mm256_sub_epi64(_mm256_add_epi64(u, v2q), v);
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(a + j + t),
              detail::Avx2MulModShoupLazy(d, vw, vws, vq));
        }
      } else {
        for (size_t j = j1; j < j1 + t; ++j) {
          ScalarInverseButterfly(a, j, t, w, ws, q, two_q);
        }
      }
      j1 += 2 * t;
    }
    t <<= 1;
  }
  const __m256i vn = _mm256_set1_epi64x(static_cast<int64_t>(n_inv));
  const __m256i vns = _mm256_set1_epi64x(static_cast<int64_t>(n_inv_shoup));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + i));
    const __m256i lazy = detail::Avx2MulModShoupLazy(x, vn, vns, vq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        detail::Avx2CSub(lazy, vq));
  }
  for (; i < n; ++i) {
    a[i] = MulModShoup(a[i], n_inv, n_inv_shoup, q);
  }
}

VFPS_TARGET_AVX512 void ForwardAvx512Impl(uint64_t* a, size_t n, uint64_t q,
                                          const uint64_t* roots,
                                          const uint64_t* roots_shoup) {
  const uint64_t two_q = 2 * q;
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i v2q = _mm512_set1_epi64(static_cast<int64_t>(two_q));
  size_t t = n;
  for (size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    if (t < 8 && n >= 16) {
      ForwardTailStageAvx512(a, n, t, roots + m, roots_shoup + m, vq, v2q);
      continue;
    }
    for (size_t i = 0; i < m; ++i) {
      const size_t j1 = 2 * i * t;
      const uint64_t w = roots[m + i];
      const uint64_t ws = roots_shoup[m + i];
      if (t >= 8) {
        const __m512i vw = _mm512_set1_epi64(static_cast<int64_t>(w));
        const __m512i vws = _mm512_set1_epi64(static_cast<int64_t>(ws));
        for (size_t j = j1; j < j1 + t; j += 8) {
          __m512i u = _mm512_loadu_si512(a + j);
          u = detail::Avx512CSub(u, v2q);
          const __m512i x = _mm512_loadu_si512(a + j + t);
          const __m512i v = detail::Avx512MulModShoupLazy(x, vw, vws, vq);
          _mm512_storeu_si512(a + j, _mm512_add_epi64(u, v));
          _mm512_storeu_si512(a + j + t,
                              _mm512_add_epi64(u, _mm512_sub_epi64(v2q, v)));
        }
      } else {
        for (size_t j = j1; j < j1 + t; ++j) {
          ScalarForwardButterfly(a, j, t, w, ws, q, two_q);
        }
      }
    }
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i v = _mm512_loadu_si512(a + i);
    v = detail::Avx512CSub(v, v2q);
    v = detail::Avx512CSub(v, vq);
    _mm512_storeu_si512(a + i, v);
  }
  for (; i < n; ++i) {
    uint64_t v = a[i];
    if (v >= two_q) v -= two_q;
    if (v >= q) v -= q;
    a[i] = v;
  }
}

VFPS_TARGET_AVX512 void InverseAvx512Impl(uint64_t* a, size_t n, uint64_t q,
                                          const uint64_t* inv_roots,
                                          const uint64_t* inv_roots_shoup,
                                          uint64_t n_inv,
                                          uint64_t n_inv_shoup) {
  const uint64_t two_q = 2 * q;
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i v2q = _mm512_set1_epi64(static_cast<int64_t>(two_q));
  size_t t = 1;
  for (size_t m = n; m > 1; m >>= 1) {
    size_t j1 = 0;
    const size_t h = m >> 1;
    if (t < 8 && n >= 16) {
      InverseTailStageAvx512(a, n, t, inv_roots + h, inv_roots_shoup + h, vq,
                             v2q);
      t <<= 1;
      continue;
    }
    for (size_t i = 0; i < h; ++i) {
      const uint64_t w = inv_roots[h + i];
      const uint64_t ws = inv_roots_shoup[h + i];
      if (t >= 8) {
        const __m512i vw = _mm512_set1_epi64(static_cast<int64_t>(w));
        const __m512i vws = _mm512_set1_epi64(static_cast<int64_t>(ws));
        for (size_t j = j1; j < j1 + t; j += 8) {
          const __m512i u = _mm512_loadu_si512(a + j);
          const __m512i v = _mm512_loadu_si512(a + j + t);
          __m512i s = _mm512_add_epi64(u, v);
          s = detail::Avx512CSub(s, v2q);
          _mm512_storeu_si512(a + j, s);
          const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(u, v2q), v);
          _mm512_storeu_si512(a + j + t,
                              detail::Avx512MulModShoupLazy(d, vw, vws, vq));
        }
      } else {
        for (size_t j = j1; j < j1 + t; ++j) {
          ScalarInverseButterfly(a, j, t, w, ws, q, two_q);
        }
      }
      j1 += 2 * t;
    }
    t <<= 1;
  }
  const __m512i vn = _mm512_set1_epi64(static_cast<int64_t>(n_inv));
  const __m512i vns = _mm512_set1_epi64(static_cast<int64_t>(n_inv_shoup));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(a + i);
    const __m512i lazy = detail::Avx512MulModShoupLazy(x, vn, vns, vq);
    _mm512_storeu_si512(a + i, detail::Avx512CSub(lazy, vq));
  }
  for (; i < n; ++i) {
    a[i] = MulModShoup(a[i], n_inv, n_inv_shoup, q);
  }
}

// IFMA variants of the AVX-512 transforms (q < 2^50). They run the same
// butterflies over the same ranges — [0, 4q) forward, [0, 2q) inverse, all
// below 2^52 — with IfmaMulModShoupLazy as the product. Its lazy value can
// differ from the 64-bit Shoup product's by q, so intermediate stages need
// not match the scalar reference word for word; the final passes reduce
// fully, and congruent residues in [0, q) are equal, so the outputs are
// bit-identical to ForwardScalar / InverseScalar. The 52-bit companions are
// the stored 64-bit ones shifted right by 12.

VFPS_TARGET_IFMA void ForwardTailStageIfma(uint64_t* a, size_t n, size_t t,
                                           const uint64_t* w_base,
                                           const uint64_t* ws_base,
                                           __m512i vneg_q, __m512i v2q) {
  const TailIdx512 idx(t);
  const size_t two_t = 2 * t;
  for (size_t k = 0; k < n; k += 16) {
    const __m512i x0 = _mm512_loadu_si512(a + k);
    const __m512i x1 = _mm512_loadu_si512(a + k + 8);
    __m512i u = _mm512_permutex2var_epi64(x0, idx.u, x1);
    const __m512i x = _mm512_permutex2var_epi64(x0, idx.v, x1);
    const __m512i vw = idx.Twiddles(w_base, k, two_t);
    const __m512i vw52 = _mm512_srli_epi64(idx.Twiddles(ws_base, k, two_t), 12);
    u = detail::Avx512CSub(u, v2q);
    const __m512i v = detail::IfmaMulModShoupLazy(x, vw, vw52, vneg_q);
    const __m512i lo = _mm512_add_epi64(u, v);
    const __m512i hi = _mm512_add_epi64(u, _mm512_sub_epi64(v2q, v));
    _mm512_storeu_si512(a + k, _mm512_permutex2var_epi64(lo, idx.a, hi));
    _mm512_storeu_si512(a + k + 8, _mm512_permutex2var_epi64(lo, idx.b, hi));
  }
}

VFPS_TARGET_IFMA void InverseTailStageIfma(uint64_t* a, size_t n, size_t t,
                                           const uint64_t* w_base,
                                           const uint64_t* ws_base,
                                           __m512i vneg_q, __m512i v2q) {
  const TailIdx512 idx(t);
  const size_t two_t = 2 * t;
  for (size_t k = 0; k < n; k += 16) {
    const __m512i x0 = _mm512_loadu_si512(a + k);
    const __m512i x1 = _mm512_loadu_si512(a + k + 8);
    const __m512i u = _mm512_permutex2var_epi64(x0, idx.u, x1);
    const __m512i v = _mm512_permutex2var_epi64(x0, idx.v, x1);
    const __m512i vw = idx.Twiddles(w_base, k, two_t);
    const __m512i vw52 = _mm512_srli_epi64(idx.Twiddles(ws_base, k, two_t), 12);
    const __m512i s = detail::Avx512CSub(_mm512_add_epi64(u, v), v2q);
    const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(u, v2q), v);
    const __m512i dm = detail::IfmaMulModShoupLazy(d, vw, vw52, vneg_q);
    _mm512_storeu_si512(a + k, _mm512_permutex2var_epi64(s, idx.a, dm));
    _mm512_storeu_si512(a + k + 8, _mm512_permutex2var_epi64(s, idx.b, dm));
  }
}

VFPS_TARGET_IFMA void ForwardIfmaImpl(uint64_t* a, size_t n, uint64_t q,
                                      const uint64_t* roots,
                                      const uint64_t* roots_shoup) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i v2q = _mm512_set1_epi64(static_cast<int64_t>(2 * q));
  const __m512i vneg_q =
      _mm512_set1_epi64(static_cast<int64_t>((uint64_t{1} << 52) - q));
  size_t t = n;
  for (size_t m = 1; m < n; m <<= 1) {
    t >>= 1;
    if (t < 8) {
      ForwardTailStageIfma(a, n, t, roots + m, roots_shoup + m, vneg_q, v2q);
      continue;
    }
    for (size_t i = 0; i < m; ++i) {
      const size_t j1 = 2 * i * t;
      const __m512i vw = _mm512_set1_epi64(static_cast<int64_t>(roots[m + i]));
      const __m512i vw52 =
          _mm512_set1_epi64(static_cast<int64_t>(roots_shoup[m + i] >> 12));
      for (size_t j = j1; j < j1 + t; j += 8) {
        const __m512i u = detail::Avx512CSub(_mm512_loadu_si512(a + j), v2q);
        const __m512i x = _mm512_loadu_si512(a + j + t);
        const __m512i v = detail::IfmaMulModShoupLazy(x, vw, vw52, vneg_q);
        _mm512_storeu_si512(a + j, _mm512_add_epi64(u, v));
        _mm512_storeu_si512(a + j + t,
                            _mm512_add_epi64(u, _mm512_sub_epi64(v2q, v)));
      }
    }
  }
  for (size_t i = 0; i < n; i += 8) {
    const __m512i v = _mm512_loadu_si512(a + i);
    _mm512_storeu_si512(
        a + i, detail::Avx512CSub(detail::Avx512CSub(v, v2q), vq));
  }
}

VFPS_TARGET_IFMA void InverseIfmaImpl(uint64_t* a, size_t n, uint64_t q,
                                      const uint64_t* inv_roots,
                                      const uint64_t* inv_roots_shoup,
                                      uint64_t n_inv, uint64_t n_inv_shoup) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i v2q = _mm512_set1_epi64(static_cast<int64_t>(2 * q));
  const __m512i vneg_q =
      _mm512_set1_epi64(static_cast<int64_t>((uint64_t{1} << 52) - q));
  size_t t = 1;
  for (size_t m = n; m > 1; m >>= 1) {
    const size_t h = m >> 1;
    if (t < 8) {
      InverseTailStageIfma(a, n, t, inv_roots + h, inv_roots_shoup + h,
                           vneg_q, v2q);
      t <<= 1;
      continue;
    }
    size_t j1 = 0;
    for (size_t i = 0; i < h; ++i) {
      const __m512i vw =
          _mm512_set1_epi64(static_cast<int64_t>(inv_roots[h + i]));
      const __m512i vw52 =
          _mm512_set1_epi64(static_cast<int64_t>(inv_roots_shoup[h + i] >> 12));
      for (size_t j = j1; j < j1 + t; j += 8) {
        const __m512i u = _mm512_loadu_si512(a + j);
        const __m512i v = _mm512_loadu_si512(a + j + t);
        _mm512_storeu_si512(
            a + j, detail::Avx512CSub(_mm512_add_epi64(u, v), v2q));
        const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(u, v2q), v);
        _mm512_storeu_si512(a + j + t,
                            detail::IfmaMulModShoupLazy(d, vw, vw52, vneg_q));
      }
      j1 += 2 * t;
    }
    t <<= 1;
  }
  const __m512i vn = _mm512_set1_epi64(static_cast<int64_t>(n_inv));
  const __m512i vn52 = _mm512_set1_epi64(static_cast<int64_t>(n_inv_shoup >> 12));
  for (size_t i = 0; i < n; i += 8) {
    const __m512i lazy = detail::IfmaMulModShoupLazy(_mm512_loadu_si512(a + i),
                                                     vn, vn52, vneg_q);
    _mm512_storeu_si512(a + i, detail::Avx512CSub(lazy, vq));
  }
}

}  // namespace

void NttTables::ForwardAvx2(uint64_t* a) const {
  ForwardAvx2Impl(a, n_, q_, root_powers_.data(), root_powers_shoup_.data());
}

void NttTables::InverseAvx2(uint64_t* a) const {
  InverseAvx2Impl(a, n_, q_, inv_root_powers_.data(),
                  inv_root_powers_shoup_.data(), n_inv_, n_inv_shoup_);
}

// The IFMA variants need a whole 16-element window for their narrow stages.
void NttTables::ForwardAvx512(uint64_t* a) const {
  if (n_ >= 16 && detail::UseIfma(q_)) {
    ForwardIfmaImpl(a, n_, q_, root_powers_.data(), root_powers_shoup_.data());
    return;
  }
  ForwardAvx512Impl(a, n_, q_, root_powers_.data(), root_powers_shoup_.data());
}

void NttTables::InverseAvx512(uint64_t* a) const {
  if (n_ >= 16 && detail::UseIfma(q_)) {
    InverseIfmaImpl(a, n_, q_, inv_root_powers_.data(),
                    inv_root_powers_shoup_.data(), n_inv_, n_inv_shoup_);
    return;
  }
  InverseAvx512Impl(a, n_, q_, inv_root_powers_.data(),
                    inv_root_powers_shoup_.data(), n_inv_, n_inv_shoup_);
}

#else  // !VFPS_SIMD_X86

// Non-x86 builds: the dispatcher never selects these, but the symbols must
// exist. Delegate to the scalar reference.
void NttTables::ForwardAvx2(uint64_t* a) const { ForwardScalar(a); }
void NttTables::InverseAvx2(uint64_t* a) const { InverseScalar(a); }
void NttTables::ForwardAvx512(uint64_t* a) const { ForwardScalar(a); }
void NttTables::InverseAvx512(uint64_t* a) const { InverseScalar(a); }

#endif  // VFPS_SIMD_X86

}  // namespace vfps::he
