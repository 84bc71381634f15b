// Dispatched residue-vector kernels (see poly_simd.h for the contract).
//
// Layout of this file: scalar references first (the oracle the differential
// test compares against), then the AVX2 and AVX-512 (and IFMA) backends
// composed from the exact helpers in simd_math.h, then the thin
// ActiveIsa() dispatchers. The backends compute the same residues as their
// scalar references, mostly by the same unsigned 64-bit operations in the
// same order; where they take another route (the IFMA products, the vector
// CRT decode) the comments there say why the results are still the same.

#include "he/poly_simd.h"

#include "he/simd_math.h"
#include "simd/simd.h"

namespace vfps::he::detail {

// ---------------------------------------------------------------------------
// Scalar references
// ---------------------------------------------------------------------------

void AddModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = AddMod(a[j], b[j], q);
}

void SubModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = SubMod(a[j], b[j], q);
}

void NegateModScalar(uint64_t* a, size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = NegateMod(a[j], q);
}

void MulModBarrettScalar(uint64_t* a, const uint64_t* b, size_t n,
                         const Modulus& m) {
  for (size_t j = 0; j < n; ++j) a[j] = MulMod(a[j], b[j], m);
}

void MulModShoupScalar(uint64_t* a, size_t n, uint64_t w, uint64_t w_shoup,
                       uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = MulModShoup(a[j], w, w_shoup, q);
}

void MulModShoupPointwiseScalar(uint64_t* dst, const uint64_t* a,
                                const uint64_t* w, const uint64_t* w_shoup,
                                size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) dst[j] = MulModShoup(a[j], w[j], w_shoup[j], q);
}

void ComposeCrtScalar(double* out, const uint64_t* r0, const uint64_t* r1,
                      size_t n, uint64_t q0, const Modulus& m1,
                      uint64_t q0_inv, uint64_t q0_inv_shoup) {
  const unsigned __int128 big_q = static_cast<unsigned __int128>(q0) * m1.value;
  for (size_t c = 0; c < n; ++c) {
    const unsigned __int128 x =
        ComposeCrtCoeff(r0[c], r1[c], q0, m1, q0_inv, q0_inv_shoup);
    const bool negative = x > big_q / 2;
    const unsigned __int128 mag = negative ? big_q - x : x;
    // Both conversions round to nearest, so the int64 one (one instruction)
    // gives the same double as the 128-bit one (a library call) wherever it
    // applies; decoded values are small, so it almost always does.
    const double d = (mag >> 63) == 0
                         ? static_cast<double>(static_cast<int64_t>(mag))
                         : static_cast<double>(mag);
    out[c] = negative ? -d : d;
  }
}

void RescaleRoundScalar(uint64_t* dst, const uint64_t* src,
                        const uint64_t* last, size_t n, uint64_t q_last,
                        const Modulus& m, uint64_t q_last_inv,
                        uint64_t q_last_inv_shoup) {
  const uint64_t q = m.value;
  const uint64_t q_last_half = q_last / 2;
  for (size_t c = 0; c < n; ++c) {
    const uint64_t r = last[c];
    uint64_t r_mod_q;
    if (r > q_last_half) {
      r_mod_q = NegateMod(BarrettReduce64(q_last - r, m), q);
    } else {
      r_mod_q = BarrettReduce64(r, m);
    }
    const uint64_t t = SubMod(src[c], r_mod_q, q);
    dst[c] = MulModShoup(t, q_last_inv, q_last_inv_shoup, q);
  }
}

#ifdef VFPS_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 backends
// ---------------------------------------------------------------------------

namespace {

// Per-call constants of the vector CRT decodes. The lazy Shoup product
// accepts any 64-bit input, so the kernels skip reducing r0 into q1: with
// c_mult a multiple of q1 no smaller than q0, r1 + c_mult - r0 is positive,
// below 2^63 and congruent to r1 - r0, and t = its product with
// q0^{-1} mod q1, fully reduced, is the scalar code's t. With
// x = r0 + q0 * t (r0 < q0, t < q1, both primes odd), x > floor(Q/2)
// exactly when t > q1/2, or t == q1/2 and r0 > q0/2. The centred magnitude
// is then q0 * t' + r' with (t', r') = (t, r0) for x <= Q/2 and
// (q1 - 1 - t, q0 - r0) above it; r' <= q0, so t' <= t_max keeps it below
// 2^63, where the 64-bit product and the int64 conversion are exact. Lanes
// past t_max go to the scalar code.
struct CrtConstants {
  uint64_t c_mult, half0, half1, q1_minus_1, t_max;

  CrtConstants(uint64_t q0, uint64_t q1)
      : c_mult((q0 + q1 - 1) / q1 * q1),
        half0(q0 / 2),
        half1(q1 / 2),
        q1_minus_1(q1 - 1),
        t_max(((uint64_t{1} << 63) - 1 - q0) / q0) {}
};

VFPS_TARGET_AVX2 void AddModAvx2(uint64_t* a, const uint64_t* b, size_t n,
                                 uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j),
                        Avx2CSub(_mm256_add_epi64(va, vb), vq));
  }
  for (; j < n; ++j) a[j] = AddMod(a[j], b[j], q);
}

VFPS_TARGET_AVX2 void SubModAvx2(uint64_t* a, const uint64_t* b, size_t n,
                                 uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i d = _mm256_sub_epi64(va, vb);
    const __m256i lt = Avx2CmpLtU64(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j),
                        _mm256_add_epi64(d, _mm256_and_si256(lt, vq)));
  }
  for (; j < n; ++j) a[j] = SubMod(a[j], b[j], q);
}

VFPS_TARGET_AVX2 void NegateModAvx2(uint64_t* a, size_t n, uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  const __m256i zero = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i is_zero = _mm256_cmpeq_epi64(va, zero);
    const __m256i neg = _mm256_sub_epi64(vq, va);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j),
                        _mm256_andnot_si256(is_zero, neg));
  }
  for (; j < n; ++j) a[j] = NegateMod(a[j], q);
}

// Lane-wise BarrettReduce128 of the product a * b — the same carry chain as
// the scalar version: carry words are recovered with unsigned compares
// (sum < addend) and folded in as 0/1 by subtracting the all-ones mask.
VFPS_TARGET_AVX2 void MulModBarrettAvx2(uint64_t* a, const uint64_t* b,
                                        size_t n, const Modulus& m) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(m.value));
  const __m256i r_lo =
      _mm256_set1_epi64x(static_cast<int64_t>(m.const_ratio[0]));
  const __m256i r_hi =
      _mm256_set1_epi64x(static_cast<int64_t>(m.const_ratio[1]));
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i z_lo = Avx2MulLo64(va, vb);
    const __m256i z_hi = Avx2MulHi64(va, vb);
    const __m256i carry = Avx2MulHi64(z_lo, r_lo);
    const __m256i m1_lo = _mm256_add_epi64(Avx2MulLo64(z_lo, r_hi), carry);
    __m256i m1_hi = Avx2MulHi64(z_lo, r_hi);
    m1_hi = _mm256_sub_epi64(m1_hi, Avx2CmpLtU64(m1_lo, carry));
    const __m256i m2_lo = _mm256_add_epi64(Avx2MulLo64(z_hi, r_lo), m1_lo);
    __m256i m2_hi = Avx2MulHi64(z_hi, r_lo);
    m2_hi = _mm256_sub_epi64(m2_hi, Avx2CmpLtU64(m2_lo, m1_lo));
    const __m256i q_est = _mm256_add_epi64(
        _mm256_add_epi64(Avx2MulLo64(z_hi, r_hi), m1_hi), m2_hi);
    const __m256i r = _mm256_sub_epi64(z_lo, Avx2MulLo64(q_est, vq));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), Avx2CSub(r, vq));
  }
  for (; j < n; ++j) a[j] = MulMod(a[j], b[j], m);
}

VFPS_TARGET_AVX2 void MulModShoupAvx2(uint64_t* a, size_t n, uint64_t w,
                                      uint64_t w_shoup, uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  const __m256i vw = _mm256_set1_epi64x(static_cast<int64_t>(w));
  const __m256i vws = _mm256_set1_epi64x(static_cast<int64_t>(w_shoup));
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + j));
    const __m256i lazy = Avx2MulModShoupLazy(va, vw, vws, vq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), Avx2CSub(lazy, vq));
  }
  for (; j < n; ++j) a[j] = MulModShoup(a[j], w, w_shoup, q);
}

VFPS_TARGET_AVX2 void RescaleRoundAvx2(uint64_t* dst, const uint64_t* src,
                                       const uint64_t* last, size_t n,
                                       uint64_t q_last, const Modulus& m,
                                       uint64_t q_last_inv,
                                       uint64_t q_last_inv_shoup) {
  const uint64_t q = m.value;
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  const __m256i v_qlast = _mm256_set1_epi64x(static_cast<int64_t>(q_last));
  const __m256i v_half = _mm256_set1_epi64x(static_cast<int64_t>(q_last / 2));
  const __m256i ratio_hi =
      _mm256_set1_epi64x(static_cast<int64_t>(m.const_ratio[1]));
  const __m256i v_inv = _mm256_set1_epi64x(static_cast<int64_t>(q_last_inv));
  const __m256i v_invs =
      _mm256_set1_epi64x(static_cast<int64_t>(q_last_inv_shoup));
  const __m256i zero = _mm256_setzero_si256();
  size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256i vr =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(last + c));
    // Centered remainder: reduce r (small half) or q_last - r (big half).
    const __m256i big = Avx2CmpLtU64(v_half, vr);
    const __m256i sel =
        _mm256_blendv_epi8(vr, _mm256_sub_epi64(v_qlast, vr), big);
    const __m256i red = Avx2BarrettReduce64(sel, ratio_hi, vq);
    const __m256i is_zero = _mm256_cmpeq_epi64(red, zero);
    const __m256i neg =
        _mm256_andnot_si256(is_zero, _mm256_sub_epi64(vq, red));
    const __m256i r_mod_q = _mm256_blendv_epi8(red, neg, big);
    const __m256i vsrc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + c));
    const __m256i d = _mm256_sub_epi64(vsrc, r_mod_q);
    const __m256i lt = Avx2CmpLtU64(vsrc, r_mod_q);
    const __m256i t = _mm256_add_epi64(d, _mm256_and_si256(lt, vq));
    const __m256i lazy = Avx2MulModShoupLazy(t, v_inv, v_invs, vq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + c),
                        Avx2CSub(lazy, vq));
  }
  if (c < n) {
    RescaleRoundScalar(dst + c, src + c, last + c, n - c, q_last, m,
                       q_last_inv, q_last_inv_shoup);
  }
}

VFPS_TARGET_AVX2 void MulModShoupPointwiseAvx2(uint64_t* dst, const uint64_t* a,
                                               const uint64_t* w,
                                               const uint64_t* w_shoup,
                                               size_t n, uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
    const __m256i vw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + j));
    const __m256i vws =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w_shoup + j));
    const __m256i lazy = Avx2MulModShoupLazy(va, vw, vws, vq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), Avx2CSub(lazy, vq));
  }
  for (; j < n; ++j) dst[j] = MulModShoup(a[j], w[j], w_shoup[j], q);
}

// Nearest double to x < 2^63, as the scalar int64 cast rounds it: the halves
// x >> 32 and x mod 2^32 become exact doubles (2^84 and 2^52 mantissa
// tricks), and their sum rounds once.
VFPS_TARGET_AVX2 inline __m256d Avx2U63ToDouble(__m256i x) {
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(x, 32),
                                     _mm256_castpd_si256(_mm256_set1_pd(0x1p84)));
  const __m256i lo = _mm256_blend_epi32(
      x, _mm256_castpd_si256(_mm256_set1_pd(0x1p52)), 0xAA);
  const __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(hi),
                                     _mm256_set1_pd(0x1p84 + 0x1p52));
  return _mm256_add_pd(hi_d, _mm256_castsi256_pd(lo));
}

VFPS_TARGET_AVX2 void ComposeCrtAvx2(double* out, const uint64_t* r0,
                                     const uint64_t* r1, size_t n, uint64_t q0,
                                     const Modulus& m1, uint64_t q0_inv,
                                     uint64_t q0_inv_shoup) {
  const CrtConstants k(q0, m1.value);
  const __m256i vq0 = _mm256_set1_epi64x(static_cast<int64_t>(q0));
  const __m256i vq1 = _mm256_set1_epi64x(static_cast<int64_t>(m1.value));
  const __m256i c_mult = _mm256_set1_epi64x(static_cast<int64_t>(k.c_mult));
  const __m256i vinv = _mm256_set1_epi64x(static_cast<int64_t>(q0_inv));
  const __m256i vinvs = _mm256_set1_epi64x(static_cast<int64_t>(q0_inv_shoup));
  const __m256i half0 = _mm256_set1_epi64x(static_cast<int64_t>(k.half0));
  const __m256i half1 = _mm256_set1_epi64x(static_cast<int64_t>(k.half1));
  const __m256i q1m1 = _mm256_set1_epi64x(static_cast<int64_t>(k.q1_minus_1));
  const __m256i t_max = _mm256_set1_epi64x(static_cast<int64_t>(k.t_max));
  const __m256i sign = _mm256_set1_epi64x(static_cast<int64_t>(1ULL << 63));
  size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    // Every value below is < 2^62, so the signed 64-bit compares are exact.
    const __m256i x0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + c));
    const __m256i x1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + c));
    const __m256i diff = _mm256_sub_epi64(_mm256_add_epi64(x1, c_mult), x0);
    const __m256i t =
        Avx2CSub(Avx2MulModShoupLazy(diff, vinv, vinvs, vq1), vq1);
    const __m256i neg = _mm256_or_si256(
        _mm256_cmpgt_epi64(t, half1),
        _mm256_and_si256(_mm256_cmpeq_epi64(t, half1),
                         _mm256_cmpgt_epi64(x0, half0)));
    const __m256i tp =
        _mm256_blendv_epi8(t, _mm256_sub_epi64(q1m1, t), neg);
    const __m256i rp =
        _mm256_blendv_epi8(x0, _mm256_sub_epi64(vq0, x0), neg);
    const __m256i mag = _mm256_add_epi64(Avx2MulLo64(vq0, tp), rp);
    const __m256d value = _mm256_xor_pd(Avx2U63ToDouble(mag),
                                        _mm256_castsi256_pd(
                                            _mm256_and_si256(neg, sign)));
    _mm256_storeu_pd(out + c, value);
    const int slow = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(tp, t_max)));
    for (int l = 0; l < 4; ++l) {
      if ((slow >> l) & 1) {
        ComposeCrtScalar(out + c + l, r0 + c + l, r1 + c + l, 1, q0, m1,
                         q0_inv, q0_inv_shoup);
      }
    }
  }
  if (c < n) {
    ComposeCrtScalar(out + c, r0 + c, r1 + c, n - c, q0, m1, q0_inv,
                     q0_inv_shoup);
  }
}

// ---------------------------------------------------------------------------
// AVX-512 backends
// ---------------------------------------------------------------------------

VFPS_TARGET_AVX512 void AddModAvx512(uint64_t* a, const uint64_t* b, size_t n,
                                     uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __m512i vb = _mm512_loadu_si512(b + j);
    _mm512_storeu_si512(a + j, Avx512CSub(_mm512_add_epi64(va, vb), vq));
  }
  for (; j < n; ++j) a[j] = AddMod(a[j], b[j], q);
}

VFPS_TARGET_AVX512 void SubModAvx512(uint64_t* a, const uint64_t* b, size_t n,
                                     uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __m512i vb = _mm512_loadu_si512(b + j);
    const __m512i d = _mm512_sub_epi64(va, vb);
    const __mmask8 lt = _mm512_cmplt_epu64_mask(va, vb);
    _mm512_storeu_si512(a + j, _mm512_mask_add_epi64(d, lt, d, vq));
  }
  for (; j < n; ++j) a[j] = SubMod(a[j], b[j], q);
}

VFPS_TARGET_AVX512 void NegateModAvx512(uint64_t* a, size_t n, uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __mmask8 nz = _mm512_test_epi64_mask(va, va);
    _mm512_storeu_si512(a + j, _mm512_maskz_sub_epi64(nz, vq, va));
  }
  for (; j < n; ++j) a[j] = NegateMod(a[j], q);
}

VFPS_TARGET_AVX512 void MulModBarrettAvx512(uint64_t* a, const uint64_t* b,
                                            size_t n, const Modulus& m) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(m.value));
  const __m512i r_lo = _mm512_set1_epi64(static_cast<int64_t>(m.const_ratio[0]));
  const __m512i r_hi = _mm512_set1_epi64(static_cast<int64_t>(m.const_ratio[1]));
  const __m512i one = _mm512_set1_epi64(1);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __m512i vb = _mm512_loadu_si512(b + j);
    const __m512i z_lo = Avx512MulLo64(va, vb);
    const __m512i z_hi = Avx512MulHi64(va, vb);
    const __m512i carry = Avx512MulHi64(z_lo, r_lo);
    const __m512i m1_lo = _mm512_add_epi64(Avx512MulLo64(z_lo, r_hi), carry);
    __m512i m1_hi = Avx512MulHi64(z_lo, r_hi);
    m1_hi = _mm512_mask_add_epi64(m1_hi, _mm512_cmplt_epu64_mask(m1_lo, carry),
                                  m1_hi, one);
    const __m512i m2_lo = _mm512_add_epi64(Avx512MulLo64(z_hi, r_lo), m1_lo);
    __m512i m2_hi = Avx512MulHi64(z_hi, r_lo);
    m2_hi = _mm512_mask_add_epi64(m2_hi, _mm512_cmplt_epu64_mask(m2_lo, m1_lo),
                                  m2_hi, one);
    const __m512i q_est = _mm512_add_epi64(
        _mm512_add_epi64(Avx512MulLo64(z_hi, r_hi), m1_hi), m2_hi);
    const __m512i r = _mm512_sub_epi64(z_lo, Avx512MulLo64(q_est, vq));
    _mm512_storeu_si512(a + j, Avx512CSub(r, vq));
  }
  for (; j < n; ++j) a[j] = MulMod(a[j], b[j], m);
}

VFPS_TARGET_AVX512 void MulModShoupAvx512(uint64_t* a, size_t n, uint64_t w,
                                          uint64_t w_shoup, uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i vw = _mm512_set1_epi64(static_cast<int64_t>(w));
  const __m512i vws = _mm512_set1_epi64(static_cast<int64_t>(w_shoup));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + j);
    const __m512i lazy = Avx512MulModShoupLazy(va, vw, vws, vq);
    _mm512_storeu_si512(a + j, Avx512CSub(lazy, vq));
  }
  for (; j < n; ++j) a[j] = MulModShoup(a[j], w, w_shoup, q);
}

VFPS_TARGET_AVX512 void RescaleRoundAvx512(uint64_t* dst, const uint64_t* src,
                                           const uint64_t* last, size_t n,
                                           uint64_t q_last, const Modulus& m,
                                           uint64_t q_last_inv,
                                           uint64_t q_last_inv_shoup) {
  const uint64_t q = m.value;
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i v_qlast = _mm512_set1_epi64(static_cast<int64_t>(q_last));
  const __m512i v_half = _mm512_set1_epi64(static_cast<int64_t>(q_last / 2));
  const __m512i ratio_hi =
      _mm512_set1_epi64(static_cast<int64_t>(m.const_ratio[1]));
  const __m512i v_inv = _mm512_set1_epi64(static_cast<int64_t>(q_last_inv));
  const __m512i v_invs =
      _mm512_set1_epi64(static_cast<int64_t>(q_last_inv_shoup));
  size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512i vr = _mm512_loadu_si512(last + c);
    const __mmask8 big = _mm512_cmplt_epu64_mask(v_half, vr);
    const __m512i sel = _mm512_mask_sub_epi64(vr, big, v_qlast, vr);
    const __m512i red = Avx512BarrettReduce64(sel, ratio_hi, vq);
    const __mmask8 nz = _mm512_test_epi64_mask(red, red);
    const __m512i neg = _mm512_maskz_sub_epi64(nz, vq, red);
    const __m512i r_mod_q = _mm512_mask_mov_epi64(red, big, neg);
    const __m512i vsrc = _mm512_loadu_si512(src + c);
    const __m512i d = _mm512_sub_epi64(vsrc, r_mod_q);
    const __mmask8 lt = _mm512_cmplt_epu64_mask(vsrc, r_mod_q);
    const __m512i t = _mm512_mask_add_epi64(d, lt, d, vq);
    const __m512i lazy = Avx512MulModShoupLazy(t, v_inv, v_invs, vq);
    _mm512_storeu_si512(dst + c, Avx512CSub(lazy, vq));
  }
  if (c < n) {
    RescaleRoundScalar(dst + c, src + c, last + c, n - c, q_last, m,
                       q_last_inv, q_last_inv_shoup);
  }
}

VFPS_TARGET_AVX512 void MulModShoupPointwiseAvx512(uint64_t* dst,
                                                   const uint64_t* a,
                                                   const uint64_t* w,
                                                   const uint64_t* w_shoup,
                                                   size_t n, uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i lazy =
        Avx512MulModShoupLazy(_mm512_loadu_si512(a + j), _mm512_loadu_si512(w + j),
                              _mm512_loadu_si512(w_shoup + j), vq);
    _mm512_storeu_si512(dst + j, Avx512CSub(lazy, vq));
  }
  for (; j < n; ++j) dst[j] = MulModShoup(a[j], w[j], w_shoup[j], q);
}

// q < 2^50 and a[j] < q, so every operand fits the 52 bits IFMA reads; the
// 52-bit companion is the 64-bit one shifted right by 12.
VFPS_TARGET_IFMA void MulModShoupPointwiseIfma(uint64_t* dst, const uint64_t* a,
                                               const uint64_t* w,
                                               const uint64_t* w_shoup,
                                               size_t n, uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i vneg_q =
      _mm512_set1_epi64(static_cast<int64_t>((uint64_t{1} << 52) - q));
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i w52 = _mm512_srli_epi64(_mm512_loadu_si512(w_shoup + j), 12);
    const __m512i lazy = IfmaMulModShoupLazy(
        _mm512_loadu_si512(a + j), _mm512_loadu_si512(w + j), w52, vneg_q);
    _mm512_storeu_si512(dst + j, Avx512CSub(lazy, vq));
  }
  for (; j < n; ++j) dst[j] = MulModShoup(a[j], w[j], w_shoup[j], q);
}

VFPS_TARGET_AVX512 void ComposeCrtAvx512(double* out, const uint64_t* r0,
                                         const uint64_t* r1, size_t n,
                                         uint64_t q0, const Modulus& m1,
                                         uint64_t q0_inv,
                                         uint64_t q0_inv_shoup) {
  const CrtConstants k(q0, m1.value);
  const __m512i vq0 = _mm512_set1_epi64(static_cast<int64_t>(q0));
  const __m512i vq1 = _mm512_set1_epi64(static_cast<int64_t>(m1.value));
  const __m512i c_mult = _mm512_set1_epi64(static_cast<int64_t>(k.c_mult));
  const __m512i vinv = _mm512_set1_epi64(static_cast<int64_t>(q0_inv));
  const __m512i vinvs = _mm512_set1_epi64(static_cast<int64_t>(q0_inv_shoup));
  const __m512i half0 = _mm512_set1_epi64(static_cast<int64_t>(k.half0));
  const __m512i half1 = _mm512_set1_epi64(static_cast<int64_t>(k.half1));
  const __m512i q1m1 = _mm512_set1_epi64(static_cast<int64_t>(k.q1_minus_1));
  const __m512i t_max = _mm512_set1_epi64(static_cast<int64_t>(k.t_max));
  const __m512i sign = _mm512_set1_epi64(static_cast<int64_t>(1ULL << 63));
  size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512i x0 = _mm512_loadu_si512(r0 + c);
    const __m512i diff = _mm512_sub_epi64(
        _mm512_add_epi64(_mm512_loadu_si512(r1 + c), c_mult), x0);
    const __m512i t =
        Avx512CSub(Avx512MulModShoupLazy(diff, vinv, vinvs, vq1), vq1);
    const __mmask8 neg =
        _mm512_cmpgt_epu64_mask(t, half1) |
        (_mm512_cmpeq_epu64_mask(t, half1) & _mm512_cmpgt_epu64_mask(x0, half0));
    const __m512i tp = _mm512_mask_sub_epi64(t, neg, q1m1, t);
    const __m512i rp = _mm512_mask_sub_epi64(x0, neg, vq0, x0);
    const __m512i mag = _mm512_add_epi64(_mm512_mullo_epi64(vq0, tp), rp);
    const __m512i bits = _mm512_castpd_si512(_mm512_cvtepi64_pd(mag));
    _mm512_storeu_pd(out + c, _mm512_castsi512_pd(
                                  _mm512_mask_xor_epi64(bits, neg, bits, sign)));
    const __mmask8 slow = _mm512_cmpgt_epu64_mask(tp, t_max);
    for (int l = 0; l < 8; ++l) {
      if ((slow >> l) & 1) {
        ComposeCrtScalar(out + c + l, r0 + c + l, r1 + c + l, 1, q0, m1,
                         q0_inv, q0_inv_shoup);
      }
    }
  }
  if (c < n) {
    ComposeCrtScalar(out + c, r0 + c, r1 + c, n - c, q0, m1, q0_inv,
                     q0_inv_shoup);
  }
}

}  // namespace

#endif  // VFPS_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

void AddModVec(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      AddModAvx512(a, b, n, q);
      return;
    case simd::Isa::kAvx2:
      AddModAvx2(a, b, n, q);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  AddModScalar(a, b, n, q);
}

void SubModVec(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      SubModAvx512(a, b, n, q);
      return;
    case simd::Isa::kAvx2:
      SubModAvx2(a, b, n, q);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  SubModScalar(a, b, n, q);
}

void NegateModVec(uint64_t* a, size_t n, uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      NegateModAvx512(a, n, q);
      return;
    case simd::Isa::kAvx2:
      NegateModAvx2(a, n, q);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  NegateModScalar(a, n, q);
}

void MulModBarrettVec(uint64_t* a, const uint64_t* b, size_t n,
                      const Modulus& m) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      MulModBarrettAvx512(a, b, n, m);
      return;
    case simd::Isa::kAvx2:
      MulModBarrettAvx2(a, b, n, m);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  MulModBarrettScalar(a, b, n, m);
}

void MulModShoupVec(uint64_t* a, size_t n, uint64_t w, uint64_t w_shoup,
                    uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      MulModShoupAvx512(a, n, w, w_shoup, q);
      return;
    case simd::Isa::kAvx2:
      MulModShoupAvx2(a, n, w, w_shoup, q);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  MulModShoupScalar(a, n, w, w_shoup, q);
}

void MulModShoupPointwiseVec(uint64_t* dst, const uint64_t* a,
                             const uint64_t* w, const uint64_t* w_shoup,
                             size_t n, uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      if (UseIfma(q)) {
        MulModShoupPointwiseIfma(dst, a, w, w_shoup, n, q);
      } else {
        MulModShoupPointwiseAvx512(dst, a, w, w_shoup, n, q);
      }
      return;
    case simd::Isa::kAvx2:
      MulModShoupPointwiseAvx2(dst, a, w, w_shoup, n, q);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  MulModShoupPointwiseScalar(dst, a, w, w_shoup, n, q);
}

void ComposeCrtVec(double* out, const uint64_t* r0, const uint64_t* r1,
                   size_t n, uint64_t q0, const Modulus& m1, uint64_t q0_inv,
                   uint64_t q0_inv_shoup) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      ComposeCrtAvx512(out, r0, r1, n, q0, m1, q0_inv, q0_inv_shoup);
      return;
    case simd::Isa::kAvx2:
      ComposeCrtAvx2(out, r0, r1, n, q0, m1, q0_inv, q0_inv_shoup);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  ComposeCrtScalar(out, r0, r1, n, q0, m1, q0_inv, q0_inv_shoup);
}

void RescaleRoundVec(uint64_t* dst, const uint64_t* src, const uint64_t* last,
                     size_t n, uint64_t q_last, const Modulus& m,
                     uint64_t q_last_inv, uint64_t q_last_inv_shoup) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      RescaleRoundAvx512(dst, src, last, n, q_last, m, q_last_inv,
                         q_last_inv_shoup);
      return;
    case simd::Isa::kAvx2:
      RescaleRoundAvx2(dst, src, last, n, q_last, m, q_last_inv,
                       q_last_inv_shoup);
      return;
    case simd::Isa::kScalar:
      break;
  }
#endif
  RescaleRoundScalar(dst, src, last, n, q_last, m, q_last_inv,
                     q_last_inv_shoup);
}

}  // namespace vfps::he::detail
