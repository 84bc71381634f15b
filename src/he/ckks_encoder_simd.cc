// AVX2 / AVX-512 backends for the CKKS encoder: the split-array radix-2 FFT
// and the round-and-reduce step that turns its output into residues.
//
// FFT. Each butterfly computes t = w * v as (wr*vr - wi*vi, wr*vi + wi*vr)
// and then (u + t, u - t): the same multiplies, adds and subtracts, in the
// same order, as CkksEncoder::FftScalar, on 4 or 8 elements at a time.
// IEEE-754 rounds each of those operations per element, so as long as no
// multiply and add are fused the outputs are bit-identical to the scalar
// loop; this file builds with -ffp-contract=off for that reason (under
// -march=native the compiler would otherwise contract them into FMAs).
//
// Stages whose half length h is narrower than a vector (h = 1, 2, 4 on
// AVX-512; h = 1, 2 on AVX2) cannot load a run of u's or v's. All of them
// run on one load of a 16- (resp. 8-) element window: per stage, in-register
// permutes gather the u and v halves of the window's blocks into one vector
// each, the ordinary butterfly runs, and the results are permuted back into
// window order. Only the lane gathering differs from the scalar loop, and
// the blocks of a window are independent, so bit-identity is untouched.
//
// Both backends run the stages that fit one window (h up to 8 on AVX-512,
// up to 4 on AVX2) in its first pass, and the wider stages two per pass;
// the AVX-512 first pass also gathers its inputs (the encode's values, the
// decode's twisted coefficients) in place of the zero fill and the
// bit-reversed scatter. Each element still sees the scalar loop's
// operations in the scalar loop's order.
//
// Round and reduce. For |x| < 2^62, t = trunc(x), f = x - t, then t +/- 1
// when |f| >= 0.5 is llround(x): below 2^52 both steps are exact, and from
// 2^52 up x is already an integer. The integer is reduced into each prime
// exactly: AVX-512 takes a small-quotient reduction when a vector's values
// are all below 2^52, and otherwise (and AVX2 always) Barrett with the
// helpers of simd_math.h. A vector with a lane out of bounds (or NaN) ends
// the kernel; the scalar loop resumes at that vector and reports the
// overflow with its own message.

#include "he/ckks_encoder.h"
#include "he/simd_math.h"

namespace vfps::he {

#ifdef VFPS_SIMD_X86

namespace {

// Lane tables for the narrow AVX-512 stages. For half length h, a 16-lane
// window holds 16 / (2h) blocks; kU*/kV* gather the u and v halves of those
// blocks out of the two loaded vectors (indices 0-7 = first vector, 8-15 =
// second), kA*/kB* interleave the butterfly outputs (lo = u + t, hi = u - t)
// back into window order. For h = 4 the gather is its own inverse.
alignas(64) constexpr int64_t kU4[8] = {0, 1, 2, 3, 8, 9, 10, 11};
alignas(64) constexpr int64_t kV4[8] = {4, 5, 6, 7, 12, 13, 14, 15};
alignas(64) constexpr int64_t kU2[8] = {0, 1, 4, 5, 8, 9, 12, 13};
alignas(64) constexpr int64_t kV2[8] = {2, 3, 6, 7, 10, 11, 14, 15};
alignas(64) constexpr int64_t kA2[8] = {0, 1, 8, 9, 2, 3, 10, 11};
alignas(64) constexpr int64_t kB2[8] = {4, 5, 12, 13, 6, 7, 14, 15};
alignas(64) constexpr int64_t kU1[8] = {0, 2, 4, 6, 8, 10, 12, 14};
alignas(64) constexpr int64_t kV1[8] = {1, 3, 5, 7, 9, 11, 13, 15};
alignas(64) constexpr int64_t kA1[8] = {0, 8, 1, 9, 2, 10, 3, 11};
alignas(64) constexpr int64_t kB1[8] = {4, 12, 5, 13, 6, 14, 7, 15};

constexpr double kTwo32 = 4294967296.0;       // 2^32
constexpr double kTwoM32 = 1.0 / 4294967296.0;  // 2^-32
constexpr double kTwo52 = 4503599627370496.0;   // 2^52

// ---------------------------------------------------------------------------
// AVX-512
// ---------------------------------------------------------------------------

// (u, v) <- (u + w*v, u - w*v), in the scalar loop's operation order.
VFPS_TARGET_AVX512 inline void ButterflyAvx512(__m512d wr, __m512d wi,
                                               __m512d* ur, __m512d* ui,
                                               __m512d* vr, __m512d* vi) {
  const __m512d tr =
      _mm512_sub_pd(_mm512_mul_pd(wr, *vr), _mm512_mul_pd(wi, *vi));
  const __m512d ti =
      _mm512_add_pd(_mm512_mul_pd(wr, *vi), _mm512_mul_pd(wi, *vr));
  *vr = _mm512_sub_pd(*ur, tr);
  *vi = _mm512_sub_pd(*ui, ti);
  *ur = _mm512_add_pd(*ur, tr);
  *ui = _mm512_add_pd(*ui, ti);
}

// The stage twiddles as the u-vector of `gather` sees them: lane l holds the
// root of the element at window position gather[l], i.e. j = gather[l] % 2h.
VFPS_TARGET_AVX512 inline __m512d NarrowTwiddles(const double* w, size_t h,
                                                 const int64_t* gather) {
  alignas(64) double lanes[8];
  for (size_t l = 0; l < 8; ++l) {
    lanes[l] = w[static_cast<size_t>(gather[l]) % (2 * h)];
  }
  return _mm512_load_pd(lanes);
}

// One narrow stage on a window held as (r0, r1) real and (i0, i1) imaginary.
struct NarrowStage512 {
  __m512i u, v, a, b;
  __m512d wr, wi;
};

VFPS_TARGET_AVX512 inline NarrowStage512 MakeNarrowStage512(
    const double* root_re, const double* root_im, size_t h, const int64_t* u,
    const int64_t* v, const int64_t* a, const int64_t* b) {
  return {_mm512_load_si512(u),
          _mm512_load_si512(v),
          _mm512_load_si512(a),
          _mm512_load_si512(b),
          NarrowTwiddles(root_re + (h - 1), h, u),
          NarrowTwiddles(root_im + (h - 1), h, u)};
}

VFPS_TARGET_AVX512 inline void RunNarrowStage512(const NarrowStage512& s,
                                                 __m512d* r0, __m512d* r1,
                                                 __m512d* i0, __m512d* i1) {
  __m512d ur = _mm512_permutex2var_pd(*r0, s.u, *r1);
  __m512d vr = _mm512_permutex2var_pd(*r0, s.v, *r1);
  __m512d ui = _mm512_permutex2var_pd(*i0, s.u, *i1);
  __m512d vi = _mm512_permutex2var_pd(*i0, s.v, *i1);
  ButterflyAvx512(s.wr, s.wi, &ur, &ui, &vr, &vi);
  *r0 = _mm512_permutex2var_pd(ur, s.a, vr);
  *r1 = _mm512_permutex2var_pd(ur, s.b, vr);
  *i0 = _mm512_permutex2var_pd(ui, s.a, vi);
  *i1 = _mm512_permutex2var_pd(ui, s.b, vi);
}

// Offsets of a 16-element window's inputs: in bit-reversed order, element
// k + l of the transform input (k a multiple of 16, l < 16) is source
// element bit_rev[k] + rev4(l) * (n / 16), where rev4 reverses l's 4 bits.
VFPS_TARGET_AVX512 inline void WindowOffsets(size_t n, __m512i* lo,
                                             __m512i* hi) {
  alignas(64) int64_t offsets[16];
  for (int64_t l = 0; l < 16; ++l) {
    const int64_t rev4 =
        ((l & 1) << 3) | ((l & 2) << 1) | ((l & 4) >> 1) | ((l & 8) >> 3);
    offsets[l] = rev4 * static_cast<int64_t>(n / 16);
  }
  *lo = _mm512_load_si512(offsets);
  *hi = _mm512_load_si512(offsets + 8);
}

// First-pass source of the encode: the values gathered into bit-reversed
// order, zero past values.size() (masked lanes read nothing) and zero
// imaginary parts: the scalar path's zero fill and scatter, per window.
struct EncodeWindows {
  const double* values;
  const size_t* bit_rev;
  __m512i size, off_lo, off_hi;

  VFPS_TARGET_AVX512 void operator()(size_t k, __m512d* r0, __m512d* r1,
                                     __m512d* i0, __m512d* i1) const {
    const __m512i base = _mm512_set1_epi64(static_cast<int64_t>(bit_rev[k]));
    const __m512i idx0 = _mm512_add_epi64(base, off_lo);
    const __m512i idx1 = _mm512_add_epi64(base, off_hi);
    const __m512d zero = _mm512_setzero_pd();
    *r0 = _mm512_mask_i64gather_pd(zero, _mm512_cmplt_epu64_mask(idx0, size),
                                   idx0, values, 8);
    *r1 = _mm512_mask_i64gather_pd(zero, _mm512_cmplt_epu64_mask(idx1, size),
                                   idx1, values, 8);
    *i0 = zero;
    *i1 = zero;
  }
};

// First-pass source of the decode: coefficient bit_rev[m] times its twist
// factor, which twist_*_br holds at m, so each product is the scalar
// path's twist_*[k] * coeffs[k] for k = bit_rev[m].
struct DecodeWindows {
  const double* coeffs;
  const size_t* bit_rev;
  const double* twist_re_br;
  const double* twist_im_br;
  __m512i off_lo, off_hi;

  VFPS_TARGET_AVX512 void operator()(size_t k, __m512d* r0, __m512d* r1,
                                     __m512d* i0, __m512d* i1) const {
    const __m512i base = _mm512_set1_epi64(static_cast<int64_t>(bit_rev[k]));
    const __m512d zero = _mm512_setzero_pd();
    const __m512d c0 = _mm512_mask_i64gather_pd(
        zero, 0xFF, _mm512_add_epi64(base, off_lo), coeffs, 8);
    const __m512d c1 = _mm512_mask_i64gather_pd(
        zero, 0xFF, _mm512_add_epi64(base, off_hi), coeffs, 8);
    *r0 = _mm512_mul_pd(_mm512_loadu_pd(twist_re_br + k), c0);
    *r1 = _mm512_mul_pd(_mm512_loadu_pd(twist_re_br + k + 8), c1);
    *i0 = _mm512_mul_pd(_mm512_loadu_pd(twist_im_br + k), c0);
    *i1 = _mm512_mul_pd(_mm512_loadu_pd(twist_im_br + k + 8), c1);
  }
};

// Stages h and 2h in one pass: per block of 4h, the h-stage butterflies of
// its two halves, then the 2h-stage butterflies across them. Each element
// sees the same operations, in the same order, as in two separate passes.
VFPS_TARGET_AVX512 void RadixFourPassAvx512(double* re, double* im, size_t n,
                                            size_t h, const double* root_re,
                                            const double* root_im) {
  const double* w1r = root_re + (h - 1);
  const double* w1i = root_im + (h - 1);
  const double* w2r = root_re + (2 * h - 1);
  const double* w2i = root_im + (2 * h - 1);
  for (size_t i = 0; i < n; i += 4 * h) {
    for (size_t j = 0; j < h; j += 8) {
      double* xr[4];
      double* xi[4];
      __m512d r[4], m[4];
      for (size_t x = 0; x < 4; ++x) {
        xr[x] = re + i + x * h + j;
        xi[x] = im + i + x * h + j;
        r[x] = _mm512_loadu_pd(xr[x]);
        m[x] = _mm512_loadu_pd(xi[x]);
      }
      const __m512d ar = _mm512_loadu_pd(w1r + j);
      const __m512d ai = _mm512_loadu_pd(w1i + j);
      ButterflyAvx512(ar, ai, &r[0], &m[0], &r[1], &m[1]);
      ButterflyAvx512(ar, ai, &r[2], &m[2], &r[3], &m[3]);
      ButterflyAvx512(_mm512_loadu_pd(w2r + j), _mm512_loadu_pd(w2i + j),
                      &r[0], &m[0], &r[2], &m[2]);
      ButterflyAvx512(_mm512_loadu_pd(w2r + h + j),
                      _mm512_loadu_pd(w2i + h + j), &r[1], &m[1], &r[3],
                      &m[3]);
      for (size_t x = 0; x < 4; ++x) {
        _mm512_storeu_pd(xr[x], r[x]);
        _mm512_storeu_pd(xi[x], m[x]);
      }
    }
  }
}

VFPS_TARGET_AVX512 void RadixTwoPassAvx512(double* re, double* im, size_t n,
                                           size_t h, const double* root_re,
                                           const double* root_im) {
  const double* wr = root_re + (h - 1);
  const double* wi = root_im + (h - 1);
  for (size_t i = 0; i < n; i += 2 * h) {
    for (size_t j = 0; j < h; j += 8) {
      __m512d ur = _mm512_loadu_pd(re + i + j);
      __m512d ui = _mm512_loadu_pd(im + i + j);
      __m512d vr = _mm512_loadu_pd(re + i + h + j);
      __m512d vi = _mm512_loadu_pd(im + i + h + j);
      ButterflyAvx512(_mm512_loadu_pd(wr + j), _mm512_loadu_pd(wi + j), &ur,
                      &ui, &vr, &vi);
      _mm512_storeu_pd(re + i + j, ur);
      _mm512_storeu_pd(im + i + j, ui);
      _mm512_storeu_pd(re + i + h + j, vr);
      _mm512_storeu_pd(im + i + h + j, vi);
    }
  }
}

// n >= 16. The first pass loads each 16-element window from `windows` and
// runs the stages h = 1, 2, 4 (in-register lane gathers) and h = 8 (the
// window's two halves) on it; the wider stages then go two per pass.
template <typename Windows>
VFPS_TARGET_AVX512 void FftAvx512Impl(double* re, double* im, size_t n,
                                      const double* root_re,
                                      const double* root_im,
                                      const Windows& windows) {
  const NarrowStage512 s1 =
      MakeNarrowStage512(root_re, root_im, 1, kU1, kV1, kA1, kB1);
  const NarrowStage512 s2 =
      MakeNarrowStage512(root_re, root_im, 2, kU2, kV2, kA2, kB2);
  const NarrowStage512 s4 =
      MakeNarrowStage512(root_re, root_im, 4, kU4, kV4, kU4, kV4);
  const __m512d w8r = _mm512_loadu_pd(root_re + 7);
  const __m512d w8i = _mm512_loadu_pd(root_im + 7);
  for (size_t k = 0; k < n; k += 16) {
    __m512d r0, r1, i0, i1;
    windows(k, &r0, &r1, &i0, &i1);
    RunNarrowStage512(s1, &r0, &r1, &i0, &i1);
    RunNarrowStage512(s2, &r0, &r1, &i0, &i1);
    RunNarrowStage512(s4, &r0, &r1, &i0, &i1);
    ButterflyAvx512(w8r, w8i, &r0, &i0, &r1, &i1);
    _mm512_storeu_pd(re + k, r0);
    _mm512_storeu_pd(re + k + 8, r1);
    _mm512_storeu_pd(im + k, i0);
    _mm512_storeu_pd(im + k + 8, i1);
  }
  for (size_t h = 16; h < n; h <<= 2) {
    if (2 * h < n) {
      RadixFourPassAvx512(re, im, n, h, root_re, root_im);
    } else {
      RadixTwoPassAvx512(re, im, n, h, root_re, root_im);
    }
  }
}

VFPS_TARGET_AVX512 void ForwardFromValuesAvx512Impl(
    std::span<const double> values, const size_t* bit_rev, double* re,
    double* im, size_t n, const double* root_re, const double* root_im) {
  EncodeWindows windows{values.data(), bit_rev,
                        _mm512_set1_epi64(static_cast<int64_t>(values.size())),
                        {}, {}};
  WindowOffsets(n, &windows.off_lo, &windows.off_hi);
  FftAvx512Impl(re, im, n, root_re, root_im, windows);
}

VFPS_TARGET_AVX512 void InverseFromCoeffsAvx512Impl(
    const double* coeffs, const size_t* bit_rev, const double* twist_re_br,
    const double* twist_im_br, double* re, double* im, size_t n,
    const double* root_re, const double* root_im) {
  DecodeWindows windows{coeffs, bit_rev, twist_re_br, twist_im_br, {}, {}};
  WindowOffsets(n, &windows.off_lo, &windows.off_hi);
  FftAvx512Impl(re, im, n, root_re, root_im, windows);
}

VFPS_TARGET_AVX512 size_t RoundAndReduceAvx512Impl(
    const double* re, const double* im, const double* twist_re,
    const double* twist_im, size_t n, double scale, double bound,
    const RnsContext& ctx, RnsPoly* out) {
  const __m512d vinv = _mm512_set1_pd(2.0 / static_cast<double>(n));
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vbound = _mm512_set1_pd(bound);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d sign_bit = _mm512_set1_pd(-0.0);
  const __m512d two52 = _mm512_set1_pd(kTwo52);
  const __m512i zero = _mm512_setzero_si512();
  const size_t primes = out->num_primes();
  __m512i vq[RnsContext::kMaxPrimes], ratio[RnsContext::kMaxPrimes];
  __m512d inv_q[RnsContext::kMaxPrimes];
  uint64_t* dst[RnsContext::kMaxPrimes];
  for (size_t i = 0; i < primes; ++i) {
    const Modulus& m = ctx.modulus(i);
    vq[i] = _mm512_set1_epi64(static_cast<int64_t>(m.value));
    ratio[i] = _mm512_set1_epi64(static_cast<int64_t>(m.const_ratio[1]));
    inv_q[i] = _mm512_set1_pd(1.0 / static_cast<double>(m.value));
    dst[i] = out->residues[i].data();
  }
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    // c_k = (2/n) * Re(w^{-k} * A_k) * scale, in the scalar association.
    const __m512d dot = _mm512_add_pd(
        _mm512_mul_pd(_mm512_loadu_pd(twist_re + k), _mm512_loadu_pd(re + k)),
        _mm512_mul_pd(_mm512_loadu_pd(twist_im + k), _mm512_loadu_pd(im + k)));
    const __m512d c = _mm512_mul_pd(_mm512_mul_pd(vinv, dot), vscale);
    if (_mm512_cmp_pd_mask(_mm512_abs_pd(c), vbound, _CMP_LT_OQ) != 0xFF) {
      break;
    }
    __m512d t = _mm512_roundscale_pd(c, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __mmask8 bump = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(c, t)), half, _CMP_GE_OQ);
    const __m512d step = _mm512_or_pd(_mm512_and_pd(c, sign_bit), one);
    t = _mm512_mask_add_pd(t, bump, t, step);
    const __m512i rounded = _mm512_cvttpd_epi64(t);
    if (_mm512_cmp_pd_mask(_mm512_abs_pd(t), two52, _CMP_LT_OQ) == 0xFF) {
      // Small quotients: |t| < 2^52 is exact, and floor(t * (1/q)) is off
      // from floor(t / q) by at most one (its relative error is ~2^-52 and
      // |t / q| < 2^52 / q), so t - floor(...) * q lies in [-q, 2q) and one
      // correction each way gives the residue in [0, q). Negative t lands
      // there directly, with no q - r step.
      for (size_t i = 0; i < primes; ++i) {
        const __m512d quo = _mm512_roundscale_pd(
            _mm512_mul_pd(t, inv_q[i]), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        __m512i r = _mm512_sub_epi64(
            rounded, _mm512_mullo_epi64(_mm512_cvttpd_epi64(quo), vq[i]));
        r = _mm512_mask_add_epi64(r, _mm512_cmplt_epi64_mask(r, zero), r,
                                  vq[i]);
        _mm512_storeu_si512(dst[i] + k, detail::Avx512CSub(r, vq[i]));
      }
      continue;
    }
    const __mmask8 neg = _mm512_cmplt_epi64_mask(rounded, zero);
    const __m512i mag = _mm512_abs_epi64(rounded);
    for (size_t i = 0; i < primes; ++i) {
      const __m512i r = detail::Avx512BarrettReduce64(mag, ratio[i], vq[i]);
      // Negative and nonzero: q - r.
      const __mmask8 flip = neg & _mm512_test_epi64_mask(r, r);
      _mm512_storeu_si512(dst[i] + k, _mm512_mask_sub_epi64(r, flip, vq[i], r));
    }
  }
  return k;
}

// ---------------------------------------------------------------------------
// AVX2
// ---------------------------------------------------------------------------

VFPS_TARGET_AVX2 inline void ButterflyAvx2(__m256d wr, __m256d wi,
                                           __m256d* ur, __m256d* ui,
                                           __m256d* vr, __m256d* vi) {
  const __m256d tr =
      _mm256_sub_pd(_mm256_mul_pd(wr, *vr), _mm256_mul_pd(wi, *vi));
  const __m256d ti =
      _mm256_add_pd(_mm256_mul_pd(wr, *vi), _mm256_mul_pd(wi, *vr));
  *vr = _mm256_sub_pd(*ur, tr);
  *vi = _mm256_sub_pd(*ui, ti);
  *ur = _mm256_add_pd(*ur, tr);
  *ui = _mm256_add_pd(*ui, ti);
}

// h = 1 on an 8-element window: blocks are [u v]; unpacklo gathers the u's
// (every lane has the same root), unpackhi the v's, and the same pair of
// unpacks restores window order.
VFPS_TARGET_AVX2 inline void Stage1Avx2(__m256d wr, __m256d wi, __m256d* x0,
                                        __m256d* x1, __m256d* y0,
                                        __m256d* y1) {
  __m256d ur = _mm256_unpacklo_pd(*x0, *x1);
  __m256d vr = _mm256_unpackhi_pd(*x0, *x1);
  __m256d ui = _mm256_unpacklo_pd(*y0, *y1);
  __m256d vi = _mm256_unpackhi_pd(*y0, *y1);
  ButterflyAvx2(wr, wi, &ur, &ui, &vr, &vi);
  *x0 = _mm256_unpacklo_pd(ur, vr);
  *x1 = _mm256_unpackhi_pd(ur, vr);
  *y0 = _mm256_unpacklo_pd(ui, vi);
  *y1 = _mm256_unpackhi_pd(ui, vi);
}

// h = 2: blocks are [u0 u1 v0 v1]; the low 128-bit halves are the u's (roots
// {w0, w1, w0, w1}), the high halves the v's.
VFPS_TARGET_AVX2 inline void Stage2Avx2(__m256d wr, __m256d wi, __m256d* x0,
                                        __m256d* x1, __m256d* y0,
                                        __m256d* y1) {
  __m256d ur = _mm256_permute2f128_pd(*x0, *x1, 0x20);
  __m256d vr = _mm256_permute2f128_pd(*x0, *x1, 0x31);
  __m256d ui = _mm256_permute2f128_pd(*y0, *y1, 0x20);
  __m256d vi = _mm256_permute2f128_pd(*y0, *y1, 0x31);
  ButterflyAvx2(wr, wi, &ur, &ui, &vr, &vi);
  *x0 = _mm256_permute2f128_pd(ur, vr, 0x20);
  *x1 = _mm256_permute2f128_pd(ur, vr, 0x31);
  *y0 = _mm256_permute2f128_pd(ui, vi, 0x20);
  *y1 = _mm256_permute2f128_pd(ui, vi, 0x31);
}

// Stages h and 2h in one pass (see RadixFourPassAvx512).
VFPS_TARGET_AVX2 void RadixFourPassAvx2(double* re, double* im, size_t n,
                                        size_t h, const double* root_re,
                                        const double* root_im) {
  const double* w1r = root_re + (h - 1);
  const double* w1i = root_im + (h - 1);
  const double* w2r = root_re + (2 * h - 1);
  const double* w2i = root_im + (2 * h - 1);
  for (size_t i = 0; i < n; i += 4 * h) {
    for (size_t j = 0; j < h; j += 4) {
      double* xr[4];
      double* xi[4];
      __m256d r[4], m[4];
      for (size_t x = 0; x < 4; ++x) {
        xr[x] = re + i + x * h + j;
        xi[x] = im + i + x * h + j;
        r[x] = _mm256_loadu_pd(xr[x]);
        m[x] = _mm256_loadu_pd(xi[x]);
      }
      const __m256d ar = _mm256_loadu_pd(w1r + j);
      const __m256d ai = _mm256_loadu_pd(w1i + j);
      ButterflyAvx2(ar, ai, &r[0], &m[0], &r[1], &m[1]);
      ButterflyAvx2(ar, ai, &r[2], &m[2], &r[3], &m[3]);
      ButterflyAvx2(_mm256_loadu_pd(w2r + j), _mm256_loadu_pd(w2i + j), &r[0],
                    &m[0], &r[2], &m[2]);
      ButterflyAvx2(_mm256_loadu_pd(w2r + h + j), _mm256_loadu_pd(w2i + h + j),
                    &r[1], &m[1], &r[3], &m[3]);
      for (size_t x = 0; x < 4; ++x) {
        _mm256_storeu_pd(xr[x], r[x]);
        _mm256_storeu_pd(xi[x], m[x]);
      }
    }
  }
}

VFPS_TARGET_AVX2 void RadixTwoPassAvx2(double* re, double* im, size_t n,
                                       size_t h, const double* root_re,
                                       const double* root_im) {
  const double* wr = root_re + (h - 1);
  const double* wi = root_im + (h - 1);
  for (size_t i = 0; i < n; i += 2 * h) {
    for (size_t j = 0; j < h; j += 4) {
      __m256d ur = _mm256_loadu_pd(re + i + j);
      __m256d ui = _mm256_loadu_pd(im + i + j);
      __m256d vr = _mm256_loadu_pd(re + i + h + j);
      __m256d vi = _mm256_loadu_pd(im + i + h + j);
      ButterflyAvx2(_mm256_loadu_pd(wr + j), _mm256_loadu_pd(wi + j), &ur,
                    &ui, &vr, &vi);
      _mm256_storeu_pd(re + i + j, ur);
      _mm256_storeu_pd(im + i + j, ui);
      _mm256_storeu_pd(re + i + h + j, vr);
      _mm256_storeu_pd(im + i + h + j, vi);
    }
  }
}

// n >= 8. The first pass runs h = 1, 2 (in-register lane gathers) and
// h = 4 (the window's two halves) on each 8-element window; the wider
// stages then go two per pass.
VFPS_TARGET_AVX2 void FftAvx2Impl(double* re, double* im, size_t n,
                                  const double* root_re,
                                  const double* root_im) {
  const __m256d w1r = _mm256_set1_pd(root_re[0]);
  const __m256d w1i = _mm256_set1_pd(root_im[0]);
  const __m256d w2r = _mm256_setr_pd(root_re[1], root_re[2], root_re[1],
                                     root_re[2]);
  const __m256d w2i = _mm256_setr_pd(root_im[1], root_im[2], root_im[1],
                                     root_im[2]);
  const __m256d w4r = _mm256_loadu_pd(root_re + 3);
  const __m256d w4i = _mm256_loadu_pd(root_im + 3);
  for (size_t k = 0; k < n; k += 8) {
    __m256d r0 = _mm256_loadu_pd(re + k);
    __m256d r1 = _mm256_loadu_pd(re + k + 4);
    __m256d i0 = _mm256_loadu_pd(im + k);
    __m256d i1 = _mm256_loadu_pd(im + k + 4);
    Stage1Avx2(w1r, w1i, &r0, &r1, &i0, &i1);
    Stage2Avx2(w2r, w2i, &r0, &r1, &i0, &i1);
    ButterflyAvx2(w4r, w4i, &r0, &i0, &r1, &i1);
    _mm256_storeu_pd(re + k, r0);
    _mm256_storeu_pd(re + k + 4, r1);
    _mm256_storeu_pd(im + k, i0);
    _mm256_storeu_pd(im + k + 4, i1);
  }
  for (size_t h = 8; h < n; h <<= 2) {
    if (2 * h < n) {
      RadixFourPassAvx2(re, im, n, h, root_re, root_im);
    } else {
      RadixTwoPassAvx2(re, im, n, h, root_re, root_im);
    }
  }
}

// Exact integer doubles in [0, 2^52) to uint64: v + 2^52 has v in its
// mantissa bits.
VFPS_TARGET_AVX2 inline __m256i SmallDoubleToU64(__m256d v) {
  const __m256d magic = _mm256_set1_pd(kTwo52);
  return _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(v, magic)),
                          _mm256_castpd_si256(magic));
}

VFPS_TARGET_AVX2 size_t RoundAndReduceAvx2Impl(
    const double* re, const double* im, const double* twist_re,
    const double* twist_im, size_t n, double scale, double bound,
    const RnsContext& ctx, RnsPoly* out) {
  const __m256d vinv = _mm256_set1_pd(2.0 / static_cast<double>(n));
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vbound = _mm256_set1_pd(bound);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d two32 = _mm256_set1_pd(kTwo32);
  const __m256d two_m32 = _mm256_set1_pd(kTwoM32);
  const size_t primes = out->num_primes();
  __m256i vq[RnsContext::kMaxPrimes], ratio[RnsContext::kMaxPrimes];
  uint64_t* dst[RnsContext::kMaxPrimes];
  for (size_t i = 0; i < primes; ++i) {
    const Modulus& m = ctx.modulus(i);
    vq[i] = _mm256_set1_epi64x(static_cast<int64_t>(m.value));
    ratio[i] = _mm256_set1_epi64x(static_cast<int64_t>(m.const_ratio[1]));
    dst[i] = out->residues[i].data();
  }
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d dot = _mm256_add_pd(
        _mm256_mul_pd(_mm256_loadu_pd(twist_re + k), _mm256_loadu_pd(re + k)),
        _mm256_mul_pd(_mm256_loadu_pd(twist_im + k), _mm256_loadu_pd(im + k)));
    const __m256d c = _mm256_mul_pd(_mm256_mul_pd(vinv, dot), vscale);
    const __m256d in_bounds =
        _mm256_cmp_pd(_mm256_andnot_pd(sign_bit, c), vbound, _CMP_LT_OQ);
    if (_mm256_movemask_pd(in_bounds) != 0xF) break;
    __m256d t = _mm256_round_pd(c, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d bump = _mm256_cmp_pd(
        _mm256_andnot_pd(sign_bit, _mm256_sub_pd(c, t)), half, _CMP_GE_OQ);
    const __m256d step = _mm256_or_pd(_mm256_and_pd(c, sign_bit), one);
    t = _mm256_blendv_pd(t, _mm256_add_pd(t, step), bump);
    // AVX2 has no double -> int64 conversion: split |t| < 2^62 into exact
    // 32-bit halves (scaling by 2^-32 and the subtraction are both exact).
    const __m256d abs_t = _mm256_andnot_pd(sign_bit, t);
    const __m256d hi = _mm256_round_pd(_mm256_mul_pd(abs_t, two_m32),
                                       _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d lo = _mm256_sub_pd(abs_t, _mm256_mul_pd(hi, two32));
    const __m256i mag = _mm256_add_epi64(
        _mm256_slli_epi64(SmallDoubleToU64(hi), 32), SmallDoubleToU64(lo));
    const __m256i neg = _mm256_castpd_si256(
        _mm256_cmp_pd(t, _mm256_setzero_pd(), _CMP_LT_OQ));
    for (size_t i = 0; i < primes; ++i) {
      const __m256i r = detail::Avx2BarrettReduce64(mag, ratio[i], vq[i]);
      // Negative and nonzero: q - r.
      const __m256i flip = _mm256_andnot_si256(
          _mm256_cmpeq_epi64(r, _mm256_setzero_si256()), neg);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst[i] + k),
                          _mm256_blendv_epi8(r, _mm256_sub_epi64(vq[i], r), flip));
    }
  }
  return k;
}

}  // namespace

void CkksEncoder::FftAvx2(double* re, double* im,
                          const double* roots_im) const {
  FftAvx2Impl(re, im, ctx_->n(), root_re_.data(), roots_im);
}

void CkksEncoder::ForwardFromValuesAvx512(std::span<const double> values,
                                          double* re, double* im) const {
  ForwardFromValuesAvx512Impl(values, bit_rev_.data(), re, im, ctx_->n(),
                              root_re_.data(), root_im_.data());
}

void CkksEncoder::InverseFromCoeffsAvx512(const double* coeffs, double* re,
                                          double* im) const {
  InverseFromCoeffsAvx512Impl(coeffs, bit_rev_.data(), twist_re_br_.data(),
                              twist_im_br_.data(), re, im, ctx_->n(),
                              root_re_.data(), root_im_inv_.data());
}

size_t CkksEncoder::RoundAndReduceAvx2(const double* re, const double* im,
                                       double scale, RnsPoly* out) const {
  return RoundAndReduceAvx2Impl(re, im, twist_re_.data(), twist_im_.data(),
                                ctx_->n(), scale, coeff_bound_, *ctx_, out);
}

size_t CkksEncoder::RoundAndReduceAvx512(const double* re, const double* im,
                                         double scale, RnsPoly* out) const {
  return RoundAndReduceAvx512Impl(re, im, twist_re_.data(), twist_im_.data(),
                                  ctx_->n(), scale, coeff_bound_, *ctx_, out);
}

#else  // !VFPS_SIMD_X86

// Non-x86 builds: the dispatcher never selects these, but the symbols must
// exist. The FFT delegates to the scalar reference; round-and-reduce leaves
// every coefficient to the scalar loop.
void CkksEncoder::FftAvx2(double* re, double* im,
                          const double* roots_im) const {
  FftScalar(re, im, roots_im);
}
void CkksEncoder::ForwardFromValuesAvx512(std::span<const double>, double*,
                                          double*) const {}
void CkksEncoder::InverseFromCoeffsAvx512(const double*, double*,
                                          double*) const {}
size_t CkksEncoder::RoundAndReduceAvx2(const double*, const double*, double,
                                       RnsPoly*) const {
  return 0;
}
size_t CkksEncoder::RoundAndReduceAvx512(const double*, const double*, double,
                                         RnsPoly*) const {
  return 0;
}

#endif  // VFPS_SIMD_X86

}  // namespace vfps::he
