// Dispatched residue-vector kernels (see poly_simd.h for the contract).
//
// Layout of this file: scalar references first (the oracle the differential
// test compares against), then the AVX2 and AVX-512 (and IFMA) backends
// composed from the exact helpers in simd_math.h, then the thin
// ActiveIsa() dispatchers. The backends compute the same residues as their
// scalar references, mostly by the same unsigned 64-bit operations in the
// same order; where they take another route (the IFMA products, the
// AVX-512 encoder's small-quotient reduction, the vector CRT decode) the
// comments there say why the results are still the same.

#include "he/poly_simd.h"

#include <algorithm>
#include <cmath>

#include "he/simd_math.h"
#include "simd/simd.h"

namespace vfps::he::detail {

// ---------------------------------------------------------------------------
// Scalar references
// ---------------------------------------------------------------------------

void AddModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = AddMod(a[j], b[j], q);
}

void NegateModScalar(uint64_t* a, size_t n, uint64_t q) {
  for (size_t j = 0; j < n; ++j) a[j] = NegateMod(a[j], q);
}

void MulModBarrettScalar(uint64_t* a, const uint64_t* b, size_t n,
                         const Modulus& m) {
  for (size_t j = 0; j < n; ++j) a[j] = MulMod(a[j], b[j], m);
}

bool MulAddModShoupScalar(uint8_t* dst, const uint8_t* a, const uint64_t* w,
                          const uint64_t* w_shoup, const uint8_t* b, size_t n,
                          uint64_t q) {
  uint64_t bad = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t x = LoadWord(a + 8 * j);
    const uint64_t y = LoadWord(b + 8 * j);
    bad |= static_cast<uint64_t>(x >= q) | static_cast<uint64_t>(y >= q);
    StoreWord(dst + 8 * j, AddMod(MulModShoup(x, w[j], w_shoup[j], q), y, q));
  }
  return bad == 0;
}

namespace {
// SumModScalar over coefficients [begin, end) of every source: the whole
// reference, and the vector kernels' ragged tail.
bool SumModRange(uint8_t* dst, const uint8_t* const* src, size_t count,
                 size_t begin, size_t end, uint64_t q) {
  uint64_t bad = 0;
  for (size_t j = begin; j < end; ++j) {
    uint64_t acc = LoadWord(src[0] + 8 * j);
    bad |= static_cast<uint64_t>(acc >= q);
    for (size_t i = 1; i < count; ++i) {
      const uint64_t v = LoadWord(src[i] + 8 * j);
      bad |= static_cast<uint64_t>(v >= q);
      acc = AddMod(acc, v, q);
    }
    StoreWord(dst + 8 * j, acc);
  }
  return bad == 0;
}
}  // namespace

bool SumModScalar(uint8_t* dst, const uint8_t* const* src, size_t count,
                  size_t n, uint64_t q) {
  return SumModRange(dst, src, count, 0, n, q);
}

namespace {
// RoundAndReduceScalar over coefficients [begin, end): the whole reference,
// and the vector kernels' ragged tail and the vector they stopped at.
size_t RoundAndReduceRange(uint64_t* const* dst, const Modulus* moduli,
                           size_t num_primes, const double* values,
                           size_t begin, size_t end, double scale,
                           double bound) {
  for (size_t j = begin; j < end; ++j) {
    const double c = values[j] * scale;
    if (!(std::abs(c) < bound)) return j;
    // llround(c): below 2^52 the fraction c - t is exact and t +/- 1 is
    // exact; from 2^52 up c is an integer and the fraction is 0. So
    // |t| < 2^62 and the rounded magnitude fits one 64-bit word.
    double t = std::trunc(c);
    if (std::abs(c - t) >= 0.5) t += std::copysign(1.0, c);
    const int64_t rounded = static_cast<int64_t>(t);
    const uint64_t mag = static_cast<uint64_t>(rounded >= 0 ? rounded : -rounded);
    for (size_t i = 0; i < num_primes; ++i) {
      const uint64_t r = BarrettReduce64(mag, moduli[i]);
      dst[i][j] = (rounded >= 0 || r == 0) ? r : moduli[i].value - r;
    }
  }
  return end;
}
}  // namespace

size_t RoundAndReduceScalar(uint64_t* const* dst, const Modulus* moduli,
                            size_t num_primes, const double* values, size_t n,
                            double scale, double bound) {
  return RoundAndReduceRange(dst, moduli, num_primes, values, 0, n, scale,
                             bound);
}

namespace {
// The sampler maps' scalar code over coefficients [begin, end): the whole
// reference, and the vector kernels' tails and slow lanes.
bool TernaryResiduesRange(uint64_t* const* dst, const uint64_t* primes,
                          size_t num_primes, const uint64_t* words,
                          size_t begin, size_t end) {
  uint64_t zero = 0;
  for (size_t j = begin; j < end; ++j) {
    zero |= static_cast<uint64_t>(words[j] == 0);
    // 0, 1, 2 -> -1, 0, 1; -1 (all ones) plus q wraps to q - 1.
    const uint64_t v = words[j] % 3 - 1;
    for (size_t i = 0; i < num_primes; ++i) {
      dst[i][j] = v + (primes[i] & (0 - (v >> 63)));
    }
  }
  return zero == 0;
}

void CdtResiduesRange(uint64_t* const* dst, const uint64_t* primes,
                      size_t num_primes, const uint64_t* words, size_t begin,
                      size_t end, const CdtTables& tables,
                      const uint64_t* const* add) {
  for (size_t j = begin; j < end; ++j) {
    const uint64_t s = static_cast<uint64_t>(tables.Sample(words[j]));
    for (size_t i = 0; i < num_primes; ++i) {
      const uint64_t q = primes[i];
      // |s| < q, so s mod q is s, or q + s for s < 0: two's complement s
      // plus q wraps. Branch-free, as the sign is a coin flip.
      uint64_t r = s + (q & (0 - (s >> 63)));
      if (add != nullptr) r = AddMod(r, add[i][j], q);
      dst[i][j] = r;
    }
  }
}
}  // namespace

bool TernaryResiduesScalar(uint64_t* const* dst, const uint64_t* primes,
                           size_t num_primes, const uint64_t* words,
                           size_t n) {
  return TernaryResiduesRange(dst, primes, num_primes, words, 0, n);
}

void CdtResiduesScalar(uint64_t* const* dst, const uint64_t* primes,
                       size_t num_primes, const uint64_t* words, size_t n,
                       const CdtTables& tables, const uint64_t* const* add) {
  CdtResiduesRange(dst, primes, num_primes, words, 0, n, tables, add);
}

void ComposeCrtScalar(double* out, const uint64_t* r0, const uint64_t* r1,
                      size_t n, uint64_t q0, const Modulus& m1,
                      uint64_t q0_inv, uint64_t q0_inv_shoup) {
  const unsigned __int128 big_q = static_cast<unsigned __int128>(q0) * m1.value;
  for (size_t c = 0; c < n; ++c) {
    // x = r0 + q0 * ((r1 - r0) * q0^{-1} mod q1), in [0, Q).
    const uint64_t diff =
        SubMod(BarrettReduce64(r1[c], m1), BarrettReduce64(r0[c], m1), m1.value);
    const uint64_t t = MulModShoup(diff, q0_inv, q0_inv_shoup, m1.value);
    const unsigned __int128 x = r0[c] + static_cast<unsigned __int128>(q0) * t;
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


VFPS_TARGET_AVX2 inline __m256i Avx2LoadWords(const uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

VFPS_TARGET_AVX2 inline __m256i Avx2Load(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// The wire-word kernels accumulate each lane's "below q" mask; a lane that
// ever fails clears its bits for good.
VFPS_TARGET_AVX2 bool MulAddModShoupAvx2(uint8_t* dst, const uint8_t* a,
                                         const uint64_t* w,
                                         const uint64_t* w_shoup,
                                         const uint8_t* b, size_t n,
                                         uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  __m256i below = _mm256_set1_epi64x(-1);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i va = Avx2LoadWords(a + 8 * j);
    const __m256i vb = Avx2LoadWords(b + 8 * j);
    below = _mm256_and_si256(
        below, _mm256_and_si256(Avx2CmpLtU64(va, vq), Avx2CmpLtU64(vb, vq)));
    const __m256i prod = Avx2CSub(
        Avx2MulModShoupLazy(va, Avx2Load(w + j), Avx2Load(w_shoup + j), vq),
        vq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8 * j),
                        Avx2CSub(_mm256_add_epi64(prod, vb), vq));
  }
  const bool tail = MulAddModShoupScalar(dst + 8 * j, a + 8 * j, w + j,
                                         w_shoup + j, b + 8 * j, n - j, q);
  return tail && _mm256_movemask_pd(_mm256_castsi256_pd(below)) == 0xF;
}

VFPS_TARGET_AVX2 bool SumModAvx2(uint8_t* dst, const uint8_t* const* src,
                                 size_t count, size_t n, uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(q));
  __m256i below = _mm256_set1_epi64x(-1);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256i acc = Avx2LoadWords(src[0] + 8 * j);
    below = _mm256_and_si256(below, Avx2CmpLtU64(acc, vq));
    for (size_t i = 1; i < count; ++i) {
      const __m256i v = Avx2LoadWords(src[i] + 8 * j);
      below = _mm256_and_si256(below, Avx2CmpLtU64(v, vq));
      acc = Avx2CSub(_mm256_add_epi64(acc, v), vq);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8 * j), acc);
  }
  const bool tail = SumModRange(dst, src, count, j, n, q);
  return tail && _mm256_movemask_pd(_mm256_castsi256_pd(below)) == 0xF;
}

// Exact integer doubles in [0, 2^52) to uint64: v + 2^52 has v in its
// mantissa bits.
VFPS_TARGET_AVX2 inline __m256i SmallDoubleToU64(__m256d v) {
  const __m256d magic = _mm256_set1_pd(0x1p52);
  return _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(v, magic)),
                          _mm256_castpd_si256(magic));
}

// The scalar rounding per lane: t = trunc(c), plus sign(c) when
// |c - t| >= 0.5. AVX2 has no double -> int64 conversion, so |t| < 2^62
// splits into exact 32-bit halves (scaling by 2^-32 and the subtraction are
// both exact) and is Barrett-reduced like the scalar magnitude.
VFPS_TARGET_AVX2 size_t RoundAndReduceAvx2(uint64_t* const* dst,
                                           const Modulus* moduli,
                                           size_t num_primes,
                                           const double* values, size_t n,
                                           double scale, double bound) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vbound = _mm256_set1_pd(bound);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d two32 = _mm256_set1_pd(0x1p32);
  const __m256d two_m32 = _mm256_set1_pd(0x1p-32);
  __m256i vq[kMaxPrimes], ratio[kMaxPrimes];
  uint64_t* out[kMaxPrimes];
  for (size_t i = 0; i < num_primes; ++i) {
    vq[i] = _mm256_set1_epi64x(static_cast<int64_t>(moduli[i].value));
    ratio[i] = _mm256_set1_epi64x(static_cast<int64_t>(moduli[i].const_ratio[1]));
    out[i] = dst[i];
  }
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d c = _mm256_mul_pd(_mm256_loadu_pd(values + j), vscale);
    const __m256d in_bounds =
        _mm256_cmp_pd(_mm256_andnot_pd(sign_bit, c), vbound, _CMP_LT_OQ);
    if (_mm256_movemask_pd(in_bounds) != 0xF) break;
    __m256d t = _mm256_round_pd(c, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d bump = _mm256_cmp_pd(
        _mm256_andnot_pd(sign_bit, _mm256_sub_pd(c, t)), half, _CMP_GE_OQ);
    const __m256d step = _mm256_or_pd(_mm256_and_pd(c, sign_bit), one);
    t = _mm256_blendv_pd(t, _mm256_add_pd(t, step), bump);
    const __m256d abs_t = _mm256_andnot_pd(sign_bit, t);
    const __m256d hi = _mm256_round_pd(_mm256_mul_pd(abs_t, two_m32),
                                       _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d lo = _mm256_sub_pd(abs_t, _mm256_mul_pd(hi, two32));
    const __m256i mag = _mm256_add_epi64(
        _mm256_slli_epi64(SmallDoubleToU64(hi), 32), SmallDoubleToU64(lo));
    const __m256i neg = _mm256_castpd_si256(
        _mm256_cmp_pd(t, _mm256_setzero_pd(), _CMP_LT_OQ));
    for (size_t i = 0; i < num_primes; ++i) {
      const __m256i r = Avx2BarrettReduce64(mag, ratio[i], vq[i]);
      // Negative and nonzero: q - r.
      const __m256i flip = _mm256_andnot_si256(
          _mm256_cmpeq_epi64(r, _mm256_setzero_si256()), neg);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[i] + j),
                          _mm256_blendv_epi8(r, _mm256_sub_epi64(vq[i], r), flip));
    }
  }
  return RoundAndReduceRange(dst, moduli, num_primes, values, j, n, scale,
                             bound);
}

// words % 3 per 64-bit lane, exactly: 2^32 = 1 (mod 3), so adding the two
// 32-bit halves twice keeps the residue and leaves s < 2^32, and
// floor(s / 3) = (s * 0xAAAAAAAB) >> 33 for every s < 2^32.
VFPS_TARGET_AVX2 inline __m256i Avx2Mod3(__m256i w) {
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  __m256i s = _mm256_add_epi64(_mm256_srli_epi64(w, 32), _mm256_and_si256(w, lo32));
  s = _mm256_add_epi64(_mm256_srli_epi64(s, 32), _mm256_and_si256(s, lo32));
  const __m256i quo = _mm256_srli_epi64(
      _mm256_mul_epu32(s, _mm256_set1_epi64x(0xAAAAAAABLL)), 33);
  return _mm256_sub_epi64(s, _mm256_add_epi64(quo, _mm256_slli_epi64(quo, 1)));
}

VFPS_TARGET_AVX2 bool TernaryResiduesAvx2(uint64_t* const* dst,
                                          const uint64_t* primes,
                                          size_t num_primes,
                                          const uint64_t* words, size_t n) {
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i zero_words = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i w = Avx2Load(words + j);
    zero_words = _mm256_or_si256(
        zero_words, _mm256_cmpeq_epi64(w, _mm256_setzero_si256()));
    const __m256i t = Avx2Mod3(w);
    const __m256i v = _mm256_sub_epi64(t, one);  // -1, 0, 1
    const __m256i neg = _mm256_cmpeq_epi64(t, _mm256_setzero_si256());
    for (size_t i = 0; i < num_primes; ++i) {
      const __m256i vq = _mm256_set1_epi64x(static_cast<int64_t>(primes[i]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst[i] + j),
                          _mm256_add_epi64(v, _mm256_and_si256(neg, vq)));
    }
  }
  const bool tail = TernaryResiduesRange(dst, primes, num_primes, words, j, n);
  return tail && _mm256_testz_si256(zero_words, zero_words);
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


VFPS_TARGET_AVX512 bool MulAddModShoupAvx512(uint8_t* dst, const uint8_t* a,
                                             const uint64_t* w,
                                             const uint64_t* w_shoup,
                                             const uint8_t* b, size_t n,
                                             uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  __mmask8 bad = 0;
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + 8 * j);
    const __m512i vb = _mm512_loadu_si512(b + 8 * j);
    bad |= _mm512_cmpge_epu64_mask(va, vq) | _mm512_cmpge_epu64_mask(vb, vq);
    const __m512i prod = Avx512CSub(
        Avx512MulModShoupLazy(va, _mm512_loadu_si512(w + j),
                              _mm512_loadu_si512(w_shoup + j), vq),
        vq);
    _mm512_storeu_si512(dst + 8 * j,
                        Avx512CSub(_mm512_add_epi64(prod, vb), vq));
  }
  const bool tail = MulAddModShoupScalar(dst + 8 * j, a + 8 * j, w + j,
                                         w_shoup + j, b + 8 * j, n - j, q);
  return tail && bad == 0;
}

// q < 2^50, so a lane whose a[j] is below q fits the 52 bits IFMA reads (a
// lane past it is reported, not computed); the 52-bit companion is the
// 64-bit one shifted right by 12.
VFPS_TARGET_IFMA bool MulAddModShoupIfma(uint8_t* dst, const uint8_t* a,
                                         const uint64_t* w,
                                         const uint64_t* w_shoup,
                                         const uint8_t* b, size_t n,
                                         uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  const __m512i vneg_q =
      _mm512_set1_epi64(static_cast<int64_t>((uint64_t{1} << 52) - q));
  __mmask8 bad = 0;
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i va = _mm512_loadu_si512(a + 8 * j);
    const __m512i vb = _mm512_loadu_si512(b + 8 * j);
    bad |= _mm512_cmpge_epu64_mask(va, vq) | _mm512_cmpge_epu64_mask(vb, vq);
    const __m512i w52 = _mm512_srli_epi64(_mm512_loadu_si512(w_shoup + j), 12);
    const __m512i prod = Avx512CSub(
        IfmaMulModShoupLazy(va, _mm512_loadu_si512(w + j), w52, vneg_q), vq);
    _mm512_storeu_si512(dst + 8 * j,
                        Avx512CSub(_mm512_add_epi64(prod, vb), vq));
  }
  const bool tail = MulAddModShoupScalar(dst + 8 * j, a + 8 * j, w + j,
                                         w_shoup + j, b + 8 * j, n - j, q);
  return tail && bad == 0;
}

VFPS_TARGET_AVX512 bool SumModAvx512(uint8_t* dst, const uint8_t* const* src,
                                     size_t count, size_t n, uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(static_cast<int64_t>(q));
  __mmask8 bad = 0;
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m512i acc = _mm512_loadu_si512(src[0] + 8 * j);
    bad |= _mm512_cmpge_epu64_mask(acc, vq);
    for (size_t i = 1; i < count; ++i) {
      const __m512i v = _mm512_loadu_si512(src[i] + 8 * j);
      bad |= _mm512_cmpge_epu64_mask(v, vq);
      acc = Avx512CSub(_mm512_add_epi64(acc, v), vq);
    }
    _mm512_storeu_si512(dst + 8 * j, acc);
  }
  const bool tail = SumModRange(dst, src, count, j, n, q);
  return tail && bad == 0;
}

// The scalar rounding per lane (see RoundAndReduceAvx2), then an exact
// reduction. When a vector's |t| are all below 2^52, t is exact and
// floor(t * (1/q)) is off from floor(t / q) by at most one (its relative
// error is ~2^-52 and |t / q| < 2^52 / q), so t - floor(...) * q lies in
// [-q, 2q) and one correction each way gives the residue in [0, q);
// negative t lands there directly, with no q - r step. Other vectors take
// the scalar Barrett reduction of the magnitude.
VFPS_TARGET_AVX512 size_t RoundAndReduceAvx512(uint64_t* const* dst,
                                               const Modulus* moduli,
                                               size_t num_primes,
                                               const double* values, size_t n,
                                               double scale, double bound) {
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vbound = _mm512_set1_pd(bound);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d sign_bit = _mm512_set1_pd(-0.0);
  const __m512d two52 = _mm512_set1_pd(0x1p52);
  const __m512i zero = _mm512_setzero_si512();
  __m512i vq[kMaxPrimes], ratio[kMaxPrimes];
  __m512d inv_q[kMaxPrimes];
  uint64_t* out[kMaxPrimes];
  for (size_t i = 0; i < num_primes; ++i) {
    vq[i] = _mm512_set1_epi64(static_cast<int64_t>(moduli[i].value));
    ratio[i] = _mm512_set1_epi64(static_cast<int64_t>(moduli[i].const_ratio[1]));
    inv_q[i] = _mm512_set1_pd(1.0 / static_cast<double>(moduli[i].value));
    out[i] = dst[i];
  }
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d c = _mm512_mul_pd(_mm512_loadu_pd(values + j), vscale);
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
      for (size_t i = 0; i < num_primes; ++i) {
        const __m512d quo = _mm512_roundscale_pd(
            _mm512_mul_pd(t, inv_q[i]), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        __m512i r = _mm512_sub_epi64(
            rounded, _mm512_mullo_epi64(_mm512_cvttpd_epi64(quo), vq[i]));
        r = _mm512_mask_add_epi64(r, _mm512_cmplt_epi64_mask(r, zero), r,
                                  vq[i]);
        _mm512_storeu_si512(out[i] + j, Avx512CSub(r, vq[i]));
      }
      continue;
    }
    const __mmask8 neg = _mm512_cmplt_epi64_mask(rounded, zero);
    const __m512i mag = _mm512_abs_epi64(rounded);
    for (size_t i = 0; i < num_primes; ++i) {
      const __m512i r = Avx512BarrettReduce64(mag, ratio[i], vq[i]);
      // Negative and nonzero: q - r.
      const __mmask8 flip = neg & _mm512_test_epi64_mask(r, r);
      _mm512_storeu_si512(out[i] + j, _mm512_mask_sub_epi64(r, flip, vq[i], r));
    }
  }
  return RoundAndReduceRange(dst, moduli, num_primes, values, j, n, scale,
                             bound);
}

// words % 3 per lane (see Avx2Mod3).
VFPS_TARGET_AVX512 inline __m512i Avx512Mod3(__m512i w) {
  const __m512i lo32 = _mm512_set1_epi64(0xFFFFFFFFLL);
  __m512i s = _mm512_add_epi64(_mm512_srli_epi64(w, 32), _mm512_and_si512(w, lo32));
  s = _mm512_add_epi64(_mm512_srli_epi64(s, 32), _mm512_and_si512(s, lo32));
  const __m512i quo = _mm512_srli_epi64(
      _mm512_mul_epu32(s, _mm512_set1_epi64(0xAAAAAAABLL)), 33);
  return _mm512_sub_epi64(s, _mm512_add_epi64(quo, _mm512_slli_epi64(quo, 1)));
}

VFPS_TARGET_AVX512 bool TernaryResiduesAvx512(uint64_t* const* dst,
                                              const uint64_t* primes,
                                              size_t num_primes,
                                              const uint64_t* words,
                                              size_t n) {
  // Local copies: the stores through dst could otherwise alias them.
  __m512i vq[kMaxPrimes];
  uint64_t* out[kMaxPrimes];
  for (size_t i = 0; i < num_primes; ++i) {
    vq[i] = _mm512_set1_epi64(static_cast<int64_t>(primes[i]));
    out[i] = dst[i];
  }
  const __m512i one = _mm512_set1_epi64(1);
  __mmask8 zero_words = 0;
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i w = _mm512_loadu_si512(words + j);
    zero_words |= _mm512_testn_epi64_mask(w, w);
    const __m512i t = Avx512Mod3(w);
    const __m512i v = _mm512_sub_epi64(t, one);  // -1, 0, 1
    const __mmask8 neg = _mm512_cmpeq_epi64_mask(t, _mm512_setzero_si512());
    for (size_t i = 0; i < num_primes; ++i) {
      _mm512_storeu_si512(out[i] + j, _mm512_mask_add_epi64(v, neg, v, vq[i]));
    }
  }
  const bool tail = TernaryResiduesRange(dst, primes, num_primes, words, j, n);
  return tail && zero_words == 0;
}

// The AVX-512 CDT map holds this many thresholds in registers; a word at or
// past the last one held (the 16th) takes the scalar search.
constexpr size_t kCdtLanes = 16;

// The CDT search in registers: a branch-free binary search over 16
// thresholds T[k] = cdt[min(k, size - 1)] held in two vectors (the padding,
// 2^63, is above every u). For u < T[15] it returns #{k : T[k] <= u}, the
// magnitude Sample() finds; a lane with u >= T[15] takes the scalar search.
VFPS_TARGET_AVX512 void CdtResiduesAvx512(uint64_t* const* dst,
                                          const uint64_t* primes,
                                          size_t num_primes,
                                          const uint64_t* words, size_t n,
                                          const CdtTables& tables,
                                          const uint64_t* const* add) {
  alignas(64) uint64_t thresholds[kCdtLanes];
  for (size_t k = 0; k < kCdtLanes; ++k) {
    thresholds[k] = tables.cdt[std::min(k, tables.size - 1)];
  }
  const __m512i lo = _mm512_load_si512(thresholds);
  const __m512i hi = _mm512_load_si512(thresholds + 8);
  const __m512i limit = _mm512_set1_epi64(static_cast<int64_t>(thresholds[15]));
  __m512i vq[kMaxPrimes];
  uint64_t* out[kMaxPrimes];
  const uint64_t* plus[kMaxPrimes] = {};
  for (size_t i = 0; i < num_primes; ++i) {
    vq[i] = _mm512_set1_epi64(static_cast<int64_t>(primes[i]));
    out[i] = dst[i];
    if (add != nullptr) plus[i] = add[i];
  }
  const __m512i one = _mm512_set1_epi64(1);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i w = _mm512_loadu_si512(words + j);
    const __m512i u = _mm512_srli_epi64(w, 1);
    if (_mm512_cmpge_epu64_mask(u, limit) != 0) {
      CdtResiduesRange(dst, primes, num_primes, words, j, j + 8, tables, add);
      continue;
    }
    __m512i m = _mm512_setzero_si512();
    for (int64_t step : {8, 4, 2, 1}) {
      const __m512i probe = _mm512_add_epi64(m, _mm512_set1_epi64(step - 1));
      const __mmask8 ge = _mm512_cmpge_epu64_mask(
          u, _mm512_permutex2var_epi64(lo, probe, hi));
      m = _mm512_mask_add_epi64(m, ge, m, _mm512_set1_epi64(step));
    }
    // Sign bit set and nonzero: q - m.
    const __mmask8 neg =
        _mm512_test_epi64_mask(w, one) & _mm512_test_epi64_mask(m, m);
    for (size_t i = 0; i < num_primes; ++i) {
      __m512i r = _mm512_mask_sub_epi64(m, neg, vq[i], m);
      if (add != nullptr) {
        r = Avx512CSub(_mm512_add_epi64(r, _mm512_loadu_si512(plus[i] + j)),
                       vq[i]);
      }
      _mm512_storeu_si512(out[i] + j, r);
    }
  }
  CdtResiduesRange(dst, primes, num_primes, words, j, n, tables, add);
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

bool MulAddModShoupVec(uint8_t* dst, const uint8_t* a, const uint64_t* w,
                       const uint64_t* w_shoup, const uint8_t* b, size_t n,
                       uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      return UseIfma(q) ? MulAddModShoupIfma(dst, a, w, w_shoup, b, n, q)
                        : MulAddModShoupAvx512(dst, a, w, w_shoup, b, n, q);
    case simd::Isa::kAvx2:
      return MulAddModShoupAvx2(dst, a, w, w_shoup, b, n, q);
    case simd::Isa::kScalar:
      break;
  }
#endif
  return MulAddModShoupScalar(dst, a, w, w_shoup, b, n, q);
}

bool SumModVec(uint8_t* dst, const uint8_t* const* src, size_t count,
               size_t n, uint64_t q) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      return SumModAvx512(dst, src, count, n, q);
    case simd::Isa::kAvx2:
      return SumModAvx2(dst, src, count, n, q);
    case simd::Isa::kScalar:
      break;
  }
#endif
  return SumModScalar(dst, src, count, n, q);
}

size_t RoundAndReduceVec(uint64_t* const* dst, const Modulus* moduli,
                         size_t num_primes, const double* values, size_t n,
                         double scale, double bound) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      return RoundAndReduceAvx512(dst, moduli, num_primes, values, n, scale,
                                  bound);
    case simd::Isa::kAvx2:
      return RoundAndReduceAvx2(dst, moduli, num_primes, values, n, scale,
                                bound);
    case simd::Isa::kScalar:
      break;
  }
#endif
  return RoundAndReduceScalar(dst, moduli, num_primes, values, n, scale,
                              bound);
}

bool TernaryResiduesVectorized() {
#ifdef VFPS_SIMD_X86
  return simd::ActiveIsa() != simd::Isa::kScalar;
#else
  return false;
#endif
}

bool CdtResiduesVectorized() {
#ifdef VFPS_SIMD_X86
  return simd::ActiveIsa() == simd::Isa::kAvx512;
#else
  return false;
#endif
}

bool TernaryResiduesVec(uint64_t* const* dst, const uint64_t* primes,
                        size_t num_primes, const uint64_t* words, size_t n) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      return TernaryResiduesAvx512(dst, primes, num_primes, words, n);
    case simd::Isa::kAvx2:
      return TernaryResiduesAvx2(dst, primes, num_primes, words, n);
    case simd::Isa::kScalar:
      break;
  }
#endif
  return TernaryResiduesScalar(dst, primes, num_primes, words, n);
}

void CdtResiduesVec(uint64_t* const* dst, const uint64_t* primes,
                    size_t num_primes, const uint64_t* words, size_t n,
                    const CdtTables& tables, const uint64_t* const* add) {
#ifdef VFPS_SIMD_X86
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      CdtResiduesAvx512(dst, primes, num_primes, words, n, tables, add);
      return;
    case simd::Isa::kAvx2:  // no vector map: see CdtResiduesVectorized
    case simd::Isa::kScalar:
      break;
  }
#endif
  CdtResiduesScalar(dst, primes, num_primes, words, n, tables, add);
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

}  // namespace vfps::he::detail
