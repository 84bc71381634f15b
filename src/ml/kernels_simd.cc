// AVX2 and AVX-512 backends for the ml kernels (see kernels_simd.h for the
// bit-identity contract). This TU is built with -ffp-contract=off
// (ml/CMakeLists.txt) so the compiler cannot fuse the explicit multiply/add
// pairs below into FMAs even under -march=native; the scalar reference TU is
// pinned the same way.

#include "ml/kernels_simd.h"

#ifdef VFPS_SIMD_X86

#include <immintrin.h>

namespace vfps::ml::detail {

#define VFPS_ML_TARGET_AVX2 __attribute__((target("avx2")))

VFPS_ML_TARGET_AVX2 double SquaredNormAvx2(const double* v, size_t n) {
  // Vector lane l is exactly scalar accumulator a_l: same products, same
  // addition order per lane.
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d x = _mm256_loadu_pd(v + j);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x, x));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double out = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; j < n; ++j) out += v[j] * v[j];
  return out;
}

VFPS_ML_TARGET_AVX2 double DotProductAvx2(const double* a, const double* b,
                                          size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d x = _mm256_loadu_pd(a + j);
    const __m256d y = _mm256_loadu_pd(b + j);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x, y));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double out = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; j < n; ++j) out += a[j] * b[j];
  return out;
}

VFPS_ML_TARGET_AVX2 void BlockDotsAvx2(const double* q, const double* rows,
                                       size_t stride, size_t nrows, size_t n,
                                       double* out) {
  // Four accumulator chains, one per row: each chain is exactly the
  // single-row kernel above, so out[r] is bit-identical to
  // DotProductScalar(q, rows + r*stride). The interleave only adds
  // instruction-level parallelism (4 independent vaddpd chains instead of 1)
  // and shares each query load across 4 rows.
  size_t r = 0;
  for (; r + 4 <= nrows; r += 4) {
    const double* r0 = rows + r * stride;
    const double* r1 = r0 + stride;
    const double* r2 = r1 + stride;
    const double* r3 = r2 + stride;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d x = _mm256_loadu_pd(q + j);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(x, _mm256_loadu_pd(r0 + j)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(x, _mm256_loadu_pd(r1 + j)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(x, _mm256_loadu_pd(r2 + j)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(x, _mm256_loadu_pd(r3 + j)));
    }
    const __m256d accs[4] = {acc0, acc1, acc2, acc3};
    const double* const ptrs[4] = {r0, r1, r2, r3};
    for (int g = 0; g < 4; ++g) {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, accs[g]);
      double o = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
      for (size_t t = j; t < n; ++t) o += q[t] * ptrs[g][t];
      out[r + g] = o;
    }
  }
  for (; r < nrows; ++r) {
    out[r] = DotProductAvx2(q, rows + r * stride, n);
  }
}

#undef VFPS_ML_TARGET_AVX2

#define VFPS_ML_TARGET_AVX512 __attribute__((target("avx512f")))

namespace {

// q_j times column j of the eight rows at `base` (stride in `offsets`), the
// `lanes` of them that exist; the others read as 0.
VFPS_ML_TARGET_AVX512 inline __m512d ColumnProduct(__m512d qj,
                                                   const double* column,
                                                   __m512i offsets,
                                                   __mmask8 lanes) {
  return _mm512_mul_pd(
      qj, _mm512_mask_i64gather_pd(_mm512_setzero_pd(), lanes, offsets,
                                   column, 8));
}

}  // namespace

VFPS_ML_TARGET_AVX512 void BlockDistancesNarrowAvx512(
    const double* q, double q_norm, const double* rows, const double* norms,
    size_t cols, size_t nrows, double* out) {
  // Lane i of every vector is row r + i: the gather offsets step one row.
  const auto c = static_cast<long long>(cols);
  const __m512i offsets =
      _mm512_set_epi64(7 * c, 6 * c, 5 * c, 4 * c, 3 * c, 2 * c, c, 0);
  __m512d qv[kNarrowMaxCols];
  for (size_t j = 0; j < cols; ++j) qv[j] = _mm512_set1_pd(q[j]);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d qn = _mm512_set1_pd(q_norm);
  const __m512d two = _mm512_set1_pd(2.0);
  // Columns [0, body) go to the four accumulators, the rest to the tail.
  const size_t body = cols & ~size_t{3};
  for (size_t r = 0; r < nrows; r += 8) {
    const __mmask8 lanes =
        nrows - r >= 8 ? __mmask8{0xFF}
                       : static_cast<__mmask8>((1u << (nrows - r)) - 1);
    const double* base = rows + r * cols;
    // With fewer than four columns the scalar kernel's accumulators stay
    // 0.0 and combine to +0.0, where the tail starts.
    __m512d dot = zero;
    if (body != 0) {
      const __m512d a0 = _mm512_add_pd(
          zero, ColumnProduct(qv[0], base + 0, offsets, lanes));
      const __m512d a1 = _mm512_add_pd(
          zero, ColumnProduct(qv[1], base + 1, offsets, lanes));
      const __m512d a2 = _mm512_add_pd(
          zero, ColumnProduct(qv[2], base + 2, offsets, lanes));
      const __m512d a3 = _mm512_add_pd(
          zero, ColumnProduct(qv[3], base + 3, offsets, lanes));
      dot = _mm512_add_pd(_mm512_add_pd(a0, a1), _mm512_add_pd(a2, a3));
    }
    for (size_t j = body; j < cols; ++j) {
      dot = _mm512_add_pd(dot, ColumnProduct(qv[j], base + j, offsets, lanes));
    }
    const __m512d norm = _mm512_maskz_loadu_pd(lanes, norms + r);
    _mm512_mask_storeu_pd(
        out + r, lanes,
        _mm512_sub_pd(_mm512_add_pd(qn, norm), _mm512_mul_pd(two, dot)));
  }
}

#undef VFPS_ML_TARGET_AVX512

}  // namespace vfps::ml::detail

#endif  // VFPS_SIMD_X86
