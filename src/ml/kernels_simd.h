#ifndef VFPS_ML_KERNELS_SIMD_H_
#define VFPS_ML_KERNELS_SIMD_H_

/// \file
/// \brief Internal vector backends for the ml distance/dot kernels.
///
/// The doubles contract is stricter than "close": these backends reproduce
/// the scalar 4-accumulator kernels BIT-IDENTICALLY. Each lane holds one
/// row's four-accumulator sum, or one of its accumulators, in exactly the
/// scalar order: accumulator a_l sums indices j ≡ l mod 4, the accumulators
/// combine as (a0+a1)+(a2+a3), and the tail folds in sequentially.
/// Multiplies and adds stay separate instructions (no FMA — contraction
/// would change rounding). A vector may therefore be as wide as the
/// association allows: the 4-wide kernels put one row's four accumulators in
/// one vector (lane l is a_l, and the horizontal combine replays the scalar
/// order), while the 8-wide narrow-block kernel puts eight rows' complete
/// sums in one vector, one row per lane. Compiled in every build
/// (per-function target attributes); callers must only invoke the AVX2
/// kernels when simd::ActiveIsa() >= kAvx2 and the AVX-512 one when it is
/// kAvx512.

#include <cstddef>

#include "simd/simd.h"

#ifdef VFPS_SIMD_X86

namespace vfps::ml::detail {

/// 4-wide SquaredNorm, bit-identical to SquaredNormScalar.
double SquaredNormAvx2(const double* v, size_t n);

/// 4-wide DotProduct, bit-identical to DotProductScalar.
double DotProductAvx2(const double* a, const double* b, size_t n);

/// Dot products of a shared query against `nrows` contiguous rows
/// (`rows + r * stride`): out[r] == DotProductScalar(q, rows + r*stride, n)
/// bit-for-bit. A single bit-identical dot is latency-bound (one 4-wide
/// accumulator chain, and the compiler auto-vectorizes the scalar reference
/// into the same shape), so the block-distance speedup comes from here
/// instead: rows are processed four at a time with four independent
/// accumulator chains that hide the FP-add latency and share each query
/// load, without touching any row's summation order. One call covers the
/// whole block range so the per-group call cost is paid once.
void BlockDotsAvx2(const double* q, const double* rows, size_t stride,
                   size_t nrows, size_t n, double* out);

/// Widest row the narrow-block kernel below takes. A row this narrow has at
/// most one 4-wide body step, so the 4-wide kernels spend most of it on the
/// horizontal combine and the scalar tail.
inline constexpr size_t kNarrowMaxCols = 7;

/// Squared distances from a query to `nrows` contiguous rows of `cols` <=
/// kNarrowMaxCols columns (row r at `rows + r * cols`, its cached squared
/// norm at norms[r]): out[r] == (q_norm + norms[r]) - 2.0 * dot_r with dot_r
/// DotProductScalar(q, row r, cols), bit-for-bit. Eight rows per step, one
/// per lane: each column is gathered across the eight rows, so every lane
/// replays its row's scalar sum with vector instructions and no lane ever
/// reads another's. A ragged last step masks the missing rows.
void BlockDistancesNarrowAvx512(const double* q, double q_norm,
                                const double* rows, const double* norms,
                                size_t cols, size_t nrows, double* out);

}  // namespace vfps::ml::detail

#endif  // VFPS_SIMD_X86

#endif  // VFPS_ML_KERNELS_SIMD_H_
