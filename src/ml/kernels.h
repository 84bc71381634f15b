#ifndef VFPS_ML_KERNELS_H_
#define VFPS_ML_KERNELS_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace vfps::ml {

/// \brief A column subset of a dataset laid out for the distance kernels:
/// rows contiguous (packed copy for a proper subset, zero-copy alias of the
/// dataset's row-major storage when the subset is all columns in order), with
/// per-row squared norms cached at construction.
///
/// Lifetime: a block NEVER owns the dataset. In the aliasing case it points
/// straight into the dataset's feature storage, and in both cases it is only
/// meaningful for that dataset's current contents — the source Dataset must
/// outlive the block.
class FeatureBlock {
 public:
  FeatureBlock() = default;

  /// Block over `columns` of `data` (packed unless `columns` is exactly
  /// 0..num_features-1, which aliases).
  FeatureBlock(const data::Dataset& data, const std::vector<size_t>& columns);

  /// Block over all columns (always aliases the dataset storage).
  explicit FeatureBlock(const data::Dataset& data);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool aliases_dataset() const { return packed_.empty() && data_ != nullptr; }

  const double* row(size_t i) const { return data_ + i * cols_; }

  /// Cached ||row_i||^2 over the block's columns.
  double row_norm(size_t i) const { return norms_[i]; }
  /// The same for every row, contiguous: row_norms()[i] == row_norm(i).
  const double* row_norms() const { return norms_.data(); }

  /// Extract this block's columns of a joint-feature-space row into
  /// out[0..cols()).
  void GatherInto(const double* joint_row, double* out) const;

 private:
  const double* data_ = nullptr;  // rows_ x cols_, contiguous
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> columns_;
  std::vector<double> packed_;  // backing store when not aliasing
  std::vector<double> norms_;
};

/// \brief Sum of v[i]^2 with a fixed 4-accumulator association: lane l sums
/// indices j ≡ l (mod 4), lanes combine as (l0+l1)+(l2+l3), then the tail
/// (n mod 4 elements) folds in sequentially. Deterministic, and exact
/// whenever the products are exactly representable (e.g. integer grids).
///
/// Dispatched to the widest backend simd::ActiveIsa() allows. Every backend
/// keeps the exact association above with separate multiply and add (no FMA),
/// so SIMD and scalar results are BIT-IDENTICAL for every input, including
/// denormals and ±DBL_MAX (see docs/KERNELS.md). `v` needs no alignment
/// (unaligned loads); n may be any value including 0 and < 4.
double SquaredNorm(const double* v, size_t n);
/// Always-built portable reference for SquaredNorm (differential-test
/// oracle); bit-identical to the dispatched version by construction.
double SquaredNormScalar(const double* v, size_t n);

/// \brief Dot product with the same fixed 4-accumulator association and
/// bit-identity contract as SquaredNorm. `a` and `b` need no alignment and
/// may have arbitrary (even mutually unaligned) row strides in the caller.
double DotProduct(const double* a, const double* b, size_t n);
/// Always-built portable reference for DotProduct.
double DotProductScalar(const double* a, const double* b, size_t n);

/// \brief Norm-decomposed squared Euclidean distances from a query slice to
/// block rows [begin, end): out[i - begin] = q_norm + ||row_i||^2 - 2 q.row_i
/// with the row norms served from the block's cache. `query` must hold the
/// block's columns (see FeatureBlock::GatherInto) and `q_norm` its squared
/// norm. One multiply-add per element versus the subtract/multiply/add of the
/// naive loop, on contiguous rows.
///
/// Numerics contract (see docs/KERNELS.md): the dispatched SIMD and scalar
/// paths are bit-identical to each other (the per-row dot is the
/// fixed-association DotProduct above). Against OTHER formulations — e.g. the
/// naive sum of squared differences — results agree exactly on integer grids
/// and to 1e-9 relative tolerance for well-scaled doubles; callers comparing
/// across pipelines must use a tolerance, not bitwise equality.
void BlockSquaredDistances(const FeatureBlock& block, const double* query,
                           double q_norm, size_t begin, size_t end,
                           double* out);
/// Always-built portable reference for BlockSquaredDistances.
void BlockSquaredDistancesScalar(const FeatureBlock& block,
                                 const double* query, double q_norm,
                                 size_t begin, size_t end, double* out);

/// \brief Indices of the k smallest values, ascending, ties broken by lower
/// index — exactly the order partial_sort over (value, index) pairs yields,
/// in O(n log k) with a bounded max-heap instead of O(n log n) movement.
///
/// Preconditions: `values` needs no alignment; NaNs are NOT supported (the
/// comparator assumes a total order); +inf entries (excluded rows) lose every
/// comparison and are returned only when fewer than k finite values exist.
/// k ≥ n is clamped to n (all indices, sorted). Scalar on every ISA — the
/// heap is branch-serial, so it is the same code under VFPS_FORCE_SCALAR and
/// never enters the differential contract.
std::vector<uint64_t> SmallestK(const double* values, size_t n, size_t k);

inline std::vector<uint64_t> SmallestK(const std::vector<double>& values,
                                       size_t k) {
  return SmallestK(values.data(), values.size(), k);
}

}  // namespace vfps::ml

#endif  // VFPS_ML_KERNELS_H_
