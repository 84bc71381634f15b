#include "ml/kernels.h"

#include <algorithm>

#include "ml/kernels_simd.h"
#include "simd/simd.h"

namespace vfps::ml {

namespace {
bool IsIdentity(const std::vector<size_t>& columns, size_t num_features) {
  if (columns.size() != num_features) return false;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] != i) return false;
  }
  return true;
}
}  // namespace

FeatureBlock::FeatureBlock(const data::Dataset& data,
                           const std::vector<size_t>& columns)
    : rows_(data.num_samples()), cols_(columns.size()), columns_(columns) {
  if (IsIdentity(columns, data.num_features())) {
    data_ = rows_ > 0 ? data.Row(0) : nullptr;
  } else {
    packed_.resize(rows_ * cols_);
    for (size_t i = 0; i < rows_; ++i) {
      const double* src = data.Row(i);
      double* dst = packed_.data() + i * cols_;
      for (size_t j = 0; j < cols_; ++j) dst[j] = src[columns_[j]];
    }
    data_ = packed_.data();
  }
  norms_.resize(rows_);
  for (size_t i = 0; i < rows_; ++i) norms_[i] = SquaredNorm(row(i), cols_);
}

FeatureBlock::FeatureBlock(const data::Dataset& data)
    : rows_(data.num_samples()), cols_(data.num_features()) {
  columns_.resize(cols_);
  for (size_t j = 0; j < cols_; ++j) columns_[j] = j;
  data_ = rows_ > 0 ? data.Row(0) : nullptr;
  norms_.resize(rows_);
  for (size_t i = 0; i < rows_; ++i) norms_[i] = SquaredNorm(row(i), cols_);
}

void FeatureBlock::GatherInto(const double* joint_row, double* out) const {
  for (size_t j = 0; j < cols_; ++j) out[j] = joint_row[columns_[j]];
}

double SquaredNormScalar(const double* v, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    a0 += v[j] * v[j];
    a1 += v[j + 1] * v[j + 1];
    a2 += v[j + 2] * v[j + 2];
    a3 += v[j + 3] * v[j + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; j < n; ++j) acc += v[j] * v[j];
  return acc;
}

double DotProductScalar(const double* a, const double* b, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    a0 += a[j] * b[j];
    a1 += a[j + 1] * b[j + 1];
    a2 += a[j + 2] * b[j + 2];
    a3 += a[j + 3] * b[j + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

double SquaredNorm(const double* v, size_t n) {
#ifdef VFPS_SIMD_X86
  // The 4-wide path serves AVX-512 too: an 8-wide accumulator would change
  // the association and break scalar-vs-SIMD bit-identity (kernels_simd.h).
  if (simd::ActiveIsa() != simd::Isa::kScalar) {
    return detail::SquaredNormAvx2(v, n);
  }
#endif
  return SquaredNormScalar(v, n);
}

double DotProduct(const double* a, const double* b, size_t n) {
#ifdef VFPS_SIMD_X86
  if (simd::ActiveIsa() != simd::Isa::kScalar) {
    return detail::DotProductAvx2(a, b, n);
  }
#endif
  return DotProductScalar(a, b, n);
}

namespace {

// Shared body for the dispatched and scalar-reference distance kernels; the
// per-row dot is the only part that differs.
template <typename DotFn>
void BlockSquaredDistancesImpl(const FeatureBlock& block, const double* query,
                               double q_norm, size_t begin, size_t end,
                               double* out, DotFn&& dot_fn) {
  const size_t f = block.cols();
  // Row tiles keep the written span and the norm cache line-resident; the
  // per-row dot uses the fixed-association kernel above, so every row's value
  // is independent of the tile boundaries and of [begin, end) splits.
  constexpr size_t kTile = 64;
  for (size_t t = begin; t < end; t += kTile) {
    const size_t stop = std::min(end, t + kTile);
    for (size_t i = t; i < stop; ++i) {
      const double dot = dot_fn(query, block.row(i), f);
      out[i - begin] = q_norm + block.row_norm(i) - 2.0 * dot;
    }
  }
}

}  // namespace

void BlockSquaredDistances(const FeatureBlock& block, const double* query,
                           double q_norm, size_t begin, size_t end,
                           double* out) {
#ifdef VFPS_SIMD_X86
  const simd::Isa isa = simd::ActiveIsa();
  if (isa == simd::Isa::kAvx512 && block.cols() <= detail::kNarrowMaxCols) {
    // Narrow rows (the oracle's party blocks): eight rows per vector, one per
    // lane, each lane replaying its row's scalar sum.
    detail::BlockDistancesNarrowAvx512(query, q_norm, block.row(begin),
                                       block.row_norms() + begin, block.cols(),
                                       end - begin, out);
    return;
  }
  if (isa != simd::Isa::kScalar) {
    // One batched-dot call covers the whole range (rows in groups of 4 with
    // independent accumulator chains and shared query loads); each row's dot
    // — and therefore each output distance — stays bit-identical to the
    // scalar path, so the batching is invisible to callers and to
    // [begin, end) splits. `out` doubles as the dots scratch.
    const size_t f = block.cols();
    detail::BlockDotsAvx2(query, block.row(begin), f, end - begin, f, out);
    for (size_t i = begin; i < end; ++i) {
      out[i - begin] = q_norm + block.row_norm(i) - 2.0 * out[i - begin];
    }
    return;
  }
#endif
  BlockSquaredDistancesImpl(block, query, q_norm, begin, end, out,
                            DotProductScalar);
}

void BlockSquaredDistancesScalar(const FeatureBlock& block,
                                 const double* query, double q_norm,
                                 size_t begin, size_t end, double* out) {
  BlockSquaredDistancesImpl(block, query, q_norm, begin, end, out,
                            DotProductScalar);
}

std::vector<uint64_t> SmallestK(const double* values, size_t n, size_t k) {
  k = std::min(k, static_cast<size_t>(n));
  std::vector<uint64_t> heap;
  heap.reserve(k);
  // "less" on (value, index); with std::*_heap this keeps the WORST of the
  // current k at the front, which is the only element a new candidate must
  // beat. Strict total order (indices are unique), so the result is exactly
  // what partial_sort over (value, index) pairs produces.
  const auto better = [values](uint64_t a, uint64_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  };
  if (k == 0) return heap;
  for (uint64_t i = 0; i < k; ++i) {
    heap.push_back(i);
    std::push_heap(heap.begin(), heap.end(), better);
  }
  // Hoist the rejection threshold out of the scan: a candidate i > k can only
  // displace the front, and since every heap index is < i, a value tie loses
  // to the front under (value, index) order — so the test collapses to a
  // single compare against a register-resident threshold.
  double worst_val = values[heap.front()];
  for (uint64_t i = k; i < n; ++i) {
    if (values[i] < worst_val) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = i;
      std::push_heap(heap.begin(), heap.end(), better);
      worst_val = values[heap.front()];
    }
  }
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace vfps::ml
