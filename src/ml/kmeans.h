#ifndef VFPS_ML_KMEANS_H_
#define VFPS_ML_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/kernels.h"

namespace vfps::ml {

/// \brief Result of clustering a FeatureBlock's rows (Lloyd's algorithm).
struct KMeansResult {
  size_t clusters = 0;
  size_t cols = 0;
  /// clusters x cols centroids, row-major.
  std::vector<double> centroids;
  /// Per-row nearest-centroid assignment (ties to the lower cluster id).
  std::vector<uint32_t> assignment;
  /// Rows of each cluster, ascending — the nomination lists the TreeCSS-style
  /// pre-filter broadcasts.
  std::vector<std::vector<uint32_t>> members;

  const double* centroid(size_t c) const { return centroids.data() + c * cols; }
};

/// \brief Deterministic seeded k-means over the block's rows: centroids start
/// from a seeded sample of distinct rows, then `max_iters` Lloyd iterations
/// (or until assignments stop changing). Distances go through the
/// SquaredNorm / BlockSquaredDistances kernels, so assignments are
/// bit-identical between the SIMD and forced-scalar builds — the clustering
/// pre-filter cannot break the selector's scalar-vs-SIMD identity check.
/// Empty clusters keep their previous centroid. `clusters` is clamped to the
/// row count.
Result<KMeansResult> KMeansCluster(const FeatureBlock& block, size_t clusters,
                                   uint64_t seed, size_t max_iters = 8);

/// Lloyd iterations of the TreeCSS-style pre-filter's per-party clustering;
/// also the basis of its simulated-clock charge.
inline constexpr size_t kPrefilterKmeansIters = 8;

/// Rows one party's pre-filter nomination covers for a k-NN query: about 4k
/// keeps recall high while still pruning most rows of a large data set.
size_t PrefilterCoverage(size_t k);

/// \brief One party's pre-filter nomination for one query: rank `km`'s
/// clusters by squared centroid distance to the party's query slice `q`
/// (`q_norm` = its squared norm; ties to the lower cluster id) and return
/// the member rows of the nearest clusters, cluster by cluster in rank
/// order, until at least `target` rows are covered.
std::vector<uint32_t> NominateClusterRows(const KMeansResult& km,
                                          const double* q, double q_norm,
                                          size_t target);

}  // namespace vfps::ml

#endif  // VFPS_ML_KMEANS_H_
