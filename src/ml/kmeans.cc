#include "ml/kmeans.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "common/random.h"

namespace vfps::ml {

Result<KMeansResult> KMeansCluster(const FeatureBlock& block, size_t clusters,
                                   uint64_t seed, size_t max_iters) {
  const size_t n = block.rows();
  const size_t f = block.cols();
  VFPS_CHECK_ARG(clusters >= 1, "kmeans: need >= 1 cluster");
  VFPS_CHECK_ARG(n >= 1, "kmeans: need >= 1 row");
  clusters = std::min(clusters, n);

  KMeansResult result;
  result.clusters = clusters;
  result.cols = f;
  result.centroids.resize(clusters * f);
  result.assignment.assign(n, 0);

  // Seeded init from distinct rows; sorted so cluster ids follow row order.
  Rng rng(seed);
  std::vector<size_t> init = rng.SampleWithoutReplacement(n, clusters);
  std::sort(init.begin(), init.end());
  for (size_t c = 0; c < clusters; ++c) {
    std::memcpy(result.centroids.data() + c * f, block.row(init[c]),
                f * sizeof(double));
  }

  std::vector<double> dist(n);
  std::vector<double> best(n);
  std::vector<uint32_t> next(n, 0);
  std::vector<size_t> counts(clusters);
  std::vector<double> sums(clusters * f);
  for (size_t iter = 0; iter < max_iters; ++iter) {
    // Assignment step: one distance-kernel sweep per centroid, keeping the
    // per-row (distance, cluster) minimum — ties go to the lower cluster id.
    for (size_t c = 0; c < clusters; ++c) {
      const double* centroid = result.centroids.data() + c * f;
      const double c_norm = SquaredNorm(centroid, f);
      BlockSquaredDistances(block, centroid, c_norm, 0, n, dist.data());
      for (size_t i = 0; i < n; ++i) {
        if (c == 0 || dist[i] < best[i]) {
          best[i] = dist[i];
          next[i] = static_cast<uint32_t>(c);
        }
      }
    }
    const bool changed = iter == 0 || next != result.assignment;
    result.assignment = next;
    if (!changed) break;

    // Update step: mean of each cluster's rows; empty clusters keep their
    // previous centroid (deterministic, no re-seeding).
    std::fill(counts.begin(), counts.end(), size_t{0});
    std::fill(sums.begin(), sums.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = result.assignment[i];
      ++counts[c];
      const double* row = block.row(i);
      double* sum = sums.data() + c * f;
      for (size_t j = 0; j < f; ++j) sum[j] += row[j];
    }
    for (size_t c = 0; c < clusters; ++c) {
      if (counts[c] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      double* centroid = result.centroids.data() + c * f;
      const double* sum = sums.data() + c * f;
      for (size_t j = 0; j < f; ++j) centroid[j] = sum[j] * inv;
    }
  }

  result.members.assign(clusters, {});
  for (size_t i = 0; i < n; ++i) {
    result.members[result.assignment[i]].push_back(static_cast<uint32_t>(i));
  }
  return result;
}

size_t PrefilterCoverage(size_t k) { return std::max<size_t>(4 * k, 32); }

std::vector<uint32_t> NominateClusterRows(const KMeansResult& km,
                                          const double* q, double q_norm,
                                          size_t target) {
  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(km.clusters);
  for (size_t c = 0; c < km.clusters; ++c) {
    const double* centroid = km.centroid(c);
    const double dot = DotProduct(q, centroid, km.cols);
    const double c_norm = SquaredNorm(centroid, km.cols);
    ranked.emplace_back(q_norm + c_norm - 2.0 * dot, static_cast<uint32_t>(c));
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<uint32_t> rows;
  for (const auto& [dist, c] : ranked) {
    (void)dist;
    rows.insert(rows.end(), km.members[c].begin(), km.members[c].end());
    if (rows.size() >= target) break;
  }
  return rows;
}

}  // namespace vfps::ml
