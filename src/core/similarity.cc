#include "core/similarity.h"

#include <cmath>

#include "common/macros.h"

namespace vfps::core {

Result<SimilarityMatrix> BuildSimilarity(
    const std::vector<vfl::QueryNeighborhood>& neighborhoods,
    size_t num_participants, ThreadPool* pool) {
  VFPS_CHECK_ARG(!neighborhoods.empty(), "similarity: no query results");
  VFPS_CHECK_ARG(num_participants >= 1, "similarity: no participants");
  for (const auto& hood : neighborhoods) {
    VFPS_CHECK_ARG(hood.per_party_dt.size() == num_participants,
                   "similarity: per-party distance size mismatch");
  }

  // Per-query totals first (serial, O(|Q| * P)), so the parallel rows below
  // are pure reads of shared state.
  std::vector<double> totals(neighborhoods.size(), 0.0);
  for (size_t q = 0; q < neighborhoods.size(); ++q) {
    for (double dt : neighborhoods[q].per_party_dt) totals[q] += dt;
  }

  // Rows of the upper triangle are independent; each cell accumulates over
  // queries in query order regardless of which thread owns the row, keeping
  // the matrix bit-identical at any thread count.
  SimilarityMatrix w(num_participants);
  std::vector<double> accum(num_participants * num_participants, 0.0);
  const auto fill_row = [&](size_t a) {
    for (size_t q = 0; q < neighborhoods.size(); ++q) {
      const auto& dt = neighborhoods[q].per_party_dt;
      for (size_t b = a; b < num_participants; ++b) {
        double wq = 1.0;  // d_T == 0: indistinguishable, fully similar
        if (totals[q] > 0.0) {
          wq = (totals[q] - std::abs(dt[a] - dt[b])) / totals[q];
        }
        accum[a * num_participants + b] += wq;
      }
    }
  };
  ParallelFor(pool, num_participants, fill_row);

  const double inv = 1.0 / static_cast<double>(neighborhoods.size());
  for (size_t a = 0; a < num_participants; ++a) {
    for (size_t b = a; b < num_participants; ++b) {
      w.Set(a, b, accum[a * num_participants + b] * inv);
    }
  }
  return w;
}

}  // namespace vfps::core
