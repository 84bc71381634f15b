#ifndef VFPS_DATA_PARTITIONER_H_
#define VFPS_DATA_PARTITIONER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/synthetic.h"

namespace vfps::data {

/// \brief Vertical partition of the joint feature space: participant p holds
/// the feature columns listed in partition[p]. Column indices may repeat
/// across participants only when duplicates are injected deliberately
/// (the Fig. 6 diversity study).
using VerticalPartition = std::vector<std::vector<size_t>>;

/// \brief Random contiguous-size split, matching the paper's setup
/// ("randomly split each dataset into P vertical partitions based on the
/// number of features"). Every participant receives at least one feature.
Result<VerticalPartition> RandomVerticalPartition(size_t num_features,
                                                  size_t num_participants,
                                                  uint64_t seed);

/// \brief Quality-stratified split used by the selection benchmarks.
///
/// Real vertical consortia are heterogeneous: some members hold rich signal,
/// others hold mostly derived or irrelevant columns. This split reproduces
/// that structure from the generator metadata: informative features are
/// distributed with a geometric skew (earlier participants get more),
/// redundant features (noisy combinations of informative ones held elsewhere)
/// are concentrated on later participants, and noise is spread evenly.
/// The result: participants differ in marginal value AND overlap pairwise,
/// which is exactly the regime where diversity-aware selection wins.
///
/// Caveat: participant widths are intentionally unequal here, and the
/// paper's similarity statistic w(p, s) compares raw aggregated distances,
/// which scale with width — so under this split w partially reflects width
/// rather than content. The paper's own evaluation uses near-equal random
/// splits (PartitionMode::kRandom in the experiment driver), which is what
/// the table benches use.
Result<VerticalPartition> QualityStratifiedPartition(
    const std::vector<FeatureKind>& kinds, size_t num_participants,
    uint64_t seed);

/// \brief Append `count` exact copies of participant `source` (the Fig. 6
/// duplicate-participant injection). Copies hold the same columns.
Result<VerticalPartition> WithDuplicates(const VerticalPartition& base,
                                         size_t source, size_t count);

/// Materialize each participant's local feature matrix X^p.
std::vector<Dataset> MaterializeViews(const Dataset& joint,
                                      const VerticalPartition& partition);

/// \brief Concatenate the columns of the selected participants (training view
/// after participant selection). Selected indices must be distinct.
Result<Dataset> ConcatViews(const Dataset& joint,
                            const VerticalPartition& partition,
                            const std::vector<size_t>& selected);

/// Total feature count held by `selected` participants.
size_t SelectedFeatureCount(const VerticalPartition& partition,
                            const std::vector<size_t>& selected);

/// \brief One row shard: the contiguous instance range [begin, end) a
/// simulated storage node of a party holds. The row-shard axis is orthogonal
/// to the vertical (feature) split above — every party's FeatureBlock is cut
/// into the SAME row ranges, so shard s of every party covers the same
/// instances and per-shard aggregation stays slot-aligned.
struct RowShard {
  size_t begin = 0;
  size_t end = 0;

  size_t rows() const { return end - begin; }
  bool contains(size_t row) const { return row >= begin && row < end; }
};

/// \brief Near-equal contiguous row shards: the first (rows % shards) shards
/// hold one extra row. Deterministic (no seed — contiguity is what makes the
/// range-splittable distance kernels reusable per shard). InvalidArgument
/// unless 1 <= shards <= rows, so no shard is empty.
Result<std::vector<RowShard>> MakeRowShards(size_t rows, size_t shards);

/// The shard index holding `row` under MakeRowShards(rows, shards) — O(1)
/// arithmetic, no plan lookup.
size_t ShardOfRow(size_t row, size_t rows, size_t shards);

}  // namespace vfps::data

#endif  // VFPS_DATA_PARTITIONER_H_
