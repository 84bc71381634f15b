#include "data/partitioner.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "common/string_util.h"

namespace vfps::data {

Result<VerticalPartition> RandomVerticalPartition(size_t num_features,
                                                  size_t num_participants,
                                                  uint64_t seed) {
  VFPS_CHECK_ARG(num_participants >= 1, "partition: need >= 1 participant");
  VFPS_CHECK_ARG(num_features >= num_participants,
                 "partition: more participants than features");
  Rng rng(seed);
  const auto perm = rng.Permutation(num_features);
  VerticalPartition out(num_participants);
  // Contiguous chunks of near-equal size over the shuffled column order.
  const size_t base = num_features / num_participants;
  const size_t extra = num_features % num_participants;
  size_t pos = 0;
  for (size_t p = 0; p < num_participants; ++p) {
    const size_t take = base + (p < extra ? 1 : 0);
    out[p].assign(perm.begin() + pos, perm.begin() + pos + take);
    pos += take;
  }
  return out;
}

Result<VerticalPartition> QualityStratifiedPartition(
    const std::vector<FeatureKind>& kinds, size_t num_participants,
    uint64_t seed) {
  VFPS_CHECK_ARG(num_participants >= 1, "partition: need >= 1 participant");
  VFPS_CHECK_ARG(kinds.size() >= num_participants,
                 "partition: more participants than features");
  Rng rng(seed);
  std::vector<size_t> informative, redundant, noise;
  for (size_t j = 0; j < kinds.size(); ++j) {
    switch (kinds[j]) {
      case FeatureKind::kInformative:
        informative.push_back(j);
        break;
      case FeatureKind::kRedundant:
        redundant.push_back(j);
        break;
      case FeatureKind::kNoise:
        noise.push_back(j);
        break;
    }
  }
  rng.Shuffle(&informative);
  rng.Shuffle(&redundant);
  rng.Shuffle(&noise);

  VerticalPartition out(num_participants);

  // Informative: geometric skew. Participant p receives a share proportional
  // to r^p with r = 0.6, so early participants carry most of the signal.
  {
    std::vector<double> weights(num_participants);
    double total = 0.0;
    double w = 1.0;
    for (size_t p = 0; p < num_participants; ++p) {
      weights[p] = w;
      total += w;
      w *= 0.6;
    }
    size_t assigned = 0;
    for (size_t p = 0; p < num_participants; ++p) {
      size_t take = static_cast<size_t>(
          static_cast<double>(informative.size()) * weights[p] / total + 0.5);
      take = std::min(take, informative.size() - assigned);
      for (size_t i = 0; i < take; ++i) out[p].push_back(informative[assigned++]);
    }
    // Leftovers (rounding) go to the first participant.
    while (assigned < informative.size()) out[0].push_back(informative[assigned++]);
  }

  // Redundant: concentrated on the second half of the consortium, creating
  // participants whose content is largely derivable from others'.
  {
    const size_t start = num_participants / 2;
    const size_t span = num_participants - start;
    for (size_t i = 0; i < redundant.size(); ++i) {
      out[start + (i % span)].push_back(redundant[i]);
    }
  }

  // Noise: round-robin so everyone has some filler.
  for (size_t i = 0; i < noise.size(); ++i) {
    out[i % num_participants].push_back(noise[i]);
  }

  // Guarantee non-empty views by stealing from the largest participant.
  for (size_t p = 0; p < num_participants; ++p) {
    if (!out[p].empty()) continue;
    size_t richest = 0;
    for (size_t q = 1; q < num_participants; ++q) {
      if (out[q].size() > out[richest].size()) richest = q;
    }
    if (out[richest].size() <= 1) {
      return Status::Internal("partition: cannot make all views non-empty");
    }
    out[p].push_back(out[richest].back());
    out[richest].pop_back();
  }
  return out;
}

Result<VerticalPartition> WithDuplicates(const VerticalPartition& base,
                                         size_t source, size_t count) {
  VFPS_CHECK_ARG(source < base.size(), "duplicates: source out of range");
  VerticalPartition out = base;
  for (size_t i = 0; i < count; ++i) out.push_back(base[source]);
  return out;
}

std::vector<Dataset> MaterializeViews(const Dataset& joint,
                                      const VerticalPartition& partition) {
  std::vector<Dataset> views;
  views.reserve(partition.size());
  for (const auto& columns : partition) {
    views.push_back(joint.SelectColumns(columns));
  }
  return views;
}

Result<Dataset> ConcatViews(const Dataset& joint,
                            const VerticalPartition& partition,
                            const std::vector<size_t>& selected) {
  std::vector<size_t> columns;
  std::vector<bool> seen(partition.size(), false);
  for (size_t p : selected) {
    VFPS_CHECK_ARG(p < partition.size(), "concat: participant out of range");
    VFPS_CHECK_ARG(!seen[p], "concat: duplicate participant in selection");
    seen[p] = true;
    columns.insert(columns.end(), partition[p].begin(), partition[p].end());
  }
  VFPS_CHECK_ARG(!columns.empty(), "concat: empty selection");
  return joint.SelectColumns(columns);
}

size_t SelectedFeatureCount(const VerticalPartition& partition,
                            const std::vector<size_t>& selected) {
  size_t total = 0;
  for (size_t p : selected) {
    if (p < partition.size()) total += partition[p].size();
  }
  return total;
}

Result<std::vector<RowShard>> MakeRowShards(size_t rows, size_t shards) {
  VFPS_CHECK_ARG(shards >= 1, "row-shards: need >= 1 shard");
  VFPS_CHECK_ARG(shards <= rows, "row-shards: more shards than rows");
  std::vector<RowShard> plan;
  plan.reserve(shards);
  const size_t base = rows / shards;
  const size_t extra = rows % shards;  // first `extra` shards get base + 1
  size_t begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t size = base + (s < extra ? 1 : 0);
    plan.push_back(RowShard{begin, begin + size});
    begin += size;
  }
  return plan;
}

size_t ShardOfRow(size_t row, size_t rows, size_t shards) {
  const size_t base = rows / shards;
  const size_t extra = rows % shards;
  // The first `extra` shards span base + 1 rows each.
  const size_t fat_span = extra * (base + 1);
  if (row < fat_span) return row / (base + 1);
  return extra + (row - fat_span) / base;
}

}  // namespace vfps::data
