#include "vfl/sharded_knn.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "ml/kernels.h"
#include "ml/kmeans.h"

namespace vfps::vfl {

namespace {
// One query's slice of every party's columns, gathered once up front so the
// shard loop never touches the (virtual) full matrix again.
struct QuerySlices {
  std::vector<std::vector<double>> values;  // [party] -> gathered columns
  std::vector<double> norms;                // [party] -> squared norm
};
}  // namespace

Result<ShardedKnnOutput> RunShardedKnn(const data::SyntheticConfig& data_config,
                                       const data::VerticalPartition& partition,
                                       const ShardedKnnConfig& config) {
  VFPS_CHECK_ARG(config.k >= 1, "sharded-knn: k must be >= 1");
  VFPS_CHECK_ARG(config.num_queries >= 1, "sharded-knn: need >= 1 query");
  VFPS_CHECK_ARG(!partition.empty(), "sharded-knn: empty partition");

  VFPS_ASSIGN_OR_RETURN(auto stream,
                        data::SyntheticShardStream::Create(data_config));
  const size_t n = stream.num_rows();
  const size_t f = stream.num_features();
  const size_t p = partition.size();
  VFPS_CHECK_ARG(n > config.k + 1, "sharded-knn: dataset smaller than k");
  for (const auto& columns : partition) {
    for (size_t col : columns) {
      VFPS_CHECK_ARG(col < f, "sharded-knn: partition column out of range");
    }
  }
  VFPS_ASSIGN_OR_RETURN(auto plan, data::MakeRowShards(n, config.shards));

  // Sample the query rows and materialize ONLY those rows' features (one
  // single-row stream fetch each — the full matrix never exists).
  Rng rng(config.seed);
  const size_t num_queries = std::min(config.num_queries, n);
  const std::vector<size_t> query_rows =
      rng.SampleWithoutReplacement(n, num_queries);
  std::vector<QuerySlices> slices(num_queries);
  {
    std::vector<std::vector<size_t>> columns(partition.begin(),
                                             partition.end());
    for (size_t qi = 0; qi < num_queries; ++qi) {
      VFPS_ASSIGN_OR_RETURN(
          auto qdata, stream.Rows(query_rows[qi], query_rows[qi] + 1));
      const double* qrow = qdata.Row(0);
      slices[qi].values.resize(p);
      slices[qi].norms.resize(p);
      for (size_t party = 0; party < p; ++party) {
        auto& v = slices[qi].values[party];
        v.resize(columns[party].size());
        for (size_t j = 0; j < v.size(); ++j) v[j] = qrow[columns[party][j]];
        slices[qi].norms[party] = ml::SquaredNorm(v.data(), v.size());
      }
    }
  }

  ShardedKnnOutput out;
  out.query_rows.assign(query_rows.begin(), query_rows.end());

  // Per-query shard-local top-k lists, merged hierarchically at the end.
  // O(Q x S x k) entries — the only state that outlives a shard.
  std::vector<std::vector<topk::ShardTopk>> per_query_tops(num_queries);

  std::vector<double> agg;      // aggregate distances, reused across queries
  std::vector<double> partial;  // one party's distances, reused likewise
  for (const data::RowShard& shard : plan) {
    const size_t m = shard.rows();
    if (m == 0) continue;
    out.max_shard_rows = std::max(out.max_shard_rows, m);

    // Materialize this shard's rows and pack per-party blocks over them; the
    // previous shard's data is already freed (scoped per iteration).
    VFPS_ASSIGN_OR_RETURN(auto shard_data, stream.Rows(shard.begin, shard.end));
    std::vector<ml::FeatureBlock> blocks;
    blocks.reserve(p);
    for (size_t party = 0; party < p; ++party) {
      blocks.emplace_back(shard_data, partition[party]);
    }

    // Optional pre-filter: per-party clustering of THIS shard's rows. The
    // seed mixes in shard.begin so every (shard, party) model is independent
    // but reproducible.
    std::vector<ml::KMeansResult> models;
    if (config.prefilter_clusters > 0) {
      models.reserve(p);
      for (size_t party = 0; party < p; ++party) {
        VFPS_ASSIGN_OR_RETURN(
            auto km,
            ml::KMeansCluster(blocks[party], config.prefilter_clusters,
                              config.seed ^ (shard.begin * 0x9E3779B97F4A7C15ULL + party),
                              ml::kPrefilterKmeansIters));
        models.push_back(std::move(km));
      }
    }

    agg.resize(m);
    partial.resize(m);
    std::vector<uint8_t> mask;
    const size_t target = ml::PrefilterCoverage(config.k);
    for (size_t qi = 0; qi < num_queries; ++qi) {
      const QuerySlices& qs = slices[qi];
      const size_t query_row = query_rows[qi];
      const double inf = std::numeric_limits<double>::infinity();

      if (models.empty()) {
        // Exact scan: one SIMD range-kernel sweep per party over the whole
        // shard, summed in fixed party order (per-row values — and therefore
        // the final (value, id) ranking — are independent of the layout).
        std::fill(agg.begin(), agg.end(), 0.0);
        for (size_t party = 0; party < p; ++party) {
          ml::BlockSquaredDistances(blocks[party], qs.values[party].data(),
                                    qs.norms[party], 0, m, partial.data());
          for (size_t i = 0; i < m; ++i) agg[i] += partial[i];
        }
        out.candidates_scored += m;
        if (shard.contains(query_row)) agg[query_row - shard.begin] = inf;
        const auto top = ml::SmallestK(agg.data(), m, config.k);
        topk::ShardTopk st;
        st.values.reserve(top.size());
        st.ids.reserve(top.size());
        for (uint64_t li : top) {
          if (agg[li] == inf) continue;  // the query row itself
          st.values.push_back(agg[li]);
          st.ids.push_back(shard.begin + li);
        }
        per_query_tops[qi].push_back(std::move(st));
        continue;
      }

      // Pre-filtered scan: each party nominates the member rows of its
      // clusters nearest the query until the coverage target is met; only
      // the union pays per-row distance work.
      mask.assign(m, 0);
      for (size_t party = 0; party < p; ++party) {
        for (uint32_t row : ml::NominateClusterRows(
                 models[party], qs.values[party].data(), qs.norms[party],
                 target)) {
          mask[row] = 1;
        }
      }
      if (shard.contains(query_row)) mask[query_row - shard.begin] = 0;

      std::vector<uint64_t> cand;
      for (size_t i = 0; i < m; ++i) {
        if (mask[i] != 0) cand.push_back(i);
      }
      out.candidates_scored += cand.size();
      std::vector<double> cand_agg(cand.size(), 0.0);
      for (size_t party = 0; party < p; ++party) {
        const ml::FeatureBlock& block = blocks[party];
        for (size_t ci = 0; ci < cand.size(); ++ci) {
          double d = 0.0;
          ml::BlockSquaredDistances(block, qs.values[party].data(),
                                    qs.norms[party], cand[ci], cand[ci] + 1,
                                    &d);
          cand_agg[ci] += d;
        }
      }
      const auto top = ml::SmallestK(cand_agg.data(), cand.size(), config.k);
      // Candidate positions are ascending local rows, so the (value, id)
      // order SmallestK yields survives the id mapping verbatim.
      topk::ShardTopk st;
      st.values.reserve(top.size());
      st.ids.reserve(top.size());
      for (uint64_t ci : top) {
        st.values.push_back(cand_agg[ci]);
        st.ids.push_back(shard.begin + cand[ci]);
      }
      per_query_tops[qi].push_back(std::move(st));
    }
  }

  out.neighbors.resize(num_queries);
  out.distances.resize(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    VFPS_ASSIGN_OR_RETURN(
        auto merged,
        topk::HierarchicalTopkMerge(std::move(per_query_tops[qi]), config.k,
                                    &out.merge_stats));
    out.neighbors[qi] = std::move(merged.ids);
    out.distances[qi] = std::move(merged.values);
  }
  return out;
}

}  // namespace vfps::vfl
