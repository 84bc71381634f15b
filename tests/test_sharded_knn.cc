// Sharded-oracle and out-of-core engine contracts:
//  * --shards=1 vs --shards=S oracle runs are byte-identical (neighbors AND
//    per-party d_T, exact ==) for BASE (with or without query groups) and
//    FAGIN, at every thread count — sharding is a memory/topology knob,
//    never a results knob;
//  * the streaming engine's output is invariant to the shard count and
//    agrees with a brute-force scan of the equivalent in-memory dataset;
//  * the TreeCSS pre-filter with one cluster nominates everything and thus
//    degrades to the exact protocol.

#include "vfl/sharded_knn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "data/partitioner.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "ml/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

struct Deployment {
  data::Dataset train;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Deployment Make() {
    Deployment d;
    data::SyntheticConfig config;
    config.num_samples = 350;
    config.num_features = 12;
    config.num_informative = 6;
    config.num_redundant = 3;
    config.seed = 31;
    auto generated = data::GenerateClassification(config);
    d.train = generated->data;
    d.partition =
        data::RandomVerticalPartition(config.num_features, 4, 9).MoveValueUnsafe();
    d.backend = he::CreatePlainBackend();
    return d;
  }
};

std::vector<vfl::QueryNeighborhood> RunOracle(vfl::KnnOracleMode mode,
                                              size_t shards, size_t threads,
                                              size_t prefilter = 0,
                                              vfl::FedKnnStats* stats = nullptr,
                                              size_t query_group = 1) {
  Deployment d = Deployment::Make();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  vfl::FederatedKnnOracle oracle(&d.train, &d.partition, d.backend.get(),
                                 &d.network, &d.cost, &d.clock, pool.get());
  vfl::FedKnnConfig config;
  config.mode = mode;
  config.k = 6;
  config.num_queries = 12;
  config.seed = 77;
  config.shards = shards;
  config.prefilter_clusters = prefilter;
  config.query_group = query_group;
  auto result = oracle.Run(config, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.MoveValueUnsafe();
}

void ExpectIdentical(const std::vector<vfl::QueryNeighborhood>& a,
                     const std::vector<vfl::QueryNeighborhood>& b,
                     const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q].query_row, b[q].query_row) << label << " query " << q;
    EXPECT_EQ(a[q].neighbors, b[q].neighbors) << label << " query " << q;
    ASSERT_EQ(a[q].per_party_dt.size(), b[q].per_party_dt.size());
    for (size_t p = 0; p < a[q].per_party_dt.size(); ++p) {
      // Exact on purpose: the sharded path must preserve accumulation order.
      EXPECT_EQ(a[q].per_party_dt[p], b[q].per_party_dt[p])
          << label << " query " << q << " party " << p;
    }
  }
}

TEST(ShardedOracleTest, BaseShardedIsBitIdenticalAtAnyThreadCount) {
  const auto pristine = RunOracle(vfl::KnnOracleMode::kBase, 1, 1);
  for (size_t shards : {2, 5}) {
    for (size_t threads : {1, 2, 8}) {
      // Query groups pack per shard; 0 auto-sizes the group.
      for (size_t group : {1, 3, 0}) {
        ExpectIdentical(pristine,
                        RunOracle(vfl::KnnOracleMode::kBase, shards, threads,
                                  0, nullptr, group),
                        "base");
      }
    }
  }
}

TEST(ShardedOracleTest, FaginShardedIsBitIdenticalAtAnyThreadCount) {
  const auto pristine = RunOracle(vfl::KnnOracleMode::kFagin, 1, 1);
  for (size_t shards : {2, 5}) {
    for (size_t threads : {1, 2, 8}) {
      ExpectIdentical(pristine,
                      RunOracle(vfl::KnnOracleMode::kFagin, shards, threads),
                      "fagin");
    }
  }
}

TEST(ShardedOracleTest, ThresholdShardedMatchesBaseNeighborSets) {
  const auto base = RunOracle(vfl::KnnOracleMode::kBase, 1, 1);
  const auto ta = RunOracle(vfl::KnnOracleMode::kThreshold, 3, 1);
  ASSERT_EQ(base.size(), ta.size());
  for (size_t q = 0; q < base.size(); ++q) {
    const std::set<uint64_t> want(base[q].neighbors.begin(),
                                  base[q].neighbors.end());
    const std::set<uint64_t> got(ta[q].neighbors.begin(),
                                 ta[q].neighbors.end());
    EXPECT_EQ(want, got) << "query " << q;
  }
}

TEST(ShardedOracleTest, SingleClusterPrefilterIsExact) {
  // One cluster per party means every cluster is the nearest cluster, every
  // row is nominated, and the "approximate" path must equal the exact one.
  const auto pristine = RunOracle(vfl::KnnOracleMode::kBase, 1, 1);
  const auto filtered = RunOracle(vfl::KnnOracleMode::kBase, 3, 1, 1);
  ExpectIdentical(pristine, filtered, "prefilter-1");
}

TEST(ShardedOracleTest, PrefilterPrunesRowsButKeepsPlausibleNeighbors) {
  vfl::FedKnnStats exact_stats;
  const auto exact =
      RunOracle(vfl::KnnOracleMode::kBase, 1, 1, 0, &exact_stats);
  vfl::FedKnnStats stats;
  const auto filtered =
      RunOracle(vfl::KnnOracleMode::kBase, 2, 1, 8, &stats);
  EXPECT_LT(stats.candidates_encrypted, exact_stats.candidates_encrypted);
  // Approximate, but grounded: a healthy fraction of the true neighbor sets
  // must survive the pruning (the paper's TreeCSS trade-off).
  size_t hits = 0, total = 0;
  for (size_t q = 0; q < exact.size(); ++q) {
    const std::set<uint64_t> want(exact[q].neighbors.begin(),
                                  exact[q].neighbors.end());
    for (uint64_t id : filtered[q].neighbors) hits += want.count(id);
    total += want.size();
  }
  EXPECT_GE(hits * 2, total);
}

TEST(ShardedOracleTest, ShardCountOutsideOneToNRejected) {
  // A shard count outside [1, N] is rejected before the query-id broadcast,
  // so the run sends nothing; the huge ones used to abort the process.
  for (size_t shards : {size_t{0}, size_t{351}, size_t{1} << 40, SIZE_MAX}) {
    Deployment d = Deployment::Make();
    ASSERT_EQ(d.train.num_samples(), 350u);
    vfl::FederatedKnnOracle oracle(&d.train, &d.partition, d.backend.get(),
                                   &d.network, &d.cost, &d.clock);
    vfl::FedKnnConfig config;
    config.mode = vfl::KnnOracleMode::kBase;
    config.shards = shards;
    const Status status = oracle.Run(config, nullptr).status();
    EXPECT_TRUE(status.IsInvalidArgument())
        << "shards=" << shards << ": " << status.ToString();
    EXPECT_EQ(d.network.total().messages, 0u) << "shards=" << shards;
  }
}

TEST(ShardedOracleTest, EveryShardMergeSpanChargesItsCompares) {
  // The shard-local phase-1 merge runs at the aggregation server, so each
  // of its knn.topk_merge spans records the simulated compare time.
  for (vfl::KnnOracleMode mode :
       {vfl::KnnOracleMode::kFagin, vfl::KnnOracleMode::kThreshold}) {
    Deployment d = Deployment::Make();
    obs::MetricsRegistry obs;
    obs.EnableTracing();
    vfl::FederatedKnnOracle oracle(&d.train, &d.partition, d.backend.get(),
                                   &d.network, &d.cost, &d.clock, nullptr,
                                   &obs);
    vfl::FedKnnConfig config;
    config.mode = mode;
    config.k = 6;
    config.num_queries = 3;
    config.seed = 77;
    config.shards = 2;
    auto result = oracle.Run(config, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    size_t merges = 0;
    for (const auto& e : obs.tracer()->Snapshot()) {
      if (e.name != "knn.topk_merge" || e.node != "agg-server") continue;
      ++merges;
      EXPECT_GT(e.sim_dur_seconds, 0.0) << vfl::KnnOracleModeName(mode);
    }
    EXPECT_EQ(merges, 6u) << vfl::KnnOracleModeName(mode);  // 3 queries x 2
  }
}

// ---- Out-of-core engine ----

data::SyntheticConfig EngineData(size_t rows) {
  data::SyntheticConfig config;
  config.num_samples = rows;
  config.num_features = 10;
  config.num_informative = 5;
  config.num_redundant = 2;
  config.seed = 13;
  return config;
}

TEST(ShardedKnnEngineTest, OutputInvariantToShardCount) {
  const auto data_config = EngineData(500);
  const auto partition =
      data::RandomVerticalPartition(10, 3, 5).MoveValueUnsafe();
  vfl::ShardedKnnConfig config;
  config.k = 8;
  config.num_queries = 10;
  config.seed = 99;

  config.shards = 1;
  auto one = vfl::RunShardedKnn(data_config, partition, config);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  for (size_t shards : {3, 8, 64}) {
    config.shards = shards;
    auto many = vfl::RunShardedKnn(data_config, partition, config);
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    EXPECT_EQ(one->query_rows, many->query_rows);
    for (size_t q = 0; q < one->neighbors.size(); ++q) {
      EXPECT_EQ(one->neighbors[q], many->neighbors[q])
          << "shards=" << shards << " query " << q;
      EXPECT_EQ(one->distances[q], many->distances[q])
          << "shards=" << shards << " query " << q;
    }
    EXPECT_LT(many->max_shard_rows, one->max_shard_rows)
        << "sharding did not reduce the resident row high-water mark";
  }
}

TEST(ShardedKnnEngineTest, AgreesWithBruteForceOverMaterializedData) {
  const auto data_config = EngineData(260);
  const auto partition =
      data::RandomVerticalPartition(10, 3, 5).MoveValueUnsafe();
  vfl::ShardedKnnConfig config;
  config.shards = 7;
  config.k = 5;
  config.num_queries = 6;
  config.seed = 4;
  auto out = vfl::RunShardedKnn(data_config, partition, config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Brute-force reference: row i of the stream is a pure function of
  // (config, i), so materializing the whole range in one fetch yields the
  // exact rows the engine streamed shard by shard.
  auto stream = data::SyntheticShardStream::Create(data_config);
  ASSERT_TRUE(stream.ok());
  auto full_or = stream->Rows(0, data_config.num_samples);
  ASSERT_TRUE(full_or.ok());
  const data::Dataset& full = *full_or;
  for (size_t qi = 0; qi < out->query_rows.size(); ++qi) {
    const size_t query = out->query_rows[qi];
    std::vector<double> agg(full.num_samples(), 0.0);
    for (const auto& columns : partition) {
      for (size_t r = 0; r < full.num_samples(); ++r) {
        double d = 0.0;
        for (size_t col : columns) {
          const double diff = full.At(r, col) - full.At(query, col);
          d += diff * diff;
        }
        agg[r] += d;
      }
    }
    agg[query] = std::numeric_limits<double>::infinity();
    const auto expected = ml::SmallestK(agg.data(), agg.size(), config.k);
    ASSERT_EQ(out->neighbors[qi].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out->neighbors[qi][i], expected[i]) << "query " << qi;
      EXPECT_NEAR(out->distances[qi][i], agg[expected[i]], 1e-9)
          << "query " << qi;
    }
  }
}

TEST(ShardedKnnEngineTest, PrefilterCutsScoredCandidates) {
  const auto data_config = EngineData(600);
  const auto partition =
      data::RandomVerticalPartition(10, 3, 5).MoveValueUnsafe();
  vfl::ShardedKnnConfig config;
  config.shards = 4;
  config.k = 5;
  config.num_queries = 8;
  config.seed = 21;
  auto exact = vfl::RunShardedKnn(data_config, partition, config);
  ASSERT_TRUE(exact.ok());
  config.prefilter_clusters = 8;
  auto filtered = vfl::RunShardedKnn(data_config, partition, config);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT(filtered->candidates_scored, exact->candidates_scored);
  EXPECT_EQ(filtered->neighbors.size(), exact->neighbors.size());
  for (const auto& ids : filtered->neighbors) {
    EXPECT_EQ(ids.size(), config.k);
  }
}

TEST(ShardedKnnEngineTest, RejectsBadConfigs) {
  const auto data_config = EngineData(100);
  const auto partition =
      data::RandomVerticalPartition(10, 3, 5).MoveValueUnsafe();
  vfl::ShardedKnnConfig config;
  config.shards = 0;
  EXPECT_FALSE(vfl::RunShardedKnn(data_config, partition, config).ok());
  config.shards = 1;
  config.k = 0;
  EXPECT_FALSE(vfl::RunShardedKnn(data_config, partition, config).ok());
}

}  // namespace
}  // namespace vfps
