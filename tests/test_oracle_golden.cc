// Golden digests of the KNN oracle's observable output.
//
// Each case runs one FederatedKnnOracle configuration and pins a CRC-32 over
// everything a caller can see: every neighborhood (query row, neighbor ids,
// per-party d_T bytes), the HE operation counters, the encrypted-candidate
// and Fagin-depth totals, and the metered traffic (messages and bytes). The
// digests were recorded before the oracle's per-query bodies were folded into
// one shard pipeline; a refactor that moves any of these values — a tie
// broken differently, a reordered slot, one message more — fails here even
// when the sharded-vs-unsharded differentials still agree with each other.
// The simulated clock is deliberately left out: it is a cost model, not an
// output.
//
// The cases from "fagin-shards3-prefilter8" on, and the repair cases, were
// recorded before the BASE and top-k unit bodies became one. A repair case
// attaches a SelectionCache, runs, and reruns with participant 2 quarantined;
// its digest covers the rerun and the contributions it reused, which pins the
// cache-hit rule in every mode.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "data/partitioner.h"
#include "data/synthetic.h"
#include "he/backend.h"
#include "he/ckks.h"
#include "vfl/fed_knn.h"
#include "vfl/selection_cache.h"

namespace vfps {
namespace {

struct GoldenCase {
  const char* name;
  vfl::KnnOracleMode mode;
  size_t shards;
  size_t query_group;
  size_t prefilter_clusters;
  bool ckks;
  uint32_t digest;
};

// Digest of one run of case `c`. With `reused` set, the run is a repair: the
// case runs once with a SelectionCache attached, then again with participant
// 2 quarantined, and the digest covers the rerun and the contributions it
// reused (also written to *reused).
uint32_t RunDigest(const GoldenCase& c, uint64_t* reused = nullptr) {
  data::SyntheticConfig synth;
  synth.num_samples = 350;
  synth.num_features = 12;
  synth.num_informative = 6;
  synth.num_redundant = 3;
  synth.seed = 31;
  auto generated = data::GenerateClassification(synth);
  EXPECT_TRUE(generated.ok());
  const data::Dataset train = generated->data;
  const data::VerticalPartition partition =
      data::RandomVerticalPartition(synth.num_features, 4, 9).MoveValueUnsafe();
  std::unique_ptr<he::HeBackend> backend;
  if (c.ckks) {
    he::CkksParams params;
    params.poly_degree = 1024;
    backend = he::CreateCkksBackend(params, 123).MoveValueUnsafe();
  } else {
    backend = he::CreatePlainBackend();
  }
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  vfl::FederatedKnnOracle oracle(&train, &partition, backend.get(), &network,
                                 &cost, &clock);
  vfl::FedKnnConfig config;
  config.mode = c.mode;
  config.k = 6;
  config.num_queries = 12;
  config.seed = 77;
  config.shards = c.shards;
  config.query_group = c.query_group;
  config.prefilter_clusters = c.prefilter_clusters;
  vfl::SelectionCache cache;
  if (reused != nullptr) {
    oracle.set_cache(&cache);
    auto first = oracle.Run(config, nullptr);
    EXPECT_TRUE(first.ok()) << c.name << ": " << first.status().ToString();
    config.quarantined = {2};
  }
  vfl::FedKnnStats stats;
  auto run = oracle.Run(config, &stats);
  EXPECT_TRUE(run.ok()) << c.name << ": " << run.status().ToString();
  if (!run.ok()) return 0;

  Crc32Accumulator crc;
  for (const vfl::QueryNeighborhood& hood : *run) {
    crc.Update(hood.query_row);
    crc.Update(static_cast<uint64_t>(hood.neighbors.size()));
    for (uint64_t id : hood.neighbors) crc.Update(id);
    crc.Update(std::span<const double>(hood.per_party_dt));
  }
  for (uint64_t v :
       {stats.he_ops.encrypt_ops, stats.he_ops.decrypt_ops,
        stats.he_ops.add_ops, stats.he_ops.values_encrypted,
        stats.he_ops.values_decrypted, stats.he_ops.values_added,
        stats.candidates_encrypted, stats.fagin_depth, stats.traffic.messages,
        stats.traffic.bytes}) {
    crc.Update(v);
  }
  if (reused != nullptr) {
    *reused = stats.reused_contributions;
    crc.Update(stats.reused_contributions);
  }
  return crc.value();
}

TEST(OracleGoldenTest, OutputsMatchRecordedDigests) {
  using vfl::KnnOracleMode;
  const GoldenCase kCases[] = {
      {"base", KnnOracleMode::kBase, 1, 1, 0, false, 0x6ef271e8u},
      {"base-group3", KnnOracleMode::kBase, 1, 3, 0, false, 0x24353aabu},
      {"base-group-auto", KnnOracleMode::kBase, 1, 0, 0, false, 0x0393fe1du},
      {"base-shards3", KnnOracleMode::kBase, 3, 1, 0, false, 0x8bd20f48u},
      {"base-shards3-prefilter8", KnnOracleMode::kBase, 3, 1, 8, false,
       0x3f81f6c0u},
      {"fagin", KnnOracleMode::kFagin, 1, 1, 0, false, 0x56e4c098u},
      {"fagin-shards3", KnnOracleMode::kFagin, 3, 1, 0, false, 0x17fa8ec8u},
      {"threshold", KnnOracleMode::kThreshold, 1, 1, 0, false, 0x29b16325u},
      {"threshold-shards3", KnnOracleMode::kThreshold, 3, 1, 0, false,
       0xf359c78bu},
      {"ckks-fagin", KnnOracleMode::kFagin, 1, 1, 0, true, 0x634f1e44u},
      {"ckks-base-shards2", KnnOracleMode::kBase, 2, 1, 0, true, 0x52df4c70u},
      {"fagin-shards3-prefilter8", KnnOracleMode::kFagin, 3, 1, 8, false,
       0x69be1fc6u},
      {"threshold-prefilter8", KnnOracleMode::kThreshold, 1, 1, 8, false,
       0x5c0b23adu},
      {"base-group3-shards2", KnnOracleMode::kBase, 2, 3, 0, false,
       0xd3b7ee4fu},
      {"base-group-auto-shards3", KnnOracleMode::kBase, 3, 0, 0, false,
       0xdc7c7856u},
      {"ckks-threshold", KnnOracleMode::kThreshold, 1, 1, 0, true,
       0xf7401102u},
  };
  for (const GoldenCase& c : kCases) {
    const uint32_t got = RunDigest(c);
    EXPECT_EQ(got, c.digest) << c.name << ": got 0x" << std::hex << got;
  }
}

TEST(OracleGoldenTest, RepairedRunsMatchRecordedDigests) {
  using vfl::KnnOracleMode;
  // A repair reuses every survivor's entry for every shard of every unit:
  // 3 parties x units x shards.
  struct RepairCase {
    GoldenCase run;
    uint64_t reused;
  };
  const RepairCase kCases[] = {
      {{"repair-base-shards2", KnnOracleMode::kBase, 2, 1, 0, false,
        0x7aa0400eu},
       72},
      {{"repair-base-group3", KnnOracleMode::kBase, 1, 3, 0, false,
        0x4b7d867eu},
       12},
      {{"repair-fagin-shards2", KnnOracleMode::kFagin, 2, 1, 0, false,
        0x7d3d03b8u},
       72},
      {{"repair-threshold", KnnOracleMode::kThreshold, 1, 1, 0, false,
        0xfd5b0141u},
       36},
      {{"repair-ckks-base-shards2", KnnOracleMode::kBase, 2, 1, 0, true,
        0x43bf482du},
       72},
  };
  for (const RepairCase& c : kCases) {
    uint64_t reused = 0;
    const uint32_t got = RunDigest(c.run, &reused);
    EXPECT_EQ(got, c.run.digest)
        << c.run.name << ": got 0x" << std::hex << got;
    EXPECT_EQ(reused, c.reused) << c.run.name;
  }
}

}  // namespace
}  // namespace vfps
