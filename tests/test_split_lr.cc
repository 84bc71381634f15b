#include "vfl/split_lr.h"

#include <gtest/gtest.h>

#include <string>

#include "common/buffer.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "ml/logreg.h"

namespace vfps::vfl {
namespace {

struct Fixture {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Fixture Make(bool ckks = false) {
    Fixture f;
    data::SyntheticConfig config;
    config.num_samples = 500;
    config.num_features = 12;
    config.num_informative = 8;
    config.num_redundant = 2;
    config.centroid_distance = 3.5;
    config.seed = 21;
    auto generated = data::GenerateClassification(config);
    f.split = data::SplitDataset(generated->data, 0.7, 0.15, 21).MoveValueUnsafe();
    data::StandardizeSplit(&f.split).Abort("standardize");
    f.partition =
        data::RandomVerticalPartition(config.num_features, 3, 21).MoveValueUnsafe();
    if (ckks) {
      he::CkksParams params;
      params.poly_degree = 1024;
      f.backend = he::CreateCkksBackend(params, 77).MoveValueUnsafe();
    } else {
      f.backend = he::CreatePlainBackend();
    }
    return f;
  }
};

ml::TrainConfig FastConfig() {
  ml::TrainConfig config;
  config.learning_rate = 0.05;
  config.max_epochs = 20;
  config.patience = 4;
  return config;
}

TEST(SplitLrTest, TrainsToUsefulAccuracy) {
  Fixture f = Fixture::Make();
  SplitLrProtocol protocol(&f.split, &f.partition, {0, 1, 2}, f.backend.get(),
                           &f.network, &f.cost, &f.clock);
  auto outcome = protocol.Train(FastConfig());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->test_accuracy, 0.85);
  EXPECT_GT(outcome->epochs, 0u);
  EXPECT_GT(outcome->traffic.bytes, 0u);
  EXPECT_GT(outcome->he_ops.encrypt_ops, 0u);
  EXPECT_GT(outcome->sim_seconds, 0.0);
  EXPECT_GT(f.clock.TotalFor(CostCategory::kTraining), 0.0);
  // Protocol completeness: nothing left undelivered.
  EXPECT_EQ(f.network.PendingCount(), 0u);
}

TEST(SplitLrTest, MatchesCentralizedLrAccuracy) {
  // The split model computes the same function as a centralized LR on the
  // concatenated features; trained with the same hyper-parameters, the two
  // must reach comparable test accuracy (floating-point summation order and
  // separate per-slice Adam states allow small deviations).
  Fixture f = Fixture::Make();
  SplitLrProtocol protocol(&f.split, &f.partition, {0, 1, 2}, f.backend.get(),
                           &f.network, &f.cost, &f.clock);
  auto fed = protocol.Train(FastConfig());
  ASSERT_TRUE(fed.ok());

  ml::LogisticRegression central(FastConfig());
  ASSERT_TRUE(central.Fit(f.split.train, f.split.valid).ok());
  auto central_acc = central.Score(f.split.test);
  ASSERT_TRUE(central_acc.ok());
  EXPECT_NEAR(fed->test_accuracy, *central_acc, 0.05);
}

TEST(SplitLrTest, SubConsortiumUsesOnlySelectedColumns) {
  Fixture f = Fixture::Make();
  SplitLrProtocol two_parties(&f.split, &f.partition, {0, 1}, f.backend.get(),
                              &f.network, &f.cost, &f.clock);
  auto outcome = two_parties.Train(FastConfig());
  ASSERT_TRUE(outcome.ok());
  // Fewer parties -> less traffic than the full consortium run.
  Fixture g = Fixture::Make();
  SplitLrProtocol all_parties(&g.split, &g.partition, {0, 1, 2}, g.backend.get(),
                              &g.network, &g.cost, &g.clock);
  auto full = all_parties.Train(FastConfig());
  ASSERT_TRUE(full.ok());
  EXPECT_LT(static_cast<double>(outcome->traffic.bytes) /
                static_cast<double>(outcome->epochs),
            static_cast<double>(full->traffic.bytes) /
                static_cast<double>(full->epochs));
}

TEST(SplitLrTest, RealCkksEncryptionWorks) {
  Fixture f = Fixture::Make(/*ckks=*/true);
  ml::TrainConfig config = FastConfig();
  config.max_epochs = 3;  // CKKS per-batch encryption is slow; keep it short
  SplitLrProtocol protocol(&f.split, &f.partition, {0, 1, 2}, f.backend.get(),
                           &f.network, &f.cost, &f.clock);
  auto outcome = protocol.Train(config);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->test_accuracy, 0.5);
  EXPECT_GT(outcome->he_ops.encrypt_ops, 0u);
}

TEST(SplitLrTest, LeaderMustBeSelected) {
  Fixture f = Fixture::Make();
  SplitLrProtocol protocol(&f.split, &f.partition, {1, 2}, f.backend.get(),
                           &f.network, &f.cost, &f.clock);
  EXPECT_FALSE(protocol.Train(FastConfig()).ok());
}

TEST(SplitLrTest, EmptySelectionRejected) {
  Fixture f = Fixture::Make();
  SplitLrProtocol protocol(&f.split, &f.partition, {}, f.backend.get(),
                           &f.network, &f.cost, &f.clock);
  EXPECT_FALSE(protocol.Train(FastConfig()).ok());
}

TEST(SplitLrTest, ResidualPayloadRejectsTrailingBytes) {
  BinaryWriter writer;
  writer.WriteDoubleVec({0.5, -1.25, 3.0});
  std::vector<uint8_t> payload = writer.TakeBytes();
  auto values = SplitLrProtocol::DecodeDoubles(payload);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  EXPECT_EQ(*values, (std::vector<double>{0.5, -1.25, 3.0}));
  // One byte after the vector is rejected, and named.
  payload.push_back(0);
  values = SplitLrProtocol::DecodeDoubles(payload);
  EXPECT_TRUE(values.status().IsProtocolError()) << values.status().ToString();
  EXPECT_NE(values.status().message().find("1 bytes"), std::string::npos)
      << values.status().ToString();
  // A length past the payload.
  payload.resize(payload.size() - 2);
  EXPECT_FALSE(SplitLrProtocol::DecodeDoubles(payload).ok());
}

}  // namespace
}  // namespace vfps::vfl
