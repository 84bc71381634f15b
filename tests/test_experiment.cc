// Integration tests: the full pipeline (preset -> partition -> selection ->
// downstream training) across methods, models, and backends.

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <string>

#include "net/fault.h"
#include "vfl/split_train.h"

namespace vfps::core {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.dataset = "Bank";
  config.scale = 0.25;  // 1000 rows
  config.participants = 4;
  config.select = 2;
  config.method = SelectionMethod::kVfpsSm;
  config.model = ml::ModelKind::kLogReg;
  config.backend = HeBackendKind::kPlain;
  config.knn.num_queries = 16;
  config.utility_queries = 16;
  config.seed = 42;
  return config;
}

TEST(ExperimentTest, VfpsSmEndToEnd) {
  auto result = RunExperiment(SmallConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->selection.selected.size(), 2u);
  EXPECT_GT(result->training.test_accuracy, 0.6);
  EXPECT_GT(result->selection_sim_seconds, 0.0);
  EXPECT_GT(result->training_sim_seconds, 0.0);
  EXPECT_NEAR(result->total_sim_seconds,
              result->selection_sim_seconds + result->training_sim_seconds,
              1e-9);
  EXPECT_EQ(result->consortium_size, 4u);
}

TEST(ExperimentTest, AllMethodTrainsWithEveryParticipant) {
  ExperimentConfig config = SmallConfig();
  config.method = SelectionMethod::kAll;
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selection.selected.size(), 4u);
  EXPECT_DOUBLE_EQ(result->selection_sim_seconds, 0.0);
}

TEST(ExperimentTest, EveryMethodEveryModelRuns) {
  for (SelectionMethod method :
       {SelectionMethod::kAll, SelectionMethod::kRandom,
        SelectionMethod::kShapley, SelectionMethod::kVfMine,
        SelectionMethod::kVfpsSm, SelectionMethod::kVfpsSmBase}) {
    for (ml::ModelKind model :
         {ml::ModelKind::kKnn, ml::ModelKind::kLogReg, ml::ModelKind::kMlp}) {
      ExperimentConfig config = SmallConfig();
      config.method = method;
      config.model = model;
      config.classifier.train.max_epochs = 10;  // keep the grid fast
      auto result = RunExperiment(config);
      ASSERT_TRUE(result.ok())
          << SelectionMethodName(method) << "/" << ml::ModelKindName(model)
          << ": " << result.status().ToString();
      EXPECT_GT(result->training.test_accuracy, 0.5)
          << SelectionMethodName(method) << "/" << ml::ModelKindName(model);
    }
  }
}

TEST(ExperimentTest, DeterministicForSeed) {
  auto a = RunExperiment(SmallConfig());
  auto b = RunExperiment(SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->selection.selected, b->selection.selected);
  EXPECT_DOUBLE_EQ(a->training.test_accuracy, b->training.test_accuracy);
  EXPECT_DOUBLE_EQ(a->total_sim_seconds, b->total_sim_seconds);
}

TEST(ExperimentTest, SimulatedTimeIndependentOfBackend) {
  // The analytic cost model must produce identical simulated seconds whether
  // the run used real CKKS or the plain backend.
  ExperimentConfig plain = SmallConfig();
  plain.knn.num_queries = 8;
  ExperimentConfig ckks = plain;
  ckks.backend = HeBackendKind::kCkks;
  auto a = RunExperiment(plain);
  auto b = RunExperiment(ckks);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->selection.selected, b->selection.selected);
  EXPECT_NEAR(a->selection_sim_seconds, b->selection_sim_seconds,
              1e-6 * std::max(1.0, a->selection_sim_seconds));
}

TEST(ExperimentTest, DuplicateInjectionGrowsConsortium) {
  ExperimentConfig config = SmallConfig();
  config.duplicates = 3;
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->consortium_size, 7u);
}

TEST(ExperimentTest, FaginSelectionCheaperThanBaseOnLargerData) {
  ExperimentConfig base = SmallConfig();
  base.dataset = "IJCNN";  // 16k rows at scale 1
  base.scale = 0.5;
  base.knn.num_queries = 8;
  base.method = SelectionMethod::kVfpsSmBase;
  ExperimentConfig fagin = base;
  fagin.method = SelectionMethod::kVfpsSm;
  auto rb = RunExperiment(base);
  auto rf = RunExperiment(fagin);
  ASSERT_TRUE(rb.ok() && rf.ok());
  EXPECT_LT(rf->selection_sim_seconds, rb->selection_sim_seconds);
  EXPECT_LT(rf->selection.knn_stats.candidates_encrypted,
            rb->selection.knn_stats.candidates_encrypted);
}

TEST(ExperimentTest, SelectionBeatsAllOnTotalTimeForBigData) {
  ExperimentConfig all = SmallConfig();
  all.dataset = "SUSY";
  all.scale = 0.1;
  all.method = SelectionMethod::kAll;
  all.model = ml::ModelKind::kKnn;
  ExperimentConfig vfps = all;
  vfps.method = SelectionMethod::kVfpsSm;
  vfps.knn.num_queries = 8;
  auto ra = RunExperiment(all);
  auto rv = RunExperiment(vfps);
  ASSERT_TRUE(ra.ok() && rv.ok());
  EXPECT_LT(rv->total_sim_seconds, ra->total_sim_seconds);
}

TEST(ExperimentTest, UnknownDatasetFails) {
  ExperimentConfig config = SmallConfig();
  config.dataset = "CIFAR10";
  EXPECT_FALSE(RunExperiment(config).ok());
}

TEST(ExperimentTest, FaultRuleForAnAbsentNodeIsRejectedBeforeAnyWork) {
  ExperimentConfig config = SmallConfig();  // participants 0..3
  // An unknown dataset fails only once work starts, so a fault-spec error
  // shows that the node check ran first.
  config.dataset = "CIFAR10";
  for (const char* text :
       {"leave=9@2", "leave=4@2", "crash=4@1", "part=5@3+2", "crash=-3@1"}) {
    config.faults = net::ParseFaultSpec(text).ValueOrDie();
    const Status status = RunExperiment(config).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << text;
    EXPECT_NE(status.message().find("fault-spec"), std::string::npos)
        << text << ": " << status.ToString();
  }
  // Both servers are nodes of every run, and duplicates are participants
  // (ids 4 and 5 with two of them): these rules pass the check and the run
  // fails on the dataset instead.
  config.duplicates = 2;
  for (const char* text : {"crash=-1@5", "stall=-2@1+1", "leave=5@2"}) {
    config.faults = net::ParseFaultSpec(text).ValueOrDie();
    const Status status = RunExperiment(config).status();
    EXPECT_FALSE(status.ok()) << text;
    EXPECT_EQ(status.message().find("fault-spec"), std::string::npos)
        << text << ": " << status.ToString();
  }
}

TEST(SplitTrainTest, EpochCostGrowsWithParties) {
  data::VerticalPartition partition = {{0, 1, 2}, {3, 4, 5}, {6, 7}, {8, 9}};
  net::CostModel cost;
  const double two = vfl::SplitEpochSimSeconds(partition, {0, 1},
                                               ml::ModelKind::kMlp, 1000, 100,
                                               2, cost);
  const double four = vfl::SplitEpochSimSeconds(partition, {0, 1, 2, 3},
                                                ml::ModelKind::kMlp, 1000, 100,
                                                2, cost);
  EXPECT_GT(four, two);
}

TEST(SplitTrainTest, KnnInferenceCostGrowsWithTrainSize) {
  data::VerticalPartition partition = {{0, 1}, {2, 3}};
  net::CostModel cost;
  const double small = vfl::KnnInferenceSimSeconds(partition, {0, 1}, 1000, 100, cost);
  const double large = vfl::KnnInferenceSimSeconds(partition, {0, 1}, 10000, 100, cost);
  // Grows with N (sublinearly of 10x because per-query latency is fixed).
  EXPECT_GT(large, 4.0 * small);
}

}  // namespace
}  // namespace vfps::core
