#include "core/selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/shapley.h"
#include "core/vfmine.h"
#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"

namespace vfps::core {
namespace {

struct Fixture {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Fixture Make(size_t parties, size_t duplicates_of_zero = 0) {
    Fixture f;
    data::SyntheticConfig config;
    config.num_samples = 600;
    config.num_features = 16;
    config.num_informative = 8;
    config.num_redundant = 4;
    config.centroid_distance = 1.6;
    config.seed = 17;
    auto generated = data::GenerateClassification(config);
    f.split = data::SplitDataset(generated->data, 0.7, 0.15, 5).MoveValueUnsafe();
    data::StandardizeSplit(&f.split).Abort("standardize");
    f.partition =
        data::QualityStratifiedPartition(generated->kinds, parties, 3)
            .MoveValueUnsafe();
    if (duplicates_of_zero > 0) {
      f.partition =
          data::WithDuplicates(f.partition, 0, duplicates_of_zero)
              .MoveValueUnsafe();
    }
    f.backend = he::CreatePlainBackend();
    return f;
  }

  SelectionContext Context() {
    SelectionContext ctx;
    ctx.split = &split;
    ctx.partition = &partition;
    ctx.backend = backend.get();
    ctx.network = &network;
    ctx.cost = &cost;
    ctx.clock = &clock;
    ctx.knn.k = 5;
    ctx.knn.num_queries = 16;
    ctx.utility_queries = 16;
    ctx.seed = 11;
    return ctx;
  }
};

TEST(SelectorTest, MethodNamesRoundTrip) {
  for (SelectionMethod m :
       {SelectionMethod::kAll, SelectionMethod::kRandom, SelectionMethod::kShapley,
        SelectionMethod::kVfMine, SelectionMethod::kVfpsSm,
        SelectionMethod::kVfpsSmBase}) {
    auto parsed = ParseSelectionMethod(SelectionMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParseSelectionMethod("bogus").ok());
}

TEST(SelectorTest, FactoryCreatesEverythingButAll) {
  EXPECT_FALSE(CreateSelector(SelectionMethod::kAll).ok());
  for (SelectionMethod m :
       {SelectionMethod::kRandom, SelectionMethod::kShapley,
        SelectionMethod::kVfMine, SelectionMethod::kVfpsSm,
        SelectionMethod::kVfpsSmBase}) {
    auto selector = CreateSelector(m);
    ASSERT_TRUE(selector.ok());
    EXPECT_EQ((*selector)->name(), SelectionMethodName(m));
  }
}

TEST(SelectorTest, AllSelectorsReturnRequestedCount) {
  for (SelectionMethod m :
       {SelectionMethod::kRandom, SelectionMethod::kShapley,
        SelectionMethod::kVfMine, SelectionMethod::kVfpsSm,
        SelectionMethod::kVfpsSmBase}) {
    Fixture f = Fixture::Make(4);
    auto selector = CreateSelector(m).MoveValueUnsafe();
    auto ctx = f.Context();
    auto outcome = selector->Select(ctx, 2);
    ASSERT_TRUE(outcome.ok()) << selector->name() << ": "
                              << outcome.status().ToString();
    EXPECT_EQ(outcome->selected.size(), 2u) << selector->name();
    // Distinct, sorted, in range.
    EXPECT_TRUE(std::is_sorted(outcome->selected.begin(), outcome->selected.end()));
    EXPECT_LT(outcome->selected.back(), 4u);
    EXPECT_NE(outcome->selected[0], outcome->selected[1]);
  }
}

TEST(SelectorTest, SelectionIsDeterministicForSeed) {
  for (SelectionMethod m : {SelectionMethod::kShapley, SelectionMethod::kVfMine,
                            SelectionMethod::kVfpsSm}) {
    Fixture f1 = Fixture::Make(4);
    Fixture f2 = Fixture::Make(4);
    auto s1 = CreateSelector(m).MoveValueUnsafe();
    auto s2 = CreateSelector(m).MoveValueUnsafe();
    auto ctx1 = f1.Context();
    auto ctx2 = f2.Context();
    auto o1 = s1->Select(ctx1, 2);
    auto o2 = s2->Select(ctx2, 2);
    ASSERT_TRUE(o1.ok() && o2.ok());
    EXPECT_EQ(o1->selected, o2->selected) << SelectionMethodName(m);
  }
}

TEST(SelectorTest, VfpsSmChargesSelectionTime) {
  Fixture f = Fixture::Make(4);
  VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  auto ctx = f.Context();
  auto outcome = selector.Select(ctx, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->sim_seconds, 0.0);
  EXPECT_GT(outcome->knn_stats.queries, 0u);
  EXPECT_GT(outcome->knn_stats.candidates_encrypted, 0u);
}

TEST(SelectorTest, VfpsSmAvoidsDuplicateParticipants) {
  // Clone participant 0 twice. VFPS-SM must never pick two copies of the
  // same content; additive scorers (SHAPLEY / VF-MINE) are expected to fall
  // into exactly that trap — which is the paper's Fig. 6 story.
  Fixture f = Fixture::Make(4, /*duplicates_of_zero=*/2);  // parties 4 and 5 clone 0
  VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  auto ctx = f.Context();
  auto outcome = selector.Select(ctx, 3);
  ASSERT_TRUE(outcome.ok());
  int clones_selected = 0;
  for (size_t p : outcome->selected) {
    clones_selected += (p == 0 || p == 4 || p == 5);
  }
  EXPECT_LE(clones_selected, 1) << "picked multiple clones of participant 0";
}

TEST(SelectorTest, VfpsSmBaseAndFaginPickSameSubset) {
  Fixture f1 = Fixture::Make(4);
  Fixture f2 = Fixture::Make(4);
  VfpsSmSelector fagin(vfl::KnnOracleMode::kFagin);
  VfpsSmSelector base(vfl::KnnOracleMode::kBase);
  auto ctx1 = f1.Context();
  auto ctx2 = f2.Context();
  auto of = fagin.Select(ctx1, 2);
  auto ob = base.Select(ctx2, 2);
  ASSERT_TRUE(of.ok() && ob.ok());
  EXPECT_EQ(of->selected, ob->selected);
  // ... but the Fagin variant encrypts far fewer candidates.
  EXPECT_LT(of->knn_stats.candidates_encrypted,
            ob->knn_stats.candidates_encrypted);
}

TEST(SelectorTest, ShapleyValuesStoredPerParticipant) {
  Fixture f = Fixture::Make(4);
  ShapleySelector selector;
  auto ctx = f.Context();
  auto outcome = selector.Select(ctx, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(selector.last_values().size(), 4u);
  EXPECT_EQ(outcome->scores.size(), 4u);
  // Efficiency-ish sanity: the sum of Shapley values equals U(P) - U(empty),
  // which for a useful consortium is positive.
  double sum = 0.0;
  for (double v : selector.last_values()) sum += v;
  EXPECT_GT(sum, -1.0);
}

TEST(SelectorTest, ShapleyMonteCarloPathRuns) {
  Fixture f = Fixture::Make(6);
  ShapleySelector selector;
  auto ctx = f.Context();
  ctx.shapley_exact_limit = 4;  // force the MC + extrapolation path
  ctx.shapley_mc_permutations = 4;
  auto outcome = selector.Select(ctx, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->selected.size(), 2u);
  EXPECT_GT(outcome->sim_seconds, 0.0);
}

TEST(SelectorTest, ShapleyExtrapolatedCostGrowsWithP) {
  // The extrapolated exact-SHAPLEY cost must grow ~2^P.
  double previous = 0.0;
  for (size_t p : {6u, 8u}) {
    Fixture f = Fixture::Make(p);
    ShapleySelector selector;
    auto ctx = f.Context();
    ctx.shapley_exact_limit = 4;
    ctx.shapley_mc_permutations = 2;
    auto outcome = selector.Select(ctx, 2);
    ASSERT_TRUE(outcome.ok());
    EXPECT_GT(outcome->sim_seconds, previous);
    previous = outcome->sim_seconds;
  }
}

TEST(SelectorTest, VfMineScoresAllParticipants) {
  Fixture f = Fixture::Make(4);
  VfMineSelector selector;
  auto ctx = f.Context();
  auto outcome = selector.Select(ctx, 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(selector.last_scores().size(), 4u);
  for (double s : selector.last_scores()) EXPECT_GE(s, 0.0);
}

TEST(SelectorTest, VfMineDuplicateInheritsTwinScore) {
  // The diversity blindness VF-MINE is criticized for: a clone's MI score
  // tracks its twin's, so both rank high together.
  Fixture f = Fixture::Make(4, /*duplicates_of_zero=*/1);  // party 4 clones 0
  VfMineSelector selector;
  auto ctx = f.Context();
  auto outcome = selector.Select(ctx, 2);
  ASSERT_TRUE(outcome.ok());
  const auto& scores = selector.last_scores();
  ASSERT_EQ(scores.size(), 5u);
  EXPECT_NEAR(scores[0], scores[4], 0.25 * std::max(scores[0], 1e-6) + 0.05);
}

TEST(SelectorTest, MutualInformationEstimator) {
  // Identical sequences: MI = H(X); independent-ish: MI ~ 0.
  std::vector<int> x = {0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_NEAR(MutualInformation(x, x, 2), std::log(2.0), 1e-9);
  std::vector<int> y = {0, 0, 1, 1, 0, 0, 1, 1};
  EXPECT_NEAR(MutualInformation(x, y, 2), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(MutualInformation({}, {}, 2), 0.0);
  EXPECT_DOUBLE_EQ(MutualInformation({0}, {0, 1}, 2), 0.0);  // size mismatch
}

TEST(SelectorTest, ValidateContextCatchesMissingPieces) {
  Fixture f = Fixture::Make(4);
  auto ctx = f.Context();
  EXPECT_TRUE(ValidateContext(ctx, 2).ok());
  EXPECT_FALSE(ValidateContext(ctx, 0).ok());
  EXPECT_FALSE(ValidateContext(ctx, 5).ok());
  SelectionContext broken = ctx;
  broken.backend = nullptr;
  EXPECT_FALSE(ValidateContext(broken, 2).ok());
  broken = ctx;
  broken.split = nullptr;
  EXPECT_FALSE(ValidateContext(broken, 2).ok());
}

}  // namespace
}  // namespace vfps::core
