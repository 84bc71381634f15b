#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/random.h"
#include "topk/fagin.h"
#include "topk/naive.h"
#include "topk/threshold.h"

namespace vfps::topk {
namespace {

std::vector<std::vector<double>> RandomScores(size_t parties, size_t items,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> scores(parties, std::vector<double>(items));
  for (auto& list : scores) {
    for (double& v : list) v = rng.Uniform(0.0, 100.0);
  }
  return scores;
}

std::set<uint64_t> AsSet(const std::vector<uint64_t>& ids) {
  return {ids.begin(), ids.end()};
}

TEST(RankedListSetTest, BuildSortsAscending) {
  auto set = RankedListSet::Build({{3.0, 1.0, 2.0}});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->IdAtRank(0, 0), 1u);
  EXPECT_EQ(set->IdAtRank(0, 1), 2u);
  EXPECT_EQ(set->IdAtRank(0, 2), 0u);
  EXPECT_DOUBLE_EQ(set->Score(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(set->AggregateScore(1), 1.0);
}

// Reference ranking: a comparison sort on (score, id).
std::vector<uint64_t> ComparatorOrder(const std::vector<double>& scores) {
  std::vector<uint64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&scores](uint64_t a, uint64_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return a < b;
  });
  return order;
}

TEST(RankedListSetTest, TiesBrokenById) {
  auto set = RankedListSet::Build({{5.0, 5.0, 1.0}});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->IdAtRank(0, 0), 2u);
  EXPECT_EQ(set->IdAtRank(0, 1), 0u);
  EXPECT_EQ(set->IdAtRank(0, 2), 1u);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kDenorm = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> cases = {
      {},
      {7.0},
      {-1.0, -2.5, 3.0, -1.0, 0.0, -1e300, 1e300},
      {0.0, -0.0, 0.0, -0.0, -1.0, 1.0, -0.0},
      {kInf, 2.0, kInf, -kInf, 0.0, kInf},  // +inf marks excluded rows
      {kDenorm, -kDenorm, 0.0, 2 * kDenorm, -0.0, 1e-310, -1e-310, kDenorm},
      std::vector<double>(1000, 4.25),
      std::vector<double>(1000, -0.0),
  };
  for (const auto& scores : cases) {
    EXPECT_EQ(RankedListSet::SortedOrder(scores), ComparatorOrder(scores))
        << "n=" << scores.size();
  }
}

TEST(RankedListSetTest, SortedOrderMatchesComparatorSortOnRandomLists) {
  Rng rng(123);
  for (size_t n : {1u, 2u, 2047u, 19200u}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> scores(n);
      for (double& v : scores) {
        switch (rng.NextBounded(4)) {
          case 0:  // squared distances, as the oracle ranks them
            v = rng.Uniform(0.0, 50.0);
            break;
          case 1:  // a small value set: many exact ties
            v = static_cast<double>(rng.NextBounded(8)) * 0.5 - 2.0;
            break;
          case 2:  // wide magnitudes of both signs
            v = std::ldexp(rng.Uniform(-1.0, 1.0),
                           static_cast<int>(rng.NextBounded(200)) - 100);
            break;
          default:
            v = rng.Bernoulli(0.5) ? 0.0 : -0.0;
        }
      }
      if (n > 2) scores[n / 2] = std::numeric_limits<double>::infinity();
      EXPECT_EQ(RankedListSet::SortedOrder(scores), ComparatorOrder(scores))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(RankedListSetTest, RejectsBadInput) {
  EXPECT_FALSE(RankedListSet::Build({}).ok());
  EXPECT_FALSE(RankedListSet::Build({{}}).ok());
  EXPECT_FALSE(RankedListSet::Build({{1.0, 2.0}, {1.0}}).ok());
}

TEST(FaginTest, PaperFigure2Example) {
  // Fig. 2: three participants, ascending lists; minimal-2 = {X1, X2}.
  // Scores by item id (X1=0, X2=1, X3=2, X4=3), constructed so the ranked
  // lists match the figure's structure.
  std::vector<std::vector<double>> scores = {
      {1.0, 2.0, 3.0, 4.0},   // P1: X1 < X2 < X3 < X4
      {2.0, 1.0, 3.0, 4.0},   // P2: X2 < X1 < X3 < X4
      {1.0, 3.0, 2.0, 4.0},   // P3: X1 < X3 < X2 < X4
  };
  auto lists = RankedListSet::Build(scores);
  ASSERT_TRUE(lists.ok());
  auto result = FaginTopk(*lists, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(AsSet(result->ids), (std::set<uint64_t>{0, 1}));
  // X4 was never seen before termination, so at most 3 candidates.
  EXPECT_LE(result->candidates, 3u);
}

class TopkEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(TopkEquivalenceTest, FaginMatchesNaive) {
  const auto [parties, items, k] = GetParam();
  auto lists = RankedListSet::Build(RandomScores(parties, items, parties * 1000 + items));
  ASSERT_TRUE(lists.ok());
  auto naive = NaiveTopk(*lists, k);
  auto fagin = FaginTopk(*lists, k);
  ASSERT_TRUE(naive.ok() && fagin.ok());
  EXPECT_EQ(AsSet(fagin->ids), AsSet(naive->ids));
}

TEST_P(TopkEquivalenceTest, ThresholdMatchesNaive) {
  const auto [parties, items, k] = GetParam();
  auto lists = RankedListSet::Build(RandomScores(parties, items, parties * 77 + items));
  ASSERT_TRUE(lists.ok());
  auto naive = NaiveTopk(*lists, k);
  auto ta = ThresholdTopk(*lists, k);
  ASSERT_TRUE(naive.ok() && ta.ok());
  EXPECT_EQ(AsSet(ta->ids), AsSet(naive->ids));
}

TEST_P(TopkEquivalenceTest, FaginWithBatchingMatchesNaive) {
  const auto [parties, items, k] = GetParam();
  auto lists = RankedListSet::Build(RandomScores(parties, items, 31 * parties + items));
  ASSERT_TRUE(lists.ok());
  auto naive = NaiveTopk(*lists, k);
  ASSERT_TRUE(naive.ok());
  for (size_t batch : {1u, 4u, 16u, 64u}) {
    auto fagin = FaginTopk(*lists, k, batch);
    ASSERT_TRUE(fagin.ok());
    EXPECT_EQ(AsSet(fagin->ids), AsSet(naive->ids)) << "batch=" << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopkEquivalenceTest,
    ::testing::Values(std::make_tuple(2, 50, 5), std::make_tuple(3, 100, 10),
                      std::make_tuple(4, 500, 10), std::make_tuple(8, 200, 3),
                      std::make_tuple(4, 64, 1), std::make_tuple(2, 10, 10),
                      std::make_tuple(5, 1000, 25)));

TEST(FaginTest, CandidateSetSupersetOfTopk) {
  auto lists = RankedListSet::Build(RandomScores(4, 300, 5));
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 10);
  ASSERT_TRUE(fagin.ok());
  const auto candidates = AsSet(fagin->candidate_ids);
  for (uint64_t id : fagin->ids) EXPECT_TRUE(candidates.count(id)) << id;
  EXPECT_EQ(fagin->candidates, fagin->candidate_ids.size());
}

TEST(FaginTest, CandidatesFarFewerThanItemsOnCorrelatedLists) {
  // When parties agree on the ranking, Fagin terminates at depth ~k.
  const size_t n = 2000;
  std::vector<double> base(n);
  for (size_t i = 0; i < n; ++i) base[i] = static_cast<double>(i);
  auto lists = RankedListSet::Build({base, base, base, base});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 10);
  ASSERT_TRUE(fagin.ok());
  EXPECT_EQ(fagin->depth, 10u);
  EXPECT_EQ(fagin->candidates, 10u);
}

TEST(FaginTest, AntiCorrelatedListsNeedDeepScan) {
  // Perfectly opposed rankings force a deep scan (worst case for FA).
  const size_t n = 100;
  std::vector<double> ascending(n), descending(n);
  for (size_t i = 0; i < n; ++i) {
    ascending[i] = static_cast<double>(i);
    descending[i] = static_cast<double>(n - i);
  }
  auto lists = RankedListSet::Build({ascending, descending});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 1);
  ASSERT_TRUE(fagin.ok());
  EXPECT_GE(fagin->depth, n / 2);
  auto naive = NaiveTopk(*lists, 1);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(AsSet(fagin->ids), AsSet(naive->ids));
}

TEST(ThresholdTest, StopsEarlierThanFaginOnCorrelatedLists) {
  auto scores = RandomScores(1, 1000, 9)[0];
  auto lists = RankedListSet::Build({scores, scores, scores});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 20);
  auto ta = ThresholdTopk(*lists, 20);
  ASSERT_TRUE(fagin.ok() && ta.ok());
  EXPECT_LE(ta->depth, fagin->depth);
}

TEST(TopkTest, KLargerThanNClamps) {
  auto lists = RankedListSet::Build(RandomScores(2, 5, 3));
  ASSERT_TRUE(lists.ok());
  for (auto run : {FaginTopk(*lists, 10, 1), ThresholdTopk(*lists, 10),
                   NaiveTopk(*lists, 10)}) {
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->ids.size(), 5u);
  }
}

TEST(TopkTest, KZeroRejected) {
  auto lists = RankedListSet::Build(RandomScores(2, 5, 3));
  ASSERT_TRUE(lists.ok());
  EXPECT_FALSE(FaginTopk(*lists, 0).ok());
  EXPECT_FALSE(ThresholdTopk(*lists, 0).ok());
  EXPECT_FALSE(NaiveTopk(*lists, 0).ok());
}

TEST(TopkTest, SinglePartyDegenerates) {
  auto lists = RankedListSet::Build({{5.0, 1.0, 3.0, 2.0, 4.0}});
  ASSERT_TRUE(lists.ok());
  auto fagin = FaginTopk(*lists, 2);
  ASSERT_TRUE(fagin.ok());
  EXPECT_EQ(AsSet(fagin->ids), (std::set<uint64_t>{1, 3}));
  EXPECT_EQ(fagin->depth, 2u);
}

}  // namespace
}  // namespace vfps::topk
