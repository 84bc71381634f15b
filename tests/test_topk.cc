#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>

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

// A list of n scores drawn from the cases the ranking must order exactly:
// distance-like values, a small value set (many ties), wide magnitudes of
// both signs, signed zeros, denormals and +inf.
std::vector<double> HardScores(size_t n, Rng* rng) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> scores(n);
  for (double& v : scores) {
    switch (rng->NextBounded(6)) {
      case 0:
        v = rng->Uniform(0.0, 50.0);
        break;
      case 1:
        v = static_cast<double>(rng->NextBounded(8)) * 0.5 - 2.0;
        break;
      case 2:
        v = std::ldexp(rng->Uniform(-1.0, 1.0),
                       static_cast<int>(rng->NextBounded(200)) - 100);
        break;
      case 3:
        v = rng->Bernoulli(0.5) ? 0.0 : -0.0;
        break;
      case 4:
        v = static_cast<double>(rng->NextBounded(4)) * denorm *
            (rng->Bernoulli(0.5) ? 1.0 : -1.0);
        break;
      default:
        v = rng->Bernoulli(0.1) ? std::numeric_limits<double>::infinity()
                                : rng->Uniform(0.0, 1.0);
    }
  }
  return scores;
}

TEST(RankedListSetTest, LazyRanksEqualSortedOrderAtEveryRead) {
  // Reads in increasing order to a random depth, then at random ranks; and
  // the same from a known prefix of random length, read past it. Every read
  // must equal SortedOrder's rank.
  Rng rng(7);
  const size_t sizes[] = {1, 2, 3, 17, 100, 1000, 4099, 19200};
  for (size_t n : sizes) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> scores = HardScores(n, &rng);
      // A distance-like list with a few outliers as the fourth case.
      if (trial == 2) {
        for (double& v : scores) v = rng.Uniform(0.0, 20.0);
        scores[rng.NextBounded(n)] = std::numeric_limits<double>::infinity();
      }
      const std::vector<uint64_t> reference = RankedListSet::SortedOrder(scores);
      ASSERT_EQ(reference, ComparatorOrder(scores)) << "n=" << n;

      const size_t known = rng.NextBounded(n + 1);
      std::vector<uint64_t> prefix(reference.begin(),
                                   reference.begin() + known);
      auto built = RankedListSet::Build({scores});
      auto presorted = RankedListSet::BuildPresorted(
          std::vector<std::vector<double>>{scores}, {prefix});
      ASSERT_TRUE(built.ok() && presorted.ok()) << "n=" << n;
      for (RankedListSet* set : {&*built, &*presorted}) {
        const size_t depth = rng.NextBounded(n + 1);
        for (size_t r = 0; r < depth; ++r) {
          ASSERT_EQ(set->IdAtRank(0, r), reference[r])
              << "n=" << n << " known=" << known << " rank=" << r;
        }
        for (int read = 0; read < 200; ++read) {
          const size_t r = rng.NextBounded(n);
          ASSERT_EQ(set->IdAtRank(0, r), reference[r])
              << "n=" << n << " known=" << known << " rank=" << r;
        }
        const size_t cut = rng.NextBounded(n + 1);
        const std::vector<uint32_t> head = set->RankedPrefix(0, cut);
        ASSERT_EQ(head.size(), cut);
        for (size_t r = 0; r < cut; ++r) ASSERT_EQ(head[r], reference[r]);
      }
    }
  }
}

// Squared Euclidean distances from a Gaussian query row to n Gaussian rows
// over `cols` columns, as the oracle ranks them: the low tail is sparse in
// key space. Mixed in at random positions: exact ties (a copied distance),
// ±0 (a row equal to the query), denormals and +inf.
std::vector<double> DistanceScores(size_t n, size_t cols, Rng* rng) {
  std::vector<double> query(cols);
  for (double& v : query) v = rng->Normal();
  std::vector<double> scores(n);
  for (double& d : scores) {
    d = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      const double diff = rng->Normal() - query[c];
      d += diff * diff;
    }
  }
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (size_t i = 0; i < n / 100 + 1; ++i) {
    scores[rng->NextBounded(n)] = scores[rng->NextBounded(n)];
    scores[rng->NextBounded(n)] = rng->Bernoulli(0.5) ? 0.0 : -0.0;
    scores[rng->NextBounded(n)] =
        static_cast<double>(1 + rng->NextBounded(3)) * denorm;
  }
  scores[rng->NextBounded(n)] = std::numeric_limits<double>::infinity();
  return scores;
}

// Reads every party of `set` as Fagin does, in rounds of 64 ranks per party
// to `depth`, then 200 random ranks, checking each against `reference`.
void ExpectFaginReadsEqual(RankedListSet* set,
                           const std::vector<std::vector<uint64_t>>& reference,
                           size_t depth, Rng* rng, const std::string& label) {
  const size_t n = set->num_items();
  for (size_t start = 0; start < depth; start += 64) {
    for (size_t party = 0; party < set->num_parties(); ++party) {
      for (size_t r = start; r < std::min(depth, start + 64); ++r) {
        ASSERT_EQ(set->IdAtRank(party, r), reference[party][r])
            << label << " party=" << party << " rank=" << r;
      }
    }
  }
  for (int read = 0; read < 200; ++read) {
    const size_t party = rng->NextBounded(set->num_parties());
    const size_t r = rng->NextBounded(n);
    ASSERT_EQ(set->IdAtRank(party, r), reference[party][r])
        << label << " party=" << party << " rank=" << r;
  }
}

TEST(RankedListSetTest, LazyRanksEqualSortedOrderOnDistanceLists) {
  // Three parties with 2-5 columns each, read to Fagin's depths on the
  // workloads (1%, 6%, 18.5%) and to the end; from an empty prefix and from
  // a known prefix that the reads pass. One scratch serves every build, so
  // reused working memory is exercised across sizes and prefixes.
  Rng rng(2024);
  RankedListSet::Scratch scratch;
  for (size_t n : {size_t{1000}, size_t{19199}, size_t{100000}}) {
    std::vector<RankedListSet::SharedScores> scores;
    std::vector<std::vector<uint64_t>> reference;
    for (size_t cols : {2u, 3u, 5u}) {
      std::vector<double> list = DistanceScores(n, cols, &rng);
      reference.push_back(RankedListSet::SortedOrder(list));
      scores.push_back(
          std::make_shared<const std::vector<double>>(std::move(list)));
    }
    if (n == 1000) {
      for (const auto& list : scores) {
        ASSERT_EQ(RankedListSet::SortedOrder(*list), ComparatorOrder(*list));
      }
    }
    for (double share : {0.01, 0.06, 0.185, 1.0}) {
      const auto depth = static_cast<size_t>(share * static_cast<double>(n));
      for (bool cached : {false, true}) {
        std::vector<std::vector<uint32_t>> prefixes(scores.size());
        if (cached) {
          for (size_t p = 0; p < scores.size(); ++p) {
            const size_t known = rng.NextBounded(depth);
            prefixes[p].assign(reference[p].begin(),
                               reference[p].begin() + known);
          }
        }
        auto set = RankedListSet::BuildPresorted(scores, std::move(prefixes),
                                                 std::move(scratch));
        ASSERT_TRUE(set.ok());
        ExpectFaginReadsEqual(&*set, reference, depth, &rng,
                              "n=" + std::to_string(n) +
                                  " depth=" + std::to_string(depth) +
                                  (cached ? " cached" : " empty"));
        scratch = std::move(*set).TakeScratch();
      }
    }
  }
}

TEST(RankedListSetTest, LazyRanksOnDegenerateKeyRanges) {
  // One key, two keys (one of them rare), lists of 1-3 items, and key spans
  // of 2^63 or more (signs mixed, infinities) over a few unranked items:
  // every read equals SortedOrder, from an empty prefix and from prefixes
  // that leave 0-3 items or half the list unranked.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  Rng rng(99);
  std::vector<std::vector<double>> cases = {
      std::vector<double>(5000, 2.5),  std::vector<double>(5000, -0.0),
      std::vector<double>(70, 0.0),    {1.0},
      {2.0, 1.0},                      {1.0, 1.0},
      {3.0, -0.0, 0.0},                {5.0, 5.0, 5.0},
      {-2.0, 2.0},                     {2.0, -2.0, 0.5},
      {-1.0, kInf},                    {kInf, -kInf},
      {-kMax, kMax, 0.0},              {kInf, -1.0, kInf},
      // Known prefixes ending on a negative score, then 1-3 items up to
      // +inf.
      {-5.0, 1.0, -4.0, kInf, -3.0, 2.0, -2.0},
  };
  std::vector<double> two(5000);
  for (double& v : two) v = rng.Bernoulli(0.5) ? 1.0 : 4.0;
  cases.push_back(two);
  for (double& v : two) v = rng.Bernoulli(0.01) ? 0.5 : 4.0;
  cases.push_back(two);
  for (const std::vector<double>& scores : cases) {
    const size_t n = scores.size();
    const std::vector<uint64_t> reference = RankedListSet::SortedOrder(scores);
    ASSERT_EQ(reference, ComparatorOrder(scores)) << "n=" << n;
    std::set<size_t> prefixes = {0, n / 2, n};
    for (size_t unranked = 1; unranked <= std::min<size_t>(3, n); ++unranked) {
      prefixes.insert(n - unranked);
    }
    for (size_t known : prefixes) {
      auto set = RankedListSet::BuildPresorted(
          std::vector<std::vector<double>>{scores},
          {std::vector<uint64_t>(reference.begin(),
                                 reference.begin() + known)});
      ASSERT_TRUE(set.ok());
      ExpectFaginReadsEqual(&*set, {reference}, n, &rng,
                            "n=" + std::to_string(n) +
                                " known=" + std::to_string(known));
    }
  }
}

TEST(RankedListSetTest, RejectsBadInput) {
  EXPECT_FALSE(RankedListSet::Build({}).ok());
  EXPECT_FALSE(RankedListSet::Build({{}}).ok());
  EXPECT_FALSE(RankedListSet::Build({{1.0, 2.0}, {1.0}}).ok());

  // Known prefixes: a whole SortedOrder and any head of it are accepted.
  const std::vector<double> scores = {3.0, 1.0, 2.0, 1.0};  // order 1,3,2,0
  const auto presorted = [&](std::vector<uint64_t> prefix) {
    return RankedListSet::BuildPresorted(
        std::vector<std::vector<double>>{scores}, {std::move(prefix)});
  };
  EXPECT_TRUE(presorted({1, 3, 2, 0}).ok());
  EXPECT_TRUE(presorted({1, 3}).ok());
  EXPECT_TRUE(presorted({}).ok());
  // Each bad prefix with the reason its rejection must name.
  const std::vector<std::pair<std::vector<uint64_t>, std::string>> bad = {
      {{1, 3, 2, 0, 1}, "longer than the list"},
      {{1, 4}, "id >= N"},  // a merge would read past N
      {{uint64_t{1} << 32}, "id >= N"},  // narrowing would wrap it to 0
      {{1, 1}, "order"},                 // a repeated id
      {{3, 1}, "order"},                 // a tie out of id order
      {{2, 1}, "order"},                 // scores out of order
  };
  for (const auto& [prefix, reason] : bad) {
    auto set = presorted(prefix);
    ASSERT_FALSE(set.ok()) << reason;
    EXPECT_TRUE(set.status().IsInvalidArgument()) << set.status().ToString();
    EXPECT_NE(set.status().message().find(reason), std::string::npos)
        << set.status().ToString();
  }
  // Party-count mismatch between scores and prefixes.
  EXPECT_FALSE(RankedListSet::BuildPresorted(
                   std::vector<std::vector<double>>{scores, scores},
                   std::vector<std::vector<uint64_t>>{{1}})
                   .ok());
  // Lists longer than UINT32_MAX items are rejected as well (ids are stored
  // as uint32_t); such a list does not fit a test's memory.
}

TEST(RankedListSetDeathTest, PrefixNotTheHeadAbortsOnTheFirstReadPastIt) {
  // {3, 2} is in (score, id) order, so the build accepts it, but item 1
  // ranks first. Reads inside the prefix are served as given; the first
  // read past it counts the items at or below its last and stops.
  const std::vector<double> scores = {3.0, 1.0, 2.0, 1.0};  // order 1,3,2,0
  auto set = RankedListSet::BuildPresorted(
      std::vector<std::vector<double>>{scores}, {{3, 2}});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->IdAtRank(0, 1), 2u);
  EXPECT_DEATH(set->IdAtRank(0, 2), "not the head of the ranking");
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

TEST(FaginTest, LazyRankingMatchesPresortedOnDistanceLists) {
  // Fagin over the lazy ranking and over complete presorted rankings must
  // read the same ranks, so every output and access count is equal.
  Rng rng(4242);
  for (size_t n : {size_t{1000}, size_t{19199}, size_t{100000}}) {
    for (size_t parties : {2u, 4u}) {
      std::vector<std::vector<double>> scores;
      std::vector<std::vector<uint64_t>> orders;
      for (size_t p = 0; p < parties; ++p) {
        scores.push_back(DistanceScores(n, 2 + p, &rng));
        orders.push_back(RankedListSet::SortedOrder(scores.back()));
      }
      auto lazy = RankedListSet::Build(scores);
      auto full = RankedListSet::BuildPresorted(scores, orders);
      ASSERT_TRUE(lazy.ok() && full.ok());
      for (size_t k : {1u, 10u}) {
        for (size_t batch : {1u, 64u}) {
          const std::string label = "n=" + std::to_string(n) +
                                    " parties=" + std::to_string(parties) +
                                    " k=" + std::to_string(k) +
                                    " batch=" + std::to_string(batch);
          auto a = FaginTopk(*lazy, k, batch);
          auto b = FaginTopk(*full, k, batch);
          ASSERT_TRUE(a.ok() && b.ok()) << label;
          EXPECT_EQ(a->ids, b->ids) << label;
          EXPECT_EQ(a->candidate_ids, b->candidate_ids) << label;
          EXPECT_EQ(a->depth, b->depth) << label;
          EXPECT_EQ(a->sorted_accesses, b->sorted_accesses) << label;
          EXPECT_EQ(a->random_accesses, b->random_accesses) << label;
          EXPECT_EQ(a->candidates, b->candidates) << label;
        }
      }
    }
  }
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
