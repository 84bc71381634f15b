// Differential testing of the three top-k oracles: Fagin's algorithm (the
// paper's optimization), the threshold algorithm, and the naive full scan.
// All three must agree on every randomized instance — under ties the
// agreement is on the *aggregate-score multiset* (any minimal-k set is
// acceptable; tie-break order is an implementation detail), and when the
// aggregates are distinct the id sets themselves must match. Fagin and TA
// must also never consume more sorted-access depth than the naive scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "topk/fagin.h"
#include "topk/naive.h"
#include "topk/threshold.h"

namespace vfps::topk {
namespace {

std::vector<double> SortedAggregates(const RankedListSet& lists,
                                     const std::vector<uint64_t>& ids) {
  std::vector<double> agg;
  agg.reserve(ids.size());
  for (uint64_t id : ids) agg.push_back(lists.AggregateScore(id));
  std::sort(agg.begin(), agg.end());
  return agg;
}

bool AggregatesDistinct(const RankedListSet& lists) {
  std::vector<double> agg;
  for (uint64_t id = 0; id < lists.num_items(); ++id) {
    agg.push_back(lists.AggregateScore(id));
  }
  std::sort(agg.begin(), agg.end());
  return std::adjacent_find(agg.begin(), agg.end()) == agg.end();
}

std::set<uint64_t> AsSet(const std::vector<uint64_t>& ids) {
  return {ids.begin(), ids.end()};
}

// One differential probe: run all three algorithms and cross-check.
void CheckInstance(const std::vector<std::vector<double>>& scores, size_t k,
                   size_t batch, const std::string& label) {
  auto lists = RankedListSet::Build(scores);
  ASSERT_TRUE(lists.ok()) << label;
  const size_t n = lists->num_items();

  auto naive = NaiveTopk(*lists, k);
  auto fagin = FaginTopk(*lists, k, batch);
  auto ta = ThresholdTopk(*lists, k);
  ASSERT_TRUE(naive.ok()) << label << ": " << naive.status().ToString();
  ASSERT_TRUE(fagin.ok()) << label << ": " << fagin.status().ToString();
  ASSERT_TRUE(ta.ok()) << label << ": " << ta.status().ToString();

  const size_t want = std::min(k, n);
  ASSERT_EQ(naive->ids.size(), want) << label;
  ASSERT_EQ(fagin->ids.size(), want) << label;
  ASSERT_EQ(ta->ids.size(), want) << label;

  // No duplicates in any result.
  EXPECT_EQ(AsSet(naive->ids).size(), want) << label;
  EXPECT_EQ(AsSet(fagin->ids).size(), want) << label;
  EXPECT_EQ(AsSet(ta->ids).size(), want) << label;

  // Aggregate-score multisets agree exactly (the minimal-k semantics).
  const auto truth = SortedAggregates(*lists, naive->ids);
  EXPECT_EQ(SortedAggregates(*lists, fagin->ids), truth) << label;
  EXPECT_EQ(SortedAggregates(*lists, ta->ids), truth) << label;

  // With distinct aggregates the minimal-k set is unique: ids must match.
  if (AggregatesDistinct(*lists)) {
    EXPECT_EQ(AsSet(fagin->ids), AsSet(naive->ids)) << label;
    EXPECT_EQ(AsSet(ta->ids), AsSet(naive->ids)) << label;
  }

  // The point of the optimization: never deeper than the full scan, and the
  // candidate set covers the reported top-k.
  EXPECT_LE(fagin->depth, naive->depth) << label;
  EXPECT_LE(ta->depth, naive->depth) << label;
  EXPECT_EQ(fagin->candidates, fagin->candidate_ids.size()) << label;
  // Candidates come in ascending id order from both merges that report them,
  // so nothing about the order they were read in leaves the merge.
  EXPECT_TRUE(std::is_sorted(fagin->candidate_ids.begin(),
                             fagin->candidate_ids.end()))
      << label;
  EXPECT_TRUE(std::is_sorted(ta->candidate_ids.begin(),
                             ta->candidate_ids.end()))
      << label;
  const auto fagin_cands = AsSet(fagin->candidate_ids);
  for (uint64_t id : fagin->ids) {
    EXPECT_TRUE(fagin_cands.count(id)) << label << " id " << id;
  }
}

std::vector<std::vector<double>> RandomScores(size_t parties, size_t items,
                                              Rng* rng) {
  std::vector<std::vector<double>> scores(parties,
                                          std::vector<double>(items));
  for (auto& list : scores) {
    for (double& v : list) v = rng->Uniform(0.0, 100.0);
  }
  return scores;
}

TEST(TopkDifferentialTest, RandomInstances) {
  Rng rng(0xD1FF);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t parties = 1 + rng.NextBounded(5);
    const size_t items = 1 + rng.NextBounded(40);
    const size_t k = 1 + rng.NextBounded(items + 3);  // sometimes k > N
    const size_t batch = 1 + rng.NextBounded(4);
    CheckInstance(RandomScores(parties, items, &rng), k, batch,
                  "trial " + std::to_string(trial));
  }
}

TEST(TopkDifferentialTest, HeavyTies) {
  Rng rng(0x7135);
  for (int trial = 0; trial < 80; ++trial) {
    const size_t parties = 1 + rng.NextBounded(4);
    const size_t items = 2 + rng.NextBounded(30);
    // Scores drawn from a tiny integer alphabet: aggregates collide a lot.
    std::vector<std::vector<double>> scores(parties,
                                            std::vector<double>(items));
    for (auto& list : scores) {
      for (double& v : list) v = static_cast<double>(rng.NextBounded(4));
    }
    const size_t k = 1 + rng.NextBounded(items);
    CheckInstance(scores, k, 1 + rng.NextBounded(3),
                  "ties trial " + std::to_string(trial));
  }
}

TEST(TopkDifferentialTest, KAtLeastN) {
  Rng rng(0xCAFE);
  auto scores = RandomScores(3, 8, &rng);
  CheckInstance(scores, 8, 1, "k == N");
  CheckInstance(scores, 20, 2, "k > N");
}

TEST(TopkDifferentialTest, SingleList) {
  Rng rng(0x0001);
  CheckInstance(RandomScores(1, 25, &rng), 7, 1, "single list");
  CheckInstance({{4.0}}, 1, 1, "single item");
}

TEST(TopkDifferentialTest, AdversarialDistributions) {
  // All items identical on every list: any k-subset is minimal.
  CheckInstance({{1.0, 1.0, 1.0, 1.0}, {2.0, 2.0, 2.0, 2.0}}, 2, 1,
                "all equal");
  // Anti-correlated lists: each party's best is the other's worst, the
  // classic worst case for sorted-access pruning.
  {
    std::vector<double> up(32), down(32);
    for (size_t i = 0; i < 32; ++i) {
      up[i] = static_cast<double>(i);
      down[i] = static_cast<double>(31 - i);
    }
    CheckInstance({up, down}, 5, 1, "anti-correlated");
  }
  // One party fully discriminates, the others are constant.
  {
    std::vector<double> ramp(20), flat(20, 3.0);
    for (size_t i = 0; i < 20; ++i) ramp[i] = static_cast<double>(i) * 0.5;
    CheckInstance({ramp, flat, flat}, 4, 2, "one informative party");
  }
  // Clustered duplicates with one clear winner block.
  {
    std::vector<double> a(24, 9.0), b(24, 9.0);
    for (size_t i = 0; i < 3; ++i) a[i] = b[i] = 0.0;
    CheckInstance({a, b}, 3, 1, "winner block");
    CheckInstance({a, b}, 6, 1, "winner block + ties");
  }
}

// Textbook phase 1 over complete rankings, for FaginPhase1 to match: the
// depth at which k items were seen in all lists, and every item seen.
struct Phase1Reference {
  size_t depth = 0;
  std::vector<uint64_t> seen;  // ascending
};

Phase1Reference ReferencePhase1(const std::vector<std::vector<double>>& scores,
                                size_t k, size_t batch) {
  const size_t n = scores[0].size();
  const size_t p = scores.size();
  k = std::min(k, n);
  std::vector<std::vector<uint64_t>> orders;
  for (const auto& list : scores) {
    orders.push_back(RankedListSet::SortedOrder(list));
  }
  std::vector<size_t> count(n, 0);
  size_t fully_seen = 0;
  Phase1Reference ref;
  while (fully_seen < k && ref.depth < n) {
    const size_t limit = ref.depth + std::min(batch, n - ref.depth);
    for (size_t party = 0; party < p; ++party) {
      for (size_t r = ref.depth; r < limit; ++r) {
        if (++count[orders[party][r]] == p) ++fully_seen;
      }
    }
    ref.depth = limit;
  }
  for (uint64_t id = 0; id < n; ++id) {
    if (count[id] > 0) ref.seen.push_back(id);
  }
  return ref;
}

// The phase-1 core the oracle runs returns FaginTopk's candidate set
// (ascending), depth and access counts, records the same topk.fagin.*
// series, and leaves the set's marks ready for the next merge: every merge
// below reuses one set.
TEST(TopkDifferentialTest, PhaseOneCoreMatchesFaginTopk) {
  Rng rng(0x9A5E1);
  const size_t batches[] = {1, 2, 64, std::numeric_limits<size_t>::max()};
  for (int trial = 0; trial < 60; ++trial) {
    const size_t parties = 1 + rng.NextBounded(5);
    const size_t items = 1 + rng.NextBounded(40);
    std::vector<std::vector<double>> scores = RandomScores(parties, items, &rng);
    if (trial % 2 == 1) {  // tied scores from a tiny alphabet
      for (auto& list : scores) {
        for (double& v : list) v = static_cast<double>(rng.NextBounded(3));
      }
    }
    auto lists = RankedListSet::Build(scores);
    ASSERT_TRUE(lists.ok());
    for (size_t k : {size_t{1}, 1 + rng.NextBounded(items), items,
                     items + 3}) {
      for (size_t batch : batches) {
        const std::string label = "trial " + std::to_string(trial) +
                                  " k=" + std::to_string(k) +
                                  " batch=" + std::to_string(batch);
        const Phase1Reference ref = ReferencePhase1(scores, k, batch);
        obs::MetricsRegistry core_reg;
        obs::MetricsRegistry full_reg;
        auto core = FaginPhase1(*lists, k, batch,
                                FaginMetrics::Resolve(&core_reg));
        auto full = FaginTopk(*lists, k, batch, &full_reg);
        ASSERT_TRUE(core.ok() && full.ok()) << label;
        EXPECT_TRUE(core->ids.empty()) << label;
        EXPECT_EQ(core->candidate_ids, ref.seen) << label;
        EXPECT_EQ(full->candidate_ids, ref.seen) << label;
        EXPECT_EQ(core->depth, ref.depth) << label;
        EXPECT_EQ(full->depth, ref.depth) << label;
        EXPECT_EQ(core->candidates, ref.seen.size()) << label;
        EXPECT_EQ(core->sorted_accesses, ref.depth * parties) << label;
        EXPECT_EQ(full->sorted_accesses, core->sorted_accesses) << label;
        EXPECT_EQ(core->random_accesses,
                  ref.seen.size() * parties - ref.depth * parties)
            << label;
        EXPECT_EQ(full->random_accesses, core->random_accesses) << label;
        for (const char* name :
             {"topk.fagin.runs", "topk.fagin.rounds",
              "topk.fagin.sorted_access_depth", "topk.fagin.sorted_accesses",
              "topk.fagin.random_accesses"}) {
          EXPECT_EQ(core_reg.CounterValue(name), full_reg.CounterValue(name))
              << label << " " << name;
        }
        EXPECT_EQ(core_reg.CounterValue("topk.fagin.runs"), 1u) << label;
        EXPECT_EQ(core_reg.GetHistogram("topk.fagin.candidates")->Sum(),
                  ref.seen.size())
            << label;
        EXPECT_EQ(full_reg.GetHistogram("topk.fagin.candidates")->Sum(),
                  ref.seen.size())
            << label;
      }
    }
  }
}

// The instrumented entry points publish run/access counters that must agree
// with the TopkResult bookkeeping (the observability layer is data, too).
TEST(TopkDifferentialTest, MetricsMatchResultCounters) {
  Rng rng(0xBEEF);
  auto lists = RankedListSet::Build(RandomScores(3, 30, &rng));
  ASSERT_TRUE(lists.ok());

  obs::MetricsRegistry reg;
  auto fagin = FaginTopk(*lists, 5, 2, &reg);
  ASSERT_TRUE(fagin.ok());
  EXPECT_EQ(reg.CounterValue("topk.fagin.runs"), 1u);
  EXPECT_EQ(reg.CounterValue("topk.fagin.sorted_access_depth"), fagin->depth);
  EXPECT_EQ(reg.CounterValue("topk.fagin.sorted_accesses"),
            fagin->sorted_accesses);
  EXPECT_EQ(reg.CounterValue("topk.fagin.random_accesses"),
            fagin->random_accesses);
  EXPECT_EQ(reg.CounterValue("topk.fagin.rounds"), (fagin->depth + 1) / 2);

  // One round reads every list to the end; a batch near SIZE_MAX must not
  // wrap the round count to 0.
  obs::MetricsRegistry wide;
  auto whole = FaginTopk(*lists, 5, std::numeric_limits<size_t>::max(), &wide);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->depth, 30u);
  EXPECT_EQ(wide.CounterValue("topk.fagin.rounds"), 1u);

  auto ta = ThresholdTopk(*lists, 5, &reg);
  ASSERT_TRUE(ta.ok());
  EXPECT_EQ(reg.CounterValue("topk.ta.runs"), 1u);
  EXPECT_EQ(reg.CounterValue("topk.ta.sorted_access_depth"), ta->depth);

  auto naive = NaiveTopk(*lists, 5, &reg);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(reg.CounterValue("topk.naive.runs"), 1u);
  EXPECT_EQ(reg.CounterValue("topk.naive.scanned"), 30u);
}

}  // namespace
}  // namespace vfps::topk
