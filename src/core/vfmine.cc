#include "core/vfmine.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"
#include "common/random.h"

namespace vfps::core {

namespace {
// VF-MINE samples this many participant groups per participant for MI
// scoring.
constexpr size_t kGroupsPerParticipant = 2;
}  // namespace

double MutualInformation(const std::vector<int>& a, const std::vector<int>& b,
                         int num_classes) {
  if (a.empty() || a.size() != b.size() || num_classes < 1) return 0.0;
  const size_t c = static_cast<size_t>(num_classes);
  std::vector<double> joint(c * c, 0.0), pa(c, 0.0), pb(c, 0.0);
  const double inv = 1.0 / static_cast<double>(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 0 || a[i] >= num_classes || b[i] < 0 || b[i] >= num_classes) {
      continue;
    }
    joint[static_cast<size_t>(a[i]) * c + static_cast<size_t>(b[i])] += inv;
    pa[a[i]] += inv;
    pb[b[i]] += inv;
  }
  double mi = 0.0;
  for (size_t x = 0; x < c; ++x) {
    for (size_t y = 0; y < c; ++y) {
      const double pxy = joint[x * c + y];
      if (pxy > 0.0 && pa[x] > 0.0 && pb[y] > 0.0) {
        mi += pxy * std::log(pxy / (pa[x] * pb[y]));
      }
    }
  }
  return std::max(mi, 0.0);
}

Result<SelectionOutcome> VfMineSelector::Select(const SelectionContext& ctx,
                                                size_t target) {
  VFPS_RETURN_NOT_OK(ValidateContext(ctx, target));
  const size_t p = ctx.partition->size();
  const double clock_before = ctx.clock->Total();

  // Utility queries: seeded subsample of the validation split.
  const data::Dataset& valid = ctx.split->valid;
  VFPS_CHECK_ARG(valid.num_samples() > 0, "VF-MINE: empty validation split");
  Rng rng(ctx.seed ^ 0x3F1E57A7ULL);
  const size_t want = std::min(ctx.utility_queries, valid.num_samples());
  const data::Dataset queries =
      valid.SelectRows(rng.SampleWithoutReplacement(valid.num_samples(), want));
  std::vector<int> truth = queries.labels();

  vfl::FederatedKnnOracle oracle(&ctx.split->train, ctx.partition, ctx.backend,
                                 ctx.network, ctx.cost, ctx.clock, ctx.pool);

  // Sample groups of about half the consortium; group g is anchored on
  // participant g mod P so that every participant is scored.
  const size_t num_groups = kGroupsPerParticipant * p;
  const size_t group_size = std::max<size_t>(1, (p + 1) / 2);
  std::vector<double> score_sum(p, 0.0);
  std::vector<size_t> group_count(p, 0);

  for (size_t g = 0; g < num_groups; ++g) {
    const size_t anchor = g % p;
    std::vector<size_t> pool;
    for (size_t i = 0; i < p; ++i) {
      if (i != anchor) pool.push_back(i);
    }
    rng.Shuffle(&pool);
    std::vector<size_t> group = {anchor};
    for (size_t i = 0; i + 1 < group_size && i < pool.size(); ++i) {
      group.push_back(pool[i]);
    }
    std::sort(group.begin(), group.end());

    VFPS_ASSIGN_OR_RETURN(
        auto predictions,
        oracle.ClassifyPredictions(queries, group, ctx.knn.k,
                                   /*charge_costs=*/true));
    const double mi =
        MutualInformation(predictions, truth, ctx.split->train.num_classes());
    for (size_t member : group) {
      score_sum[member] += mi;
      ++group_count[member];
    }
  }

  std::vector<double> scores(p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    scores[i] = group_count[i] == 0
                    ? 0.0
                    : score_sum[i] / static_cast<double>(group_count[i]);
  }
  last_scores_ = scores;

  std::vector<size_t> idx(p);
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + target, idx.end(),
                    [&scores](size_t a, size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(target);
  std::sort(idx.begin(), idx.end());

  SelectionOutcome outcome;
  outcome.selected = std::move(idx);
  outcome.scores = scores;
  outcome.sim_seconds = ctx.clock->Total() - clock_before;
  return outcome;
}

}  // namespace vfps::core
