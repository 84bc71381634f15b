#include "topk/threshold.h"

#include <algorithm>
#include <queue>

#include "common/macros.h"
#include "obs/metrics.h"

namespace vfps::topk {

ThresholdMetrics ThresholdMetrics::Resolve(obs::MetricsRegistry* obs) {
  if (obs == nullptr) return {};
  return {obs->GetCounter("topk.ta.runs"),
          obs->GetCounter("topk.ta.sorted_access_depth"),
          obs->GetCounter("topk.ta.sorted_accesses"),
          obs->GetCounter("topk.ta.random_accesses"),
          obs->GetHistogram("topk.ta.candidates")};
}

void ThresholdMetrics::Record(const TopkResult& result) const {
  if (runs == nullptr) return;
  runs->Add(1);
  sorted_access_depth->Add(result.depth);
  sorted_accesses->Add(result.sorted_accesses);
  random_accesses->Add(result.random_accesses);
  candidates->Record(result.candidates);
}

Result<TopkResult> ThresholdTopk(RankedListSet& lists, size_t k,
                                 obs::MetricsRegistry* obs) {
  VFPS_ASSIGN_OR_RETURN(TopkResult result,
                        ThresholdTopk(lists, k, ThresholdMetrics{}));
  ThresholdMetrics::Resolve(obs).Record(result);
  return result;
}

Result<TopkResult> ThresholdTopk(RankedListSet& lists, size_t k,
                                 const ThresholdMetrics& metrics) {
  const size_t n = lists.num_items();
  const size_t p = lists.num_parties();
  VFPS_CHECK_ARG(k >= 1, "TA: k must be >= 1");
  k = std::min(k, n);

  TopkResult result;
  // An item's bit in `evaluated` is set once its aggregate was computed.
  RankedListSet::Marks& marks = lists.MergeMarks();
  uint64_t* const evaluated = marks.seen.data();
  // Max-heap of (aggregate, id): the root is the worst of the current top-k.
  std::priority_queue<std::pair<double, uint64_t>> best;

  for (size_t depth = 0; depth < n; ++depth) {
    double threshold = 0.0;
    for (size_t party = 0; party < p; ++party) {
      const uint64_t frontier_id = lists.IdAtRank(party, depth);
      ++result.sorted_accesses;
      threshold += lists.Score(party, frontier_id);
      const uint64_t bit = uint64_t{1} << (frontier_id % 64);
      if ((evaluated[frontier_id / 64] & bit) == 0) {
        evaluated[frontier_id / 64] |= bit;
        // Random-access the other parties' scores for this item.
        result.random_accesses += p - 1;
        ++result.candidates;
        const double agg = lists.AggregateScore(frontier_id);
        if (best.size() < k) {
          best.emplace(agg, frontier_id);
        } else if (agg < best.top().first) {
          best.pop();
          best.emplace(agg, frontier_id);
        }
      }
    }
    result.depth = depth + 1;
    // Stop when we hold k items and none of the unseen can beat the worst:
    // any unseen item has per-party score >= the frontier, hence aggregate
    // >= threshold.
    if (best.size() == k && best.top().first <= threshold) break;
  }

  result.ids.resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    result.ids[i] = best.top().second;
    best.pop();
  }
  result.candidate_ids = marks.TakeSeen(result.candidates);

  metrics.Record(result);
  return result;
}

}  // namespace vfps::topk
