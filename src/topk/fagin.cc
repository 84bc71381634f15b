#include "topk/fagin.h"

#include <algorithm>

#include "common/macros.h"
#include "obs/metrics.h"

namespace vfps::topk {

FaginMetrics FaginMetrics::Resolve(obs::MetricsRegistry* obs) {
  if (obs == nullptr) return {};
  return {obs->GetCounter("topk.fagin.runs"),
          obs->GetCounter("topk.fagin.rounds"),
          obs->GetCounter("topk.fagin.sorted_access_depth"),
          obs->GetCounter("topk.fagin.sorted_accesses"),
          obs->GetCounter("topk.fagin.random_accesses"),
          obs->GetHistogram("topk.fagin.candidates")};
}

void FaginMetrics::Record(const TopkResult& result, size_t batch) const {
  if (runs == nullptr) return;
  runs->Add(1);
  // Every round but the last reads `batch` ranks per party. The ceiling is
  // written so that a batch near SIZE_MAX cannot wrap.
  rounds->Add(result.depth / batch + (result.depth % batch != 0 ? 1 : 0));
  sorted_access_depth->Add(result.depth);
  sorted_accesses->Add(result.sorted_accesses);
  random_accesses->Add(result.random_accesses);
  candidates->Record(result.candidates);
}

Result<TopkResult> FaginTopk(RankedListSet& lists, size_t k, size_t batch,
                             obs::MetricsRegistry* obs) {
  VFPS_ASSIGN_OR_RETURN(TopkResult result,
                        FaginTopk(lists, k, batch, FaginMetrics{}));
  FaginMetrics::Resolve(obs).Record(result, batch);
  return result;
}

Result<TopkResult> FaginTopk(RankedListSet& lists, size_t k, size_t batch,
                             const FaginMetrics& metrics) {
  const size_t n = lists.num_items();
  const size_t p = lists.num_parties();
  VFPS_CHECK_ARG(k >= 1, "Fagin: k must be >= 1");
  VFPS_CHECK_ARG(batch >= 1, "Fagin: batch must be >= 1");
  k = std::min(k, n);

  TopkResult result;
  // seen_count[id] = number of lists the item has appeared in so far.
  std::vector<uint32_t> seen_count(n, 0);
  // Distinct items in first-seen order. Each round first makes room for
  // every id it can read, so the loop below appends without a branch: the
  // id is always written and the end only advances on a first sighting.
  std::vector<uint64_t>& seen_order = result.candidate_ids;
  size_t seen = 0;
  size_t fully_seen = 0;

  // Phase 1: round-robin sorted access in mini-batches.
  size_t depth = 0;
  while (fully_seen < k && depth < n) {
    const size_t limit = std::min(n, depth + batch);
    seen_order.resize(seen + (limit - depth) * p);
    for (size_t party = 0; party < p; ++party) {
      for (size_t r = depth; r < limit; ++r) {
        const uint64_t id = lists.IdAtRank(party, r);
        const uint32_t count = ++seen_count[id];
        seen_order[seen] = id;
        seen += count == 1;
        fully_seen += count == p;
      }
    }
    depth = limit;
  }
  seen_order.resize(seen);
  result.depth = depth;
  result.sorted_accesses = depth * p;
  // Every seen item's scores not revealed by sorted access.
  result.random_accesses = seen * p - result.sorted_accesses;

  // Phase 2 + 3: aggregate every seen item. Summed party by party, which
  // adds each item's scores in AggregateScore's order (0.0 + the first).
  std::vector<std::pair<double, uint64_t>> aggregated(seen);
  for (size_t i = 0; i < seen; ++i) {
    aggregated[i] = {0.0 + lists.Score(0, seen_order[i]), seen_order[i]};
  }
  for (size_t party = 1; party < p; ++party) {
    for (auto& [sum, id] : aggregated) sum += lists.Score(party, id);
  }
  result.candidates = seen;

  const size_t take = std::min(k, aggregated.size());
  std::partial_sort(aggregated.begin(), aggregated.begin() + take,
                    aggregated.end());
  result.ids.reserve(take);
  for (size_t i = 0; i < take; ++i) result.ids.push_back(aggregated[i].second);

  metrics.Record(result, batch);
  return result;
}

}  // namespace vfps::topk
