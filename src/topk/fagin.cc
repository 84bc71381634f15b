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

Result<TopkResult> FaginPhase1(RankedListSet& lists, size_t k, size_t batch,
                               const FaginMetrics& metrics) {
  const size_t n = lists.num_items();
  const size_t p = lists.num_parties();
  VFPS_CHECK_ARG(k >= 1, "Fagin: k must be >= 1");
  VFPS_CHECK_ARG(batch >= 1, "Fagin: batch must be >= 1");
  k = std::min(k, n);

  // count[id] = number of lists the item has appeared in so far; its bit in
  // `seen` is set at every read, so the loop does not branch on a first
  // sighting.
  RankedListSet::Marks& marks = lists.MergeMarks();
  uint32_t* const count = marks.counts.data();
  uint64_t* const seen_bits = marks.seen.data();
  size_t seen = 0;
  size_t fully_seen = 0;
  size_t depth = 0;
  while (fully_seen < k && depth < n) {
    const size_t limit = depth + std::min(batch, n - depth);
    for (size_t party = 0; party < p; ++party) {
      for (size_t r = depth; r < limit; ++r) {
        const uint64_t id = lists.IdAtRank(party, r);
        const uint32_t c = ++count[id];
        seen_bits[id / 64] |= uint64_t{1} << (id % 64);
        seen += c == 1;
        fully_seen += c == p;
      }
    }
    depth = limit;
  }

  TopkResult result;
  result.depth = depth;
  result.sorted_accesses = depth * p;
  // Every seen item's scores not revealed by sorted access.
  result.random_accesses = seen * p - result.sorted_accesses;
  result.candidates = seen;
  result.candidate_ids = marks.TakeSeen(seen);
  metrics.Record(result, batch);
  return result;
}

Result<TopkResult> FaginTopk(RankedListSet& lists, size_t k, size_t batch,
                             const FaginMetrics& metrics) {
  VFPS_ASSIGN_OR_RETURN(TopkResult result,
                        FaginPhase1(lists, k, batch, metrics));
  // Phase 2 + 3: aggregate every seen item. Summed party by party, which
  // adds each item's scores in AggregateScore's order (0.0 + the first).
  const std::vector<uint64_t>& seen = result.candidate_ids;
  std::vector<std::pair<double, uint64_t>> aggregated(seen.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    aggregated[i] = {0.0 + lists.Score(0, seen[i]), seen[i]};
  }
  for (size_t party = 1; party < lists.num_parties(); ++party) {
    for (auto& [sum, id] : aggregated) sum += lists.Score(party, id);
  }
  const size_t take = std::min(std::min(k, lists.num_items()), seen.size());
  std::partial_sort(aggregated.begin(), aggregated.begin() + take,
                    aggregated.end());
  result.ids.reserve(take);
  for (size_t i = 0; i < take; ++i) result.ids.push_back(aggregated[i].second);
  return result;
}

}  // namespace vfps::topk
