#ifndef VFPS_TOPK_RANKED_LIST_H_
#define VFPS_TOPK_RANKED_LIST_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace vfps::topk {

/// \brief The multi-party top-k input: P parties each scoring the same N
/// items (item id = index into the score vector). Lists are materialized in
/// ascending score order because vertical KNN wants the k *smallest*
/// aggregate distances.
///
/// Provides the two access modes of the classic middleware model (Fagin et
/// al.): sorted access (next item in a party's rank order) and random access
/// (a party's score for a given item).
class RankedListSet {
 public:
  /// \param scores_per_party one score vector per party; all the same size.
  static Result<RankedListSet> Build(
      std::vector<std::vector<double>> scores_per_party);

  /// Build from score vectors whose sort orders are already known (e.g.
  /// cached sub-rankings surviving a membership change) — skips the
  /// per-party sort that dominates Build(). Each order must be the
  /// permutation SortedOrder(scores) would produce; only sizes are
  /// validated.
  static Result<RankedListSet> BuildPresorted(
      std::vector<std::vector<double>> scores_per_party,
      std::vector<std::vector<uint64_t>> orders_per_party);

  /// The ranking Build() materializes for one party: item ids sorted
  /// ascending by score, ties broken by id (-0.0 ties with +0.0). A stable
  /// O(n) LSD radix sort over an order-preserving 64-bit key of each score;
  /// it returns exactly the permutation a comparison sort on (score, id)
  /// would, and holds one n-entry scratch buffer only while it runs.
  static std::vector<uint64_t> SortedOrder(const std::vector<double>& scores);

  size_t num_parties() const { return scores_.size(); }
  size_t num_items() const { return scores_.empty() ? 0 : scores_[0].size(); }

  /// Item id at rank `r` (0 = smallest score) in party `p`'s list.
  uint64_t IdAtRank(size_t party, size_t rank) const {
    return order_[party][rank];
  }

  /// Party `p`'s score for item `id` (random access).
  double Score(size_t party, uint64_t id) const { return scores_[party][id]; }

  /// Aggregate (sum) score of an item across all parties.
  double AggregateScore(uint64_t id) const;

 private:
  RankedListSet() = default;
  std::vector<std::vector<double>> scores_;       // [party][id] -> score
  std::vector<std::vector<uint64_t>> order_;      // [party][rank] -> id
};

/// \brief Outcome of a top-k run plus the access counts that drive the
/// efficiency comparison (Fig. 9 counts candidates; the cost model converts
/// accesses into communication).
struct TopkResult {
  std::vector<uint64_t> ids;  // the k items with smallest aggregate score
  /// Every distinct item whose aggregate was (or must be) evaluated — in the
  /// VFPS-SM protocol this is exactly the set whose partial distances get
  /// encrypted and transmitted (Fig. 9's y-axis).
  std::vector<uint64_t> candidate_ids;
  size_t depth = 0;            // sorted-access rows consumed per party
  size_t sorted_accesses = 0;  // total sorted accesses across parties
  size_t random_accesses = 0;  // random-access score lookups
  size_t candidates = 0;       // == candidate_ids.size()
};

}  // namespace vfps::topk

#endif  // VFPS_TOPK_RANKED_LIST_H_
