#ifndef VFPS_TOPK_RANKED_LIST_H_
#define VFPS_TOPK_RANKED_LIST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"

namespace vfps::topk {

/// \brief The multi-party top-k input: P parties each scoring the same N
/// items (item id = index into the score vector). Each party's list ranks
/// its items in ascending score order, ties broken by id, because vertical
/// KNN wants the k *smallest* aggregate distances.
///
/// Provides the two access modes of the classic middleware model (Fagin et
/// al.): sorted access (next item in a party's rank order) and random access
/// (a party's score for a given item).
///
/// Rankings are lazy. Building a list computes each item's order key once
/// and scatters the items into key buckets; a read past the sorted frontier
/// sorts buckets until the rank is covered. A merge that stops at depth d
/// therefore sorts about d items per party instead of N, and every rank it
/// reads equals SortedOrder()'s. Because reads extend the frontier, sorted
/// access is non-const: one task owns a set while it reads ranks.
class RankedListSet {
 public:
  /// One party's scores. Shared, so a caller that keeps them (the repair
  /// cache) hands them to a list set without a copy; a list set never
  /// writes them.
  using SharedScores = std::shared_ptr<const std::vector<double>>;

  /// \param scores_per_party one score vector per party; all the same size,
  ///        at least 1 and at most UINT32_MAX items.
  static Result<RankedListSet> Build(
      std::vector<std::vector<double>> scores_per_party);

  /// Build from score vectors whose leading ranks are already known (e.g.
  /// the cached prefix of a sub-ranking surviving a membership change).
  /// prefixes_per_party[p] must be the first ranks of
  /// SortedOrder(*scores_per_party[p]); any length from 0 to N is accepted.
  /// A prefix longer than N, an id >= N, or ids out of (score, id) order
  /// (a repeated id among them) is InvalidArgument. A party with an empty
  /// prefix is bucketed here, like Build(); one with a known prefix is
  /// bucketed only when a read first passes the prefix.
  static Result<RankedListSet> BuildPresorted(
      std::vector<SharedScores> scores_per_party,
      std::vector<std::vector<uint32_t>> prefixes_per_party);

  /// The same from owned score vectors and 64-bit ids, e.g. a whole
  /// SortedOrder() per party.
  static Result<RankedListSet> BuildPresorted(
      std::vector<std::vector<double>> scores_per_party,
      std::vector<std::vector<uint64_t>> prefixes_per_party);

  /// The complete ranking of one list, computed eagerly: item ids sorted
  /// ascending by score, ties broken by id (-0.0 ties with +0.0). A stable
  /// O(n) LSD radix sort over an order-preserving 64-bit key of each score;
  /// it returns exactly the permutation a comparison sort on (score, id)
  /// would. The reference the lazy ranking is tested against.
  static std::vector<uint64_t> SortedOrder(const std::vector<double>& scores);

  size_t num_parties() const { return scores_.size(); }
  size_t num_items() const { return scores_.empty() ? 0 : scores_[0]->size(); }

  /// Item id at rank `rank` < num_items() (0 = smallest score) in party
  /// `party`'s list; sorts on demand when the rank is past the frontier.
  uint64_t IdAtRank(size_t party, size_t rank) {
    Ranking& list = rankings_[party];
    if (rank >= list.ranked.size()) SortThrough(party, rank);
    return list.ranked[rank];
  }

  /// Ids at ranks [0, depth) of party `party`'s list, depth <= num_items().
  std::vector<uint32_t> RankedPrefix(size_t party, size_t depth);

  /// Party `p`'s score for item `id` (random access).
  double Score(size_t party, uint64_t id) const {
    return (*scores_[party])[id];
  }

  /// Aggregate (sum) score of an item across all parties.
  double AggregateScore(uint64_t id) const;

 private:
  struct Entry {
    uint64_t key;  // order-preserving key of the item's score
    uint32_t id;
  };
  /// One party's list: final ranks up to a frontier, the rest in buckets of
  /// ascending key ranges, each holding its items in ascending id order
  /// until it is sorted.
  struct Ranking {
    std::vector<uint32_t> ranked;      // ids at ranks [0, ranked.size())
    std::unique_ptr<Entry[]> pending;  // unranked items, grouped by bucket
    std::vector<uint32_t> bucket_end;  // end of bucket b in `pending`
    size_t next_bucket = 0;            // first bucket not yet in `ranked`
    bool bucketed = false;
  };

  RankedListSet() = default;
  static std::vector<SharedScores> Share(
      std::vector<std::vector<double>> scores_per_party);
  /// Scatter the items past the known prefix into key buckets.
  void Bucket(size_t party);
  /// Sort buckets into `ranked` until it covers `rank`.
  void SortThrough(size_t party, size_t rank);

  std::vector<SharedScores> scores_;  // [party] -> (id -> score)
  std::vector<Ranking> rankings_;            // [party]
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
