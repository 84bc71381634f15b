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
/// Rankings are lazy and two-level, so the work follows the depth read.
/// Building a list keys each score and counts a coarse histogram of at most
/// 4,096 equal key ranges over the range of a 256-score sample (keys outside
/// it clamp into the end buckets): one streaming pass that writes nothing
/// per item. A read past the sorted frontier scatters the items of the next
/// coarse buckets in one more streaming pass, enough to quadruple what the
/// set has ranked (the first scatter covers at least 1/16 of the list).
/// A coarse bucket a read reaches is ranked alone: split into fine buckets
/// over its own key range, so sparse key ranges cost nothing, and each fine
/// bucket ranked by counting. A merge that stops at depth d therefore makes
/// a few streaming passes and sorts O(d) items per party instead of N, and
/// every rank it reads equals SortedOrder()'s. Because reads extend the
/// frontier, sorted access is non-const: one task owns a set while it reads
/// ranks.
class RankedListSet {
 private:
  struct Entry {
    uint64_t key;  // order-preserving key of the item's score
    uint32_t id;
  };
  /// One party's list: final ranks up to a frontier, then the unranked
  /// items in coarse buckets of equal key width, which hold counts only
  /// until a read reaches them; the next few were scattered into a window,
  /// each in ascending id order. Buckets cover consecutive key ranges, so
  /// sorting window bucket after window bucket emits (score, id) order.
  struct Ranking {
    std::vector<uint32_t> ranked;  // ids at ranks [0, ranked.size())
    size_t known = 0;    // leading ranks given by the caller (a known prefix)
    bool keyed = false;  // the coarse histogram below is counted
    // Coarse bucket c counts the unranked items whose key lies in
    // [lo + c·2^shift, lo + (c + 1)·2^shift), clamped into the histogram.
    uint64_t lo = 0;
    int shift = 0;
    std::vector<uint32_t> coarse;
    size_t scattered = 0;  // coarse buckets [0, scattered) were scattered
    // Coarse buckets [scattered - window_end.size(), scattered), scattered
    // into `window`; bucket w ends at window_end[w].
    std::vector<Entry> window;
    std::vector<uint32_t> window_end;
    size_t window_next = 0;  // first window bucket not yet ranked
    // Working arrays: the ids a scatter collects, and the fine buckets of
    // a window bucket's split.
    std::vector<uint32_t> picked;
    std::vector<Entry> fine;
    std::vector<uint32_t> fine_end;
  };

 public:
  /// One party's scores. Shared, so a caller that keeps them (the repair
  /// cache) hands them to a list set without a copy; a list set never
  /// writes them.
  using SharedScores = std::shared_ptr<const std::vector<double>>;

  /// A merge's marks on the items (see MergeMarks()): per item a counter,
  /// and a bit that is set once the item was read.
  struct Marks {
    std::vector<uint32_t> counts;  // [item]
    std::vector<uint64_t> seen;    // bit item % 64 of word item / 64

    /// The `count` items whose bit is set, in ascending order; every bit
    /// and those items' counters are zero again afterwards.
    std::vector<uint64_t> TakeSeen(size_t count);
  };

  /// The rankings' working memory: per party, the ranked ids, the coarse
  /// histogram and the entry and bucket arrays of the reads, and the marks
  /// of the merges. A caller that builds one list set after another (the
  /// oracle: one per query and shard) passes the last set's scratch to the
  /// next build, which then reuses its allocations. A set takes its scratch
  /// by value and hands it back through TakeScratch(), so two live sets
  /// never share one.
  class Scratch {
    friend class RankedListSet;
    std::vector<Ranking> rankings_;  // [party]
    Marks marks_;
  };

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
  /// prefix is keyed here, like Build(); one with a known prefix is keyed
  /// only when a read first passes the prefix, and that read aborts if the
  /// prefix is not the head of SortedOrder. `scratch` is the working memory
  /// of an earlier set (see Scratch), or empty.
  static Result<RankedListSet> BuildPresorted(
      std::vector<SharedScores> scores_per_party,
      std::vector<std::vector<uint32_t>> prefixes_per_party,
      Scratch scratch = {});

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

  /// Ends the set and hands its working memory back for the next build.
  Scratch TakeScratch() && { return std::move(scratch_); }

  size_t num_parties() const { return scores_.size(); }
  size_t num_items() const { return scores_.empty() ? 0 : scores_[0]->size(); }

  /// Item id at rank `rank` < num_items() (0 = smallest score) in party
  /// `party`'s list; ranks on demand when the rank is past the frontier.
  uint64_t IdAtRank(size_t party, size_t rank) {
    Ranking& list = scratch_.rankings_[party];
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

  /// The marks a merge over this set keeps per item: num_items() counters
  /// and a bitmap of num_items() bits, all zero when a merge starts. A merge
  /// sets the bit of every item whose counter it touches, and ends with
  /// Marks::TakeSeen(), which zeroes them again. They live in the set's
  /// scratch, so consecutive sets built from one scratch (the oracle's query
  /// tasks) allocate them once, not once per merge.
  Marks& MergeMarks();

 private:
  RankedListSet() = default;
  static std::vector<SharedScores> Share(
      std::vector<std::vector<double>> scores_per_party);
  /// Key the items past the known prefix: their key range and coarse
  /// histogram.
  void Key(size_t party);
  /// Scatter the next coarse buckets into the window: enough to cover
  /// `rank`, to at least quadruple what the set has ranked past the known
  /// prefix, and to rank 1/16 of the items past it.
  void Scatter(size_t party, size_t rank);
  /// Sort the next non-empty window bucket into `ranked`: as it is when it
  /// is small, else split into fine buckets over its own key range. False
  /// (and the window reset) when none is left.
  static bool RankWindowBucket(Ranking* list);
  /// Rank until the ranked prefix covers `rank`.
  void SortThrough(size_t party, size_t rank);

  std::vector<SharedScores> scores_;  // [party] -> (id -> score)
  Scratch scratch_;                   // the rankings, [party]
};

/// \brief Outcome of a top-k run plus the access counts that drive the
/// efficiency comparison (Fig. 9 counts candidates; the cost model converts
/// accesses into communication).
struct TopkResult {
  std::vector<uint64_t> ids;  // the k items with smallest aggregate score
  /// Every distinct item whose aggregate was (or must be) evaluated, in
  /// ascending id order — in the VFPS-SM protocol this is exactly the set
  /// whose partial distances get encrypted and transmitted (Fig. 9's
  /// y-axis).
  std::vector<uint64_t> candidate_ids;
  size_t depth = 0;            // sorted-access rows consumed per party
  size_t sorted_accesses = 0;  // total sorted accesses across parties
  size_t random_accesses = 0;  // random-access score lookups
  size_t candidates = 0;       // == candidate_ids.size()
};

}  // namespace vfps::topk

#endif  // VFPS_TOPK_RANKED_LIST_H_
