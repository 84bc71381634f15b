#include "topk/ranked_list.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/macros.h"

namespace vfps::topk {

namespace {

// Order-preserving map from a double to an unsigned key: flipping the sign
// bit of non-negative values and every bit of negative ones makes unsigned
// key order equal numeric order. -0.0 is folded onto +0.0 first, because the
// two compare equal and must tie (and then fall back to id order).
inline uint64_t OrderKey(double x) {
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  if (bits == kSignBit) bits = 0;
  const uint64_t negative = 0 - (bits >> 63);  // all ones iff x < 0
  return bits ^ (negative | kSignBit);
}

// Mean items per key bucket. A read past the frontier sorts whole buckets,
// so small buckets keep the sorted work close to the depth actually read.
constexpr size_t kItemsPerBucket = 4;

// Buckets up to this size are insertion-sorted; a larger one (keys that
// cluster inside one bucket's range) takes std::sort.
constexpr size_t kInsertionSortMax = 32;

// Sort one bucket by (key, id). A bucket holds its items in ascending id
// order, so the stable insertion sort on the key alone already breaks ties
// by id; std::sort is not stable and compares the id explicitly.
template <typename Entry>
void SortBucket(Entry* first, Entry* last) {
  if (static_cast<size_t>(last - first) <= kInsertionSortMax) {
    for (Entry* i = first + 1; i < last; ++i) {
      const Entry item = *i;
      Entry* j = i;
      for (; j > first && (j - 1)->key > item.key; --j) *j = *(j - 1);
      *j = item;
    }
    return;
  }
  std::sort(first, last, [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });
}

}  // namespace

std::vector<RankedListSet::SharedScores> RankedListSet::Share(
    std::vector<std::vector<double>> scores_per_party) {
  std::vector<SharedScores> shared;
  shared.reserve(scores_per_party.size());
  for (auto& scores : scores_per_party) {
    shared.push_back(
        std::make_shared<const std::vector<double>>(std::move(scores)));
  }
  return shared;
}

Result<RankedListSet> RankedListSet::Build(
    std::vector<std::vector<double>> scores_per_party) {
  const size_t parties = scores_per_party.size();
  return BuildPresorted(Share(std::move(scores_per_party)),
                        std::vector<std::vector<uint32_t>>(parties));
}

Result<RankedListSet> RankedListSet::BuildPresorted(
    std::vector<std::vector<double>> scores_per_party,
    std::vector<std::vector<uint64_t>> prefixes_per_party) {
  std::vector<std::vector<uint32_t>> prefixes;
  prefixes.reserve(prefixes_per_party.size());
  for (const std::vector<uint64_t>& wide : prefixes_per_party) {
    std::vector<uint32_t>& prefix = prefixes.emplace_back();
    prefix.reserve(wide.size());
    for (uint64_t id : wide) {
      // N <= UINT32_MAX, so a wider id is >= N; checked before narrowing.
      VFPS_CHECK_ARG(id <= std::numeric_limits<uint32_t>::max(),
                     "RankedListSet: known prefix names an id >= N");
      prefix.push_back(static_cast<uint32_t>(id));
    }
  }
  return BuildPresorted(Share(std::move(scores_per_party)),
                        std::move(prefixes));
}

Result<RankedListSet> RankedListSet::BuildPresorted(
    std::vector<SharedScores> scores_per_party,
    std::vector<std::vector<uint32_t>> prefixes_per_party) {
  VFPS_CHECK_ARG(!scores_per_party.empty(), "RankedListSet: need >= 1 party");
  VFPS_CHECK_ARG(scores_per_party.size() == prefixes_per_party.size(),
                 "RankedListSet: scores/prefixes party-count mismatch");
  for (const SharedScores& scores : scores_per_party) {
    VFPS_CHECK_ARG(scores != nullptr, "RankedListSet: null score list");
  }
  const size_t n = scores_per_party[0]->size();
  VFPS_CHECK_ARG(n > 0, "RankedListSet: empty score lists");
  // Ranked ids are stored as uint32_t.
  VFPS_CHECK_ARG(n <= std::numeric_limits<uint32_t>::max(),
                 "RankedListSet: more than 2^32 - 1 items per list");
  RankedListSet set;
  set.rankings_.resize(scores_per_party.size());
  for (size_t p = 0; p < scores_per_party.size(); ++p) {
    const std::vector<double>& scores = *scores_per_party[p];
    VFPS_CHECK_ARG(scores.size() == n,
                   "RankedListSet: size mismatch across parties");
    std::vector<uint32_t>& prefix = prefixes_per_party[p];
    VFPS_CHECK_ARG(prefix.size() <= n,
                   "RankedListSet: known prefix longer than the list");
    // Every id in range and strictly after its predecessor in (score, id)
    // order, which also rules out a repeated id.
    uint64_t prev_key = 0;
    for (size_t r = 0; r < prefix.size(); ++r) {
      const uint32_t id = prefix[r];
      VFPS_CHECK_ARG(id < n, "RankedListSet: known prefix names an id >= N");
      const uint64_t key = OrderKey(scores[id]);
      VFPS_CHECK_ARG(
          r == 0 || key > prev_key || (key == prev_key && id > prefix[r - 1]),
          "RankedListSet: known prefix is not in (score, id) order");
      prev_key = key;
    }
    set.rankings_[p].ranked = std::move(prefix);
  }
  set.scores_ = std::move(scores_per_party);
  for (size_t p = 0; p < set.scores_.size(); ++p) {
    if (set.rankings_[p].ranked.empty()) set.Bucket(p);
  }
  return set;
}

void RankedListSet::Bucket(size_t party) {
  const std::vector<double>& scores = *scores_[party];
  Ranking& list = rankings_[party];
  list.bucketed = true;
  const size_t n = scores.size();
  const size_t known = list.ranked.size();
  const size_t m = n - known;
  if (m == 0) return;
  list.ranked.reserve(n);
  // The known prefix is ranked already; only the other items are bucketed.
  std::vector<uint8_t> in_prefix;
  if (known > 0) {
    in_prefix.assign(n, 0);
    for (uint32_t id : list.ranked) in_prefix[id] = 1;
  }
  const auto skip = [&in_prefix](size_t id) {
    return !in_prefix.empty() && in_prefix[id] != 0;
  };

  // Bucket b covers keys [lo + b·2^shift, lo + (b+1)·2^shift): the key bits
  // below the highest one that varies, so the bucket count adapts to the
  // key range and stays near m / kItemsPerBucket.
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  for (size_t id = 0; id < n; ++id) {
    if (skip(id)) continue;
    const uint64_t key = OrderKey(scores[id]);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  const int bucket_bits = static_cast<int>(
      std::bit_width(std::max<size_t>(1, m / kItemsPerBucket)));
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) - bucket_bits);
  std::vector<uint32_t>& end = list.bucket_end;
  end.assign(static_cast<size_t>((hi - lo) >> shift) + 1, 0);
  for (size_t id = 0; id < n; ++id) {
    if (skip(id)) continue;
    ++end[(OrderKey(scores[id]) - lo) >> shift];
  }
  uint32_t sum = 0;
  for (uint32_t& slot : end) {
    const uint32_t count = slot;
    slot = sum;
    sum += count;
  }
  // Stable scatter in ascending id order; each bucket's cursor ends at the
  // bucket's end.
  list.pending = std::make_unique_for_overwrite<Entry[]>(m);
  for (size_t id = 0; id < n; ++id) {
    if (skip(id)) continue;
    const uint64_t key = OrderKey(scores[id]);
    list.pending[end[(key - lo) >> shift]++] =
        Entry{key, static_cast<uint32_t>(id)};
  }
}

void RankedListSet::SortThrough(size_t party, size_t rank) {
  Ranking& list = rankings_[party];
  if (!list.bucketed) Bucket(party);
  while (list.ranked.size() <= rank &&
         list.next_bucket < list.bucket_end.size()) {
    const size_t begin =
        list.next_bucket == 0 ? 0 : list.bucket_end[list.next_bucket - 1];
    const size_t end = list.bucket_end[list.next_bucket++];
    Entry* const bucket = list.pending.get();
    SortBucket(bucket + begin, bucket + end);
    for (size_t i = begin; i < end; ++i) list.ranked.push_back(bucket[i].id);
  }
  if (list.next_bucket == list.bucket_end.size()) {
    list.pending.reset();  // every item is ranked
    list.bucket_end = {};
    list.next_bucket = 0;
  }
  if (rank >= list.ranked.size()) {
    Status::OutOfRange("RankedListSet: rank >= number of items")
        .Abort("RankedListSet::IdAtRank");
  }
}

std::vector<uint32_t> RankedListSet::RankedPrefix(size_t party, size_t depth) {
  if (depth == 0) return {};
  IdAtRank(party, depth - 1);
  const std::vector<uint32_t>& ranked = rankings_[party].ranked;
  return std::vector<uint32_t>(ranked.begin(), ranked.begin() + depth);
}

std::vector<uint64_t> RankedListSet::SortedOrder(
    const std::vector<double>& scores) {
  // Ascending score, ties broken by id: a stable LSD radix sort over the
  // 8 bytes of OrderKey, starting from ids in ascending order. Stability
  // keeps equal keys in id order, so the result is exactly the permutation
  // of a comparison sort on (score, id). Only the ids ping-pong between two
  // buffers; each pass re-derives its digit from scores[id], so the sort's
  // only scratch beyond its output is one id buffer, freed on return.
  constexpr int kDigitBits = 8;
  constexpr int kPasses = 64 / kDigitBits;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  const size_t n = scores.size();
  std::vector<uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n < 2) return order;
  std::array<std::array<size_t, kBuckets>, kPasses> counts{};
  for (double score : scores) {
    const uint64_t key = OrderKey(score);
    for (int d = 0; d < kPasses; ++d) {
      ++counts[d][(key >> (kDigitBits * d)) & (kBuckets - 1)];
    }
  }
  std::vector<uint64_t> next(n);
  const uint64_t first_key = OrderKey(scores[0]);
  for (int d = 0; d < kPasses; ++d) {
    const int shift = kDigitBits * d;
    auto& offsets = counts[d];
    // A digit every key shares leaves the order unchanged; skip the pass.
    if (offsets[(first_key >> shift) & (kBuckets - 1)] == n) continue;
    size_t sum = 0;
    for (size_t& slot : offsets) {
      const size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (uint64_t id : order) {
      next[offsets[(OrderKey(scores[id]) >> shift) & (kBuckets - 1)]++] = id;
    }
    order.swap(next);
  }
  return order;
}

double RankedListSet::AggregateScore(uint64_t id) const {
  double sum = 0.0;
  for (const SharedScores& scores : scores_) sum += (*scores)[id];
  return sum;
}

}  // namespace vfps::topk
