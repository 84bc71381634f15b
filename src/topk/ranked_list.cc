#include "topk/ranked_list.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "simd/simd.h"

#ifdef VFPS_SIMD_X86
#include <immintrin.h>
#endif

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

// Mean items per coarse bucket.
constexpr size_t kItemsPerBucket = 4;

// Coarse buckets per list at most: 2^12 counters, 16 KiB, stay in L1 while
// the build counts them.
constexpr int kCoarseBitsMax = 12;

// Scores the build samples, at an even stride, for the coarse key range.
constexpr size_t kRangeSample = 256;

// A scatter at least quadruples what the set has ranked, so a read to depth
// d pays O(log d) streaming passes. The first one covers at least 1/16 of
// the list.
constexpr size_t kWindowGrowth = 4;
constexpr size_t kFirstWindowShare = 16;

// A bucket of at most this many items is ranked by counting (see
// RankByCounting); a larger window bucket is split into fine buckets of
// about two items, and a larger fine bucket (keys that cluster inside its
// range) takes std::sort.
constexpr size_t kCountingMax = 16;

// Shift that splits a key range into at most 2^bits buckets of equal
// width: the key bits below the highest one that varies, less `bits`.
// bits >= 1 keeps the shift below 64 for any range.
int BucketShift(uint64_t range, int bits) {
  return std::max(0, static_cast<int>(std::bit_width(range)) - bits);
}

// Write the ids of entries e[0, count), which are in ascending id order, to
// out[0, count) in (key, id) order. An entry's rank is the number of
// entries before it (smaller ids) with a key no greater than its own plus
// the number after it with a smaller key. O(count²) compares but no branch
// on a key, which an insertion sort takes at every insertion.
template <typename Entry>
void RankByCounting(const Entry* e, size_t count, uint32_t* out) {
  for (size_t i = 0; i < count; ++i) {
    size_t rank = 0;
    for (size_t j = 0; j < i; ++j) rank += e[j].key <= e[i].key;
    for (size_t j = i + 1; j < count; ++j) rank += e[j].key < e[i].key;
    out[rank] = e[i].id;
  }
}

// The same for any count: by counting up to kCountingMax entries, else
// std::sort on (key, id), which is not stable and compares the id.
template <typename Entry>
void RankBucket(Entry* e, size_t count, uint32_t* out) {
  if (count <= kCountingMax) {
    RankByCounting(e, count, out);
    return;
  }
  std::sort(e, e + count, [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });
  for (size_t i = 0; i < count; ++i) out[i] = e[i].id;
}

// Turn per-bucket counts into each bucket's first slot; a stable scatter
// then leaves slot b at bucket b's end.
void CountsToStarts(std::vector<uint32_t>* counts) {
  uint32_t sum = 0;
  for (uint32_t& slot : *counts) {
    const uint32_t count = slot;
    slot = sum;
    sum += count;
  }
}

// Calls fn(key, id) for every item of `scores` past the first `known` ranks
// of `ranked`, in ascending id order. Those ranks are the known prefix:
// its items are exactly the ones at or below its last item in (key, id)
// order. Returns the number of items it skipped.
template <typename Fn>
size_t ForEachUnranked(const std::vector<double>& scores,
                       const std::vector<uint32_t>& ranked, size_t known,
                       Fn fn) {
  const size_t n = scores.size();
  if (known == 0) {
    for (size_t id = 0; id < n; ++id) fn(OrderKey(scores[id]), id);
    return 0;
  }
  const uint32_t last = ranked[known - 1];
  const uint64_t last_key = OrderKey(scores[last]);
  size_t skipped = 0;
  for (size_t id = 0; id < n; ++id) {
    const uint64_t key = OrderKey(scores[id]);
    if (key < last_key || (key == last_key && id <= last)) {
      ++skipped;
      continue;
    }
    fn(key, id);
  }
  return skipped;
}

// Coarse bucket of `key`: (key - lo) >> shift, clamped into [0, last].
// Monotone in the key, so the buckets hold consecutive key ranges even
// though the range was sampled: a key outside it clamps into the first or
// the last bucket.
inline size_t CoarseBucket(uint64_t key, uint64_t lo, int shift, size_t last) {
  return static_cast<size_t>(
      std::min<uint64_t>((key > lo ? key - lo : 0) >> shift, last));
}

#ifdef VFPS_SIMD_X86

// AVX-512 bodies of the two streaming passes, eight items per step. They
// compute ForEachUnranked's keys and known-prefix test lane by lane, so each
// writes exactly what its scalar pass writes.
#define VFPS_TOPK_TARGET_AVX512 __attribute__((target("avx512f")))

// The last item of a known prefix, which every unranked item follows in
// (key, id) order; `known` is false for an empty prefix.
struct PrefixEnd {
  bool known = false;
  uint64_t key = 0;
  uint64_t id = 0;
};

PrefixEnd PrefixEndOf(const std::vector<double>& scores,
                      const std::vector<uint32_t>& ranked, size_t known) {
  if (known == 0) return {};
  const uint32_t last = ranked[known - 1];
  return {true, OrderKey(scores[last]), last};
}

// Lanes of the items in [id, n), at most eight.
inline __mmask8 ValidLanes(size_t id, size_t n) {
  return n - id >= 8 ? __mmask8{0xFF}
                     : static_cast<__mmask8>((1u << (n - id)) - 1);
}

// OrderKey of items [id, id + 8) in the `valid` lanes, and the mask of the
// valid ones past the known prefix.
struct KeyedLanes {
  __m512i key;
  __mmask8 unranked;
};

VFPS_TOPK_TARGET_AVX512 inline KeyedLanes KeyLanes(const double* scores,
                                                   size_t id, __mmask8 valid,
                                                   const PrefixEnd& end) {
  const __m512i sign = _mm512_set1_epi64(std::numeric_limits<int64_t>::min());
  __m512i bits =
      _mm512_castpd_si512(_mm512_maskz_loadu_pd(valid, scores + id));
  // -0.0 folds onto +0.0; then every bit flips under a set sign bit, and
  // the sign bit alone under a clear one.
  bits = _mm512_maskz_mov_epi64(_mm512_cmpneq_epi64_mask(bits, sign), bits);
  const __m512i key = _mm512_xor_si512(
      bits, _mm512_or_si512(_mm512_srai_epi64(bits, 63), sign));
  __mmask8 unranked = valid;
  if (end.known) {
    const __m512i last_key = _mm512_set1_epi64(static_cast<int64_t>(end.key));
    const __m512i ids = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<int64_t>(id)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    const __mmask8 after_last = _mm512_cmpgt_epu64_mask(
        ids, _mm512_set1_epi64(static_cast<int64_t>(end.id)));
    unranked &= _mm512_cmpgt_epu64_mask(key, last_key) |
                (_mm512_cmpeq_epu64_mask(key, last_key) & after_last);
  }
  return {key, unranked};
}

// Key's count pass: ++coarse[CoarseBucket(key)] for every item past the
// prefix; returns the number of the prefix's items. Those have keys no
// greater than the prefix's last, which is at most `lo`, so every lane
// counts into its bucket without a branch and the prefix's items, all in
// bucket 0, come out of it at the end.
VFPS_TOPK_TARGET_AVX512 size_t CountCoarseAvx512(const double* scores,
                                                 size_t n, uint64_t lo,
                                                 int shift, size_t last,
                                                 const PrefixEnd& end,
                                                 uint32_t* coarse) {
  const __m512i lo_v = _mm512_set1_epi64(static_cast<int64_t>(lo));
  const __m512i last_v = _mm512_set1_epi64(static_cast<int64_t>(last));
  const __m128i shift_v = _mm_cvtsi32_si128(shift);
  size_t skipped = 0;
  for (size_t id = 0; id < n; id += 8) {
    const __mmask8 valid = ValidLanes(id, n);
    const KeyedLanes lanes = KeyLanes(scores, id, valid, end);
    const __m512i bucket = _mm512_min_epu64(
        _mm512_srl_epi64(
            _mm512_sub_epi64(_mm512_max_epu64(lanes.key, lo_v), lo_v),
            shift_v),
        last_v);
    alignas(32) uint32_t b[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(b),
                       _mm512_cvtepi64_epi32(bucket));
    const size_t lanes_in = std::min<size_t>(8, n - id);
    for (size_t t = 0; t < lanes_in; ++t) ++coarse[b[t]];
    skipped += static_cast<size_t>(
        std::popcount(static_cast<unsigned>(valid & ~lanes.unranked)));
  }
  coarse[0] -= static_cast<uint32_t>(skipped);
  return skipped;
}

// Scatter's collection pass: the ids past the prefix whose key lies in
// [from, from + span], in ascending order, compressed into `picked`, which
// must have room for all of them.
VFPS_TOPK_TARGET_AVX512 void CollectWindowAvx512(const double* scores,
                                                   size_t n, uint64_t from,
                                                   uint64_t span,
                                                   const PrefixEnd& end,
                                                   uint32_t* picked) {
  const __m512i from_v = _mm512_set1_epi64(static_cast<int64_t>(from));
  const __m512i span_v = _mm512_set1_epi64(static_cast<int64_t>(span));
  const __m512i step =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0);
  size_t count = 0;
  for (size_t id = 0; id < n; id += 8) {
    const KeyedLanes lanes = KeyLanes(scores, id, ValidLanes(id, n), end);
    const __mmask8 in_window =
        lanes.unranked &
        _mm512_cmple_epu64_mask(_mm512_sub_epi64(lanes.key, from_v), span_v);
    _mm512_mask_compressstoreu_epi32(
        picked + count, in_window,
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(id)), step));
    count += static_cast<size_t>(
        std::popcount(static_cast<unsigned>(in_window)));
  }
}

#undef VFPS_TOPK_TARGET_AVX512

#endif  // VFPS_SIMD_X86

// Key's count pass on the widest body the host runs: counts every item past
// the first `known` ranks of `ranked` into its coarse bucket, and returns
// the number of items it skipped.
size_t CountCoarse(const std::vector<double>& scores,
                   const std::vector<uint32_t>& ranked, size_t known,
                   uint64_t lo, int shift, size_t last, uint32_t* coarse) {
#ifdef VFPS_SIMD_X86
  if (simd::ActiveIsa() == simd::Isa::kAvx512) {
    return CountCoarseAvx512(scores.data(), scores.size(), lo, shift, last,
                             PrefixEndOf(scores, ranked, known), coarse);
  }
#endif
  return ForEachUnranked(scores, ranked, known, [&](uint64_t key, size_t) {
    ++coarse[CoarseBucket(key, lo, shift, last)];
  });
}

// Scatter's collection pass on the widest body the host runs: writes the
// ids past the known prefix whose key lies in [from, from + span] to
// `picked` in ascending order. `picked` must have room for one more than
// that, which the scalar pass writes without counting.
void CollectWindow(const std::vector<double>& scores,
                     const std::vector<uint32_t>& ranked, size_t known,
                     uint64_t from, uint64_t span, uint32_t* picked) {
#ifdef VFPS_SIMD_X86
  if (simd::ActiveIsa() == simd::Isa::kAvx512) {
    CollectWindowAvx512(scores.data(), scores.size(), from, span,
                        PrefixEndOf(scores, ranked, known), picked);
    return;
  }
#endif
  // Every id is written and only the window's advance the end, so the pass
  // does not branch on the key.
  size_t count = 0;
  ForEachUnranked(scores, ranked, known, [&](uint64_t key, size_t id) {
    picked[count] = static_cast<uint32_t>(id);
    count += key - from <= span;
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
    std::vector<std::vector<uint32_t>> prefixes_per_party, Scratch scratch) {
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
  for (size_t p = 0; p < scores_per_party.size(); ++p) {
    const std::vector<double>& scores = *scores_per_party[p];
    VFPS_CHECK_ARG(scores.size() == n,
                   "RankedListSet: size mismatch across parties");
    const std::vector<uint32_t>& prefix = prefixes_per_party[p];
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
  }
  RankedListSet set;
  set.scores_ = std::move(scores_per_party);
  set.scratch_ = std::move(scratch);
  std::vector<Ranking>& rankings = set.scratch_.rankings_;
  rankings.resize(set.scores_.size());
  for (size_t p = 0; p < rankings.size(); ++p) {
    // Reset every field; the vectors keep their capacity.
    Ranking& list = rankings[p];
    list.ranked.assign(prefixes_per_party[p].begin(),
                       prefixes_per_party[p].end());
    list.known = list.ranked.size();
    list.keyed = false;
    list.coarse.clear();
    list.scattered = 0;
    list.window_end.clear();
    list.window_next = 0;
    if (list.known == 0) set.Key(p);
  }
  return set;
}

void RankedListSet::Key(size_t party) {
  const std::vector<double>& scores = *scores_[party];
  Ranking& list = scratch_.rankings_[party];
  list.keyed = true;
  const size_t n = scores.size();
  const size_t known = list.known;
  // A prefix of all n items passed the build's order check, so it is the
  // whole ranking.
  if (known == n) return;
  // The key range of an even sample. A known prefix's last key bounds
  // every other item's key from below.
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  const size_t step = std::max<size_t>(1, n / kRangeSample);
  for (size_t id = 0; id < n; id += step) {
    const uint64_t key = OrderKey(scores[id]);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  if (known > 0) {
    lo = std::max(lo, OrderKey(scores[list.ranked[known - 1]]));
    hi = std::max(hi, lo);
  }
  list.lo = lo;
  list.shift = BucketShift(
      hi - lo, std::min(kCoarseBitsMax,
                        static_cast<int>(std::bit_width(std::max<size_t>(
                            1, (n - known) / kItemsPerBucket)))));
  list.coarse.assign(static_cast<size_t>((hi - lo) >> list.shift) + 1, 0);
  const size_t skipped =
      CountCoarse(scores, list.ranked, known, lo, list.shift,
                  list.coarse.size() - 1, list.coarse.data());
  if (skipped != known) {
    Status::InvalidArgument(
        "RankedListSet: known prefix is not the head of the ranking")
        .Abort("RankedListSet::IdAtRank");
  }
}

void RankedListSet::Scatter(size_t party, size_t rank) {
  Ranking& list = scratch_.rankings_[party];
  const std::vector<double>& scores = *scores_[party];
  // Counted past the known prefix: the ranks this set ranked itself.
  const size_t known = list.known;
  const size_t covered = list.ranked.size() - known;
  const size_t target =
      known + std::max({rank + 1 - known, kWindowGrowth * covered,
                        (scores.size() - known) / kFirstWindowShare});
  // Whole coarse buckets, from the first not scattered, until the target is
  // covered; the histogram gives each one's size.
  const size_t first = list.scattered;
  size_t stop = first;
  size_t items = 0;
  while (stop < list.coarse.size() && list.ranked.size() + items < target) {
    items += list.coarse[stop++];
  }
  const uint64_t lo = list.lo;
  const int shift = list.shift;
  const size_t last = list.coarse.size() - 1;
  // The window's buckets hold the keys of [from, from + span]: bucket
  // `first` starts at lo + first·2^shift (the first bucket also takes every
  // key below lo), and bucket stop - 1 ends below lo + stop·2^shift (the
  // last one also takes every key above).
  const uint64_t from = first == 0 ? 0 : lo + (uint64_t{first} << shift);
  const uint64_t span =
      (stop > last ? std::numeric_limits<uint64_t>::max()
                   : lo + (uint64_t{stop} << shift) - 1) -
      from;
  // One streaming pass collects the window's ids in ascending order, then
  // they go into the window's buckets, stably.
  list.picked.resize(items + 1);
  uint32_t* const picked = list.picked.data();
  CollectWindow(scores, list.ranked, known, from, span, picked);
  list.window_end.assign(list.coarse.begin() + first,
                         list.coarse.begin() + stop);
  CountsToStarts(&list.window_end);
  list.window.resize(items);
  Entry* const window = list.window.data();
  uint32_t* const cursor = list.window_end.data();
  for (size_t i = 0; i < items; ++i) {
    const uint64_t key = OrderKey(scores[picked[i]]);
    window[cursor[CoarseBucket(key, lo, shift, last) - first]++] =
        Entry{key, picked[i]};
  }
  list.scattered = stop;
  list.window_next = 0;
}

bool RankedListSet::RankWindowBucket(Ranking* list) {
  const size_t buckets = list->window_end.size();
  size_t w = list->window_next;
  const size_t begin = w == 0 ? 0 : list->window_end[w - 1];
  while (w < buckets && list->window_end[w] == begin) ++w;  // skip empty ones
  if (w == buckets) {
    list->window_end.clear();
    list->window_next = 0;
    return false;
  }
  const size_t count = list->window_end[w] - begin;
  list->window_next = w + 1;
  Entry* const bucket = list->window.data() + begin;
  std::vector<uint32_t>& ranked = list->ranked;
  ranked.resize(ranked.size() + count);
  uint32_t* const out = ranked.data() + ranked.size() - count;
  if (count <= kCountingMax) {
    RankByCounting(bucket, count, out);
    return true;
  }
  uint64_t lo = bucket[0].key;
  uint64_t hi = bucket[0].key;
  for (size_t i = 0; i < count; ++i) {
    lo = std::min(lo, bucket[i].key);
    hi = std::max(hi, bucket[i].key);
  }
  if (lo == hi) {  // equal keys rank in id order, which the bucket holds
    for (size_t i = 0; i < count; ++i) out[i] = bucket[i].id;
    return true;
  }
  // Split over the bucket's own key range, stably, into fine buckets, and
  // rank them in key order.
  const int shift =
      BucketShift(hi - lo, static_cast<int>(std::bit_width(count / 2)));
  std::vector<uint32_t>& fine_end = list->fine_end;
  fine_end.assign(static_cast<size_t>((hi - lo) >> shift) + 1, 0);
  for (size_t i = 0; i < count; ++i) ++fine_end[(bucket[i].key - lo) >> shift];
  CountsToStarts(&fine_end);
  list->fine.resize(count);
  Entry* const fine = list->fine.data();
  for (size_t i = 0; i < count; ++i) {
    fine[fine_end[(bucket[i].key - lo) >> shift]++] = bucket[i];
  }
  size_t fine_begin = 0;
  for (const uint32_t fine_stop : fine_end) {
    RankBucket(fine + fine_begin, fine_stop - fine_begin, out + fine_begin);
    fine_begin = fine_stop;
  }
  return true;
}

void RankedListSet::SortThrough(size_t party, size_t rank) {
  Ranking& list = scratch_.rankings_[party];
  if (!list.keyed) Key(party);
  while (list.ranked.size() <= rank) {
    if (RankWindowBucket(&list)) continue;
    if (list.scattered == list.coarse.size()) {
      Status::OutOfRange("RankedListSet: rank >= number of items")
          .Abort("RankedListSet::IdAtRank");
    }
    Scatter(party, rank);
  }
}

std::vector<uint32_t> RankedListSet::RankedPrefix(size_t party, size_t depth) {
  if (depth == 0) return {};
  IdAtRank(party, depth - 1);
  const std::vector<uint32_t>& ranked = scratch_.rankings_[party].ranked;
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

std::vector<uint64_t> RankedListSet::Marks::TakeSeen(size_t count) {
  std::vector<uint64_t> items(count);
  uint64_t* out = items.data();
  for (size_t w = 0; w < seen.size(); ++w) {
    for (uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      const uint64_t id = w * 64 + static_cast<uint64_t>(std::countr_zero(bits));
      *out++ = id;
      counts[id] = 0;
    }
    seen[w] = 0;
  }
  return items;
}

RankedListSet::Marks& RankedListSet::MergeMarks() {
  // Every entry is zero between merges, so resizing keeps them zero.
  Marks& marks = scratch_.marks_;
  const size_t n = num_items();
  marks.counts.resize(n);
  marks.seen.resize((n + 63) / 64);
  return marks;
}

double RankedListSet::AggregateScore(uint64_t id) const {
  double sum = 0.0;
  for (const SharedScores& scores : scores_) sum += (*scores)[id];
  return sum;
}

}  // namespace vfps::topk
