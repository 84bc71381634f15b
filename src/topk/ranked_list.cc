#include "topk/ranked_list.h"

#include <array>
#include <cstring>
#include <numeric>

#include "common/macros.h"

namespace vfps::topk {

Result<RankedListSet> RankedListSet::Build(
    std::vector<std::vector<double>> scores_per_party) {
  VFPS_CHECK_ARG(!scores_per_party.empty(), "RankedListSet: need >= 1 party");
  const size_t n = scores_per_party[0].size();
  VFPS_CHECK_ARG(n > 0, "RankedListSet: empty score lists");
  for (const auto& scores : scores_per_party) {
    VFPS_CHECK_ARG(scores.size() == n, "RankedListSet: size mismatch across parties");
  }
  RankedListSet set;
  set.scores_ = std::move(scores_per_party);
  set.order_.resize(set.scores_.size());
  for (size_t p = 0; p < set.scores_.size(); ++p) {
    set.order_[p] = SortedOrder(set.scores_[p]);
  }
  return set;
}

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

}  // namespace

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

Result<RankedListSet> RankedListSet::BuildPresorted(
    std::vector<std::vector<double>> scores_per_party,
    std::vector<std::vector<uint64_t>> orders_per_party) {
  VFPS_CHECK_ARG(!scores_per_party.empty(), "RankedListSet: need >= 1 party");
  VFPS_CHECK_ARG(scores_per_party.size() == orders_per_party.size(),
                 "RankedListSet: scores/orders party-count mismatch");
  const size_t n = scores_per_party[0].size();
  VFPS_CHECK_ARG(n > 0, "RankedListSet: empty score lists");
  for (size_t p = 0; p < scores_per_party.size(); ++p) {
    VFPS_CHECK_ARG(scores_per_party[p].size() == n,
                   "RankedListSet: size mismatch across parties");
    VFPS_CHECK_ARG(orders_per_party[p].size() == n,
                   "RankedListSet: order/scores size mismatch");
  }
  RankedListSet set;
  set.scores_ = std::move(scores_per_party);
  set.order_ = std::move(orders_per_party);
  return set;
}

double RankedListSet::AggregateScore(uint64_t id) const {
  double sum = 0.0;
  for (const auto& scores : scores_) sum += scores[id];
  return sum;
}

}  // namespace vfps::topk
