#ifndef VFPS_TOPK_THRESHOLD_H_
#define VFPS_TOPK_THRESHOLD_H_

#include "common/result.h"
#include "topk/ranked_list.h"

namespace vfps::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace vfps::obs

namespace vfps::topk {

/// \brief Handles of the `topk.ta.*` series, resolved once (see
/// FaginMetrics). Default: records nothing.
struct ThresholdMetrics {
  obs::Counter* runs = nullptr;
  obs::Counter* sorted_access_depth = nullptr;
  obs::Counter* sorted_accesses = nullptr;
  obs::Counter* random_accesses = nullptr;
  obs::Histogram* candidates = nullptr;  // candidate-set size per run

  /// Every series from `obs`; records nothing when `obs` is null.
  static ThresholdMetrics Resolve(obs::MetricsRegistry* obs);
  /// Count one run.
  void Record(const TopkResult& result) const;
};

/// \brief Threshold algorithm (TA, Fagin-Lotem-Naor) for the same problem:
/// sorted access round-robin, immediate random access per new item, stop once
/// the k-th best aggregate is no worse than the threshold (sum of the scores
/// at the current sorted-access frontier). Usually stops at a smaller depth
/// than FA at the price of more random accesses; VFPS-SM supports it as an
/// alternative top-k oracle (paper §IV-B "also supports other algorithms").
/// A successful run is counted in `metrics`.
Result<TopkResult> ThresholdTopk(RankedListSet& lists, size_t k,
                                 const ThresholdMetrics& metrics);

/// The same, counting a successful run in `obs` (optional) as the analogous
/// `topk.ta.*` metrics; looks the series up on every call.
Result<TopkResult> ThresholdTopk(RankedListSet& lists, size_t k,
                                 obs::MetricsRegistry* obs = nullptr);

}  // namespace vfps::topk

#endif  // VFPS_TOPK_THRESHOLD_H_
