#ifndef VFPS_TOPK_THRESHOLD_H_
#define VFPS_TOPK_THRESHOLD_H_

#include "common/result.h"
#include "topk/ranked_list.h"

namespace vfps::obs {
class MetricsRegistry;
}  // namespace vfps::obs

namespace vfps::topk {

/// \brief Threshold algorithm (TA, Fagin-Lotem-Naor) for the same problem:
/// sorted access round-robin, immediate random access per new item, stop once
/// the k-th best aggregate is no worse than the threshold (sum of the scores
/// at the current sorted-access frontier). Usually stops at a smaller depth
/// than FA at the price of more random accesses; VFPS-SM supports it as an
/// alternative top-k oracle (paper §IV-B "also supports other algorithms").
/// `obs` (optional) receives the analogous `topk.ta.*` metrics.
Result<TopkResult> ThresholdTopk(RankedListSet& lists, size_t k,
                                 obs::MetricsRegistry* obs = nullptr);

}  // namespace vfps::topk

#endif  // VFPS_TOPK_THRESHOLD_H_
