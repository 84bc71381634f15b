#ifndef VFPS_TOPK_FAGIN_H_
#define VFPS_TOPK_FAGIN_H_

#include "common/result.h"
#include "topk/ranked_list.h"

namespace vfps::obs {
class MetricsRegistry;
}  // namespace vfps::obs

namespace vfps::topk {

/// \brief Fagin's algorithm (FA) for monotone aggregate top-k over P ranked
/// lists, the optimization at the heart of VFPS-SM (paper §IV-B).
///
/// Phase 1: consume the lists round-robin in mini-batches of `batch` rows per
/// party until at least k items have been seen in *all* lists. Phase 2:
/// random-access the remaining scores of every item seen at least once.
/// Phase 3: aggregate and return the k smallest. Correct for any monotone
/// aggregate; here the aggregate is the sum of partial distances.
///
/// \param batch rows revealed per party per round (the protocol's mini-batch
///        size b; 1 reproduces textbook FA).
/// \param obs optional metrics sink: bumps `topk.fagin.*` counters (runs,
///        rounds, sorted_access_depth, sorted/random accesses) and records
///        the candidate-set size in the `topk.fagin.candidates` histogram.
Result<TopkResult> FaginTopk(RankedListSet& lists, size_t k,
                             size_t batch = 1,
                             obs::MetricsRegistry* obs = nullptr);

}  // namespace vfps::topk

#endif  // VFPS_TOPK_FAGIN_H_
