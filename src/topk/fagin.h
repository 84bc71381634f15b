#ifndef VFPS_TOPK_FAGIN_H_
#define VFPS_TOPK_FAGIN_H_

#include "common/result.h"
#include "topk/ranked_list.h"

namespace vfps::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace vfps::obs

namespace vfps::topk {

/// \brief Handles of the `topk.fagin.*` series, resolved once so that a
/// caller running many merges (the oracle's query tasks) records each run
/// without the registry's locked name lookups. Default: records nothing.
struct FaginMetrics {
  obs::Counter* runs = nullptr;
  obs::Counter* rounds = nullptr;
  obs::Counter* sorted_access_depth = nullptr;
  obs::Counter* sorted_accesses = nullptr;
  obs::Counter* random_accesses = nullptr;
  obs::Histogram* candidates = nullptr;  // candidate-set size per run

  /// Every series from `obs`; records nothing when `obs` is null.
  static FaginMetrics Resolve(obs::MetricsRegistry* obs);
  /// Count one run that consumed its lists in mini-batches of `batch`.
  void Record(const TopkResult& result, size_t batch) const;
};

/// \brief Phase 1 of Fagin's algorithm alone: consume the lists round-robin
/// in mini-batches of `batch` rows per party until at least k items have
/// been seen in *all* lists (or the lists end). Returns the candidate set
/// (every item seen at least once, ascending), the depth and the access
/// counts the full algorithm reports; `ids` stays empty. This is all the
/// VFPS-SM oracle needs: the aggregation of the candidates is the encrypted
/// round that follows. Counts each run in `metrics` as FaginTopk does, and
/// works in the set's merge marks, so it allocates only the candidate list.
///
/// \param batch rows revealed per party per round (the protocol's mini-batch
///        size b; 1 reproduces textbook FA).
Result<TopkResult> FaginPhase1(RankedListSet& lists, size_t k, size_t batch,
                               const FaginMetrics& metrics);

/// \brief Fagin's algorithm (FA) for monotone aggregate top-k over P ranked
/// lists, the optimization at the heart of VFPS-SM (paper §IV-B).
///
/// Phase 1 is FaginPhase1. Phase 2: random-access the remaining scores of
/// every item seen at least once. Phase 3: aggregate and return the k
/// smallest. Correct for any monotone aggregate; here the aggregate is the
/// sum of partial distances.
///
/// \param batch rows revealed per party per round (see FaginPhase1).
/// \param metrics where a successful run is counted (see FaginMetrics).
Result<TopkResult> FaginTopk(RankedListSet& lists, size_t k, size_t batch,
                             const FaginMetrics& metrics);

/// The same, counting a successful run in `obs` (optional): the
/// `topk.fagin.*` counters (runs, rounds, sorted_access_depth, sorted/random
/// accesses) and the `topk.fagin.candidates` histogram. Looks the series up
/// on every call.
Result<TopkResult> FaginTopk(RankedListSet& lists, size_t k,
                             size_t batch = 1,
                             obs::MetricsRegistry* obs = nullptr);

}  // namespace vfps::topk

#endif  // VFPS_TOPK_FAGIN_H_
