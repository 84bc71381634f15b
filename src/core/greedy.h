#ifndef VFPS_CORE_GREEDY_H_
#define VFPS_CORE_GREEDY_H_

#include <vector>

#include "common/result.h"
#include "core/submodular.h"

namespace vfps::core {

/// \brief Output of a submodular maximizer.
struct GreedyResult {
  std::vector<size_t> selected;  // participants in pick order
  std::vector<double> gains;     // marginal gain realized by each pick
  double value = 0.0;            // f(selected)
  size_t evaluations = 0;        // marginal-gain evaluations performed
};

/// \brief Algorithm 1: plain greedy — at each step add the participant with
/// the largest marginal gain. (1 - 1/e) approximation for the monotone
/// submodular f.
GreedyResult GreedyMaximize(const KnnSubmodularFunction& f, size_t target);

/// \brief Snapshot of a lazy-greedy scan at a pick boundary: the selected
/// prefix, the incremental f(S) accumulators, and the CELF heap's stale
/// bounds. Resuming from it reconstructs the exact heap state, so the
/// continued scan picks the same elements the uninterrupted scan would.
struct GreedyCheckpoint {
  std::vector<size_t> selected;      // greedy prefix in pick order
  std::vector<double> gains;         // marginal gain realized by each pick
  std::vector<double> best;          // Incremental: max_{s in S} w(p, s) per p
  std::vector<double> bounds;        // CELF stale bound per candidate
  std::vector<size_t> bound_rounds;  // round each bound was last evaluated
  double value = 0.0;                // f(prefix)
};

/// \brief Lazy greedy (CELF): exploits submodularity — a participant's gain
/// can only shrink as S grows, so stale upper bounds from earlier rounds
/// prune most re-evaluations. Returns exactly the same selection as plain
/// greedy (modulo equal-gain ties, which both break by smallest index) with
/// far fewer evaluations; an ablation bench quantifies the savings.
///
/// `resume` (nullable) continues a prior scan: a target inside the resumed
/// prefix returns the truncated prefix; a larger target runs only the
/// remaining rounds. `checkpoint_out` (nullable) receives the scan state at
/// the final pick boundary. A resume whose vectors do not match the ground
/// set's size, or whose prefix names a position outside it or twice, is
/// ignored (cold start).
GreedyResult LazyGreedyMaximize(const KnnSubmodularFunction& f, size_t target,
                                const GreedyCheckpoint* resume = nullptr,
                                GreedyCheckpoint* checkpoint_out = nullptr);

/// \brief Exhaustive optimum over all subsets of the target size; exponential
/// in P, only for the approximation-quality ablation (P <= 20).
Result<GreedyResult> ExhaustiveMaximize(const KnnSubmodularFunction& f,
                                        size_t target);

}  // namespace vfps::core

#endif  // VFPS_CORE_GREEDY_H_
