#ifndef VFPS_CORE_SELECTOR_H_
#define VFPS_CORE_SELECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "he/backend.h"
#include "net/cost_model.h"
#include "net/network.h"
#include "vfl/fed_knn.h"

namespace vfps::obs {
class MetricsRegistry;
}  // namespace vfps::obs

namespace vfps::core {

struct SelectionCheckpoint;  // core/checkpoint.h

/// Participant-selection methods evaluated in the paper.
enum class SelectionMethod {
  kAll,         // no selection: train with every participant
  kRandom,      // uniform random subset
  kShapley,     // Shapley values over the federated-KNN proxy utility
  kVfMine,      // VF-MINE: mutual-information group scoring
  kVfpsSm,      // this paper: submodular maximization + Fagin-optimized KNN
  kVfpsSmBase,  // ablation: same, with the encrypt-everything KNN oracle
};

const char* SelectionMethodName(SelectionMethod method);
Result<SelectionMethod> ParseSelectionMethod(const std::string& name);

/// \brief Everything a selector needs: the data, the simulated deployment,
/// and method hyper-parameters.
///
/// All pointers are borrowed: the caller owns the objects and must keep them
/// alive for the duration of Select(). One context must not be used by two
/// selectors concurrently (the deployment objects it points at are not
/// thread-safe); selectors parallelize internally through `pool`.
struct SelectionContext {
  const data::DataSplit* split = nullptr;  // standardized joint feature views
  const data::VerticalPartition* partition = nullptr;
  he::HeBackend* backend = nullptr;
  net::SimNetwork* network = nullptr;
  const net::CostModel* cost = nullptr;
  SimClock* clock = nullptr;  // charged with selection-phase time
  /// Optional worker pool. When non-null (and > 1 thread), the encrypted-KNN
  /// oracle runs its queries in parallel and the similarity matrix is
  /// assembled threaded; results are bit-identical to the serial path (see
  /// vfl::FederatedKnnOracle). nullptr selects the serial path.
  ThreadPool* pool = nullptr;
  /// Optional metrics/tracing sink. When non-null, selectors publish
  /// `select.*` counters and phase spans, and the deployment objects they
  /// build (oracle, task-local networks) inherit it. nullptr (the default)
  /// disables all observability at the cost of a branch per site.
  obs::MetricsRegistry* obs = nullptr;

  vfl::FedKnnConfig knn;  // oracle settings (k, |Q|, Fagin batch, seed)
  uint64_t seed = 42;

  /// Resume state (nullable; VFPS-SM variants only): a checkpoint previously
  /// saved via `checkpoint`, validated against this run's shape. On a
  /// match the oracle phase is skipped entirely and the greedy scan continues
  /// from the checkpointed prefix; on a mismatch Select() fails typed.
  const SelectionCheckpoint* resume = nullptr;
  /// When non-null (VFPS-SM variants only), Select() fills it with the
  /// completed run's state — membership, neighborhoods, per-party digests,
  /// and the greedy scan at its final pick boundary — for --checkpoint-out.
  SelectionCheckpoint* checkpoint = nullptr;

  /// Validation rows used as the utility-evaluation set by SHAPLEY / VF-MINE.
  size_t utility_queries = 32;
  /// SHAPLEY enumerates all 2^P coalitions up to this P; beyond it, Shapley
  /// values are Monte-Carlo estimated and the remaining coalition cost is
  /// extrapolated onto the clock (documented in EXPERIMENTS.md).
  size_t shapley_exact_limit = 12;
  size_t shapley_mc_permutations = 16;
};

/// \brief A selection decision plus its accounting.
struct SelectionOutcome {
  std::vector<size_t> selected;  // ascending participant ids
  /// Per-participant score in the method's own currency (marginal gain,
  /// Shapley value, MI, ...); empty for RANDOM.
  std::vector<double> scores;
  double sim_seconds = 0.0;       // simulated selection time
  vfl::FedKnnStats knn_stats;     // populated by the VFPS-SM variants
  /// Participants that crashed mid-protocol and were excluded by graceful
  /// degradation (ascending ids). Empty in a healthy run. Quarantined
  /// participants are never in `selected` and keep a 0.0 score.
  std::vector<size_t> quarantined;
  /// Participants whose join= rule never fired during the run (ascending
  /// ids): they were not part of the consortium for any completed oracle
  /// pass, are never in `selected`, and keep a 0.0 score.
  std::vector<size_t> absent;
};

/// \brief Interface implemented by every selection method.
class ParticipantSelector {
 public:
  virtual ~ParticipantSelector() = default;

  /// Method name as it appears in CLI flags and result tables ("vfps-sm",
  /// "shapley", ...). Stable across runs; safe to key result files on.
  virtual std::string name() const = 0;

  /// \brief Choose `target` of the ctx.partition->size() participants.
  ///
  /// \param ctx borrowed deployment + hyper-parameters; see SelectionContext
  ///        for lifetime and threading rules.
  /// \param target how many participants to keep, 1 <= target <= P.
  /// \return the selected ids (ascending), per-participant scores, and the
  ///         simulated selection-phase seconds charged to ctx.clock.
  ///
  /// Deterministic for a fixed (ctx seeds, target) at any thread count.
  /// Complexity is method-specific: VFPS-SM runs |Q| encrypted KNN queries
  /// plus an O(P^2 * target) greedy pass; SHAPLEY runs up to 2^P coalition
  /// evaluations (Monte-Carlo beyond shapley_exact_limit).
  virtual Result<SelectionOutcome> Select(const SelectionContext& ctx,
                                          size_t target) = 0;
};

/// \brief Factory for the method implementations.
///
/// kAll is not a selector (there is nothing to select); asking for it
/// returns InvalidArgument. The returned selector is stateless between
/// Select() calls and may be reused across experiments.
Result<std::unique_ptr<ParticipantSelector>> CreateSelector(
    SelectionMethod method);

/// \brief Validate that a context is fully populated (shared by
/// implementations): non-null data/deployment pointers, a consistent
/// partition, and 1 <= target <= P. Returns InvalidArgument otherwise.
Status ValidateContext(const SelectionContext& ctx, size_t target);

}  // namespace vfps::core

#endif  // VFPS_CORE_SELECTOR_H_
