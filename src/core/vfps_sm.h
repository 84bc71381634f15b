#ifndef VFPS_CORE_VFPS_SM_H_
#define VFPS_CORE_VFPS_SM_H_

#include "core/greedy.h"
#include "core/selector.h"
#include "core/similarity.h"

namespace vfps::core {

/// \brief The paper's method: run the (encrypted) federated KNN oracle over
/// a sampled query set, derive the participant-similarity matrix w(p, s),
/// and greedily maximize the KNN submodular function
/// f(S) = sum_p max_{s in S} w(p, s).
///
/// The oracle mode distinguishes VFPS-SM (Fagin-optimized candidate sets)
/// from the VFPS-SM-BASE ablation (every instance encrypted per query).
///
/// Threading: Select() honors SelectionContext::pool — the KNN queries and
/// the similarity-matrix assembly run on the pool when one is supplied, and
/// both stages guarantee bit-identical outputs at any thread count, so the
/// selected set and scores never depend on parallelism. One VfpsSmSelector
/// instance must be driven from one thread at a time (it caches
/// last_similarity()).
///
/// Churn tolerance: when the network has a fault plan, Select() runs a
/// membership loop instead of a single oracle pass. A participant that
/// crashes or leaves (PeerDead) is quarantined and the oracle repaired over
/// the survivors; a join= participant starts absent and is spliced in when a
/// run crosses its threshold; a heal= participant is un-quarantined the same
/// way. Repairs are incremental: a vfl::SelectionCache carries every
/// surviving party's contributions across reruns, so only the membership
/// delta recomputes (select.repair.* metrics quantify this). Exclusions are
/// reported in SelectionOutcome::quarantined / ::absent. Only participants
/// (ids >= 1) can churn; a dead leader or server still fails the run. After
/// a degraded run, last_similarity() is indexed by survivor position, not
/// participant id.
///
/// Checkpoint/resume: SelectionContext::checkpoint captures the finished
/// run's state (membership, neighborhoods, per-party digests, greedy scan);
/// SelectionContext::resume restores it — the oracle phase is skipped and
/// the greedy scan continues from the checkpointed prefix (identical
/// selection to an uninterrupted run; a different target truncates or
/// extends the prefix).
class VfpsSmSelector final : public ParticipantSelector {
 public:
  /// \param mode kFagin for VFPS-SM, kBase for the VFPS-SM-BASE ablation
  ///        (kThreshold selects the TA merge variant).
  explicit VfpsSmSelector(vfl::KnnOracleMode mode) : mode_(mode) {}

  std::string name() const override {
    return mode_ == vfl::KnnOracleMode::kFagin ? "VFPS-SM" : "VFPS-SM-BASE";
  }

  /// \brief Run selection: |Q| encrypted KNN queries, similarity assembly,
  /// then lazy greedy maximization.
  ///
  /// Complexity: the oracle dominates — per query O(P * N * F/P + N log N)
  /// simulated work, encrypting only the Fagin/TA candidate set (or N-1
  /// values under kBase) — followed by O(target * P^2) greedy. Simulated
  /// seconds land on ctx.clock; wall-clock scales with the pool size.
  Result<SelectionOutcome> Select(const SelectionContext& ctx,
                                  size_t target) override;

  /// The similarity matrix of the last Select call (for diagnostics/tests).
  /// Valid until the next Select on this instance.
  const SimilarityMatrix& last_similarity() const { return last_similarity_; }

 private:
  vfl::KnnOracleMode mode_;
  SimilarityMatrix last_similarity_;
};

}  // namespace vfps::core

#endif  // VFPS_CORE_VFPS_SM_H_
