#ifndef VFPS_CORE_CHECKPOINT_H_
#define VFPS_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/greedy.h"
#include "vfl/fed_knn.h"

namespace vfps::core {

/// \brief Serializable snapshot of a VFPS-SM selection run, written by
/// `vfps_cli --checkpoint-out` and consumed by `--resume-from`.
///
/// Contents: the protocol fingerprint (everything that shapes the oracle's
/// output — a resume against a differently-shaped run is rejected), a digest
/// binding the checkpoint to its training data and partition, the
/// membership state at checkpoint time, the oracle's query neighborhoods with
/// their per-party d_T aggregates, a CRC-32 digest of each party's d_T stream
/// (cheap tamper/drift detection per participant), and the lazy-greedy scan
/// state (GreedyCheckpoint) so a resumed selection continues the greedy scan
/// from its checkpointed prefix instead of restarting it.
///
/// Wire format: the 8-byte magic "VFPSCKP3" followed by one CRC-framed body
/// (common/buffer WriteCrcFramed) — any bit flip in the body fails the load
/// with a Corrupt status instead of resuming from garbage. The CRC guards
/// against accidental damage only; Deserialize() also checks every element
/// count against the bytes left before allocating, so a crafted count is
/// Corrupt too rather than an allocation failure.
struct SelectionCheckpoint {
  // --- Protocol fingerprint ---
  uint64_t seed = 0;
  int64_t mode = 0;  // static_cast of vfl::KnnOracleMode
  uint64_t k = 0;
  uint64_t num_queries = 0;
  uint64_t fagin_batch = 0;
  uint64_t query_group = 0;
  uint64_t n_rows = 0;            // training rows
  uint64_t num_participants = 0;  // P
  /// Shard layout of the oracle run (FedKnnConfig::shards /
  /// prefilter_clusters). Part of the fingerprint: a resume under a
  /// different shard count or pre-filter setting is rejected, because the
  /// pre-filter changes the neighborhoods and per-shard stats/costs differ.
  uint64_t shards = 1;
  uint64_t prefilter_clusters = 0;
  /// ComputeDataDigest() of the run's standardized training features and
  /// column partition. VfpsSmSelector::Select() rejects a resume whose
  /// training data or partition give a different digest (same N and P are
  /// not enough: a random and a stratified partition of one dataset look
  /// alike to the other fields). Adding it bumped the wire magic to
  /// VFPSCKP3, so older files fail with a clear bad-magic error instead of
  /// misparsing.
  uint32_t data_digest = 0;
  uint64_t target = 0;  // selection target of the checkpointed run

  // --- Membership at checkpoint time ---
  std::vector<uint64_t> quarantined;
  std::vector<uint64_t> absent;
  std::vector<uint64_t> joined;
  std::vector<uint64_t> healed;

  // --- Oracle output over the final membership ---
  std::vector<vfl::QueryNeighborhood> neighborhoods;
  /// CRC-32 over participant p's d_T^p stream in query order (one digest per
  /// participant, quarantined slots digest their zero placeholders).
  std::vector<uint32_t> party_digests;

  // --- Greedy scan state ---
  GreedyCheckpoint greedy;
  double value = 0.0;  // f(selected prefix)

  std::vector<uint8_t> Serialize() const;
  static Result<SelectionCheckpoint> Deserialize(
      const std::vector<uint8_t>& bytes);

  Status SaveFile(const std::string& path) const;
  static Result<SelectionCheckpoint> LoadFile(const std::string& path);

  /// InvalidArgument (with the first mismatching field named) unless this
  /// checkpoint's fingerprint matches the given run shape. `target` is
  /// deliberately NOT part of the comparison: resuming with a different
  /// target truncates or extends the greedy prefix.
  Status CompatibleWith(uint64_t run_seed, int64_t run_mode, uint64_t run_k,
                        uint64_t run_num_queries, uint64_t run_fagin_batch,
                        uint64_t run_query_group, uint64_t run_n_rows,
                        uint64_t run_num_participants, uint64_t run_shards,
                        uint64_t run_prefilter_clusters) const;

  /// The per-participant digests for a neighborhood set: digest p accumulates
  /// p's d_T value of every query in query order.
  static std::vector<uint32_t> ComputePartyDigests(
      const std::vector<vfl::QueryNeighborhood>& neighborhoods,
      size_t num_participants);

  /// CRC-32 over the training matrix's shape and feature bytes (row-major)
  /// followed by each party's column list, every list prefixed by its size.
  /// Computed only when a checkpoint is written or resumed.
  static uint32_t ComputeDataDigest(const data::Dataset& train,
                                    const data::VerticalPartition& partition);
};

}  // namespace vfps::core

#endif  // VFPS_CORE_CHECKPOINT_H_
