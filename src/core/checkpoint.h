#ifndef VFPS_CORE_CHECKPOINT_H_
#define VFPS_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/greedy.h"
#include "vfl/fed_knn.h"
#include "vfl/protocol_shape.h"

namespace vfps::core {

/// \brief Serializable snapshot of a VFPS-SM selection run, written by
/// `vfps_cli --checkpoint-out` and consumed by `--resume-from`.
///
/// Contents: the run's vfl::ProtocolShape (the one definition of the shape;
/// a resume under another one is rejected), the membership state at
/// checkpoint time, the oracle's query neighborhoods with their per-party
/// d_T aggregates, a CRC-32 digest of each party's d_T stream (cheap
/// tamper/drift detection per participant), and the lazy-greedy scan state
/// (GreedyCheckpoint) so a resumed selection continues the greedy scan from
/// its checkpointed prefix instead of restarting it.
///
/// Wire format: the 8-byte magic "VFPSCKP3" followed by one CRC-framed body
/// (common/buffer WriteCrcFramed) that opens with ProtocolShape::Write() —
/// any bit flip in the body fails the load with a Corrupt status instead of
/// resuming from garbage. The CRC guards against accidental damage only;
/// Deserialize() also checks every element count against the bytes left
/// before allocating, so a crafted count is Corrupt too rather than an
/// allocation failure.
struct SelectionCheckpoint {
  /// The checkpointed run's shape; a resume must match it. The target is
  /// deliberately not shape: resuming with another target truncates or
  /// extends the greedy prefix.
  vfl::ProtocolShape shape;
  uint64_t target = 0;  // selection target of the checkpointed run

  // --- Membership at checkpoint time ---
  std::vector<size_t> quarantined;
  std::vector<size_t> absent;
  std::vector<size_t> joined;
  std::vector<size_t> healed;

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

  /// Corrupt unless the state fits the shape's P, as a resume indexes by
  /// participant: membership ids in [1, P), P d_T values per neighborhood,
  /// and per-party digests that match those values.
  Status CheckConsistent() const;

  /// The per-participant digests for a neighborhood set: digest p accumulates
  /// p's d_T value of every query in query order.
  static std::vector<uint32_t> ComputePartyDigests(
      const std::vector<vfl::QueryNeighborhood>& neighborhoods,
      size_t num_participants);
};

}  // namespace vfps::core

#endif  // VFPS_CORE_CHECKPOINT_H_
