#ifndef VFPS_NET_FAULT_H_
#define VFPS_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "net/network.h"

namespace vfps::net {

/// \brief A participant (or server) that dies for good: once `node` has
/// transmitted `after_sends` messages it emits nothing further, and peers
/// eventually observe PeerDead. Counted per fault stream, i.e. per
/// SimNetwork — under the parallel per-query fan-out each query task sees
/// the crash unfold independently against its task-local network.
struct CrashRule {
  NodeId node = 0;
  uint64_t after_sends = 1;
};

/// \brief A transient straggler: starting with its `after_sends`-th
/// transmission, `node` loses `drop_count` consecutive sends (they are
/// metered but never delivered), then recovers. Unlike a crash, a stall is
/// absorbable by the retry layer.
struct StallRule {
  NodeId node = 0;
  uint64_t after_sends = 1;
  uint64_t drop_count = 1;
};

/// \brief A graceful departure: identical to a crash at the transport level
/// (once `node` has transmitted `after_sends` messages it emits nothing
/// further), but reported separately via DepartedNodes() so the selection
/// layer can distinguish "left the consortium" from "died" when deciding
/// how to repair. Counted per fault stream, like CrashRule.
struct LeaveRule {
  NodeId node = 1;
  uint64_t after_sends = 1;
};

/// \brief A late arrival: `node` is absent from the consortium at stream
/// start (NodeAbsent() is true) and becomes eligible to join once the
/// stream-total send counter reaches `after_sends`. Join rules never touch
/// the transport — an absent node simply isn't scheduled by the selection
/// layer; JoinedNodes() reports the threshold crossing so the selector can
/// splice the newcomer in on its next pass.
struct JoinRule {
  NodeId node = 1;
  uint64_t after_sends = 1;
};

/// \brief A revival: once the stream-total send counter reaches
/// `after_sends`, `node` is no longer considered dead — both crash and
/// leave rules for it stop applying. The selection layer observes the
/// crossing via HealedNodes() and un-quarantines the node; MarkHealed()
/// lets it pre-apply that decision to later fault streams (whose counters
/// start from zero and would otherwise re-fire the crash).
struct HealRule {
  NodeId node = 1;
  uint64_t after_sends = 1;
};

/// \brief A network partition: while the stream-total send counter is in
/// [`after_sends`, `after_sends + drop_count`), every message to or from
/// `node` is metered but lost, in both directions. A short partition is
/// absorbed by the retry layer like a stall; a long one exhausts the retry
/// budget and surfaces as PeerDead with the partitioned node as suspect.
struct PartitionRule {
  NodeId node = 1;
  uint64_t after_sends = 1;
  uint64_t drop_count = 1;
};

/// \brief Seeded fault schedule consulted on every SimNetwork delivery.
///
/// Probabilities apply independently per message, drawn from the stream seed
/// passed to SimNetwork::EnableFaults — the same (spec, seed) pair always
/// reproduces the same fault sequence. The zero value (all probabilities 0,
/// no crash/stall rules) means "no faults" and is the library-wide default.
struct FaultSpec {
  double drop_prob = 0.0;       // message vanishes after being metered
  double duplicate_prob = 0.0;  // message is delivered twice
  double corrupt_prob = 0.0;    // one random payload bit is flipped
  double delay_prob = 0.0;      // message is late by delay_seconds
  double delay_seconds = 0.0;   // extra simulated latency when delay fires
  std::vector<CrashRule> crashes;
  std::vector<StallRule> stalls;
  std::vector<LeaveRule> leaves;
  std::vector<JoinRule> joins;
  std::vector<HealRule> heals;
  std::vector<PartitionRule> partitions;

  /// True if any rule can ever fire; false selects the pristine transport.
  bool any() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 || corrupt_prob > 0.0 ||
           delay_prob > 0.0 || !crashes.empty() || !stalls.empty() ||
           !leaves.empty() || !joins.empty() || !heals.empty() ||
           !partitions.empty();
  }

  /// Participants that start outside the consortium (have a join= rule),
  /// ascending and deduplicated. The selection layer excludes these from the
  /// initial membership and admits them when JoinedNodes() reports them.
  std::vector<NodeId> InitialAbsentees() const;

  /// Rejects probabilities outside [0, 1] and rules naming invalid nodes.
  Status Validate() const;

  /// Rejects a rule naming a node a run with `participants` participants
  /// (ids 0..participants-1) does not have: a participant id >=
  /// `participants`, or a negative id other than the aggregation and key
  /// servers. Such a rule would never fire.
  Status CheckNodes(size_t participants) const;
};

/// \brief Parse the CLI `--fault-spec` mini-language: comma-separated
/// `key=value` terms.
///
///   drop=0.05            drop probability
///   dup=0.01             duplicate probability
///   corrupt=0.02         bit-corruption probability
///   delay=0.1:0.05       delay probability : extra seconds
///   crash=2@40           participant 2 dies after sending 40 messages
///   stall=3@10+5         participant 3 loses sends 10..14, then recovers
///   leave=2@40           participant 2 departs gracefully after 40 sends
///   join=3@25            participant 3 is absent, joins once the stream
///                        total reaches 25 sends
///   heal=2@60            participant 2 revives once the stream total
///                        reaches 60 sends (clears crash/leave state)
///   part=3@10+20         messages to/from participant 3 are lost while the
///                        stream total is in [10, 30)
///
/// Example: "drop=0.05,delay=0.2:0.01,crash=2@40". Empty input yields the
/// zero (fault-free) spec.
Result<FaultSpec> ParseFaultSpec(const std::string& text);

/// \brief The seeded decision engine behind a fault-injected SimNetwork.
///
/// One injector per network; the network asks it what to do with each send.
/// All randomness comes from the single constructor seed, and decisions are
/// drawn in a fixed order per send (drop, duplicate, corrupt, delay), so the
/// fault sequence is a pure function of (spec, seed, send sequence).
/// Thread-safety: none — owned and driven by one SimNetwork.
class FaultInjector {
 public:
  FaultInjector(const FaultSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {}

  /// The fate of one message from `from` to `to`.
  struct Delivery {
    bool sender_dead = false;  // emit nothing, meter nothing
    bool dropped = false;      // meter, do not enqueue
    bool duplicate = false;    // enqueue twice
    bool corrupt = false;      // flip payload bit (corrupt_bit % payload bits)
    uint64_t corrupt_bit = 0;
    double extra_delay = 0.0;  // simulated seconds to charge the clock
  };

  /// Consult the schedule for the next send on (from -> to). Advances the
  /// fault stream, the per-node send counters, and the stream-total counter
  /// (the stream-total advances on every call, even swallowed sends — it is
  /// the stream's clock, against which join/heal/partition thresholds fire).
  Delivery OnSend(NodeId from, NodeId to);

  /// True once `node` crossed a crash or leave threshold and has not healed.
  bool NodeDead(NodeId node) const;

  /// True while `node` has a join rule whose threshold the stream-total has
  /// not reached (and the node was not pre-admitted via MarkJoined).
  bool NodeAbsent(NodeId node) const;

  /// Every node currently considered dead (crashed or departed), ascending.
  std::vector<NodeId> DeadNodes() const;

  /// Dead nodes that left via a leave= rule (graceful departures),
  /// ascending. Always a subset of DeadNodes().
  std::vector<NodeId> DepartedNodes() const;

  /// Join-rule nodes whose threshold the stream-total reached (or that were
  /// pre-admitted via MarkJoined), ascending.
  std::vector<NodeId> JoinedNodes() const;

  /// Heal-rule nodes whose threshold the stream-total reached, ascending.
  std::vector<NodeId> HealedNodes() const;

  /// Pre-apply a heal decided on an earlier fault stream: `node` is never
  /// considered dead by this injector, regardless of its crash/leave rules.
  /// Without this, a healed node re-fires its crash rule on every later
  /// stream (whose counters restart from zero) and oscillates in and out of
  /// quarantine.
  void MarkHealed(NodeId node) { pre_healed_.insert(node); }

  /// Pre-apply a join admitted on an earlier fault stream: `node` is never
  /// considered absent by this injector.
  void MarkJoined(NodeId node) { pre_joined_.insert(node); }

  const FaultSpec& spec() const { return spec_; }

 private:
  bool NodeHealed(NodeId node) const;

  FaultSpec spec_;
  Rng rng_;
  std::map<NodeId, uint64_t> sends_by_node_;
  uint64_t total_sends_ = 0;
  std::set<NodeId> pre_healed_;
  std::set<NodeId> pre_joined_;
};

}  // namespace vfps::net

#endif  // VFPS_NET_FAULT_H_
