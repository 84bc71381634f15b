#ifndef VFPS_NET_NETWORK_H_
#define VFPS_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "obs/trace.h"

namespace vfps::obs {
class Counter;
class MetricsRegistry;
}  // namespace vfps::obs

namespace vfps::net {

struct FaultSpec;
class FaultInjector;

/// \brief Logical node identifier in the simulated cluster.
///
/// The paper's deployment has three roles besides the participants: a key
/// server (distributes the HE key pair), an aggregation server (homomorphic
/// sums), and the leader (participant 0, holds the labels). Participants are
/// numbered 0..P-1; the special roles use reserved negative ids.
using NodeId = int;

constexpr NodeId kAggregationServer = -1;
constexpr NodeId kKeyServer = -2;

/// Human-readable node name for logs ("participant 3", "agg-server", ...).
std::string NodeName(NodeId id);

/// \brief Per-direction traffic counters.
struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;

  void Merge(const TrafficStats& o) {
    messages += o.messages;
    bytes += o.bytes;
  }
};

/// \brief Counters of injected faults that actually fired on one network
/// (folded across task-local networks by MergeStatsFrom, like TrafficStats).
struct FaultStats {
  uint64_t dropped = 0;     // messages metered but never delivered
  uint64_t duplicated = 0;  // extra deliveries enqueued
  uint64_t corrupted = 0;   // payloads with a flipped bit
  uint64_t delayed = 0;     // messages charged extra latency
  double delay_seconds = 0.0;
  uint64_t swallowed_dead = 0;  // sends from or to a crashed node

  void Merge(const FaultStats& o) {
    dropped += o.dropped;
    duplicated += o.duplicated;
    corrupted += o.corrupted;
    delayed += o.delayed;
    delay_seconds += o.delay_seconds;
    swallowed_dead += o.swallowed_dead;
  }
  bool any() const {
    return dropped + duplicated + corrupted + delayed + swallowed_dead > 0;
  }
};

/// \brief In-process message transport with exact byte metering.
///
/// This replaces the paper's gRPC links between AWS instances. Protocol code
/// is written as explicit Send/Recv pairs per directed link (FIFO order per
/// link), which both documents the communication pattern and lets the cost
/// model convert metered traffic into simulated wall-clock time. Payloads are
/// opaque byte strings produced by BinaryWriter, so what is metered is
/// exactly what a real deployment would serialize.
///
/// Fault injection: EnableFaults attaches a seeded FaultPlan (net/fault.h)
/// that is consulted on every Send — messages may then be dropped,
/// duplicated, bit-corrupted, delayed (the extra latency is charged to the
/// supplied SimClock), or swallowed because a node crashed or stalled. With
/// no plan attached (the default), the fast path is a single null-pointer
/// check and behavior is bit-identical to the pristine transport. Protocol
/// code that must survive injected faults goes through net::ReliableChannel
/// (channel.h) rather than raw Send/Recv.
///
/// Thread-safety: NOT thread-safe — one SimNetwork must only be driven from
/// one thread at a time. Parallel protocol code gives each task its own
/// SimNetwork and merges metering with MergeStatsFrom() afterwards; each
/// task-local network gets its own fault stream seed, pre-derived serially,
/// so fault schedules are reproducible at any thread count.
class SimNetwork {
 public:
  SimNetwork();
  ~SimNetwork();
  SimNetwork(SimNetwork&&) noexcept;
  SimNetwork& operator=(SimNetwork&&) noexcept;

  /// Enqueue a payload on the (from -> to) link.
  ///
  /// When a Tracer is attached (via set_metrics on a registry with tracing
  /// enabled) the sender's current obs::TraceContext is stamped on the
  /// envelope as side-band metadata — it rides alongside the payload, is NOT
  /// part of the metered bytes (so byte metering and the simulated cost
  /// model stay bit-identical to an untraced run), and is surfaced to the
  /// receiver via last_recv_context(). Injected fault fates additionally
  /// record zero-duration trace instants (net.fault.*) parented under the
  /// sender's open span.
  Status Send(NodeId from, NodeId to, std::vector<uint8_t> payload);

  /// Dequeue the oldest payload on the (from -> to) link; ProtocolError if
  /// the link is empty (a send/recv mismatch in the protocol, or every copy
  /// of the expected message was lost to injected faults). The message names
  /// both endpoints and reports the link's delivery counters.
  Result<std::vector<uint8_t>> Recv(NodeId from, NodeId to);

  /// Trace context stamped by the sender of the payload most recently
  /// returned by a successful Recv() (zero when the sender had no open span
  /// or tracing is disabled). A duplicate delivery carries the same context
  /// as the original, so the receive side can attach protocol events to the
  /// causal branch that actually produced the bytes.
  obs::TraceContext last_recv_context() const { return last_recv_context_; }

  /// Number of undelivered payloads across all links.
  size_t PendingCount() const;

  /// Totals over all links since construction or the last ResetStats().
  const TrafficStats& total() const { return total_; }

  /// Traffic that left `node` / arrived at `node`.
  TrafficStats SentBy(NodeId node) const;
  TrafficStats ReceivedBy(NodeId node) const;

  /// Per-link traffic (from -> to).
  TrafficStats LinkStats(NodeId from, NodeId to) const;

  void ResetStats();

  /// Fold another network's per-link, total, and fault counters into this
  /// one (queued payloads are NOT transferred). Used by the parallel
  /// encrypted-KNN path: each query task runs its self-contained protocol
  /// against a task-local SimNetwork, and the main network absorbs the
  /// metering afterwards in deterministic query order.
  void MergeStatsFrom(const SimNetwork& other);

  /// Attach a seeded fault plan. `clock` (borrowed, may not be null) receives
  /// the injected-latency charges; the same (spec, seed) always reproduces
  /// the same fault schedule. Replaces any previously attached plan.
  void EnableFaults(const FaultSpec& spec, uint64_t seed, SimClock* clock);

  /// True once EnableFaults was called (even with an all-zero spec).
  bool faults_enabled() const { return injector_ != nullptr; }

  /// The attached fault plan, or nullptr. The seed is exposed so protocol
  /// layers can derive per-task fault streams from it serially.
  const FaultSpec* fault_spec() const;
  uint64_t fault_seed() const { return fault_seed_; }

  /// True if `node` crossed a crash/leave threshold on this network's
  /// stream, or was marked suspect by the retry layer.
  bool NodeDead(NodeId node) const;

  /// All dead nodes on this network's stream (crashed, departed, or
  /// suspected after retry exhaustion), ascending.
  std::vector<NodeId> DeadNodes() const;

  /// Dead nodes that departed via a leave= rule, ascending.
  std::vector<NodeId> DepartedNodes() const;

  /// Join-rule nodes whose threshold this stream crossed, ascending.
  std::vector<NodeId> JoinedNodes() const;

  /// Heal-rule nodes whose threshold this stream crossed, ascending.
  std::vector<NodeId> HealedNodes() const;

  /// True while `node` has an unreached join= threshold on this stream.
  bool NodeAbsent(NodeId node) const;

  /// Declare `node` unreachable: ReliableChannel calls this when its retry
  /// budget is exhausted on a link, so the selection layer can quarantine
  /// the suspect endpoint even though no crash rule fired (e.g. a long
  /// partition). Suspects are reported by NodeDead()/DeadNodes().
  void SuspectDead(NodeId node);

  /// Forwarded to the attached injector (no-ops without one): pre-apply a
  /// heal/join decided on an earlier fault stream.
  void MarkHealed(NodeId node);
  void MarkJoined(NodeId node);

  /// Faults that fired on this network (plus everything merged into it).
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Attach (or detach, with nullptr) a metrics registry: every metered send
  /// bumps `net.messages`/`net.bytes_sent` and every fired fault bumps its
  /// `net.faults.*` counter, live. Handles are cached, so the disabled path
  /// is one null check in Meter(). Not thread-safe; set before use. Task-
  /// local networks attach the parent's registry (see FederatedKnnOracle) —
  /// MergeStatsFrom deliberately does NOT republish merged counters, since
  /// the task-local network already recorded them at event time.
  /// `parties` > 0 also resolves the `net.party.*` series of parties
  /// [0, parties) now rather than on a link's first message.
  void set_metrics(obs::MetricsRegistry* registry, size_t parties = 0);
  obs::MetricsRegistry* metrics() const { return obs_registry_; }

  /// Attach the registry `other` is attached to, copying its resolved
  /// counter handles instead of looking them up, so a query task can meter
  /// its task-local network without taking the registry mutex. The tracer is
  /// read from the registry now, as set_metrics would.
  void ShareMetricsOf(const SimNetwork& other);

 private:
  using LinkKey = std::pair<NodeId, NodeId>;

  /// A queued message: the metered payload plus unmetered trace metadata.
  struct Envelope {
    std::vector<uint8_t> payload;
    obs::TraceContext ctx;
  };

  /// One directed link: its traffic meter and its FIFO of queued messages.
  /// The FIFO is read from `head` and cleared once drained, so a lockstep
  /// exchange reuses one buffer for every message on the link.
  struct Link {
    TrafficStats stats;
    std::vector<Envelope> queue;
    size_t head = 0;
  };

  void Meter(const LinkKey& key, Link& link, size_t bytes);
  /// Labeled per-party counters for the link, lazily resolved. The "party"
  /// of a link is its participant endpoint (the server side of every link is
  /// shared infrastructure); leader-to-server links attribute to party 0.
  void MeterParty(const LinkKey& key, size_t bytes);
  std::pair<obs::Counter*, obs::Counter*> PartyCounters(NodeId party);
  void FaultInstant(const char* name, const LinkKey& key);

  std::map<LinkKey, Link> links_;
  TrafficStats total_;
  FaultStats fault_stats_;
  std::unique_ptr<FaultInjector> injector_;
  SimClock* fault_clock_ = nullptr;  // borrowed; set with the injector
  uint64_t fault_seed_ = 0;
  std::vector<NodeId> suspects_;  // sorted unique; see SuspectDead()

  obs::MetricsRegistry* obs_registry_ = nullptr;  // borrowed
  obs::Tracer* tracer_ = nullptr;                 // borrowed via the registry
  obs::TraceContext last_recv_context_;
  obs::Counter* c_messages_ = nullptr;
  obs::Counter* c_bytes_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_duplicated_ = nullptr;
  obs::Counter* c_corrupted_ = nullptr;
  obs::Counter* c_delayed_ = nullptr;
  obs::Counter* c_delay_ns_ = nullptr;
  obs::Counter* c_swallowed_dead_ = nullptr;
  /// party -> (net.party.messages{party=N}, net.party.bytes{party=N}).
  std::map<NodeId, std::pair<obs::Counter*, obs::Counter*>> party_counters_;
};

}  // namespace vfps::net

#endif  // VFPS_NET_NETWORK_H_
