#ifndef VFPS_VFL_FED_KNN_H_
#define VFPS_VFL_FED_KNN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "he/backend.h"
#include "ml/kernels.h"
#include "net/channel.h"
#include "net/cost_model.h"
#include "net/network.h"
#include "topk/fagin.h"
#include "topk/threshold.h"
#include "vfl/pseudo_id.h"
#include "vfl/selection_cache.h"

namespace vfps::obs {
class Counter;
class Histogram;
class MetricsRegistry;
class Tracer;
}  // namespace vfps::obs

namespace vfps::ml {
struct KMeansResult;
}  // namespace vfps::ml

namespace vfps::vfl {

/// How the k-nearest-neighbor oracle finds neighbors across participants.
enum class KnnOracleMode {
  kBase,   // VFPS-SM-BASE: encrypt ALL instances' partial distances per query
  kFagin,  // VFPS-SM: Fagin's algorithm narrows the encrypted candidate set
  /// Threshold algorithm (TA) variant: the paper notes VFPS-SM "also
  /// supports other top-k query algorithms". TA usually scans a shallower
  /// depth than FA but performs random accesses during phase 1; in the
  /// protocol this trades streamed ranking rows for per-item score requests.
  /// The candidate set it encrypts is TA's evaluated set.
  kThreshold,
};

const char* KnnOracleModeName(KnnOracleMode mode);

/// \brief Configuration of one selection-phase KNN pass.
struct FedKnnConfig {
  KnnOracleMode mode = KnnOracleMode::kFagin;
  size_t k = 10;            // neighbors per query
  size_t num_queries = 64;  // |Q|: training rows sampled as query samples
  size_t fagin_batch = 64;  // mini-batch rows streamed per participant round
  uint64_t seed = 42;       // shared consortium seed (queries, pseudo IDs)
  /// BASE-mode cross-query slot batching: how many queries share one
  /// encrypted aggregation round. In every row shard, each participant
  /// concatenates the grouped queries' partial-distance slices for that shard
  /// (identical layout across parties, ragged tail zero-masked by the
  /// encoder) into ONE packed Encrypt; the server performs slot-wise sums on
  /// the group and the leader issues one Decrypt per group and shard. With G
  /// queries of C candidates per shard over S slots this costs
  /// ceil(G*C/S) ciphertexts per party and shard instead of G*ceil(C/S) —
  /// up to floor(S/C)x fewer HE ops when candidate vectors underfill the
  /// slots. 1 (default) runs one query per round; 0 picks the largest group
  /// whose per-shard vector fits one ciphertext (with one shard,
  /// max(1, S/(N-1))). Ignored by the Fagin/TA modes (their candidate sets
  /// are query-specific).
  size_t query_group = 1;
  /// Participants excluded from the protocol (crashed on a previous run and
  /// quarantined by the selector). The leader (0) can never be quarantined;
  /// at least two participants must remain active.
  std::vector<size_t> quarantined;
  /// Participants not yet part of the consortium (they have a pending join=
  /// rule); excluded exactly like quarantined, but reported as absent rather
  /// than dead. The selector admits them when a run observes their join
  /// threshold (FedKnnStats::joined_nodes) and moves them to `joined`.
  std::vector<size_t> absent;
  /// Join-rule participants already admitted on an earlier run: Run() calls
  /// MarkJoined on every fault stream so they are never absent again.
  std::vector<size_t> joined;
  /// Participants healed on an earlier run: Run() calls MarkHealed on every
  /// fault stream so their crash/leave rules (whose per-stream counters
  /// restart from zero) cannot re-fire and oscillate them back into
  /// quarantine.
  std::vector<size_t> healed;
  /// Reliable-channel retry budget; 0 keeps RetryPolicy's default. Exposed
  /// as --net-retries on the CLI.
  size_t net_retries = 0;
  /// Reliable-channel backoff jitter factor in [0, 1]; 0 (default) keeps the
  /// exact exponential schedule. Exposed as --net-jitter on the CLI.
  double net_jitter = 0.0;
  /// Row shards per party: every party's FeatureBlock is cut into this many
  /// contiguous row ranges (data::MakeRowShards), each held by a simulated
  /// storage node. The per-query protocol runs shard by shard — range
  /// distance kernels, per-shard encrypted aggregation, shard-local top-k —
  /// and the leader combines shard results with the hierarchical top-k merge
  /// (topk::HierarchicalTopkMerge), so per-query resident protocol state is
  /// O(shard), not O(N). 1 (default) is a one-entry shard plan through the
  /// same code; any shard count yields the same neighborhoods and d_T values
  /// (exact-HE paths bit-identical; traffic/clock naturally differ). Exposed
  /// as --shards on the CLI.
  size_t shards = 1;
  /// TreeCSS-style clustering pre-filter: 0 (default) = off. Otherwise each
  /// party clusters its local columns into this many k-means clusters once
  /// per Run, and per query nominates the rows of its clusters nearest the
  /// query (enough to cover >= 4k rows); the union of nominations is the
  /// only candidate set that pays distance + HE work. Approximate — a true
  /// neighbor every party's nomination missed is lost — which is the
  /// TreeCSS trade: prune before expensive per-sample work. Nominations
  /// reveal candidate row ids (BASE) / pseudo ids (top-k modes) to the
  /// server, like the Fagin candidate exchange. Exposed as
  /// --prefilter=treecss:<clusters> on the CLI.
  size_t prefilter_clusters = 0;
};

/// \brief What the leader learns about one query sample.
struct QueryNeighborhood {
  uint64_t query_row = 0;
  std::vector<uint64_t> neighbors;   // original train-row ids, nearest first
  std::vector<double> per_party_dt;  // d_T^p = sum of partial distances to T
};

/// \brief Protocol statistics accumulated over a Run.
struct FedKnnStats {
  size_t queries = 0;
  /// Rows whose partial distances each participant encrypted, summed over
  /// queries (BASE: (N-1) per query; FAGIN: the candidate-set size).
  uint64_t candidates_encrypted = 0;
  uint64_t fagin_depth = 0;  // summed phase-1 depth across queries
  net::TrafficStats traffic;  // metered wire traffic of the run
  he::HeOpStats he_ops;       // HE operations actually executed
  /// Nodes observed crashed when a Run fails with PeerDead — the union over
  /// the main network's and every query task's fault stream. Empty on
  /// success. Participant ids are >= 1 (the leader is 0); negative ids are
  /// the servers (net::kAggregationServer / net::kKeyServer).
  std::vector<net::NodeId> dead_nodes;
  /// Subset of dead_nodes that left via a leave= rule (graceful churn, not a
  /// crash). Filled on success and failure alike.
  std::vector<net::NodeId> departed_nodes;
  /// Join-rule nodes whose threshold some fault stream crossed during the
  /// run — candidates for the selector to splice in. Success and failure.
  std::vector<net::NodeId> joined_nodes;
  /// Heal-rule nodes whose threshold some fault stream crossed — candidates
  /// for the selector to un-quarantine. Success and failure.
  std::vector<net::NodeId> healed_nodes;
  /// Party-unit contributions served from the selection cache instead of
  /// being recomputed/re-encrypted (0 on a cold run).
  uint64_t reused_contributions = 0;

  double AvgCandidatesPerQuery() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(candidates_encrypted) /
                              static_cast<double>(queries);
  }
};

/// \brief The vertical federated KNN oracle (paper §IV).
///
/// One instance simulates the whole deployment — leader (participant 0, holds
/// labels and the HE secret key via the backend), aggregation server, and P
/// participants — but every inter-role data flow passes through SimNetwork
/// (byte-metered) and the HeBackend (op-counted), and the simulated clock is
/// charged phase by phase with participant-parallel phases costed as the max
/// over participants.
///
/// One pipeline in every mode: each unit — one query, or a BASE group of
/// queries (FedKnnConfig::query_group) — runs the optional TreeCSS pre-filter
/// stage first; then, per row shard of the plan (one entry when shards = 1),
/// the distance stage, the narrowing stage (Fagin/TA only: ranking, merge and
/// streaming pick the candidates), one encrypted aggregation round and the
/// leader's shard top-k; last, per query, the merge and the d_T exchange.
///
/// Threading model: when a ThreadPool is supplied, Run() executes each
/// unit's complete protocol (pre-filter, every shard's distance, ranking,
/// encryption, aggregation and leader decrypt+rank, then merge and d_T) as an
/// independent task. Every task operates on task-local state — its own
/// SimNetwork, its own SimClock, and its own HeBackend session obtained via
/// HeBackend::Fork() with a per-query stream seed pre-derived from
/// FedKnnConfig::seed in query order. After all tasks complete, the results,
/// traffic meters, clock charges, and HE counters are folded back into the
/// shared deployment state *in query order*, so:
///
///   Determinism guarantee: a Run() with any thread count (including the
///   serial path, which executes the very same per-query tasks inline)
///   produces byte-identical neighborhoods, identical ciphertext streams,
///   identical stats, and an identical simulated clock. Parallelism changes
///   wall-clock time only.
///
/// Fault tolerance: when the main network has a fault plan attached
/// (SimNetwork::EnableFaults), every exchange goes through a per-task
/// net::ReliableChannel, and each query task's network receives its own
/// fault-stream seed pre-derived serially from the plan seed — so the fault
/// schedule, the retries it forces, and the extra simulated latency are all
/// reproducible at any thread count. Faults that retries absorb (drops,
/// duplicates, corruption, delay, stalls) leave the protocol *output*
/// identical to the fault-free run; a crashed node surfaces as a PeerDead
/// error with FedKnnStats::dead_nodes filled, and the caller may quarantine
/// the dead participants (FedKnnConfig::quarantined) and rerun over the
/// survivors.
///
/// Incremental repair: with a SelectionCache attached (set_cache), every
/// unit records each active party's contribution to each row shard
/// (partial-distance vectors, sub-rankings, server-held ciphertexts) into
/// the cache — on success AND on failure (whatever completed before the
/// fault is salvaged; contents are thread-count-invariant because every unit
/// runs to its own end and is internally deterministic). A later Run() with
/// a changed membership but the same protocol shape reuses cached
/// contributions: surviving parties skip distance work, encryption,
/// ciphertext uploads, and already-streamed ranking rows; only newcomers
/// compute from scratch, and only the membership-dependent aggregation
/// (sums, merges, candidate exchange) is redone. An entry is reused only by
/// a round over exactly the candidate rows it covers: the pre-filter's
/// nominations are a union over the active parties, so a membership change
/// that moves them invalidates the unit. On the exact (plain) HE path, a
/// repaired run's outputs are bit-identical to a clean run over the same
/// membership; on CKKS the cached ciphertexts carry their original
/// encryption randomness, so results match within the backend's noise
/// tolerance. Simulated-clock charges reflect the work actually done, so
/// repair is visibly cheaper.
///
/// Thread-safety: one FederatedKnnOracle must only be driven from one thread
/// at a time (Run/ClassifyAccuracy/ClassifyPredictions are not reentrant);
/// the oracle parallelizes internally. The referenced Dataset, partition,
/// and cost model are read-only and may be shared across oracles.
class FederatedKnnOracle {
 public:
  /// \param joint_train training split in the joint feature space (already
  ///        standardized). Kept by pointer; must outlive the oracle.
  /// \param partition which feature columns each participant holds.
  /// \param backend shared HE backend (keys live here); forked per query.
  /// \param network main byte-metered transport; absorbs per-query metering.
  /// \param cost_model calibration constants (seconds per op/byte).
  /// \param clock simulated deployment clock; charged in query order.
  /// \param pool optional worker pool for per-query parallelism; nullptr (or
  ///        a 1-thread pool) selects the serial path. Not owned.
  /// \param obs optional metrics/tracing sink (`knn.*` counters, per-phase
  ///        spans). Task-local query networks attach it too, so `net.*`
  ///        counters cover the whole protocol; the striped counters keep
  ///        totals thread-count-invariant.
  FederatedKnnOracle(const data::Dataset* joint_train,
                     const data::VerticalPartition* partition,
                     he::HeBackend* backend, net::SimNetwork* network,
                     const net::CostModel* cost_model, SimClock* clock,
                     ThreadPool* pool = nullptr,
                     obs::MetricsRegistry* obs = nullptr);

  size_t num_participants() const { return partition_->size(); }

  /// Attach (or detach, with nullptr) a participant-keyed contribution
  /// cache: subsequent Run()s record per-party state into it and reuse
  /// matching entries, enabling cheap repair after membership changes (see
  /// the class comment). Borrowed; must outlive the oracle's Run() calls.
  void set_cache(SelectionCache* cache) { cache_ = cache; }

  /// \brief Run the selection-phase protocol: sample |Q| query rows, find
  /// each query's k nearest neighbors over the full consortium, and return
  /// the per-participant aggregated distances d_T^p the similarity measure
  /// needs. Stats (if non-null) receive traffic/HE/candidate counts.
  ///
  /// Queries run in parallel on the pool passed at construction (see the
  /// class comment for the determinism guarantee). Complexity per query:
  /// BASE is O(P·N·F/P) distance work + N encrypted values; FAGIN/TA is
  /// O(P·N·F/P + N log N) plus encryption of only the candidate set.
  Result<std::vector<QueryNeighborhood>> Run(const FedKnnConfig& config,
                                             FedKnnStats* stats);

  /// \brief Federated KNN classification accuracy of `queries` (a dataset in
  /// the joint feature space, labels held by the leader) using only the given
  /// sub-consortium. Used as the utility function of the SHAPLEY baseline and
  /// for the KNN downstream task. Distances are computed in plaintext but the
  /// clock is charged as if the BASE protocol ran (encrypt-all), because that
  /// is what a faithful deployment would execute per coalition.
  ///
  /// \param queries evaluation rows (joint feature space, leader's labels).
  /// \param participants sub-consortium indices, each < num_participants().
  /// \param k neighbors per query row.
  /// \param charge_costs when true, advance the simulated clock by the cost
  ///        of the equivalent encrypted protocol (simulated seconds).
  /// Query rows are scored in parallel on the pool; results are independent
  /// of the thread count (plaintext arithmetic, disjoint output slots).
  Result<double> ClassifyAccuracy(const data::Dataset& queries,
                                  const std::vector<size_t>& participants,
                                  size_t k, bool charge_costs);

  /// Same protocol, returning the per-query predicted labels instead of the
  /// aggregate accuracy (used by the VF-MINE baseline's MI estimator).
  Result<std::vector<int>> ClassifyPredictions(
      const data::Dataset& queries, const std::vector<size_t>& participants,
      size_t k, bool charge_costs);

  /// \brief A party's decode of the d_T exchange: the leader's payload of
  /// merged neighbor ids, mapped to rows of the party's block. The ids are
  /// pseudo IDs when `pseudo` is set (top-k modes; mapped with
  /// PseudoIdMap::MapToOriginal) and otherwise BASE's compressed indices
  /// around `query_row`, which must lie below num_rows - 1. Rejects with
  /// ProtocolError a payload that does not decode, whose id count differs
  /// from `expected` (the leader's merge size), or that names an id out of
  /// range; the rows it returns are all below num_rows.
  static Result<std::vector<size_t>> DecodeNeighborRows(
      const std::vector<uint8_t>& payload, size_t expected,
      const PseudoIdMap* pseudo, size_t num_rows, size_t query_row);

  /// \brief The leader's decode of a party's d_T reply: one double. Rejects
  /// a payload too short to hold it, and with ProtocolError one that goes on
  /// after it (the message names the extra byte count).
  static Result<double> DecodeDtReply(const std::vector<uint8_t>& payload);

 private:
  /// Run-scoped state of the per-shard pipeline, built once per Run()
  /// (serially, before any unit spawns) and shared read-only by every unit.
  struct ShardRuntime {
    /// Contiguous row ranges covering N; one entry when shards = 1.
    std::vector<data::RowShard> plan;
    /// Top-k modes: the consortium-shared pseudo-ID shuffle, and each shard's
    /// rows in ascending pseudo-ID order (the order its ranking items take),
    /// both from the oracle's PseudoPlan. nullptr in BASE mode, whose items
    /// stay in row order.
    const PseudoIdMap* pseudo = nullptr;
    const std::vector<std::vector<uint64_t>>* pid_rows = nullptr;
    /// Per-party k-means models, indexed by participant id (only active
    /// parties filled). nullptr when the pre-filter is off. Owned by Run().
    const std::vector<ml::KMeansResult>* prefilter = nullptr;
    size_t prefilter_target = 0;  // rows each party's nomination must cover
    /// knn.shard.sim_ns{shard=S} / knn.shard.candidates{shard=S}, indexed by
    /// shard; empty when metrics are off. The labeled-counter registry caps
    /// series cardinality, so very wide shard plans fold into its overflow
    /// label rather than exploding the registry.
    std::vector<obs::Counter*> sim_ns;
    std::vector<obs::Counter*> candidates;
  };

  /// Task-local deployment view for one unit: its own HE session, metered
  /// transport, reliable channel, clock and scratch, so units never contend
  /// (merged afterwards). `active` lists the non-quarantined participants in
  /// ascending order (always starting with the leader, 0).
  struct QueryEnv {
    he::HeBackend* backend;
    net::SimNetwork* net;
    net::ReliableChannel* chan;
    SimClock* clock;
    const std::vector<size_t>* active;
    obs::Tracer* tracer;  // nullptr unless tracing is enabled
    const ShardRuntime& rt;
    /// Prior contributions for this unit (read-only; nullptr = cold) and the
    /// task-local staging area fresh contributions are recorded into
    /// (nullptr = caching disabled). See SelectionCache.
    const CachedUnit* cached = nullptr;
    CachedUnit* fresh = nullptr;
    /// The rankings' working memory, owned by this unit while it runs.
    topk::RankedListSet::Scratch* ranking_scratch = nullptr;
  };

  /// One query's state across the shard loop (defined in fed_knn.cc).
  struct QueryState;

  // Partial squared distances from participant `p`'s slice of `query_row`
  // (in `source`) to every train row, indexed by row.
  std::vector<double> PartialDistances(size_t participant,
                                       const data::Dataset& source,
                                       size_t query_row) const;

  // Compressed index <-> original row id around an excluded row.
  static uint64_t CompressedToRow(uint64_t idx, size_t excluded) {
    return idx < excluded ? idx : idx + 1;
  }

  // One protocol unit in every mode: queries[lo, hi), one query in the top-k
  // modes or a BASE group (FedKnnConfig::query_group). Per shard: distances;
  // the narrowing stage (top-k modes: rank, Fagin/TA merge, streaming, with
  // O(shard·P) ranking state); one encrypted aggregation round; the leader's
  // shard top-k. Then per query the merge and d_T exchange. Returns the hi-lo
  // neighborhoods in query order.
  Result<std::vector<QueryNeighborhood>> RunUnit(
      const QueryEnv& env, const std::vector<size_t>& queries, size_t lo,
      size_t hi, const FedKnnConfig& config, FedKnnStats* stats) const;
  // Pre-filter stage (when on) and the per-party query slices every shard
  // stage reuses.
  Status PrepareQuery(const QueryEnv& env, uint64_t query_row,
                      QueryState* q) const;
  // The rows shard `s` ranks for query `q`, query row excluded: the shard's
  // pre-filter nominations when the pre-filter is on, else all its rows.
  // Row order in BASE mode; pseudo-ID order in the top-k modes.
  std::vector<uint64_t> ShardItems(const ShardRuntime& rt, size_t s,
                                   const QueryState& q) const;
  // The unit's cached entries when they cover exactly this round's candidate
  // rows (else nullptr), after recording those rows with the unit's fresh
  // entries.
  static const CachedUnit* BindCache(const QueryEnv& env,
                                     const QueryState* queries, size_t count);
  // Last stage of a query: hierarchical merge of its shard top-ks at the
  // leader, then the d_T exchange, in which every party recomputes its
  // neighbor rows with single-row kernel calls (bit-identical to the values
  // it aggregated; each row's distance is independent of the shard split).
  Result<QueryNeighborhood> FinishQuery(const QueryEnv& env, QueryState* q,
                                        size_t k, FedKnnStats* stats) const;
  // TreeCSS-style candidate nomination (ml::NominateClusterRows): each
  // active party nominates the rows of its clusters nearest its query slice
  // in q until ShardRuntime::prefilter_target rows are covered; the union
  // (query row excluded, ascending original row ids) travels through
  // env.chan like the Fagin candidate exchange. A pure function of
  // (models, active parties, q), so thread-count-invariant.
  Result<std::vector<uint64_t>> RunPrefilterExchange(
      const QueryEnv& env, const QueryState& q) const;

  // Clock helpers (charge the given task-local clock).
  void ChargeParallelCompute(SimClock* clock,
                             const std::vector<double>& per_party_seconds) const;
  void ChargeFanIn(SimClock* clock, uint64_t bytes_per_party,
                   size_t parties) const;
  void ChargeFanOut(SimClock* clock, uint64_t bytes_per_link,
                    size_t links) const;

  /// Charge one protocol phase's simulated time to its labeled counter
  /// (`knn.phase.sim_ns{phase=...}`). Durations are deterministic simulated
  /// seconds rounded to integer ns, so the labeled totals stay bit-identical
  /// at any thread count.
  class PhaseTimer {
   public:
    PhaseTimer(obs::Counter* counter, const SimClock* clock);
    ~PhaseTimer() { End(); }
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;
    void End();

   private:
    obs::Counter* counter_;
    const SimClock* clock_;
    double start_seconds_ = 0.0;
  };

  const data::Dataset* joint_;
  const data::VerticalPartition* partition_;
  /// Per-participant packed feature blocks over `joint_` (cached row norms;
  /// built once at construction). The only per-oracle copy of feature data —
  /// in total one extra copy of the training matrix, split across parties.
  std::vector<ml::FeatureBlock> party_blocks_;
  he::HeBackend* backend_;
  net::SimNetwork* network_;
  const net::CostModel* cost_;
  SimClock* clock_;
  ThreadPool* pool_;
  obs::MetricsRegistry* obs_;
  SelectionCache* cache_ = nullptr;          // borrowed; see set_cache()
  /// The top-k modes' pseudo-ID plan: the consortium's shuffle of the
  /// training rows and each row shard's rows in ascending pseudo-ID order.
  /// It depends on the seed and the shard count alone, so it is kept from one
  /// Run() to the next and rebuilt only when either changes (a repair reruns
  /// the plan of the run it repairs).
  struct PseudoPlan {
    uint64_t seed = 0;
    size_t shards = 0;
    PseudoIdMap map;
    std::vector<std::vector<uint64_t>> pid_rows;
  };
  std::optional<PseudoPlan> pseudo_plan_;
  /// ProtocolShape::DataDigest of the oracle's training data and partition,
  /// which are fixed for its lifetime; computed on the first cached Run().
  std::optional<uint32_t> data_digest_;
  /// The merges' `topk.fagin.*` / `topk.ta.*` series, resolved by the
  /// first Run() in that mode (so a run creates only its own mode's series).
  topk::FaginMetrics fagin_metrics_;
  topk::ThresholdMetrics ta_metrics_;
  obs::Counter* c_queries_ = nullptr;        // knn.queries
  obs::Histogram* h_candidates_ = nullptr;   // knn.candidates per query
  /// Labeled dimensions (all bounded: 3 modes, 8 phases, P parties, 2 cache
  /// outcomes), resolved once at construction so hot paths never touch the
  /// registry mutex.
  obs::Counter* c_queries_mode_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* c_cache_hit_ = nullptr;   // knn.cache.lookups{cache=hit}
  obs::Counter* c_cache_miss_ = nullptr;  // knn.cache.lookups{cache=miss}
  obs::Counter* c_phase_dist_ = nullptr;      // {phase=partial_distance}
  obs::Counter* c_phase_rank_ = nullptr;      // {phase=rank}
  obs::Counter* c_phase_encrypt_ = nullptr;   // {phase=encrypt}
  obs::Counter* c_phase_agg_ = nullptr;       // {phase=aggregate}
  obs::Counter* c_phase_decrypt_ = nullptr;   // {phase=decrypt_rank}
  obs::Counter* c_phase_dt_ = nullptr;        // {phase=dt_exchange}
  obs::Counter* c_phase_merge_ = nullptr;     // {phase=topk_merge}
  obs::Counter* c_phase_stream_ = nullptr;    // {phase=stream_rankings}
  /// knn.party.encrypted_values{party=N}, indexed by participant.
  std::vector<obs::Counter*> c_party_enc_values_;
  obs::Counter* c_shard_merges_ = nullptr;  // knn.shard.merges
  obs::Counter* c_prefilter_candidates_ = nullptr;  // knn.prefilter.candidates
  obs::Counter* c_prefilter_pruned_ = nullptr;  // knn.prefilter.pruned_rows
  obs::Histogram* h_unit_sim_ns_ = nullptr;   // knn.query.sim_ns
  obs::Histogram* h_unit_wall_ns_ = nullptr;  // knn.query.wall_ns
  /// Carries no traffic: it holds the `net.*` handles of obs_ (every
  /// party's series included) that each unit's task-local network copies.
  net::SimNetwork unit_meters_;
};

}  // namespace vfps::vfl

#endif  // VFPS_VFL_FED_KNN_H_
