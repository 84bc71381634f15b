#include "vfl/fed_knn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "common/buffer.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/fagin.h"
#include "topk/shard_merge.h"
#include "topk/threshold.h"

namespace vfps::vfl {

namespace {
// The leader is participant 0 by convention (it holds the labels).
constexpr net::NodeId kLeader = 0;

// Salt separating the per-query HE randomness streams from the query-sampling
// stream (both are derived from the consortium seed).
constexpr uint64_t kHeStreamSalt = 0xC0FFEE5EEDD1CE5ULL;

// Salt separating the per-query fault streams from the main network's fault
// stream (both are derived from the seed passed to EnableFaults).
constexpr uint64_t kFaultStreamSalt = 0xFA117AB1E5A17ULL;

// Indices of the k smallest values, ties broken by index (bounded-heap
// kernel).
using ml::SmallestK;

std::vector<uint8_t> EncodeIds(const std::vector<uint64_t>& ids) {
  BinaryWriter writer;
  writer.WriteU64Vec(ids);
  return writer.TakeBytes();
}

Result<std::vector<uint64_t>> DecodeIds(const std::vector<uint8_t>& payload) {
  BinaryReader reader(payload);
  VFPS_ASSIGN_OR_RETURN(auto ids, reader.ReadU64Vec());
  if (!reader.AtEnd()) {
    return Status::ProtocolError(StrFormat(
        "id payload: %zu bytes after the last id", reader.remaining()));
  }
  return ids;
}

std::vector<uint8_t> EncodeScalar(double v) {
  BinaryWriter writer;
  writer.WriteDouble(v);
  return writer.TakeBytes();
}

// Partial squared distances from a party's query slice `q` to `rows` (rows of
// `shard`, in any order), written to out[0, rows.size()). When `rows` covers
// the shard — every row but at most the query's — one range-kernel sweep
// over the shard is gathered into `rows` order; a sparse pre-filter
// nomination takes single-row kernel calls instead. The kernel has no
// cross-row state, so each row's value is bit-identical either way.
void ShardDistances(const ml::FeatureBlock& block, const double* q,
                    double q_norm, const data::RowShard& shard,
                    const std::vector<uint64_t>& rows, double* out) {
  if (rows.size() + 1 >= shard.rows()) {
    std::vector<double> sweep(shard.rows());
    ml::BlockSquaredDistances(block, q, q_norm, shard.begin, shard.end,
                              sweep.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i] = sweep[rows[i] - shard.begin];
    }
    return;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto row = static_cast<size_t>(rows[i]);
    ml::BlockSquaredDistances(block, q, q_norm, row, row + 1, &out[i]);
  }
}

// Hands a list set's working memory back to the unit's scratch when the
// shard's stage ends, on an early return too: a unit that fails mid-query
// (a departed party) still leaves its arrays to the next unit.
class ScratchReturn {
 public:
  ScratchReturn(topk::RankedListSet* lists, topk::RankedListSet::Scratch* to)
      : lists_(lists), to_(to) {}
  ~ScratchReturn() { *to_ = std::move(*lists_).TakeScratch(); }
  ScratchReturn(const ScratchReturn&) = delete;
  ScratchReturn& operator=(const ScratchReturn&) = delete;

 private:
  topk::RankedListSet* lists_;
  topk::RankedListSet::Scratch* to_;
};

// Party `party`'s entry for shard `s` of a bound cache unit, or nullptr.
const PartyUnitState* ShardEntry(const CachedUnit* unit, size_t s,
                                 size_t party) {
  if (unit == nullptr || s >= unit->shards.size()) return nullptr;
  const auto it = unit->shards[s].find(party);
  return it == unit->shards[s].end() ? nullptr : &it->second;
}
}  // namespace

/// One query's protocol state across the shard loop: the party query slices
/// every stage reuses, the pre-filter's nominations, and the shard top-ks
/// the leader merges last.
struct FederatedKnnOracle::QueryState {
  uint64_t row = 0;
  /// Pre-filter nominations: ascending rows, query row excluded. Empty (and
  /// unused) with the pre-filter off.
  std::vector<uint64_t> nominated;
  std::vector<std::vector<double>> slices;  // per active party
  std::vector<double> norms;                // squared norm of each slice
  std::vector<topk::ShardTopk> tops;        // one per shard with candidates
  uint64_t candidates = 0;  // rows whose partials were encrypted
  uint64_t depth = 0;       // Fagin/TA phase-1 depth, summed over shards
};

const char* KnnOracleModeName(KnnOracleMode mode) {
  switch (mode) {
    case KnnOracleMode::kBase:
      return "base";
    case KnnOracleMode::kFagin:
      return "fagin";
    case KnnOracleMode::kThreshold:
      return "threshold";
  }
  return "unknown";
}

FederatedKnnOracle::FederatedKnnOracle(const data::Dataset* joint_train,
                                       const data::VerticalPartition* partition,
                                       he::HeBackend* backend,
                                       net::SimNetwork* network,
                                       const net::CostModel* cost_model,
                                       SimClock* clock, ThreadPool* pool,
                                       obs::MetricsRegistry* obs)
    : joint_(joint_train),
      partition_(partition),
      backend_(backend),
      network_(network),
      cost_(cost_model),
      clock_(clock),
      pool_(pool),
      obs_(obs) {
  // Pack each participant's columns once (contiguous rows + cached norms);
  // every distance below runs on these blocks instead of gathering columns
  // from the joint row-major matrix per query.
  party_blocks_.reserve(partition_->size());
  for (size_t party = 0; party < partition_->size(); ++party) {
    party_blocks_.emplace_back(*joint_, (*partition_)[party]);
  }
  if (obs_ != nullptr) {
    c_queries_ = obs_->GetCounter("knn.queries");
    h_candidates_ = obs_->GetHistogram("knn.candidates");
    // Every labeled dimension is bounded and known up front, so resolve all
    // series here — query tasks never touch the registry mutex.
    for (KnnOracleMode mode : {KnnOracleMode::kBase, KnnOracleMode::kFagin,
                               KnnOracleMode::kThreshold}) {
      c_queries_mode_[static_cast<int>(mode)] = obs_->GetLabeledCounter(
          "knn.queries.by_algo", {{"algo", KnnOracleModeName(mode)}});
    }
    c_cache_hit_ =
        obs_->GetLabeledCounter("knn.cache.lookups", {{"cache", "hit"}});
    c_cache_miss_ =
        obs_->GetLabeledCounter("knn.cache.lookups", {{"cache", "miss"}});
    const auto phase = [this](const char* name) {
      return obs_->GetLabeledCounter("knn.phase.sim_ns", {{"phase", name}});
    };
    c_phase_dist_ = phase("partial_distance");
    c_phase_encrypt_ = phase("encrypt");
    c_phase_agg_ = phase("aggregate");
    c_phase_rank_ = phase("rank");
    c_phase_decrypt_ = phase("decrypt_rank");
    c_phase_dt_ = phase("dt_exchange");
    c_phase_merge_ = phase("topk_merge");
    c_phase_stream_ = phase("stream_rankings");
    c_party_enc_values_.resize(partition_->size(), nullptr);
    for (size_t party = 0; party < partition_->size(); ++party) {
      c_party_enc_values_[party] = obs_->GetLabeledCounter(
          "knn.party.encrypted_values",
          {{"party", StrFormat("%zu", party)}});
    }
    h_unit_sim_ns_ = obs_->GetHistogram("knn.query.sim_ns");
    h_unit_wall_ns_ = obs_->GetHistogram("knn.query.wall_ns");
    unit_meters_.set_metrics(obs_, partition_->size());
    c_shard_merges_ = obs_->GetCounter("knn.shard.merges");
    c_prefilter_candidates_ = obs_->GetCounter("knn.prefilter.candidates");
    c_prefilter_pruned_ = obs_->GetCounter("knn.prefilter.pruned_rows");
  }
}

FederatedKnnOracle::PhaseTimer::PhaseTimer(obs::Counter* counter,
                                           const SimClock* clock)
    : counter_(counter),
      clock_(clock),
      start_seconds_(counter != nullptr ? clock->Total() : 0.0) {}

void FederatedKnnOracle::PhaseTimer::End() {
  if (counter_ == nullptr) return;
  counter_->Add(static_cast<uint64_t>(
      std::llround((clock_->Total() - start_seconds_) * 1e9)));
  counter_ = nullptr;
}

std::vector<double> FederatedKnnOracle::PartialDistances(
    size_t participant, const data::Dataset& source, size_t query_row) const {
  const ml::FeatureBlock& block = party_blocks_[participant];
  const size_t n = joint_->num_samples();
  // Gather the query's slice of this party's columns once; per-thread
  // scratch (fully overwritten each call).
  thread_local std::vector<double> qslice;
  qslice.resize(block.cols());
  block.GatherInto(source.Row(query_row), qslice.data());
  const double q_norm = ml::SquaredNorm(qslice.data(), block.cols());
  std::vector<double> out(n);
  ml::BlockSquaredDistances(block, qslice.data(), q_norm, 0, n, out.data());
  return out;
}

void FederatedKnnOracle::ChargeParallelCompute(
    SimClock* clock, const std::vector<double>& per_party_seconds) const {
  double worst = 0.0;
  for (double s : per_party_seconds) worst = std::max(worst, s);
  clock->Advance(CostCategory::kCompute, worst);
}

void FederatedKnnOracle::ChargeFanIn(SimClock* clock, uint64_t bytes_per_party,
                                     size_t parties) const {
  // Participants transmit in parallel; the server's ingress link is the
  // bottleneck, so one latency plus the total bytes.
  clock->Advance(CostCategory::kNetwork,
                 cost_->NetworkSeconds(bytes_per_party * parties, 1));
}

void FederatedKnnOracle::ChargeFanOut(SimClock* clock, uint64_t bytes_per_link,
                                      size_t links) const {
  clock->Advance(CostCategory::kNetwork,
                 cost_->NetworkSeconds(bytes_per_link * links, 1));
}

Result<std::vector<QueryNeighborhood>> FederatedKnnOracle::Run(
    const FedKnnConfig& config, FedKnnStats* stats) {
  const size_t n = joint_->num_samples();
  const size_t p = num_participants();
  VFPS_CHECK_ARG(p >= 2, "fed-knn: need >= 2 participants");
  VFPS_CHECK_ARG(config.k >= 1, "fed-knn: k must be >= 1");
  // Every query needs k neighbors besides itself; written so that a huge k
  // cannot wrap around.
  VFPS_CHECK_ARG(n >= 2 && config.k <= n - 2, "fed-knn: dataset smaller than k");
  VFPS_CHECK_ARG(config.num_queries >= 1, "fed-knn: need >= 1 query");
  VFPS_CHECK_ARG(config.fagin_batch >= 1, "fed-knn: fagin batch must be >= 1");
  // The row-shard plan (one entry when shards = 1) is built with the other
  // checks, so a rejected shard count fails the run before anything is sent.
  ShardRuntime shard_rt;
  VFPS_ASSIGN_OR_RETURN(shard_rt.plan, data::MakeRowShards(n, config.shards));

  // Survivor view: everybody minus the quarantined and not-yet-joined
  // participants. With no exclusions the list is 0..P-1 and every code path
  // below is the pristine protocol.
  std::vector<size_t> active;
  active.reserve(p);
  for (size_t party = 0; party < p; ++party) {
    const bool quarantined =
        std::find(config.quarantined.begin(), config.quarantined.end(),
                  party) != config.quarantined.end();
    const bool absent = std::find(config.absent.begin(), config.absent.end(),
                                  party) != config.absent.end();
    if (!quarantined && !absent) active.push_back(party);
  }
  VFPS_CHECK_ARG(!active.empty() && active.front() == 0,
                 "fed-knn: the leader (participant 0) cannot be quarantined");
  if (!config.quarantined.empty() && active.size() < 3) {
    // A 2-party consortium (leader + one survivor) runs the protocol but the
    // similarity matrix it feeds degenerates — the selection carries no
    // signal. Surface a typed error instead of silently computing noise.
    return Status::Unavailable(StrFormat(
        "fed-knn: churn left only %zu active participant(s) of %zu after "
        "quarantining %zu; a meaningful selection needs >= 3 survivors",
        active.size(), p, config.quarantined.size()));
  }
  VFPS_CHECK_ARG(active.size() >= 2,
                 "fed-knn: fewer than 2 active participants");

  // One retry policy for every channel of this run (the main broadcast and
  // each query task's lockstep exchanges).
  net::RetryPolicy retry;
  if (config.net_retries > 0) retry.max_attempts = config.net_retries;
  retry.jitter_factor = config.net_jitter;
  retry.jitter_seed = config.seed;

  // Membership decisions from earlier runs are pushed down to every fault
  // stream: healed nodes must not re-fire their crash/leave rules (each
  // stream's counters restart from zero), and admitted joiners must not be
  // absent again.
  const auto apply_membership_marks = [&config](net::SimNetwork* net) {
    for (size_t node : config.healed) {
      net->MarkHealed(static_cast<net::NodeId>(node));
    }
    for (size_t node : config.joined) {
      net->MarkJoined(static_cast<net::NodeId>(node));
    }
  };
  apply_membership_marks(network_);

  const net::TrafficStats traffic_before = network_->total();
  const he::HeOpStats he_before = backend_->stats();
  obs::Tracer* const tracer = obs_ == nullptr ? nullptr : obs_->tracer();
  // Causal anchor for the fan-out below: each query task re-adopts the
  // caller's span context on its worker thread, so every per-unit trace tree
  // hangs off the selection span that requested it.
  const obs::TraceContext parent_ctx = obs::Tracer::Current();

  // The leader samples the query set and shares the row ids (plain indices of
  // shared training samples; no feature values cross the wire here). The
  // exchange rides the reliable channel so injected faults on the broadcast
  // are retried; a dead peer here fails the run before any query starts.
  Rng rng(config.seed);
  const size_t num_queries = std::min(config.num_queries, n);
  std::vector<size_t> queries = rng.SampleWithoutReplacement(n, num_queries);
  net::ReliableChannel main_chan(network_, clock_, retry);
  for (size_t party : active) {
    if (party == 0) continue;
    std::vector<uint64_t> ids(queries.begin(), queries.end());
    Status sent =
        main_chan.Send(kLeader, static_cast<int>(party), EncodeIds(ids));
    if (sent.ok()) {
      sent = main_chan.Recv(kLeader, static_cast<int>(party)).status();
    }
    if (!sent.ok()) {
      if (stats != nullptr) {
        stats->dead_nodes = network_->DeadNodes();
        stats->departed_nodes = network_->DepartedNodes();
        stats->joined_nodes = network_->JoinedNodes();
        stats->healed_nodes = network_->HealedNodes();
      }
      return sent;
    }
  }
  ChargeFanOut(clock_, num_queries * sizeof(uint64_t), active.size() - 1);

  // The rest of the per-shard pipeline runtime: the top-k modes' pseudo-ID
  // plan, the per-party pre-filter models, and the per-shard metric handles
  // — all built serially here so units share it read-only (no registry
  // mutex, no model races).
  if (config.mode != KnnOracleMode::kBase) {
    if (!pseudo_plan_ || pseudo_plan_->seed != config.seed ||
        pseudo_plan_->shards != config.shards) {
      PseudoPlan plan{config.seed, config.shards,
                      PseudoIdMap::Create(n, config.seed), {}};
      plan.pid_rows.resize(shard_rt.plan.size());
      for (uint64_t pid = 0; pid < n; ++pid) {
        const uint64_t row = plan.map.ToOriginal(pid);
        plan.pid_rows[data::ShardOfRow(row, n, config.shards)].push_back(row);
      }
      pseudo_plan_ = std::move(plan);
    }
    shard_rt.pseudo = &pseudo_plan_->map;
    shard_rt.pid_rows = &pseudo_plan_->pid_rows;
  }
  std::vector<ml::KMeansResult> prefilter_models;
  if (config.prefilter_clusters > 0) {
    // Each active party clusters its own columns once per Run — local
    // plaintext work (no protocol traffic), charged as parallel compute.
    prefilter_models.resize(p);
    double worst_seconds = 0.0;
    for (size_t party : active) {
      VFPS_ASSIGN_OR_RETURN(
          prefilter_models[party],
          ml::KMeansCluster(party_blocks_[party], config.prefilter_clusters,
                            config.seed + party, ml::kPrefilterKmeansIters));
      worst_seconds = std::max(
          worst_seconds,
          static_cast<double>(ml::kPrefilterKmeansIters) *
              static_cast<double>(prefilter_models[party].clusters) *
              cost_->DistanceSeconds(n, (*partition_)[party].size()));
    }
    clock_->Advance(CostCategory::kCompute, worst_seconds);
    shard_rt.prefilter = &prefilter_models;
    shard_rt.prefilter_target = ml::PrefilterCoverage(config.k);
  }
  if (obs_ != nullptr) {
    if (config.mode == KnnOracleMode::kFagin &&
        fagin_metrics_.runs == nullptr) {
      fagin_metrics_ = topk::FaginMetrics::Resolve(obs_);
    }
    if (config.mode == KnnOracleMode::kThreshold &&
        ta_metrics_.runs == nullptr) {
      ta_metrics_ = topk::ThresholdMetrics::Resolve(obs_);
    }
    shard_rt.sim_ns.resize(shard_rt.plan.size());
    shard_rt.candidates.resize(shard_rt.plan.size());
    for (size_t s = 0; s < shard_rt.plan.size(); ++s) {
      const std::string label = StrFormat("%zu", s);
      shard_rt.sim_ns[s] =
          obs_->GetLabeledCounter("knn.shard.sim_ns", {{"shard", label}});
      shard_rt.candidates[s] =
          obs_->GetLabeledCounter("knn.shard.candidates", {{"shard", label}});
    }
  }

  // Resolve BASE-mode cross-query slot batching (FedKnnConfig::query_group):
  // group G consecutive queries into one unit that shares each shard's
  // encrypted aggregation round. G = 1 (the default, and always for
  // Fagin/TA) runs one unit per query; query_group = 0 picks the largest
  // group whose packed per-shard vector fits one ciphertext. A query's slice
  // of a shard is at most the shard's rows (MakeRowShards puts the widest
  // shard first), less its own row when a single shard holds every row.
  size_t group = 1;
  if (config.mode == KnnOracleMode::kBase && !queries.empty()) {
    group = config.query_group;
    if (group == 0) {
      const size_t widest =
          shard_rt.plan.front().rows() - (shard_rt.plan.size() == 1 ? 1 : 0);
      group = std::max<size_t>(
          1, backend_->SlotsPerCiphertext() / std::max<size_t>(1, widest));
    }
    group = std::min(std::max<size_t>(1, group), queries.size());
  }
  const size_t num_units = queries.empty() ? 0 : (queries.size() + group - 1) / group;

  // Another shape or unit layout than the cached one clears the cache.
  if (cache_ != nullptr) {
    if (!data_digest_) {
      data_digest_ = ProtocolShape::DataDigest(*joint_, *partition_);
    }
    cache_->Rekey(ProtocolShape::Of(config, *joint_, *partition_, *data_digest_),
                  group, num_units);
  }

  // Pre-derive one HE randomness stream per task unit (== per query when
  // group is 1), in unit order, so the ciphertexts each task produces are
  // independent of scheduling.
  Rng stream_rng(config.seed ^ kHeStreamSalt);
  std::vector<uint64_t> stream_seeds(num_units);
  for (uint64_t& s : stream_seeds) s = stream_rng.Next();

  // Same trick for fault streams: each task's network gets its own seed,
  // pre-derived serially from the plan seed, so the fault schedule is
  // reproducible at any thread count.
  std::vector<uint64_t> fault_seeds;
  if (network_->faults_enabled()) {
    Rng fault_rng(network_->fault_seed() ^ kFaultStreamSalt);
    fault_seeds.resize(num_units);
    for (uint64_t& s : fault_seeds) s = fault_rng.Next();
  }

  // Per-task state: every unit (one query, or a grouped span of queries)
  // runs its complete protocol against a task-local deployment (HE session,
  // byte-metered network, clock), merged back below in deterministic query
  // order.
  struct QuerySlot {
    Status status = Status::OK();
    std::vector<QueryNeighborhood> hoods;
    FedKnnStats stats;
    net::SimNetwork net;
    SimClock clock;
    std::unique_ptr<he::HeBackend> session;
    CachedUnit produced;      // contributions staged for the repair cache
    double wall_seconds = 0;  // real time this unit's task spent
  };
  std::vector<QuerySlot> slots(num_units);

  // Ranking scratch: a task takes one that an ended unit returned (or a new
  // one) and returns it when its unit ends, so there is at most one per
  // task running at once, and Run() frees them all when it returns.
  std::mutex scratch_mu;
  std::vector<topk::RankedListSet::Scratch> idle_scratch;
  const auto take_scratch = [&] {
    std::lock_guard<std::mutex> lock(scratch_mu);
    if (idle_scratch.empty()) return topk::RankedListSet::Scratch();
    topk::RankedListSet::Scratch scratch = std::move(idle_scratch.back());
    idle_scratch.pop_back();
    return scratch;
  };
  const auto return_scratch = [&](topk::RankedListSet::Scratch scratch) {
    std::lock_guard<std::mutex> lock(scratch_mu);
    idle_scratch.push_back(std::move(scratch));
  };

  const auto run_unit_body = [&](size_t u,
                                 topk::RankedListSet::Scratch* scratch) {
    QuerySlot& slot = slots[u];
    auto session = backend_->Fork(stream_seeds[u]);
    if (!session.ok()) {
      slot.status = session.status();
      return;
    }
    slot.session = session.MoveValueUnsafe();
    slot.net.ShareMetricsOf(unit_meters_);
    if (!fault_seeds.empty()) {
      slot.net.EnableFaults(*network_->fault_spec(), fault_seeds[u],
                            &slot.clock);
    }
    apply_membership_marks(&slot.net);
    net::ReliableChannel chan(&slot.net, &slot.clock, retry);
    const QueryEnv env{slot.session.get(), &slot.net, &chan, &slot.clock,
                       &active, tracer, shard_rt,
                       cache_ == nullptr ? nullptr : cache_->unit(u),
                       cache_ == nullptr ? nullptr : &slot.produced, scratch};
    const size_t lo = u * group;
    const size_t hi = std::min(queries.size(), lo + group);
    auto hoods = RunUnit(env, queries, lo, hi, config, &slot.stats);
    if (hoods.ok()) {
      slot.hoods = hoods.MoveValueUnsafe();
    } else {
      slot.status = hoods.status();
    }
  };

  // One root span ("knn.query") per unit: the task adopts the caller's trace
  // context, so at any thread count the whole protocol tree of a unit —
  // phases, per-party work, retries, fault instants — is a single connected
  // subtree of the selection that requested it.
  const auto run_unit = [&](size_t u) {
    QuerySlot& slot = slots[u];
    Stopwatch unit_watch;
    {
      obs::TraceScope trace_scope(tracer, parent_ctx);
      obs::Span unit_span(tracer, "knn.query", &slot.clock);
      if (tracer != nullptr) {  // skip the StrFormat work when disabled
        unit_span.Annotate("unit", StrFormat("%zu", u));
        unit_span.Annotate("algo", KnnOracleModeName(config.mode));
        unit_span.Annotate("query_row", StrFormat("%zu", queries[u * group]));
      }
      topk::RankedListSet::Scratch scratch = take_scratch();
      run_unit_body(u, &scratch);
      return_scratch(std::move(scratch));
    }
    slot.wall_seconds = unit_watch.ElapsedSeconds();
  };

  ParallelFor(pool_, num_units, run_unit);

  // Every slot absorbs whatever contributions it staged into the repair
  // cache — on success AND on failure. All units execute regardless of which
  // one fails, and each unit is internally deterministic, so the salvaged
  // cache contents are independent of the thread count.
  const auto absorb_cache = [&] {
    if (cache_ == nullptr) return;
    for (size_t u = 0; u < slots.size(); ++u) {
      cache_->Absorb(u, std::move(slots[u].produced));
    }
  };

  // Churn bookkeeping is unioned over every fault stream (each task-local
  // network watches its copy of the schedule unfold independently).
  const auto poll_churn = [&](FedKnnStats* out) {
    if (out == nullptr) return;
    std::set<net::NodeId> departed, joined, healed;
    const auto take = [&](const net::SimNetwork& net) {
      for (net::NodeId d : net.DepartedNodes()) departed.insert(d);
      for (net::NodeId d : net.JoinedNodes()) joined.insert(d);
      for (net::NodeId d : net.HealedNodes()) healed.insert(d);
    };
    take(*network_);
    for (const QuerySlot& s : slots) take(s.net);
    out->departed_nodes.assign(departed.begin(), departed.end());
    out->joined_nodes.assign(joined.begin(), joined.end());
    out->healed_nodes.assign(healed.begin(), healed.end());
  };

  // Failed run: report the first error in query order without merging any
  // task-local protocol state, so a quarantine-and-rerun starts from a clean
  // slate — except for the contribution cache, which keeps the surviving
  // parties' work for incremental repair.
  for (const QuerySlot& slot : slots) {
    if (slot.status.ok()) continue;
    absorb_cache();
    if (stats != nullptr) {
      std::set<net::NodeId> dead;
      for (net::NodeId d : network_->DeadNodes()) dead.insert(d);
      for (const QuerySlot& s : slots) {
        for (net::NodeId d : s.net.DeadNodes()) dead.insert(d);
      }
      stats->dead_nodes.assign(dead.begin(), dead.end());
      poll_churn(stats);
    }
    return slot.status;
  }

  // Deterministic merge: fold every task-local deployment back into the
  // shared one in query order (clock charges are doubles, so the fold order
  // is part of the bit-identical guarantee).
  std::vector<QueryNeighborhood> result;
  result.reserve(queries.size());
  for (QuerySlot& slot : slots) {
    for (QueryNeighborhood& hood : slot.hoods) {
      result.push_back(std::move(hood));
    }
    if (h_unit_sim_ns_ != nullptr) {
      // Recorded serially in unit order. The sim-clock latency is a
      // deterministic function of the protocol, so the knn.query.sim_ns
      // histogram (and its percentiles) is thread-count-invariant; wall time
      // is real elapsed time and naturally varies.
      h_unit_sim_ns_->Record(static_cast<uint64_t>(
          std::llround(slot.clock.Total() * 1e9)));
      h_unit_wall_ns_->Record(static_cast<uint64_t>(
          std::llround(slot.wall_seconds * 1e9)));
    }
    clock_->Merge(slot.clock);
    network_->MergeStatsFrom(slot.net);
    backend_->AbsorbStats(slot.session->stats());
    if (stats != nullptr) {
      stats->candidates_encrypted += slot.stats.candidates_encrypted;
      stats->fagin_depth += slot.stats.fagin_depth;
      stats->reused_contributions += slot.stats.reused_contributions;
    }
  }
  absorb_cache();

  if (c_queries_ != nullptr) {
    c_queries_->Add(queries.size());
    c_queries_mode_[static_cast<int>(config.mode)]->Add(queries.size());
  }
  if (stats != nullptr) {
    poll_churn(stats);
    stats->queries += queries.size();
    net::TrafficStats after = network_->total();
    stats->traffic.messages += after.messages - traffic_before.messages;
    stats->traffic.bytes += after.bytes - traffic_before.bytes;
    he::HeOpStats he_after = backend_->stats();
    stats->he_ops.encrypt_ops += he_after.encrypt_ops - he_before.encrypt_ops;
    stats->he_ops.decrypt_ops += he_after.decrypt_ops - he_before.decrypt_ops;
    stats->he_ops.add_ops += he_after.add_ops - he_before.add_ops;
    stats->he_ops.values_encrypted +=
        he_after.values_encrypted - he_before.values_encrypted;
    stats->he_ops.values_decrypted +=
        he_after.values_decrypted - he_before.values_decrypted;
    stats->he_ops.values_added += he_after.values_added - he_before.values_added;
  }
  return result;
}

Status FederatedKnnOracle::PrepareQuery(const QueryEnv& env,
                                        uint64_t query_row,
                                        QueryState* q) const {
  const std::vector<size_t>& active = *env.active;
  q->row = query_row;
  // Per-party query slices, gathered once and reused by the pre-filter, by
  // every shard and by the d_T recompute.
  q->slices.resize(active.size());
  q->norms.assign(active.size(), 0.0);
  const double* qrow = joint_->Row(query_row);
  for (size_t ai = 0; ai < active.size(); ++ai) {
    const ml::FeatureBlock& block = party_blocks_[active[ai]];
    q->slices[ai].resize(block.cols());
    block.GatherInto(qrow, q->slices[ai].data());
    q->norms[ai] = ml::SquaredNorm(q->slices[ai].data(), block.cols());
  }
  // Optional TreeCSS-style pre-filter: nomination happens once, BEFORE any
  // distance or HE work, and every shard touches only its slice of it.
  if (env.rt.prefilter != nullptr) {
    VFPS_ASSIGN_OR_RETURN(q->nominated, RunPrefilterExchange(env, *q));
  }
  return Status::OK();
}

std::vector<uint64_t> FederatedKnnOracle::ShardItems(
    const ShardRuntime& rt, size_t s, const QueryState& q) const {
  const data::RowShard& shard = rt.plan[s];
  std::vector<uint64_t> rows;
  if (rt.prefilter != nullptr) {
    const auto first = std::lower_bound(q.nominated.begin(), q.nominated.end(),
                                        static_cast<uint64_t>(shard.begin));
    const auto last = std::lower_bound(first, q.nominated.end(),
                                       static_cast<uint64_t>(shard.end));
    rows.assign(first, last);
    if (rt.pseudo != nullptr) {
      std::sort(rows.begin(), rows.end(), [&](uint64_t x, uint64_t y) {
        return rt.pseudo->ToPseudo(x) < rt.pseudo->ToPseudo(y);
      });
    }
    return rows;
  }
  if (rt.pseudo != nullptr) {
    rows = (*rt.pid_rows)[s];
  } else {
    rows.resize(shard.rows());
    std::iota(rows.begin(), rows.end(), static_cast<uint64_t>(shard.begin));
  }
  // Drop the query row, which sits where its pseudo ID (top-k) or row id
  // (BASE) sorts.
  const auto key = [&](uint64_t row) {
    return rt.pseudo != nullptr ? rt.pseudo->ToPseudo(row) : row;
  };
  const auto at = std::partition_point(
      rows.begin(), rows.end(),
      [&](uint64_t row) { return key(row) < key(q.row); });
  if (at != rows.end() && *at == q.row) rows.erase(at);
  return rows;
}

const CachedUnit* FederatedKnnOracle::BindCache(const QueryEnv& env,
                                                const QueryState* queries,
                                                size_t count) {
  std::vector<std::vector<uint64_t>> nominated;
  if (env.rt.prefilter != nullptr) {
    for (size_t qi = 0; qi < count; ++qi) {
      nominated.push_back(queries[qi].nominated);
    }
  }
  const bool match =
      env.cached != nullptr && env.cached->nominated == nominated;
  if (env.fresh != nullptr) {
    env.fresh->nominated = std::move(nominated);
    env.fresh->shards.resize(env.rt.plan.size());
  }
  return match ? env.cached : nullptr;
}

Result<std::vector<QueryNeighborhood>> FederatedKnnOracle::RunUnit(
    const QueryEnv& env, const std::vector<size_t>& queries, size_t lo,
    size_t hi, const FedKnnConfig& config, FedKnnStats* stats) const {
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();  // == p with no quarantine
  const size_t g = hi - lo;        // queries sharing each aggregation round
  const size_t k = config.k;
  const ShardRuntime& rt = env.rt;
  // Top-k modes: the consortium-shared pseudo-ID shuffle (identity
  // security); only pseudo IDs go on the wire and into the merge. nullptr in
  // BASE mode.
  const PseudoIdMap* pseudo = rt.pseudo;

  std::vector<QueryState> qs(g);
  for (size_t qi = 0; qi < g; ++qi) {
    VFPS_RETURN_NOT_OK(PrepareQuery(env, queries[lo + qi], &qs[qi]));
  }
  const CachedUnit* bound = BindCache(env, qs.data(), g);

  // Shard loop: the complete round (distances -> narrowing (top-k modes) ->
  // encrypt -> aggregate -> decrypt -> shard-local top-k) runs per shard, so
  // only O(shard) protocol state is ever live.
  for (size_t s = 0; s < rt.plan.size(); ++s) {
    obs::Span shard_span(env.tracer, "knn.shard", env.clock);
    shard_span.SetNode("parties");
    PhaseTimer shard_timer(rt.sim_ns.empty() ? nullptr : rt.sim_ns[s],
                           env.clock);

    // Distance stage (active parties, parallel). Each party packs the group's
    // slices of this shard back to back: query qi occupies
    // [offset[qi], offset[qi + 1]). The layout is identical across parties,
    // so slot-wise ciphertext addition aggregates candidate (qi, i) against
    // exactly candidate (qi, i) everywhere; the final partial chunk's unused
    // slots are zero-masked by the encoder and never decoded. In the top-k
    // modes the rows are the shard's ranking items in pseudo-ID order, so
    // tied scores break by pseudo ID and nothing in the ranking reveals the
    // row order the shuffle hides.
    obs::Span span_dist(env.tracer, "knn.partial_distance", env.clock);
    span_dist.SetNode("parties");
    PhaseTimer phase_dist(c_phase_dist_, env.clock);
    std::vector<std::vector<uint64_t>> rows(g);
    std::vector<size_t> offset(g + 1, 0);
    for (size_t qi = 0; qi < g; ++qi) {
      rows[qi] = ShardItems(rt, s, qs[qi]);
      offset[qi + 1] = offset[qi] + rows[qi].size();
    }
    const size_t total = offset[g];
    if (total == 0) continue;
    if (env.tracer != nullptr) {
      shard_span.Annotate("shard", StrFormat("%zu", s));
      shard_span.Annotate("rows", StrFormat("%zu", total));
    }
    if (!rt.candidates.empty()) rt.candidates[s]->Add(total);
    // Everything below indexes by position in `active`. A party whose cached
    // entry covers these rows skips the compute, and in BASE the upload too:
    // on repair only the membership delta pays.
    std::vector<const PartyUnitState*> hits(a, nullptr);
    // The vectors to encrypt and upload, one per party without a hit, in
    // active order.
    std::vector<std::vector<double>> upload;
    std::vector<double> compute_seconds;
    for (size_t ai = 0; ai < a; ++ai) {
      const PartyUnitState* st = ShardEntry(bound, s, active[ai]);
      if (st != nullptr && st->values != nullptr &&
          st->values->size() == total) {
        hits[ai] = st;
        if (stats != nullptr) ++stats->reused_contributions;
        if (c_cache_hit_ != nullptr) c_cache_hit_->Add(1);
        continue;
      }
      if (env.cached != nullptr && c_cache_miss_ != nullptr) {
        c_cache_miss_->Add(1);
      }
      obs::Span party_span(env.tracer, "knn.party.compute", env.clock);
      party_span.SetNode(net::NodeName(static_cast<int>(active[ai])));
      const ml::FeatureBlock& block = party_blocks_[active[ai]];
      std::vector<double> packed(total);
      double seconds = 0.0;
      for (size_t qi = 0; qi < g; ++qi) {
        ShardDistances(block, qs[qi].slices[ai].data(), qs[qi].norms[ai],
                       rt.plan[s], rows[qi], packed.data() + offset[qi]);
        seconds += cost_->DistanceSeconds(rows[qi].size(), block.cols());
      }
      compute_seconds.push_back(seconds);
      upload.push_back(std::move(packed));
    }
    if (!upload.empty()) ChargeParallelCompute(env.clock, compute_seconds);
    phase_dist.End();
    span_dist.End();

    // Narrowing stage (top-k modes): the shard-local phase-1 merge over the
    // parties' sub-rankings picks the candidate set, and only the candidates'
    // partial distances enter the round below. Per-shard Fagin/TA is exact
    // within its shard, so the merged result equals the global one whenever
    // aggregate distances are tie-free (always, in practice, on continuous
    // features).
    if (pseudo != nullptr) {
      std::vector<topk::RankedListSet::SharedScores> scores(a);
      // Cached parties' known ranked prefixes (empty for fresh parties).
      std::vector<std::vector<uint32_t>> prefixes(a);
      std::vector<size_t> known(a, 0);
      // Rows of a party's sub-ranking the server already received in a prior
      // run of this unit — streaming below skips them.
      std::vector<size_t> prior_depth(a, 0);
      for (size_t ai = 0, fi = 0; ai < a; ++ai) {
        if (hits[ai] != nullptr) {
          scores[ai] = hits[ai]->values;
          prefixes[ai] = hits[ai]->order;
          known[ai] = hits[ai]->order.size();
          prior_depth[ai] = hits[ai]->streamed_depth;
          continue;
        }
        scores[ai] = std::make_shared<const std::vector<double>>(
            std::move(upload[fi++]));
        // Staged before anything is sent, so a failed stream still salvages
        // the scores.
        if (env.fresh != nullptr) {
          env.fresh->shards[s][active[ai]].values = scores[ai];
        }
      }

      // Rank stage (fresh parties, parallel): each party keys its scores and
      // counts their coarse histogram; the merge below scatters and sorts
      // only as deep as it reads. A cached party starts from its known
      // prefix and is keyed only if the merge reads past it. The list set
      // shares the score vectors (no copy), and works in the unit's ranking
      // scratch until the narrowing stage ends.
      obs::Span span_rank(env.tracer, "knn.rank", env.clock);
      span_rank.SetNode("parties");
      PhaseTimer phase_rank(c_phase_rank_, env.clock);
      VFPS_ASSIGN_OR_RETURN(auto lists,
                            topk::RankedListSet::BuildPresorted(
                                std::move(scores), std::move(prefixes),
                                std::move(*env.ranking_scratch)));
      const ScratchReturn give_back(&lists, env.ranking_scratch);
      if (!compute_seconds.empty()) {
        env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(total));
      }
      phase_rank.End();
      span_rank.End();

      // The shard-local phase-1 merge (exact within the shard). Fagin runs
      // its phase 1 alone: the candidates' aggregation is the encrypted
      // round below.
      obs::Span span_merge(env.tracer, "knn.topk_merge", env.clock);
      span_merge.SetNode("agg-server");
      PhaseTimer phase_merge(c_phase_merge_, env.clock);
      const size_t batch = config.fagin_batch;
      topk::TopkResult merge;
      if (config.mode == KnnOracleMode::kThreshold) {
        VFPS_ASSIGN_OR_RETURN(merge,
                              topk::ThresholdTopk(lists, k, ta_metrics_));
      } else {
        VFPS_ASSIGN_OR_RETURN(
            merge, topk::FaginPhase1(lists, k, batch, fagin_metrics_));
      }
      env.clock->Advance(CostCategory::kCompute,
                         static_cast<double>(merge.sorted_accesses) *
                             cost_->compare_seconds);
      phase_merge.End();
      span_merge.End();
      const size_t depth = merge.depth;
      if (env.fresh != nullptr) {
        // Stage the ranked prefix the merge read before anything is sent, so
        // a failure while streaming still salvages it. A cached party stages
        // one only when the merge read past its known prefix.
        for (size_t ai = 0; ai < a; ++ai) {
          if (known[ai] >= depth) continue;
          env.fresh->shards[s][active[ai]].order =
              lists.RankedPrefix(ai, depth);
        }
      }

      // Mini-batch streaming of the sub-rankings to the server (pseudo IDs on
      // the wire). The phase-1 depth of the merge algorithm determines how
      // many rounds happen.
      obs::Span span_stream(env.tracer, "knn.stream_rankings", env.clock);
      span_stream.SetNode("parties");
      PhaseTimer phase_stream(c_phase_stream_, env.clock);
      for (size_t start = 0; start < depth; start += batch) {
        const size_t end = std::min(depth, start + batch);
        size_t senders = 0;
        for (size_t ai = 0; ai < a; ++ai) {
          // Parties whose cached sub-ranking already streamed past this round
          // stay silent; a party partially covered sends only the missing
          // tail.
          if (prior_depth[ai] >= end) continue;
          const size_t from = std::max(start, prior_depth[ai]);
          std::vector<uint64_t> chunk;
          chunk.reserve(end - from);
          for (size_t r = from; r < end; ++r) {
            chunk.push_back(pseudo->ToPseudo(rows[0][lists.IdAtRank(ai, r)]));
          }
          VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                            net::kAggregationServer,
                                            EncodeIds(chunk)));
          VFPS_RETURN_NOT_OK(env.chan->Recv(static_cast<int>(active[ai]),
                                            net::kAggregationServer)
                                 .status());
          ++senders;
        }
        if (senders > 0) {
          ChargeFanIn(env.clock, (end - start) * sizeof(uint64_t), senders);
        }
      }
      if (env.fresh != nullptr) {
        for (size_t ai = 0; ai < a; ++ai) {
          if (prior_depth[ai] >= depth) continue;
          // Fresh parties already have a staged entry; for cached parties
          // that streamed deeper this creates a depth-only entry the cache
          // merges.
          env.fresh->shards[s][active[ai]].streamed_depth = depth;
        }
      }
      if (config.mode == KnnOracleMode::kThreshold) {
        // TA's stopping rule needs the aggregate score of each round's
        // frontier: every participant encrypts one frontier value, the
        // server sums them, and the leader decrypts the threshold — once per
        // round.
        const double rounds = std::ceil(static_cast<double>(depth) /
                                        static_cast<double>(batch));
        env.clock->Advance(CostCategory::kEncrypt,
                           rounds * cost_->EncryptSecondsFor(1));
        env.clock->Advance(CostCategory::kHeEval,
                           rounds * static_cast<double>(a - 1) *
                               cost_->HeAddSecondsFor(1));
        env.clock->Advance(CostCategory::kDecrypt,
                           rounds * cost_->DecryptSecondsFor(1));
        env.clock->Advance(
            CostCategory::kNetwork,
            rounds * cost_->NetworkSeconds(cost_->EncryptedWireBytes(1) *
                                               (static_cast<uint64_t>(a) + 1),
                                           2));
      }
      phase_stream.End();
      span_stream.End();

      // Candidate set: every item phase 1 saw, in ascending shard-item
      // (= pseudo-ID) order, so the broadcast below reveals the set and not
      // the order the merge read it in. Each party gathers exactly those
      // partial distances, and their rows replace the shard's items; every
      // party uploads, as no top-k ciphertext is cached.
      const std::vector<uint64_t>& cand = merge.candidate_ids;  // shard items
      const size_t c = cand.size();
      upload.assign(a, std::vector<double>(c));
      for (size_t ai = 0; ai < a; ++ai) {
        for (size_t i = 0; i < c; ++i) upload[ai][i] = lists.Score(ai, cand[i]);
      }
      std::vector<uint64_t> cand_rows(c);
      for (size_t i = 0; i < c; ++i) cand_rows[i] = rows[0][cand[i]];
      rows[0] = std::move(cand_rows);
      offset[1] = c;
      hits.assign(a, nullptr);
      qs[0].depth += depth;
    }

    // One encrypted aggregation round over what each party holds: a
    // ciphertext the server already has, or a vector it encrypts as one
    // batch (identical ciphertexts at any thread count, see
    // HeBackend::EncryptBatch) and uploads.
    const size_t width = offset[g];  // values per party vector
    obs::Span span_enc(env.tracer, "he.encrypt", env.clock);
    span_enc.SetNode("parties");
    PhaseTimer phase_enc(c_phase_encrypt_, env.clock);
    if (pseudo != nullptr) {
      // The server broadcasts the candidates' pseudo IDs; each party maps
      // them back to its own items.
      VFPS_ASSIGN_OR_RETURN(const auto cand_pids, pseudo->MapToPseudo(rows[0]));
      for (size_t party : active) {
        VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer,
                                          static_cast<int>(party),
                                          EncodeIds(cand_pids)));
      }
      ChargeFanOut(env.clock, width * sizeof(uint64_t), a);
      for (size_t party : active) {
        VFPS_RETURN_NOT_OK(env.chan->Recv(net::kAggregationServer,
                                          static_cast<int>(party))
                               .status());
      }
    }
    if (!upload.empty()) {
      VFPS_ASSIGN_OR_RETURN(auto encrypted, env.backend->EncryptBatch(upload));
      for (size_t ai = 0, fi = 0; ai < a; ++ai) {
        if (hits[ai] != nullptr) continue;
        if (!c_party_enc_values_.empty()) {
          c_party_enc_values_[active[ai]]->Add(width);
        }
        VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                          net::kAggregationServer,
                                          std::move(encrypted[fi++].blob)));
      }
      env.clock->Advance(CostCategory::kEncrypt,
                         cost_->EncryptSecondsFor(width));
      ChargeFanIn(env.clock, cost_->EncryptedWireBytes(width), upload.size());
    }
    phase_enc.End();
    span_enc.End();

    // Aggregation server: slot-wise sum over the cached ciphertexts it
    // already holds plus the fresh uploads, in ascending active order so a
    // repair sums bit-identically to a clean run; forward to the leader.
    obs::Span span_agg(env.tracer, "knn.aggregate", env.clock);
    span_agg.SetNode("agg-server");
    PhaseTimer phase_agg(c_phase_agg_, env.clock);
    std::vector<he::EncryptedVector> received(a);
    std::vector<const he::EncryptedVector*> ptrs(a);
    for (size_t ai = 0, fi = 0; ai < a; ++ai) {
      if (hits[ai] != nullptr) {
        ptrs[ai] = &hits[ai]->cipher;
        continue;
      }
      VFPS_ASSIGN_OR_RETURN(auto blob,
                            env.chan->Recv(static_cast<int>(active[ai]),
                                           net::kAggregationServer));
      received[ai] = he::EncryptedVector{std::move(blob), width};
      ptrs[ai] = &received[ai];
      if (pseudo == nullptr && env.fresh != nullptr) {
        // BASE: the vector and the server's ciphertext of it are staged
        // together, so an entry covering a round's rows carries both.
        PartyUnitState& st = env.fresh->shards[s][active[ai]];
        st.values = std::make_shared<const std::vector<double>>(
            std::move(upload[fi]));
        st.cipher = received[ai];
      }
      ++fi;
    }
    VFPS_ASSIGN_OR_RETURN(auto summed, env.backend->Sum(ptrs));
    env.clock->Advance(
        CostCategory::kHeEval,
        static_cast<double>(a - 1) * cost_->HeAddSecondsFor(width));
    VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer, kLeader,
                                      std::move(summed.blob)));
    ChargeFanOut(env.clock, cost_->EncryptedWireBytes(width), 1);
    phase_agg.End();
    span_agg.End();

    // Leader: ONE decrypt for the round, then each query's shard top-k over
    // its slice of the aggregate, in the merge's (value, id) order. The ids
    // are pseudo IDs in the top-k modes and compressed ids in BASE (rows
    // renumbered around the query row, shared by every shard). SmallestK
    // breaks ties by position; BASE's rows ascend, so there the sort keeps
    // its order.
    obs::Span span_decrypt(env.tracer, "knn.decrypt_rank", env.clock);
    span_decrypt.SetNode("leader");
    PhaseTimer phase_decrypt(c_phase_decrypt_, env.clock);
    VFPS_ASSIGN_OR_RETURN(auto blob,
                          env.chan->Recv(net::kAggregationServer, kLeader));
    VFPS_ASSIGN_OR_RETURN(
        auto distances,
        env.backend->Decrypt(he::EncryptedVector{std::move(blob), width}));
    env.clock->Advance(CostCategory::kDecrypt, cost_->DecryptSecondsFor(width));
    for (size_t qi = 0; qi < g; ++qi) {
      const size_t count = offset[qi + 1] - offset[qi];
      if (count == 0) continue;
      env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(count));
      const double* slice = distances.data() + offset[qi];
      std::vector<std::pair<double, uint64_t>> entries;
      for (uint64_t li : SmallestK(slice, count, k)) {
        const uint64_t row = rows[qi][li];
        entries.emplace_back(slice[li],
                             pseudo != nullptr ? pseudo->ToPseudo(row)
                             : row < qs[qi].row ? row
                                                : row - 1);
      }
      std::sort(entries.begin(), entries.end());
      topk::ShardTopk top;
      top.values.reserve(entries.size());
      top.ids.reserve(entries.size());
      for (const auto& [value, id] : entries) {
        top.values.push_back(value);
        top.ids.push_back(id);
      }
      qs[qi].tops.push_back(std::move(top));
      qs[qi].candidates += count;
    }
    phase_decrypt.End();
    span_decrypt.End();
  }

  std::vector<QueryNeighborhood> hoods(g);
  for (size_t qi = 0; qi < g; ++qi) {
    VFPS_ASSIGN_OR_RETURN(hoods[qi], FinishQuery(env, &qs[qi], k, stats));
  }
  return hoods;
}

Result<QueryNeighborhood> FederatedKnnOracle::FinishQuery(
    const QueryEnv& env, QueryState* q, size_t k, FedKnnStats* stats) const {
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();

  // Hierarchical merge at the leader: tournament rounds over the shard
  // top-ks. Lossless and associative, so the result is the top-k of the
  // query's whole candidate set for any shard count.
  obs::Span span_merge(env.tracer, "knn.topk_merge", env.clock);
  span_merge.SetNode("leader");
  PhaseTimer phase_merge(c_phase_merge_, env.clock);
  topk::ShardMergeStats merge_stats;
  VFPS_ASSIGN_OR_RETURN(auto merged,
                        topk::HierarchicalTopkMerge(std::move(q->tops), k,
                                                    &merge_stats));
  env.clock->Advance(CostCategory::kCompute,
                     cost_->SortSeconds(merge_stats.entries_in));
  if (c_shard_merges_ != nullptr) c_shard_merges_->Add(merge_stats.merges);
  phase_merge.End();
  span_merge.End();

  // Merge ids are pseudo IDs (top-k modes) or compressed row indices (BASE);
  // every party maps them back to rows locally, the leader included.
  const PseudoIdMap* pseudo = env.rt.pseudo;
  const size_t num_rows = joint_->num_samples();
  const std::vector<uint8_t> id_payload = EncodeIds(merged.ids);
  QueryNeighborhood hood;
  hood.query_row = q->row;
  VFPS_ASSIGN_OR_RETURN(hood.neighbors,
                        DecodeNeighborRows(id_payload, merged.size(), pseudo,
                                           num_rows, q->row));

  // d_T exchange: the leader broadcasts the neighbor ids; every active party
  // returns d_T^p (quarantined slots keep 0). Each party recomputes its k
  // neighbor rows with single-row kernel calls — the shard-local partials
  // are gone by design (O(shard) residency).
  obs::Span span_dt(env.tracer, "knn.dt_exchange", env.clock);
  span_dt.SetNode("leader");
  PhaseTimer phase_dt(c_phase_dt_, env.clock);
  for (size_t party : active) {
    if (party == 0) continue;
    VFPS_RETURN_NOT_OK(
        env.chan->Send(kLeader, static_cast<int>(party), id_payload));
  }
  ChargeFanOut(env.clock, merged.size() * sizeof(uint64_t), a - 1);
  hood.per_party_dt.assign(num_participants(), 0.0);
  std::vector<double> dt_seconds(a, 0.0);
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    std::vector<size_t> rows = hood.neighbors;
    if (party != 0) {
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(kLeader, static_cast<int>(party)));
      VFPS_ASSIGN_OR_RETURN(rows, DecodeNeighborRows(payload, merged.size(),
                                                     pseudo, num_rows, q->row));
    }
    const ml::FeatureBlock& block = party_blocks_[party];
    double dt = 0.0;
    for (size_t row : rows) {
      double d = 0.0;
      ml::BlockSquaredDistances(block, q->slices[ai].data(), q->norms[ai], row,
                                row + 1, &d);
      dt += d;
    }
    dt_seconds[ai] = cost_->DistanceSeconds(rows.size(), block.cols());
    if (party == 0) {
      hood.per_party_dt[0] = dt;
    } else {
      VFPS_RETURN_NOT_OK(
          env.chan->Send(static_cast<int>(party), kLeader, EncodeScalar(dt)));
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(static_cast<int>(party), kLeader));
      VFPS_ASSIGN_OR_RETURN(hood.per_party_dt[party], DecodeDtReply(payload));
    }
  }
  ChargeParallelCompute(env.clock, dt_seconds);
  ChargeFanIn(env.clock, sizeof(double), a - 1);
  phase_dt.End();
  span_dt.End();

  if (h_candidates_ != nullptr) h_candidates_->Record(q->candidates);
  if (stats != nullptr) {
    stats->candidates_encrypted += q->candidates;
    stats->fagin_depth += q->depth;
  }
  return hood;
}

Result<double> FederatedKnnOracle::DecodeDtReply(
    const std::vector<uint8_t>& payload) {
  BinaryReader reader(payload);
  VFPS_ASSIGN_OR_RETURN(const double dt, reader.ReadDouble());
  if (!reader.AtEnd()) {
    return Status::ProtocolError(StrFormat(
        "d_T reply: %zu bytes after the value", reader.remaining()));
  }
  return dt;
}

Result<std::vector<size_t>> FederatedKnnOracle::DecodeNeighborRows(
    const std::vector<uint8_t>& payload, size_t expected,
    const PseudoIdMap* pseudo, size_t num_rows, size_t query_row) {
  auto ids = DecodeIds(payload);
  if (!ids.ok()) {
    return Status::ProtocolError("d_T exchange: " + ids.status().message());
  }
  if (ids->size() != expected) {
    return Status::ProtocolError(
        StrFormat("d_T exchange: %zu neighbor ids, the merge has %zu",
                  ids->size(), expected));
  }
  std::vector<size_t> rows;
  rows.reserve(ids->size());
  if (pseudo != nullptr) {
    auto originals = pseudo->MapToOriginal(*ids);
    if (!originals.ok()) {
      return Status::ProtocolError("d_T exchange: " +
                                   originals.status().message());
    }
    for (uint64_t row : *originals) {
      if (row >= num_rows) {
        return Status::ProtocolError(
            StrFormat("d_T exchange: row %llu of %zu",
                      static_cast<unsigned long long>(row), num_rows));
      }
      rows.push_back(static_cast<size_t>(row));
    }
    return rows;
  }
  for (uint64_t id : *ids) {
    if (num_rows == 0 || id >= num_rows - 1) {
      return Status::ProtocolError(
          StrFormat("d_T exchange: compressed id %llu of %zu rows",
                    static_cast<unsigned long long>(id), num_rows));
    }
    rows.push_back(static_cast<size_t>(CompressedToRow(id, query_row)));
  }
  return rows;
}

Result<std::vector<uint64_t>> FederatedKnnOracle::RunPrefilterExchange(
    const QueryEnv& env, const QueryState& q) const {
  const size_t n = joint_->num_samples();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const ShardRuntime& rt = env.rt;
  const std::vector<ml::KMeansResult>& models = *rt.prefilter;

  obs::Span span(env.tracer, "knn.prefilter", env.clock);
  span.SetNode("parties");
  // Each party nominates the member rows of its clusters nearest its query
  // slice. Plaintext and party-local; only row ids cross the wire.
  std::vector<std::vector<uint64_t>> nominated(a);
  std::vector<uint8_t> mask(n, 0);
  double worst_seconds = 0.0;
  for (size_t ai = 0; ai < a; ++ai) {
    const ml::KMeansResult& km = models[active[ai]];
    for (uint32_t row : ml::NominateClusterRows(km, q.slices[ai].data(),
                                                q.norms[ai],
                                                rt.prefilter_target)) {
      nominated[ai].push_back(row);
      if (row != q.row) mask[row] = 1;
    }
    worst_seconds =
        std::max(worst_seconds, cost_->DistanceSeconds(km.clusters, km.cols));
  }
  env.clock->Advance(CostCategory::kCompute, worst_seconds);

  // Nomination exchange: parties upload their lists, the server broadcasts
  // the deduplicated union — same wire shape as the Fagin candidate exchange.
  uint64_t fan_in_worst = 0;
  for (size_t ai = 0; ai < a; ++ai) {
    VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                      net::kAggregationServer,
                                      EncodeIds(nominated[ai])));
    VFPS_RETURN_NOT_OK(env.chan->Recv(static_cast<int>(active[ai]),
                                      net::kAggregationServer)
                           .status());
    fan_in_worst =
        std::max(fan_in_worst, static_cast<uint64_t>(nominated[ai].size()) *
                                   sizeof(uint64_t));
  }
  ChargeFanIn(env.clock, fan_in_worst, a);

  std::vector<uint64_t> candidates;
  for (size_t row = 0; row < n; ++row) {
    if (mask[row] != 0) candidates.push_back(row);
  }
  for (size_t party : active) {
    VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer,
                                      static_cast<int>(party),
                                      EncodeIds(candidates)));
    VFPS_RETURN_NOT_OK(
        env.chan->Recv(net::kAggregationServer, static_cast<int>(party))
            .status());
  }
  ChargeFanOut(env.clock, candidates.size() * sizeof(uint64_t), a);

  if (c_prefilter_candidates_ != nullptr) {
    c_prefilter_candidates_->Add(candidates.size());
    c_prefilter_pruned_->Add((n - 1) - candidates.size());
  }
  return candidates;
}

Result<std::vector<int>> FederatedKnnOracle::ClassifyPredictions(
    const data::Dataset& queries, const std::vector<size_t>& participants,
    size_t k, bool charge_costs) {
  VFPS_CHECK_ARG(!participants.empty(), "fed-knn: empty sub-consortium");
  VFPS_CHECK_ARG(k >= 1, "fed-knn: k must be >= 1");
  VFPS_CHECK_ARG(queries.num_features() == joint_->num_features(),
                 "fed-knn: query feature width mismatch");
  for (size_t party : participants) {
    VFPS_CHECK_ARG(party < num_participants(),
                   "fed-knn: participant out of range");
  }
  // A repeated id would count that party's distances twice.
  std::vector<size_t> sorted_ids = participants;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  VFPS_CHECK_ARG(std::adjacent_find(sorted_ids.begin(), sorted_ids.end()) ==
                     sorted_ids.end(),
                 "fed-knn: duplicate participant");
  const size_t n = joint_->num_samples();
  const size_t s = participants.size();

  // Plaintext per-query scoring: rows are independent (disjoint output
  // slots, read-only inputs), so the pool can chew through them in any
  // order without affecting the predictions.
  std::vector<int> predictions(queries.num_samples());
  const auto classify_one = [&](size_t qi) {
    std::vector<double> aggregate(n, 0.0);
    for (size_t party : participants) {
      const auto partial = PartialDistances(party, queries, qi);
      for (size_t i = 0; i < n; ++i) aggregate[i] += partial[i];
    }
    const auto top = SmallestK(aggregate, k);
    std::vector<int> neighbor_labels;
    neighbor_labels.reserve(top.size());
    for (uint64_t idx : top) {
      neighbor_labels.push_back(joint_->Label(static_cast<size_t>(idx)));
    }
    predictions[qi] = ml::MajorityVote(neighbor_labels, joint_->num_classes());
  };
  ParallelFor(pool_, queries.num_samples(), classify_one);

  if (charge_costs) {
    // Per query, the deployment would run the BASE aggregation over the
    // sub-consortium: parallel distance computation + encrypt-all + sum +
    // decrypt + rank.
    double max_party_seconds = 0.0;
    for (size_t party : participants) {
      max_party_seconds =
          std::max(max_party_seconds,
                   cost_->DistanceSeconds(n, (*partition_)[party].size()));
    }
    const double nq = static_cast<double>(queries.num_samples());
    const double network_per_query = cost_->NetworkSeconds(
        cost_->EncryptedWireBytes(n) * s + cost_->EncryptedWireBytes(n),
        static_cast<uint64_t>(s) + 1);
    clock_->Advance(CostCategory::kCompute,
                    nq * (max_party_seconds + cost_->SortSeconds(n)));
    clock_->Advance(CostCategory::kEncrypt, nq * cost_->EncryptSecondsFor(n));
    clock_->Advance(CostCategory::kHeEval,
                    nq * static_cast<double>(s - 1) * cost_->HeAddSecondsFor(n));
    clock_->Advance(CostCategory::kDecrypt, nq * cost_->DecryptSecondsFor(n));
    clock_->Advance(CostCategory::kNetwork, nq * network_per_query);
  }
  return predictions;
}

Result<double> FederatedKnnOracle::ClassifyAccuracy(
    const data::Dataset& queries, const std::vector<size_t>& participants,
    size_t k, bool charge_costs) {
  VFPS_ASSIGN_OR_RETURN(
      auto predictions, ClassifyPredictions(queries, participants, k, charge_costs));
  if (predictions.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    correct += (predictions[i] == queries.Label(i));
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

}  // namespace vfps::vfl
