#include "vfl/fed_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
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
// kernel; +inf entries for excluded rows lose every comparison).
using ml::SmallestK;

std::vector<uint8_t> EncodeIds(const std::vector<uint64_t>& ids) {
  BinaryWriter writer;
  writer.WriteU64Vec(ids);
  return writer.TakeBytes();
}

Result<std::vector<uint64_t>> DecodeIds(const std::vector<uint8_t>& payload) {
  BinaryReader reader(payload);
  return reader.ReadU64Vec();
}

std::vector<uint8_t> EncodeScalar(double v) {
  BinaryWriter writer;
  writer.WriteDouble(v);
  return writer.TakeBytes();
}

Result<double> DecodeScalar(const std::vector<uint8_t>& payload) {
  BinaryReader reader(payload);
  return reader.ReadDouble();
}

// Lloyd iterations of the pre-filter's per-party clustering; also the basis
// of the simulated-clock charge for building the models.
constexpr size_t kPrefilterKmeansIters = 8;
}  // namespace

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
    c_phase_rank_ = phase("decrypt_rank");
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
    size_t participant, const data::Dataset& source, size_t query_row,
    size_t exclude_row) const {
  const ml::FeatureBlock& block = party_blocks_[participant];
  const size_t n = joint_->num_samples();
  const double* qrow = source.Row(query_row);
  // Gather the query's slice of this party's columns once; per-thread
  // scratch (fully overwritten each call).
  thread_local std::vector<double> qslice;
  qslice.resize(block.cols());
  block.GatherInto(qrow, qslice.data());
  const double q_norm = ml::SquaredNorm(qslice.data(), block.cols());
  const bool excluding = exclude_row < n;
  std::vector<double> out(excluding ? n - 1 : n);
  if (!excluding) {
    ml::BlockSquaredDistances(block, qslice.data(), q_norm, 0, n, out.data());
  } else {
    // Compressed output: the excluded row's slot is skipped by running the
    // kernel on the two surrounding ranges (per-row values are identical to a
    // full-range run; the kernel has no cross-row state).
    ml::BlockSquaredDistances(block, qslice.data(), q_norm, 0, exclude_row,
                              out.data());
    ml::BlockSquaredDistances(block, qslice.data(), q_norm, exclude_row + 1, n,
                              out.data() + exclude_row);
  }
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
  VFPS_CHECK_ARG(n > config.k + 1, "fed-knn: dataset smaller than k");
  VFPS_CHECK_ARG(config.num_queries >= 1, "fed-knn: need >= 1 query");
  VFPS_CHECK_ARG(config.fagin_batch >= 1, "fed-knn: fagin batch must be >= 1");
  VFPS_CHECK_ARG(config.shards >= 1, "fed-knn: shards must be >= 1");
  // Both sharding and the pre-filter route through the per-shard aggregation
  // rounds, which batch by shard — cross-query slot batching would fight
  // that layout, so the combinations are rejected up front.
  const bool sharded = config.shards > 1 || config.prefilter_clusters > 0;
  VFPS_CHECK_ARG(!sharded || config.query_group == 1,
                 "fed-knn: query_group batching is unsupported with --shards "
                 "or --prefilter");

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

  // Consortium-shared pseudo-ID shuffle for the top-k modes, derived once per
  // Run from the shared seed and read concurrently by every query task.
  const PseudoIdMap pseudo = (config.mode == KnnOracleMode::kBase)
                                 ? PseudoIdMap()
                                 : PseudoIdMap::Create(n, config.seed);

  // Resolve BASE-mode cross-query slot batching (FedKnnConfig::query_group):
  // group G consecutive queries into one task that shares a single encrypted
  // aggregation round. G = 1 (the default, and always for Fagin/TA) keeps
  // the one-task-per-query schedule bit-identical to previous releases;
  // query_group = 0 auto-sizes the group so each party's packed vector fills
  // the backend's ciphertext slots.
  size_t group = 1;
  if (config.mode == KnnOracleMode::kBase && !queries.empty()) {
    group = config.query_group;
    if (group == 0) {
      const size_t count = n - 1;
      const size_t slots_per_ct = backend_->SlotsPerCiphertext();
      group = count == 0 ? 1 : std::max<size_t>(1, slots_per_ct / count);
    }
    group = std::min(std::max<size_t>(1, group), queries.size());
  }
  const size_t num_units = queries.empty() ? 0 : (queries.size() + group - 1) / group;

  // Sharded-path runtime: the row-shard plan, the per-party pre-filter
  // models, and the per-shard metric handles — all built serially here so
  // query tasks share it read-only (no registry mutex, no model races).
  ShardRuntime shard_rt;
  std::vector<ml::KMeansResult> prefilter_models;
  if (sharded) {
    VFPS_ASSIGN_OR_RETURN(shard_rt.plan, data::MakeRowShards(n, config.shards));
    if (config.prefilter_clusters > 0) {
      // Each active party clusters its own columns once per Run — local
      // plaintext work (no protocol traffic), charged as parallel compute.
      prefilter_models.resize(p);
      double worst_seconds = 0.0;
      for (size_t party : active) {
        VFPS_ASSIGN_OR_RETURN(
            prefilter_models[party],
            ml::KMeansCluster(party_blocks_[party], config.prefilter_clusters,
                              config.seed + party, kPrefilterKmeansIters));
        worst_seconds = std::max(
            worst_seconds,
            static_cast<double>(kPrefilterKmeansIters) *
                static_cast<double>(prefilter_models[party].clusters) *
                cost_->DistanceSeconds(n, (*partition_)[party].size()));
      }
      clock_->Advance(CostCategory::kCompute, worst_seconds);
      shard_rt.prefilter = &prefilter_models;
      // Nominating ~4k rows per party keeps recall high while still pruning
      // the overwhelming majority of a large shard plan.
      shard_rt.prefilter_target = std::max<size_t>(4 * config.k, 32);
    }
    if (obs_ != nullptr) {
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
  }

  // Bind (or re-validate) the contribution cache against this run's protocol
  // shape. A key mismatch — different seed, mode, k, query count, batching or
  // dataset size — clears the cache, so stale contributions can never leak
  // into a differently-shaped run.
  if (cache_ != nullptr) {
    SelectionCache::Key key;
    key.seed = config.seed;
    key.mode = static_cast<int>(config.mode);
    key.k = config.k;
    key.num_queries = num_queries;
    key.fagin_batch = config.fagin_batch;
    key.group = group;
    key.n_rows = n;
    key.num_units = num_units;
    key.shards = config.shards;
    key.prefilter_clusters = config.prefilter_clusters;
    cache_->Rekey(key);
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

  const auto run_unit_body = [&](size_t u) {
    QuerySlot& slot = slots[u];
    auto session = backend_->Fork(stream_seeds[u]);
    if (!session.ok()) {
      slot.status = session.status();
      return;
    }
    slot.session = session.MoveValueUnsafe();
    slot.net.set_metrics(obs_);
    if (!fault_seeds.empty()) {
      slot.net.EnableFaults(*network_->fault_spec(), fault_seeds[u],
                            &slot.clock);
    }
    apply_membership_marks(&slot.net);
    net::ReliableChannel chan(&slot.net, &slot.clock, retry);
    // The sharded paths rebuild per-shard state from scratch every run, so
    // they neither consult nor stage contribution-cache entries (the Rekey
    // above still rejects shard-layout mismatches for checkpointed runs).
    const QueryEnv env{slot.session.get(), &slot.net, &chan, &slot.clock,
                       &active, tracer,
                       (cache_ == nullptr || sharded) ? nullptr : cache_->unit(u),
                       (cache_ == nullptr || sharded) ? nullptr : &slot.produced,
                       sharded ? &shard_rt : nullptr};
    const size_t lo = u * group;
    const size_t hi = std::min(queries.size(), lo + group);
    if (config.mode == KnnOracleMode::kBase && hi - lo > 1) {
      auto hoods = RunBaseQueryGroup(env, queries, lo, hi, config.k, &slot.stats);
      if (hoods.ok()) {
        slot.hoods = hoods.MoveValueUnsafe();
      } else {
        slot.status = hoods.status();
      }
      return;
    }
    Result<QueryNeighborhood> hood =
        env.shard != nullptr
            ? (config.mode == KnnOracleMode::kBase
                   ? RunBaseQuerySharded(env, queries[lo], config.k,
                                         &slot.stats)
                   : RunTopkQuerySharded(env, pseudo, queries[lo], config.k,
                                         config.fagin_batch, config.mode,
                                         &slot.stats))
            : (config.mode == KnnOracleMode::kBase
                   ? RunBaseQuery(env, queries[lo], config.k, &slot.stats)
                   : RunTopkQuery(env, pseudo, queries[lo], config.k,
                                  config.fagin_batch, config.mode,
                                  &slot.stats));
    if (hood.ok()) {
      slot.hoods.push_back(hood.MoveValueUnsafe());
    } else {
      slot.status = hood.status();
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
      run_unit_body(u);
    }
    slot.wall_seconds = unit_watch.ElapsedSeconds();
  };

  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->ParallelFor(0, num_units, run_unit);
  } else {
    for (size_t u = 0; u < num_units; ++u) run_unit(u);
  }

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

Result<QueryNeighborhood> FederatedKnnOracle::RunBaseQuery(
    const QueryEnv& env, uint64_t query_row, size_t k,
    FedKnnStats* stats) const {
  const size_t n = joint_->num_samples();
  const size_t p = num_participants();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();  // == p with no quarantine
  const size_t count = n - 1;      // the query row itself is excluded

  // Repair-cache lookup: a party's contribution is reusable only when its
  // staged values cover this unit's full candidate range and the server still
  // holds its ciphertext.
  const auto cached_for = [&](size_t party) -> const PartyUnitState* {
    if (env.cached == nullptr) return nullptr;
    const auto it = env.cached->parties.find(party);
    if (it == env.cached->parties.end()) return nullptr;
    const PartyUnitState& st = it->second;
    return (st.has_cipher && st.values.size() == count) ? &st : nullptr;
  };

  // Phase 1 (active participants, parallel): local partial distances +
  // encryption. Everything below indexes by position in `active`. Parties
  // with a cached contribution skip both compute and upload — on repair only
  // the membership delta pays.
  obs::Span span_dist(env.tracer, "knn.partial_distance", env.clock);
  span_dist.SetNode("parties");
  PhaseTimer phase_dist(c_phase_dist_, env.clock);
  std::vector<std::vector<double>> partials(a);
  std::vector<const PartyUnitState*> hits(a, nullptr);
  std::vector<double> compute_seconds;
  compute_seconds.reserve(a);
  size_t fresh = 0;
  for (size_t ai = 0; ai < a; ++ai) {
    if (const PartyUnitState* st = cached_for(active[ai])) {
      hits[ai] = st;
      partials[ai] = st->values;  // still needed for the d_T exchange
      if (stats != nullptr) ++stats->reused_contributions;
      if (c_cache_hit_ != nullptr) c_cache_hit_->Add(1);
      continue;
    }
    if (env.cached != nullptr && c_cache_miss_ != nullptr) {
      c_cache_miss_->Add(1);
    }
    obs::Span party_span(env.tracer, "knn.party.compute", env.clock);
    party_span.SetNode(net::NodeName(static_cast<int>(active[ai])));
    partials[ai] = PartialDistances(active[ai], *joint_, query_row, query_row);
    compute_seconds.push_back(
        cost_->DistanceSeconds(count, (*partition_)[active[ai]].size()));
    ++fresh;
  }
  if (fresh > 0) ChargeParallelCompute(env.clock, compute_seconds);
  phase_dist.End();
  span_dist.End();

  obs::Span span_enc(env.tracer, "he.encrypt", env.clock);
  span_enc.SetNode("parties");
  PhaseTimer phase_enc(c_phase_encrypt_, env.clock);
  std::vector<he::EncryptedVector> encrypted;
  if (fresh > 0) {
    std::vector<std::vector<double>> fresh_values;
    fresh_values.reserve(fresh);
    for (size_t ai = 0; ai < a; ++ai) {
      if (hits[ai] == nullptr) fresh_values.push_back(partials[ai]);
    }
    VFPS_ASSIGN_OR_RETURN(encrypted, env.backend->EncryptBatch(fresh_values));
    size_t fi = 0;
    for (size_t ai = 0; ai < a; ++ai) {
      if (hits[ai] != nullptr) continue;
      if (!c_party_enc_values_.empty()) {
        c_party_enc_values_[active[ai]]->Add(count);
      }
      VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                        net::kAggregationServer,
                                        std::move(encrypted[fi++].blob)));
    }
    env.clock->Advance(CostCategory::kEncrypt, cost_->EncryptSecondsFor(count));
    ChargeFanIn(env.clock, cost_->EncryptedWireBytes(count), fresh);
  }
  phase_enc.End();
  span_enc.End();

  // Phase 2 (aggregation server): homomorphic sum over the cached ciphertexts
  // it already holds plus the fresh uploads, in ascending active order so a
  // repair sums bit-identically to a clean run; forward to the leader.
  obs::Span span_agg(env.tracer, "knn.aggregate", env.clock);
  span_agg.SetNode("agg-server");
  PhaseTimer phase_agg(c_phase_agg_, env.clock);
  std::vector<he::EncryptedVector> received(a);
  std::vector<const he::EncryptedVector*> ptrs(a);
  for (size_t ai = 0; ai < a; ++ai) {
    if (hits[ai] != nullptr) {
      ptrs[ai] = &hits[ai]->cipher;
      continue;
    }
    VFPS_ASSIGN_OR_RETURN(auto blob,
                          env.chan->Recv(static_cast<int>(active[ai]),
                                         net::kAggregationServer));
    received[ai] = he::EncryptedVector{std::move(blob), count};
    ptrs[ai] = &received[ai];
    if (env.fresh != nullptr) {
      PartyUnitState& st = env.fresh->parties[active[ai]];
      st.values = partials[ai];
      st.cipher = received[ai];
      st.has_cipher = true;
    }
  }
  VFPS_ASSIGN_OR_RETURN(auto summed, env.backend->Sum(ptrs));
  env.clock->Advance(CostCategory::kHeEval,
                     static_cast<double>(a - 1) * cost_->HeAddSecondsFor(count));
  VFPS_RETURN_NOT_OK(
      env.chan->Send(net::kAggregationServer, kLeader,
                     std::move(summed.blob)));
  ChargeFanOut(env.clock, cost_->EncryptedWireBytes(count), 1);
  phase_agg.End();
  span_agg.End();

  // Phase 3 (leader): decrypt, rank, pick the k nearest.
  obs::Span span_rank(env.tracer, "knn.decrypt_rank", env.clock);
  span_rank.SetNode("leader");
  PhaseTimer phase_rank(c_phase_rank_, env.clock);
  VFPS_ASSIGN_OR_RETURN(auto blob, env.chan->Recv(net::kAggregationServer, kLeader));
  VFPS_ASSIGN_OR_RETURN(
      auto distances,
      env.backend->Decrypt(he::EncryptedVector{std::move(blob), count}));
  env.clock->Advance(CostCategory::kDecrypt, cost_->DecryptSecondsFor(count));
  env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(count));
  const auto top = SmallestK(distances, k);
  phase_rank.End();
  span_rank.End();

  QueryNeighborhood hood;
  hood.query_row = query_row;
  hood.neighbors.reserve(top.size());
  for (uint64_t idx : top) {
    hood.neighbors.push_back(CompressedToRow(idx, query_row));
  }

  // Phase 4: leader broadcasts T; every active participant returns d_T^p.
  obs::Span span_dt(env.tracer, "knn.dt_exchange", env.clock);
  span_dt.SetNode("leader");
  PhaseTimer phase_dt(c_phase_dt_, env.clock);
  // Quarantined slots keep d_T^p = 0 (the caller drops them anyway).
  for (size_t party : active) {
    if (party == 0) continue;
    VFPS_RETURN_NOT_OK(
        env.chan->Send(kLeader, static_cast<int>(party), EncodeIds(top)));
  }
  ChargeFanOut(env.clock, top.size() * sizeof(uint64_t), a - 1);
  hood.per_party_dt.assign(p, 0.0);
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    std::vector<uint64_t> ids = top;
    if (party != 0) {
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(kLeader, static_cast<int>(party)));
      VFPS_ASSIGN_OR_RETURN(ids, DecodeIds(payload));
    }
    double dt = 0.0;
    for (uint64_t idx : ids) dt += partials[ai][idx];
    if (party == 0) {
      hood.per_party_dt[0] = dt;
    } else {
      VFPS_RETURN_NOT_OK(
          env.chan->Send(static_cast<int>(party), kLeader, EncodeScalar(dt)));
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(static_cast<int>(party), kLeader));
      VFPS_ASSIGN_OR_RETURN(hood.per_party_dt[party], DecodeScalar(payload));
    }
  }
  ChargeFanIn(env.clock, sizeof(double), a - 1);
  phase_dt.End();
  span_dt.End();

  if (h_candidates_ != nullptr) h_candidates_->Record(count);
  if (stats != nullptr) stats->candidates_encrypted += count;
  return hood;
}

Result<std::vector<QueryNeighborhood>> FederatedKnnOracle::RunBaseQueryGroup(
    const QueryEnv& env, const std::vector<size_t>& queries, size_t lo,
    size_t hi, size_t k, FedKnnStats* stats) const {
  const size_t n = joint_->num_samples();
  const size_t p = num_participants();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const size_t count = n - 1;  // candidates per query (query row excluded)
  const size_t g = hi - lo;    // queries sharing this aggregation round
  const size_t total = g * count;

  // Phase 1 (active participants, parallel): each party computes the group's
  // partial-distance vectors and lays them out in ONE slot-aligned packed
  // vector — query q occupies [q*count, (q+1)*count). The layout is identical
  // across parties, so slot-wise ciphertext addition aggregates candidate
  // (q, i) against exactly candidate (q, i) everywhere; the final partial
  // chunk's unused slots are zero-masked by the encoder and never decoded.
  obs::Span span_dist(env.tracer, "knn.partial_distance", env.clock);
  span_dist.SetNode("parties");
  PhaseTimer phase_dist(c_phase_dist_, env.clock);
  const auto cached_for = [&](size_t party) -> const PartyUnitState* {
    if (env.cached == nullptr) return nullptr;
    const auto it = env.cached->parties.find(party);
    if (it == env.cached->parties.end()) return nullptr;
    const PartyUnitState& st = it->second;
    return (st.has_cipher && st.values.size() == total) ? &st : nullptr;
  };
  std::vector<std::vector<double>> packed(a);
  std::vector<const PartyUnitState*> hits(a, nullptr);
  std::vector<double> compute_seconds;
  compute_seconds.reserve(a);
  size_t fresh = 0;
  for (size_t ai = 0; ai < a; ++ai) {
    if (const PartyUnitState* st = cached_for(active[ai])) {
      hits[ai] = st;
      packed[ai] = st->values;  // still needed for the d_T exchange
      if (stats != nullptr) ++stats->reused_contributions;
      if (c_cache_hit_ != nullptr) c_cache_hit_->Add(1);
      continue;
    }
    if (env.cached != nullptr && c_cache_miss_ != nullptr) {
      c_cache_miss_->Add(1);
    }
    obs::Span party_span(env.tracer, "knn.party.compute", env.clock);
    party_span.SetNode(net::NodeName(static_cast<int>(active[ai])));
    packed[ai].reserve(total);
    double seconds = 0.0;
    for (size_t qi = 0; qi < g; ++qi) {
      const size_t query_row = queries[lo + qi];
      const auto partial =
          PartialDistances(active[ai], *joint_, query_row, query_row);
      packed[ai].insert(packed[ai].end(), partial.begin(), partial.end());
      seconds += cost_->DistanceSeconds(count, (*partition_)[active[ai]].size());
    }
    compute_seconds.push_back(seconds);
    ++fresh;
  }
  if (fresh > 0) ChargeParallelCompute(env.clock, compute_seconds);
  phase_dist.End();
  span_dist.End();

  // Phase 2: one packed encrypt per fresh party for the whole group; cached
  // parties' packed ciphertexts are already at the server.
  obs::Span span_enc(env.tracer, "he.encrypt", env.clock);
  span_enc.SetNode("parties");
  PhaseTimer phase_enc(c_phase_encrypt_, env.clock);
  std::vector<he::EncryptedVector> encrypted;
  if (fresh > 0) {
    std::vector<std::vector<double>> fresh_values;
    fresh_values.reserve(fresh);
    for (size_t ai = 0; ai < a; ++ai) {
      if (hits[ai] == nullptr) fresh_values.push_back(packed[ai]);
    }
    VFPS_ASSIGN_OR_RETURN(encrypted, env.backend->EncryptBatch(fresh_values));
    size_t fi = 0;
    for (size_t ai = 0; ai < a; ++ai) {
      if (hits[ai] != nullptr) continue;
      if (!c_party_enc_values_.empty()) {
        c_party_enc_values_[active[ai]]->Add(total);
      }
      VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                        net::kAggregationServer,
                                        std::move(encrypted[fi++].blob)));
    }
    env.clock->Advance(CostCategory::kEncrypt, cost_->EncryptSecondsFor(total));
    ChargeFanIn(env.clock, cost_->EncryptedWireBytes(total), fresh);
  }
  phase_enc.End();
  span_enc.End();

  // Phase 3 (aggregation server): slot-wise sum over cached + fresh
  // ciphertexts in ascending active order, forward to the leader.
  obs::Span span_agg(env.tracer, "knn.aggregate", env.clock);
  span_agg.SetNode("agg-server");
  PhaseTimer phase_agg(c_phase_agg_, env.clock);
  std::vector<he::EncryptedVector> received(a);
  std::vector<const he::EncryptedVector*> ptrs(a);
  for (size_t ai = 0; ai < a; ++ai) {
    if (hits[ai] != nullptr) {
      ptrs[ai] = &hits[ai]->cipher;
      continue;
    }
    VFPS_ASSIGN_OR_RETURN(auto blob,
                          env.chan->Recv(static_cast<int>(active[ai]),
                                         net::kAggregationServer));
    received[ai] = he::EncryptedVector{std::move(blob), total};
    ptrs[ai] = &received[ai];
    if (env.fresh != nullptr) {
      PartyUnitState& st = env.fresh->parties[active[ai]];
      st.values = packed[ai];
      st.cipher = received[ai];
      st.has_cipher = true;
    }
  }
  VFPS_ASSIGN_OR_RETURN(auto summed, env.backend->Sum(ptrs));
  env.clock->Advance(CostCategory::kHeEval, static_cast<double>(a - 1) *
                                                cost_->HeAddSecondsFor(total));
  VFPS_RETURN_NOT_OK(
      env.chan->Send(net::kAggregationServer, kLeader,
                     std::move(summed.blob)));
  ChargeFanOut(env.clock, cost_->EncryptedWireBytes(total), 1);
  phase_agg.End();
  span_agg.End();

  // Phase 4 (leader): ONE decrypt for the group, then rank each query's
  // slice of the aggregate vector.
  obs::Span span_rank(env.tracer, "knn.decrypt_rank", env.clock);
  span_rank.SetNode("leader");
  PhaseTimer phase_rank(c_phase_rank_, env.clock);
  VFPS_ASSIGN_OR_RETURN(auto blob,
                        env.chan->Recv(net::kAggregationServer, kLeader));
  VFPS_ASSIGN_OR_RETURN(
      auto distances,
      env.backend->Decrypt(he::EncryptedVector{std::move(blob), total}));
  env.clock->Advance(CostCategory::kDecrypt, cost_->DecryptSecondsFor(total));
  std::vector<QueryNeighborhood> hoods(g);
  for (size_t qi = 0; qi < g; ++qi) {
    const size_t query_row = queries[lo + qi];
    env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(count));
    const auto top = SmallestK(distances.data() + qi * count, count, k);
    hoods[qi].query_row = query_row;
    hoods[qi].neighbors.reserve(top.size());
    for (uint64_t idx : top) {
      hoods[qi].neighbors.push_back(CompressedToRow(idx, query_row));
    }
  }
  phase_rank.End();
  span_rank.End();

  // Phase 5: per-query d_T exchange, exactly as in the ungrouped protocol
  // (plaintext scalars; nothing here benefits from batching).
  obs::Span span_dt(env.tracer, "knn.dt_exchange", env.clock);
  span_dt.SetNode("leader");
  PhaseTimer phase_dt(c_phase_dt_, env.clock);
  for (size_t qi = 0; qi < g; ++qi) {
    QueryNeighborhood& hood = hoods[qi];
    std::vector<uint64_t> top;
    top.reserve(hood.neighbors.size());
    const size_t query_row = queries[lo + qi];
    for (uint64_t row : hood.neighbors) {
      // Back to compressed candidate index for the partial-distance lookup.
      top.push_back(row < query_row ? row : row - 1);
    }
    for (size_t party : active) {
      if (party == 0) continue;
      VFPS_RETURN_NOT_OK(
          env.chan->Send(kLeader, static_cast<int>(party), EncodeIds(top)));
    }
    ChargeFanOut(env.clock, top.size() * sizeof(uint64_t), a - 1);
    hood.per_party_dt.assign(p, 0.0);
    for (size_t ai = 0; ai < a; ++ai) {
      const size_t party = active[ai];
      std::vector<uint64_t> ids = top;
      if (party != 0) {
        VFPS_ASSIGN_OR_RETURN(auto payload,
                              env.chan->Recv(kLeader, static_cast<int>(party)));
        VFPS_ASSIGN_OR_RETURN(ids, DecodeIds(payload));
      }
      double dt = 0.0;
      for (uint64_t idx : ids) dt += packed[ai][qi * count + idx];
      if (party == 0) {
        hood.per_party_dt[0] = dt;
      } else {
        VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(party), kLeader,
                                          EncodeScalar(dt)));
        VFPS_ASSIGN_OR_RETURN(auto payload,
                              env.chan->Recv(static_cast<int>(party), kLeader));
        VFPS_ASSIGN_OR_RETURN(hood.per_party_dt[party], DecodeScalar(payload));
      }
    }
    ChargeFanIn(env.clock, sizeof(double), a - 1);
  }
  phase_dt.End();
  span_dt.End();

  if (h_candidates_ != nullptr) {
    for (size_t qi = 0; qi < g; ++qi) h_candidates_->Record(count);
  }
  if (stats != nullptr) stats->candidates_encrypted += total;
  return hoods;
}

Result<QueryNeighborhood> FederatedKnnOracle::RunTopkQuery(
    const QueryEnv& env, const PseudoIdMap& pseudo, uint64_t query_row,
    size_t k, size_t batch, KnnOracleMode mode, FedKnnStats* stats) const {
  const size_t n = joint_->num_samples();
  const size_t p = num_participants();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();  // == p with no quarantine

  // Step 1: consortium-shared pseudo-ID shuffle (identity security). The map
  // is built once per Run and shared read-only across query tasks.
  const uint64_t query_pid = pseudo.ToPseudo(query_row);

  // Step 2 (active participants, parallel): partial distances in pseudo-ID
  // space, sorted ascending to form sub-rankings. Indexed by position in
  // `active`.
  obs::Span span_dist(env.tracer, "knn.partial_distance", env.clock);
  span_dist.SetNode("parties");
  PhaseTimer phase_dist(c_phase_dist_, env.clock);
  const auto cached_for = [&](size_t party) -> const PartyUnitState* {
    if (env.cached == nullptr) return nullptr;
    const auto it = env.cached->parties.find(party);
    if (it == env.cached->parties.end()) return nullptr;
    const PartyUnitState& st = it->second;
    return (st.values.size() == n && st.order.size() == n) ? &st : nullptr;
  };
  std::vector<std::vector<double>> scores(a);
  std::vector<std::vector<uint64_t>> orders(a);
  // Rows of a party's sub-ranking the server already received in a prior run
  // of this unit — streaming below skips them.
  std::vector<size_t> prior_depth(a, 0);
  std::vector<double> compute_seconds;
  compute_seconds.reserve(a);
  size_t fresh = 0;
  for (size_t ai = 0; ai < a; ++ai) {
    if (const PartyUnitState* st = cached_for(active[ai])) {
      scores[ai] = st->values;
      orders[ai] = st->order;
      prior_depth[ai] = st->streamed_depth;
      if (stats != nullptr) ++stats->reused_contributions;
      if (c_cache_hit_ != nullptr) c_cache_hit_->Add(1);
      continue;
    }
    if (env.cached != nullptr && c_cache_miss_ != nullptr) {
      c_cache_miss_->Add(1);
    }
    obs::Span party_span(env.tracer, "knn.party.compute", env.clock);
    party_span.SetNode(net::NodeName(static_cast<int>(active[ai])));
    scores[ai].resize(n);
    // Same kernel as the BASE path (PartialDistances without exclusion), so
    // the per-(party, row) values agree exactly across oracle modes; only
    // the pseudo-ID scatter differs.
    const auto partial =
        PartialDistances(active[ai], *joint_, query_row, n /*no exclusion*/);
    for (size_t i = 0; i < n; ++i) {
      scores[ai][pseudo.ToPseudo(i)] = partial[i];
    }
    scores[ai][query_pid] = std::numeric_limits<double>::infinity();
    orders[ai] = topk::RankedListSet::SortedOrder(scores[ai]);
    compute_seconds.push_back(
        cost_->DistanceSeconds(n, (*partition_)[active[ai]].size()) +
        cost_->SortSeconds(n));
    ++fresh;
    if (env.fresh != nullptr) {
      // Stage the sub-ranking immediately so a later-phase failure still
      // salvages this party's work (streamed_depth catches up below).
      PartyUnitState& st = env.fresh->parties[active[ai]];
      st.values = scores[ai];
      st.order = orders[ai];
    }
  }
  if (fresh > 0) ChargeParallelCompute(env.clock, compute_seconds);
  phase_dist.End();
  span_dist.End();

  obs::Span span_merge(env.tracer, "knn.topk_merge", env.clock);
  span_merge.SetNode("agg-server");
  PhaseTimer phase_merge(c_phase_merge_, env.clock);
  // The list set takes the score vectors and orders over (no per-query
  // copy); later lookups read them back through lists.Score().
  VFPS_ASSIGN_OR_RETURN(auto lists,
                        topk::RankedListSet::BuildPresorted(std::move(scores),
                                                            std::move(orders)));
  topk::TopkResult merge;
  if (mode == KnnOracleMode::kThreshold) {
    VFPS_ASSIGN_OR_RETURN(merge, topk::ThresholdTopk(lists, k, obs_));
  } else {
    VFPS_ASSIGN_OR_RETURN(merge, topk::FaginTopk(lists, k, batch, obs_));
  }
  const topk::TopkResult& fagin = merge;
  phase_merge.End();
  span_merge.End();

  // Steps 3-4: mini-batch streaming of the sub-rankings to the server. The
  // phase-1 depth of the merge algorithm determines how many rounds happen.
  obs::Span span_stream(env.tracer, "knn.stream_rankings", env.clock);
  span_stream.SetNode("parties");
  PhaseTimer phase_stream(c_phase_stream_, env.clock);
  const size_t depth = fagin.depth;
  for (size_t start = 0; start < depth; start += batch) {
    const size_t end = std::min(depth, start + batch);
    size_t senders = 0;
    for (size_t ai = 0; ai < a; ++ai) {
      // Parties whose cached sub-ranking already streamed past this round
      // stay silent; a party partially covered sends only the missing tail.
      if (prior_depth[ai] >= end) continue;
      const size_t from = std::max(start, prior_depth[ai]);
      std::vector<uint64_t> chunk;
      chunk.reserve(end - from);
      for (size_t r = from; r < end; ++r) chunk.push_back(lists.IdAtRank(ai, r));
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
      // Fresh parties already have a staged entry; for cached parties that
      // streamed deeper this creates a depth-only entry the cache merges.
      env.fresh->parties[active[ai]].streamed_depth = depth;
    }
  }
  env.clock->Advance(CostCategory::kCompute,
                     static_cast<double>(fagin.sorted_accesses) * cost_->compare_seconds);

  if (mode == KnnOracleMode::kThreshold) {
    // TA's stopping rule needs the aggregate score of each round's frontier:
    // every participant encrypts one frontier value, the server sums them,
    // and the leader decrypts the threshold — once per streamed round.
    const double rounds = std::ceil(static_cast<double>(depth) /
                                    static_cast<double>(batch));
    env.clock->Advance(CostCategory::kEncrypt, rounds * cost_->EncryptSecondsFor(1));
    env.clock->Advance(CostCategory::kHeEval,
                       rounds * static_cast<double>(a - 1) * cost_->HeAddSecondsFor(1));
    env.clock->Advance(CostCategory::kDecrypt, rounds * cost_->DecryptSecondsFor(1));
    env.clock->Advance(
        CostCategory::kNetwork,
        rounds * cost_->NetworkSeconds(
                     cost_->EncryptedWireBytes(1) * (static_cast<uint64_t>(a) + 1),
                     2));
  }

  phase_stream.End();
  span_stream.End();

  // Candidate set: everything seen during phase 1 (minus the query itself).
  std::vector<uint64_t> candidates = fagin.candidate_ids;
  candidates.erase(std::remove(candidates.begin(), candidates.end(), query_pid),
                   candidates.end());
  const size_t c = candidates.size();

  // Step 5: server broadcasts the candidate pseudo IDs; participants look up
  // exactly those candidates' partial distances and encrypt them as one
  // batch (the batched-HE fast path; identical ciphertexts at any thread
  // count, see HeBackend::EncryptBatch).
  obs::Span span_enc(env.tracer, "he.encrypt", env.clock);
  span_enc.SetNode("parties");
  PhaseTimer phase_enc(c_phase_encrypt_, env.clock);
  for (size_t party : active) {
    VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer,
                                      static_cast<int>(party),
                                      EncodeIds(candidates)));
  }
  ChargeFanOut(env.clock, c * sizeof(uint64_t), a);

  std::vector<std::vector<double>> party_values(a);
  for (size_t ai = 0; ai < a; ++ai) {
    VFPS_ASSIGN_OR_RETURN(auto payload,
                          env.chan->Recv(net::kAggregationServer,
                                         static_cast<int>(active[ai])));
    VFPS_ASSIGN_OR_RETURN(auto ids, DecodeIds(payload));
    party_values[ai].reserve(ids.size());
    for (uint64_t pid : ids) party_values[ai].push_back(lists.Score(ai, pid));
  }
  VFPS_ASSIGN_OR_RETURN(auto encrypted, env.backend->EncryptBatch(party_values));
  std::vector<const he::EncryptedVector*> ptrs(a);
  for (size_t ai = 0; ai < a; ++ai) {
    if (!c_party_enc_values_.empty()) {
      c_party_enc_values_[active[ai]]->Add(c);
    }
    VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                      net::kAggregationServer,
                                      std::move(encrypted[ai].blob)));
  }
  env.clock->Advance(CostCategory::kEncrypt, cost_->EncryptSecondsFor(c));
  ChargeFanIn(env.clock, cost_->EncryptedWireBytes(c), a);
  phase_enc.End();
  span_enc.End();

  // Step 6: homomorphic aggregation, forwarded to the leader.
  obs::Span span_agg(env.tracer, "knn.aggregate", env.clock);
  span_agg.SetNode("agg-server");
  PhaseTimer phase_agg(c_phase_agg_, env.clock);
  for (size_t ai = 0; ai < a; ++ai) {
    VFPS_ASSIGN_OR_RETURN(auto blob,
                          env.chan->Recv(static_cast<int>(active[ai]),
                                         net::kAggregationServer));
    encrypted[ai] = he::EncryptedVector{std::move(blob), c};
    ptrs[ai] = &encrypted[ai];
  }
  VFPS_ASSIGN_OR_RETURN(auto summed, env.backend->Sum(ptrs));
  env.clock->Advance(CostCategory::kHeEval,
                     static_cast<double>(a - 1) * cost_->HeAddSecondsFor(c));
  VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer, kLeader,
                                    std::move(summed.blob)));
  ChargeFanOut(env.clock, cost_->EncryptedWireBytes(c), 1);
  phase_agg.End();
  span_agg.End();

  // Step 7 (leader): decrypt candidate aggregates, take the k nearest.
  obs::Span span_rank(env.tracer, "knn.decrypt_rank", env.clock);
  span_rank.SetNode("leader");
  PhaseTimer phase_rank(c_phase_rank_, env.clock);
  VFPS_ASSIGN_OR_RETURN(auto blob, env.chan->Recv(net::kAggregationServer, kLeader));
  VFPS_ASSIGN_OR_RETURN(
      auto agg_distances,
      env.backend->Decrypt(he::EncryptedVector{std::move(blob), c}));
  env.clock->Advance(CostCategory::kDecrypt, cost_->DecryptSecondsFor(c));
  env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(c));
  const auto top_local = SmallestK(agg_distances, k);
  phase_rank.End();
  span_rank.End();
  std::vector<uint64_t> neighbor_pids;
  neighbor_pids.reserve(top_local.size());
  for (uint64_t idx : top_local) neighbor_pids.push_back(candidates[idx]);

  QueryNeighborhood hood;
  hood.query_row = query_row;
  VFPS_ASSIGN_OR_RETURN(hood.neighbors, pseudo.MapToOriginal(neighbor_pids));

  // Step 8: leader broadcasts the neighbor set; active participants return
  // d_T^p (quarantined slots keep 0).
  obs::Span span_dt(env.tracer, "knn.dt_exchange", env.clock);
  span_dt.SetNode("leader");
  PhaseTimer phase_dt(c_phase_dt_, env.clock);
  for (size_t party : active) {
    if (party == 0) continue;
    VFPS_RETURN_NOT_OK(env.chan->Send(kLeader, static_cast<int>(party),
                                      EncodeIds(neighbor_pids)));
  }
  ChargeFanOut(env.clock, neighbor_pids.size() * sizeof(uint64_t), a - 1);
  hood.per_party_dt.assign(p, 0.0);
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    std::vector<uint64_t> pids = neighbor_pids;
    if (party != 0) {
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(kLeader, static_cast<int>(party)));
      VFPS_ASSIGN_OR_RETURN(pids, DecodeIds(payload));
    }
    double dt = 0.0;
    for (uint64_t pid : pids) dt += lists.Score(ai, pid);
    if (party == 0) {
      hood.per_party_dt[0] = dt;
    } else {
      VFPS_RETURN_NOT_OK(
          env.chan->Send(static_cast<int>(party), kLeader, EncodeScalar(dt)));
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(static_cast<int>(party), kLeader));
      VFPS_ASSIGN_OR_RETURN(hood.per_party_dt[party], DecodeScalar(payload));
    }
  }
  ChargeFanIn(env.clock, sizeof(double), a - 1);
  phase_dt.End();
  span_dt.End();

  if (h_candidates_ != nullptr) h_candidates_->Record(c);
  if (stats != nullptr) {
    stats->candidates_encrypted += c;
    stats->fagin_depth += depth;
  }
  return hood;
}

Result<std::vector<uint64_t>> FederatedKnnOracle::RunPrefilterExchange(
    const QueryEnv& env, const ShardRuntime& rt, uint64_t query_row) const {
  const size_t n = joint_->num_samples();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const std::vector<ml::KMeansResult>& models = *rt.prefilter;

  obs::Span span(env.tracer, "knn.prefilter", env.clock);
  span.SetNode("parties");
  // Each party ranks its clusters by centroid distance to its slice of the
  // query and nominates the nearest clusters' member rows until the coverage
  // target is met. Plaintext and party-local; only row ids cross the wire.
  std::vector<std::vector<uint64_t>> nominated(a);
  std::vector<uint8_t> mask(n, 0);
  double worst_seconds = 0.0;
  const double* qrow = joint_->Row(query_row);
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    const ml::KMeansResult& km = models[party];
    const ml::FeatureBlock& block = party_blocks_[party];
    std::vector<double> qslice(block.cols());
    block.GatherInto(qrow, qslice.data());
    const double q_norm = ml::SquaredNorm(qslice.data(), block.cols());
    std::vector<std::pair<double, uint32_t>> ranked;
    ranked.reserve(km.clusters);
    for (size_t c = 0; c < km.clusters; ++c) {
      const double* centroid = km.centroid(c);
      const double dot = ml::DotProduct(qslice.data(), centroid, block.cols());
      const double c_norm = ml::SquaredNorm(centroid, block.cols());
      ranked.emplace_back(q_norm + c_norm - 2.0 * dot,
                          static_cast<uint32_t>(c));
    }
    std::sort(ranked.begin(), ranked.end());
    size_t covered = 0;
    for (const auto& [dist, c] : ranked) {
      (void)dist;
      for (uint32_t row : km.members[c]) {
        nominated[ai].push_back(row);
        if (row != query_row) mask[row] = 1;
      }
      covered += km.members[c].size();
      if (covered >= rt.prefilter_target) break;
    }
    worst_seconds = std::max(
        worst_seconds, cost_->DistanceSeconds(km.clusters, block.cols()));
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

Result<QueryNeighborhood> FederatedKnnOracle::RunBaseQuerySharded(
    const QueryEnv& env, uint64_t query_row, size_t k,
    FedKnnStats* stats) const {
  const size_t p = num_participants();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const ShardRuntime& rt = *env.shard;

  // Optional TreeCSS-style pre-filter: nomination happens once, BEFORE any
  // distance or HE work, and every shard below touches only its slice of the
  // candidate set. `filtered == false` means every row is a candidate.
  const bool filtered = rt.prefilter != nullptr;
  std::vector<uint64_t> candidates;  // ascending original rows, query excluded
  if (filtered) {
    VFPS_ASSIGN_OR_RETURN(candidates,
                          RunPrefilterExchange(env, rt, query_row));
  }

  // Per-party query slices, gathered once and reused by every shard.
  std::vector<std::vector<double>> qslices(a);
  std::vector<double> qnorms(a, 0.0);
  const double* qrow = joint_->Row(query_row);
  for (size_t ai = 0; ai < a; ++ai) {
    const ml::FeatureBlock& block = party_blocks_[active[ai]];
    qslices[ai].resize(block.cols());
    block.GatherInto(qrow, qslices[ai].data());
    qnorms[ai] = ml::SquaredNorm(qslices[ai].data(), block.cols());
  }

  // Shard loop: the complete BASE round (distances -> encrypt -> aggregate ->
  // decrypt -> shard-local SmallestK) runs per shard, so only O(shard)
  // protocol state is ever live. Ids are global COMPRESSED indices (the
  // unsharded ranking's id space), which keeps the merge's (value, id) order
  // identical to RunBaseQuery's SmallestK order.
  std::vector<topk::ShardTopk> shard_tops;
  shard_tops.reserve(rt.plan.size());
  size_t total_count = 0;
  for (size_t s = 0; s < rt.plan.size(); ++s) {
    const data::RowShard& shard = rt.plan[s];
    // This shard's candidate rows, ascending, query row excluded.
    std::vector<uint64_t> rows;
    if (filtered) {
      const auto first =
          std::lower_bound(candidates.begin(), candidates.end(),
                           static_cast<uint64_t>(shard.begin));
      const auto last = std::lower_bound(first, candidates.end(),
                                         static_cast<uint64_t>(shard.end));
      rows.assign(first, last);
    } else {
      rows.reserve(shard.rows());
      for (size_t row = shard.begin; row < shard.end; ++row) {
        if (row != query_row) rows.push_back(row);
      }
    }
    const size_t count = rows.size();
    if (count == 0) continue;
    total_count += count;

    obs::Span shard_span(env.tracer, "knn.shard", env.clock);
    shard_span.SetNode("parties");
    if (env.tracer != nullptr) {
      shard_span.Annotate("shard", StrFormat("%zu", s));
      shard_span.Annotate("rows", StrFormat("%zu", count));
    }
    PhaseTimer shard_timer(rt.sim_ns.empty() ? nullptr : rt.sim_ns[s],
                           env.clock);
    if (!rt.candidates.empty()) rt.candidates[s]->Add(count);

    // Phase 1 (parallel parties): partial distances over the shard's rows via
    // the range kernel — contiguous sub-ranges around the query row when
    // unfiltered, single-row calls on the sparse candidate set when filtered.
    // Either way each row's value is bit-identical to a full-range sweep.
    PhaseTimer phase_dist(c_phase_dist_, env.clock);
    std::vector<std::vector<double>> partials(a);
    std::vector<double> compute_seconds(a, 0.0);
    for (size_t ai = 0; ai < a; ++ai) {
      const ml::FeatureBlock& block = party_blocks_[active[ai]];
      const double* q = qslices[ai].data();
      partials[ai].resize(count);
      if (!filtered) {
        if (query_row < shard.begin || query_row >= shard.end) {
          ml::BlockSquaredDistances(block, q, qnorms[ai], shard.begin,
                                    shard.end, partials[ai].data());
        } else {
          ml::BlockSquaredDistances(block, q, qnorms[ai], shard.begin,
                                    query_row, partials[ai].data());
          ml::BlockSquaredDistances(block, q, qnorms[ai], query_row + 1,
                                    shard.end,
                                    partials[ai].data() +
                                        (query_row - shard.begin));
        }
      } else {
        for (size_t i = 0; i < count; ++i) {
          const size_t row = static_cast<size_t>(rows[i]);
          ml::BlockSquaredDistances(block, q, qnorms[ai], row, row + 1,
                                    &partials[ai][i]);
        }
      }
      compute_seconds[ai] = cost_->DistanceSeconds(count, block.cols());
    }
    ChargeParallelCompute(env.clock, compute_seconds);
    phase_dist.End();

    // Phases 2-4: per-shard encrypted aggregation round — the same wire
    // shape as the unsharded BASE round, sized by the shard.
    PhaseTimer phase_enc(c_phase_encrypt_, env.clock);
    VFPS_ASSIGN_OR_RETURN(auto encrypted, env.backend->EncryptBatch(partials));
    for (size_t ai = 0; ai < a; ++ai) {
      if (!c_party_enc_values_.empty()) {
        c_party_enc_values_[active[ai]]->Add(count);
      }
      VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                        net::kAggregationServer,
                                        std::move(encrypted[ai].blob)));
    }
    env.clock->Advance(CostCategory::kEncrypt, cost_->EncryptSecondsFor(count));
    ChargeFanIn(env.clock, cost_->EncryptedWireBytes(count), a);
    phase_enc.End();

    PhaseTimer phase_agg(c_phase_agg_, env.clock);
    std::vector<const he::EncryptedVector*> ptrs(a);
    for (size_t ai = 0; ai < a; ++ai) {
      VFPS_ASSIGN_OR_RETURN(auto blob,
                            env.chan->Recv(static_cast<int>(active[ai]),
                                           net::kAggregationServer));
      encrypted[ai] = he::EncryptedVector{std::move(blob), count};
      ptrs[ai] = &encrypted[ai];
    }
    VFPS_ASSIGN_OR_RETURN(auto summed, env.backend->Sum(ptrs));
    env.clock->Advance(CostCategory::kHeEval,
                       static_cast<double>(a - 1) *
                           cost_->HeAddSecondsFor(count));
    VFPS_RETURN_NOT_OK(
        env.chan->Send(net::kAggregationServer, kLeader,
                       std::move(summed.blob)));
    ChargeFanOut(env.clock, cost_->EncryptedWireBytes(count), 1);
    phase_agg.End();

    PhaseTimer phase_rank(c_phase_rank_, env.clock);
    VFPS_ASSIGN_OR_RETURN(auto blob,
                          env.chan->Recv(net::kAggregationServer, kLeader));
    VFPS_ASSIGN_OR_RETURN(
        auto distances,
        env.backend->Decrypt(he::EncryptedVector{std::move(blob), count}));
    env.clock->Advance(CostCategory::kDecrypt, cost_->DecryptSecondsFor(count));
    env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(count));
    const auto top = SmallestK(distances.data(), count, k);
    phase_rank.End();

    // Shard-local top-k in the global compressed id space. `rows` is
    // ascending, so compressed ids are monotone in the local index and
    // SmallestK's (value, local index) order IS the merge's (value, id)
    // order — no re-sort needed.
    topk::ShardTopk st;
    st.values.reserve(top.size());
    st.ids.reserve(top.size());
    for (uint64_t li : top) {
      st.values.push_back(distances[li]);
      const uint64_t row = rows[li];
      st.ids.push_back(row < query_row ? row : row - 1);
    }
    shard_tops.push_back(std::move(st));
  }

  // Hierarchical merge at the leader: tournament rounds over the shard
  // top-ks. Lossless and associative, so the result equals the top-k of the
  // concatenated candidate set — i.e. exactly RunBaseQuery's ranking when
  // the pre-filter is off.
  obs::Span span_merge(env.tracer, "knn.topk_merge", env.clock);
  span_merge.SetNode("leader");
  PhaseTimer phase_merge(c_phase_merge_, env.clock);
  topk::ShardMergeStats merge_stats;
  VFPS_ASSIGN_OR_RETURN(auto merged,
                        topk::HierarchicalTopkMerge(std::move(shard_tops), k,
                                                    &merge_stats));
  env.clock->Advance(CostCategory::kCompute,
                     cost_->SortSeconds(merge_stats.entries_in));
  if (c_shard_merges_ != nullptr) c_shard_merges_->Add(merge_stats.merges);
  phase_merge.End();
  span_merge.End();

  QueryNeighborhood hood;
  hood.query_row = query_row;
  hood.neighbors.reserve(merged.size());
  for (uint64_t idx : merged.ids) {
    hood.neighbors.push_back(CompressedToRow(idx, query_row));
  }

  // d_T exchange. The shard-local partials are gone by design (O(shard)
  // residency), so each party recomputes its k neighbor rows with single-row
  // kernel calls — bit-identical to the values it aggregated above.
  obs::Span span_dt(env.tracer, "knn.dt_exchange", env.clock);
  span_dt.SetNode("leader");
  PhaseTimer phase_dt(c_phase_dt_, env.clock);
  for (size_t party : active) {
    if (party == 0) continue;
    VFPS_RETURN_NOT_OK(
        env.chan->Send(kLeader, static_cast<int>(party), EncodeIds(merged.ids)));
  }
  ChargeFanOut(env.clock, merged.size() * sizeof(uint64_t), a - 1);
  hood.per_party_dt.assign(p, 0.0);
  std::vector<double> dt_seconds(a, 0.0);
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    std::vector<uint64_t> ids = merged.ids;
    if (party != 0) {
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(kLeader, static_cast<int>(party)));
      VFPS_ASSIGN_OR_RETURN(ids, DecodeIds(payload));
    }
    const ml::FeatureBlock& block = party_blocks_[party];
    double dt = 0.0;
    for (uint64_t idx : ids) {
      const size_t row = static_cast<size_t>(CompressedToRow(idx, query_row));
      double d = 0.0;
      ml::BlockSquaredDistances(block, qslices[ai].data(), qnorms[ai], row,
                                row + 1, &d);
      dt += d;
    }
    dt_seconds[ai] = cost_->DistanceSeconds(ids.size(), block.cols());
    if (party == 0) {
      hood.per_party_dt[0] = dt;
    } else {
      VFPS_RETURN_NOT_OK(
          env.chan->Send(static_cast<int>(party), kLeader, EncodeScalar(dt)));
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(static_cast<int>(party), kLeader));
      VFPS_ASSIGN_OR_RETURN(hood.per_party_dt[party], DecodeScalar(payload));
    }
  }
  ChargeParallelCompute(env.clock, dt_seconds);
  ChargeFanIn(env.clock, sizeof(double), a - 1);
  phase_dt.End();
  span_dt.End();

  if (h_candidates_ != nullptr) h_candidates_->Record(total_count);
  if (stats != nullptr) stats->candidates_encrypted += total_count;
  return hood;
}

Result<QueryNeighborhood> FederatedKnnOracle::RunTopkQuerySharded(
    const QueryEnv& env, const PseudoIdMap& pseudo, uint64_t query_row,
    size_t k, size_t batch, KnnOracleMode mode, FedKnnStats* stats) const {
  const size_t p = num_participants();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const ShardRuntime& rt = *env.shard;

  const bool filtered = rt.prefilter != nullptr;
  std::vector<uint64_t> candidates;  // ascending original rows, query excluded
  if (filtered) {
    VFPS_ASSIGN_OR_RETURN(candidates,
                          RunPrefilterExchange(env, rt, query_row));
  }

  std::vector<std::vector<double>> qslices(a);
  std::vector<double> qnorms(a, 0.0);
  const double* qrow = joint_->Row(query_row);
  for (size_t ai = 0; ai < a; ++ai) {
    const ml::FeatureBlock& block = party_blocks_[active[ai]];
    qslices[ai].resize(block.cols());
    block.GatherInto(qrow, qslices[ai].data());
    qnorms[ai] = ml::SquaredNorm(qslices[ai].data(), block.cols());
  }

  // Shard loop: each shard runs the COMPLETE Fagin/TA pipeline over its own
  // rows — sub-ranking sort, phase-1 merge, mini-batch streaming, candidate
  // encryption, shard-local SmallestK — so resident ranking state is
  // O(shard·P), never O(N·P). Items live in a shard-local index space; only
  // pseudo ids go on the wire and into the merge.
  std::vector<topk::ShardTopk> shard_tops;
  shard_tops.reserve(rt.plan.size());
  size_t total_candidates = 0;
  uint64_t total_depth = 0;
  for (size_t s = 0; s < rt.plan.size(); ++s) {
    const data::RowShard& shard = rt.plan[s];
    std::vector<uint64_t> rows;  // this shard's items (ascending, no query)
    if (filtered) {
      const auto first =
          std::lower_bound(candidates.begin(), candidates.end(),
                           static_cast<uint64_t>(shard.begin));
      const auto last = std::lower_bound(first, candidates.end(),
                                         static_cast<uint64_t>(shard.end));
      rows.assign(first, last);
    } else {
      rows.reserve(shard.rows());
      for (size_t row = shard.begin; row < shard.end; ++row) {
        if (row != query_row) rows.push_back(row);
      }
    }
    const size_t m = rows.size();
    if (m == 0) continue;

    obs::Span shard_span(env.tracer, "knn.shard", env.clock);
    shard_span.SetNode("parties");
    if (env.tracer != nullptr) {
      shard_span.Annotate("shard", StrFormat("%zu", s));
      shard_span.Annotate("rows", StrFormat("%zu", m));
    }
    PhaseTimer shard_timer(rt.sim_ns.empty() ? nullptr : rt.sim_ns[s],
                           env.clock);
    if (!rt.candidates.empty()) rt.candidates[s]->Add(m);

    // Phase 1 (parallel parties): shard-local scores + sub-ranking sort.
    // Unlike the unsharded path the query row is excluded from the item
    // space up front (instead of carrying an +inf sentinel), which changes
    // nothing downstream: +inf can never enter a top-k or candidate set.
    PhaseTimer phase_dist(c_phase_dist_, env.clock);
    std::vector<uint64_t> pids(m);
    for (size_t i = 0; i < m; ++i) {
      pids[i] = pseudo.ToPseudo(static_cast<size_t>(rows[i]));
    }
    std::vector<std::vector<double>> scores(a);
    std::vector<std::vector<uint64_t>> orders(a);
    std::vector<double> compute_seconds(a, 0.0);
    for (size_t ai = 0; ai < a; ++ai) {
      const ml::FeatureBlock& block = party_blocks_[active[ai]];
      const double* q = qslices[ai].data();
      scores[ai].resize(m);
      if (!filtered) {
        if (query_row < shard.begin || query_row >= shard.end) {
          ml::BlockSquaredDistances(block, q, qnorms[ai], shard.begin,
                                    shard.end, scores[ai].data());
        } else {
          ml::BlockSquaredDistances(block, q, qnorms[ai], shard.begin,
                                    query_row, scores[ai].data());
          ml::BlockSquaredDistances(block, q, qnorms[ai], query_row + 1,
                                    shard.end,
                                    scores[ai].data() +
                                        (query_row - shard.begin));
        }
      } else {
        for (size_t i = 0; i < m; ++i) {
          const size_t row = static_cast<size_t>(rows[i]);
          ml::BlockSquaredDistances(block, q, qnorms[ai], row, row + 1,
                                    &scores[ai][i]);
        }
      }
      orders[ai] = topk::RankedListSet::SortedOrder(scores[ai]);
      compute_seconds[ai] =
          cost_->DistanceSeconds(m, block.cols()) + cost_->SortSeconds(m);
    }
    ChargeParallelCompute(env.clock, compute_seconds);
    phase_dist.End();

    // Shard-local phase-1 merge (exact within the shard).
    PhaseTimer phase_merge(c_phase_merge_, env.clock);
    VFPS_ASSIGN_OR_RETURN(
        auto lists, topk::RankedListSet::BuildPresorted(std::move(scores),
                                                        std::move(orders)));
    topk::TopkResult merge;
    if (mode == KnnOracleMode::kThreshold) {
      VFPS_ASSIGN_OR_RETURN(merge, topk::ThresholdTopk(lists, k, obs_));
    } else {
      VFPS_ASSIGN_OR_RETURN(merge, topk::FaginTopk(lists, k, batch, obs_));
    }
    phase_merge.End();

    // Mini-batch streaming of this shard's sub-rankings — the wire carries
    // pseudo ids, the resident ranking state stays O(shard).
    PhaseTimer phase_stream(c_phase_stream_, env.clock);
    const size_t depth = merge.depth;
    total_depth += depth;
    for (size_t start = 0; start < depth; start += batch) {
      const size_t end = std::min(depth, start + batch);
      for (size_t ai = 0; ai < a; ++ai) {
        std::vector<uint64_t> chunk;
        chunk.reserve(end - start);
        for (size_t r = start; r < end; ++r) {
          chunk.push_back(pids[lists.IdAtRank(ai, r)]);
        }
        VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                          net::kAggregationServer,
                                          EncodeIds(chunk)));
        VFPS_RETURN_NOT_OK(env.chan->Recv(static_cast<int>(active[ai]),
                                          net::kAggregationServer)
                               .status());
      }
      ChargeFanIn(env.clock, (end - start) * sizeof(uint64_t), a);
    }
    env.clock->Advance(CostCategory::kCompute,
                       static_cast<double>(merge.sorted_accesses) *
                           cost_->compare_seconds);
    if (mode == KnnOracleMode::kThreshold) {
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

    // Candidate-set encryption round, sized by this shard's candidates.
    const std::vector<uint64_t>& cand = merge.candidate_ids;  // local items
    const size_t c = cand.size();
    total_candidates += c;
    std::vector<uint64_t> cand_pids(c);
    for (size_t i = 0; i < c; ++i) cand_pids[i] = pids[cand[i]];

    PhaseTimer phase_enc(c_phase_encrypt_, env.clock);
    for (size_t party : active) {
      VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer,
                                        static_cast<int>(party),
                                        EncodeIds(cand_pids)));
      VFPS_RETURN_NOT_OK(
          env.chan->Recv(net::kAggregationServer, static_cast<int>(party))
              .status());
    }
    ChargeFanOut(env.clock, c * sizeof(uint64_t), a);
    std::vector<std::vector<double>> party_values(a);
    for (size_t ai = 0; ai < a; ++ai) {
      party_values[ai].reserve(c);
      for (uint64_t li : cand) party_values[ai].push_back(lists.Score(ai, li));
    }
    VFPS_ASSIGN_OR_RETURN(auto encrypted,
                          env.backend->EncryptBatch(party_values));
    std::vector<const he::EncryptedVector*> ptrs(a);
    for (size_t ai = 0; ai < a; ++ai) {
      if (!c_party_enc_values_.empty()) {
        c_party_enc_values_[active[ai]]->Add(c);
      }
      VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                        net::kAggregationServer,
                                        std::move(encrypted[ai].blob)));
    }
    env.clock->Advance(CostCategory::kEncrypt, cost_->EncryptSecondsFor(c));
    ChargeFanIn(env.clock, cost_->EncryptedWireBytes(c), a);
    phase_enc.End();

    PhaseTimer phase_agg(c_phase_agg_, env.clock);
    for (size_t ai = 0; ai < a; ++ai) {
      VFPS_ASSIGN_OR_RETURN(auto blob,
                            env.chan->Recv(static_cast<int>(active[ai]),
                                           net::kAggregationServer));
      encrypted[ai] = he::EncryptedVector{std::move(blob), c};
      ptrs[ai] = &encrypted[ai];
    }
    VFPS_ASSIGN_OR_RETURN(auto summed, env.backend->Sum(ptrs));
    env.clock->Advance(CostCategory::kHeEval,
                       static_cast<double>(a - 1) * cost_->HeAddSecondsFor(c));
    VFPS_RETURN_NOT_OK(
        env.chan->Send(net::kAggregationServer, kLeader,
                       std::move(summed.blob)));
    ChargeFanOut(env.clock, cost_->EncryptedWireBytes(c), 1);
    phase_agg.End();

    PhaseTimer phase_rank(c_phase_rank_, env.clock);
    VFPS_ASSIGN_OR_RETURN(auto blob,
                          env.chan->Recv(net::kAggregationServer, kLeader));
    VFPS_ASSIGN_OR_RETURN(
        auto agg_distances,
        env.backend->Decrypt(he::EncryptedVector{std::move(blob), c}));
    env.clock->Advance(CostCategory::kDecrypt, cost_->DecryptSecondsFor(c));
    env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(c));
    const auto top_local = SmallestK(agg_distances.data(), c, k);
    phase_rank.End();

    // Shard top-k keyed by pseudo id. SmallestK ties break by candidate
    // position, which is not monotone in pid, so canonicalize to the merge's
    // (value, id) order — a divergence only on exact aggregate ties, which
    // continuous features make vanishingly unlikely.
    std::vector<std::pair<double, uint64_t>> entries;
    entries.reserve(top_local.size());
    for (uint64_t idx : top_local) {
      entries.emplace_back(agg_distances[idx], cand_pids[idx]);
    }
    std::sort(entries.begin(), entries.end());
    topk::ShardTopk st;
    st.values.reserve(entries.size());
    st.ids.reserve(entries.size());
    for (const auto& [value, pid] : entries) {
      st.values.push_back(value);
      st.ids.push_back(pid);
    }
    shard_tops.push_back(std::move(st));
  }

  // Hierarchical merge over the shard top-ks (pseudo-id space).
  obs::Span span_merge(env.tracer, "knn.topk_merge", env.clock);
  span_merge.SetNode("leader");
  PhaseTimer phase_hmerge(c_phase_merge_, env.clock);
  topk::ShardMergeStats merge_stats;
  VFPS_ASSIGN_OR_RETURN(auto merged,
                        topk::HierarchicalTopkMerge(std::move(shard_tops), k,
                                                    &merge_stats));
  env.clock->Advance(CostCategory::kCompute,
                     cost_->SortSeconds(merge_stats.entries_in));
  if (c_shard_merges_ != nullptr) c_shard_merges_->Add(merge_stats.merges);
  phase_hmerge.End();
  span_merge.End();

  QueryNeighborhood hood;
  hood.query_row = query_row;
  VFPS_ASSIGN_OR_RETURN(hood.neighbors, pseudo.MapToOriginal(merged.ids));

  // d_T exchange, recomputing each neighbor's partial distance per party
  // (the shard-local score vectors are gone — O(shard) residency).
  obs::Span span_dt(env.tracer, "knn.dt_exchange", env.clock);
  span_dt.SetNode("leader");
  PhaseTimer phase_dt(c_phase_dt_, env.clock);
  for (size_t party : active) {
    if (party == 0) continue;
    VFPS_RETURN_NOT_OK(
        env.chan->Send(kLeader, static_cast<int>(party), EncodeIds(merged.ids)));
  }
  ChargeFanOut(env.clock, merged.size() * sizeof(uint64_t), a - 1);
  hood.per_party_dt.assign(p, 0.0);
  std::vector<double> dt_seconds(a, 0.0);
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    std::vector<uint64_t> pids = merged.ids;
    if (party != 0) {
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(kLeader, static_cast<int>(party)));
      VFPS_ASSIGN_OR_RETURN(pids, DecodeIds(payload));
    }
    const ml::FeatureBlock& block = party_blocks_[party];
    double dt = 0.0;
    for (uint64_t pid : pids) {
      const size_t row = static_cast<size_t>(pseudo.ToOriginal(pid));
      double d = 0.0;
      ml::BlockSquaredDistances(block, qslices[ai].data(), qnorms[ai], row,
                                row + 1, &d);
      dt += d;
    }
    dt_seconds[ai] = cost_->DistanceSeconds(pids.size(), block.cols());
    if (party == 0) {
      hood.per_party_dt[0] = dt;
    } else {
      VFPS_RETURN_NOT_OK(
          env.chan->Send(static_cast<int>(party), kLeader, EncodeScalar(dt)));
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(static_cast<int>(party), kLeader));
      VFPS_ASSIGN_OR_RETURN(hood.per_party_dt[party], DecodeScalar(payload));
    }
  }
  ChargeParallelCompute(env.clock, dt_seconds);
  ChargeFanIn(env.clock, sizeof(double), a - 1);
  phase_dt.End();
  span_dt.End();

  if (h_candidates_ != nullptr) h_candidates_->Record(total_candidates);
  if (stats != nullptr) {
    stats->candidates_encrypted += total_candidates;
    stats->fagin_depth += total_depth;
  }
  return hood;
}

Result<std::vector<int>> FederatedKnnOracle::ClassifyPredictions(
    const data::Dataset& queries, const std::vector<size_t>& participants,
    size_t k, bool charge_costs) {
  VFPS_CHECK_ARG(!participants.empty(), "fed-knn: empty sub-consortium");
  VFPS_CHECK_ARG(queries.num_features() == joint_->num_features(),
                 "fed-knn: query feature width mismatch");
  for (size_t party : participants) {
    VFPS_CHECK_ARG(party < num_participants(),
                   "fed-knn: participant out of range");
  }
  const size_t n = joint_->num_samples();
  const size_t s = participants.size();

  // Plaintext per-query scoring: rows are independent (disjoint output
  // slots, read-only inputs), so the pool can chew through them in any
  // order without affecting the predictions.
  std::vector<int> predictions(queries.num_samples());
  const auto classify_one = [&](size_t qi) {
    std::vector<double> aggregate(n, 0.0);
    for (size_t party : participants) {
      const auto partial = PartialDistances(party, queries, qi, n /*no exclusion*/);
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
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->ParallelFor(0, queries.num_samples(), classify_one);
  } else {
    for (size_t qi = 0; qi < queries.num_samples(); ++qi) classify_one(qi);
  }

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
