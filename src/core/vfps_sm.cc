#include "core/vfps_sm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vfl/selection_cache.h"

namespace vfps::core {

namespace {

bool Contains(const std::vector<size_t>& v, size_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void SortedInsert(std::vector<size_t>* v, size_t x) {
  if (!Contains(*v, x)) {
    v->insert(std::upper_bound(v->begin(), v->end(), x), x);
  }
}

std::vector<uint64_t> ToU64(const std::vector<size_t>& v) {
  return std::vector<uint64_t>(v.begin(), v.end());
}

std::vector<size_t> ToSizes(const std::vector<uint64_t>& v) {
  return std::vector<size_t>(v.begin(), v.end());
}

}  // namespace

Result<SelectionOutcome> VfpsSmSelector::Select(const SelectionContext& ctx,
                                                size_t target) {
  VFPS_RETURN_NOT_OK(ValidateContext(ctx, target));
  Stopwatch job_watch;
  const double clock_before = ctx.clock->Total();
  const size_t p = ctx.partition->size();
  const size_t n = ctx.split->train.num_samples();
  obs::Tracer* const tracer =
      ctx.obs == nullptr ? nullptr : ctx.obs->tracer();

  vfl::FederatedKnnOracle oracle(&ctx.split->train, ctx.partition, ctx.backend,
                                 ctx.network, ctx.cost, ctx.clock, ctx.pool,
                                 ctx.obs);
  vfl::FedKnnConfig knn = ctx.knn;
  knn.mode = mode_;
  knn.seed = ctx.seed;

  SelectionOutcome outcome;
  std::vector<vfl::QueryNeighborhood> neighborhoods;

  // --- Resume path: a compatible checkpoint replaces the oracle phase. ---
  if (ctx.resume != nullptr) {
    const SelectionCheckpoint& ckp = *ctx.resume;
    VFPS_RETURN_NOT_OK(ckp.CompatibleWith(
        ctx.seed, static_cast<int64_t>(mode_), knn.k, knn.num_queries,
        knn.fagin_batch, knn.query_group, n, p, knn.shards,
        knn.prefilter_clusters));
    // Same shape is not the same run: the checkpoint must also come from
    // this training data and this column partition.
    const uint32_t data_digest = SelectionCheckpoint::ComputeDataDigest(
        ctx.split->train, *ctx.partition);
    if (ckp.data_digest != data_digest) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint: data_digest mismatch (checkpoint 0x%08X vs run 0x%08X): "
          "the training data or column partition differs",
          ckp.data_digest, data_digest));
    }
    // Re-derive the per-party digests from the stored d_T streams; a frame
    // that decoded but drifted from its own digests is rejected.
    const std::vector<uint32_t> digests =
        SelectionCheckpoint::ComputePartyDigests(ckp.neighborhoods, p);
    if (digests != ckp.party_digests) {
      return Status::Corrupt(
          "checkpoint: per-party d_T digests do not match the stored "
          "neighborhoods");
    }
    neighborhoods = ckp.neighborhoods;
    knn.quarantined = ToSizes(ckp.quarantined);
    knn.absent = ToSizes(ckp.absent);
    knn.joined = ToSizes(ckp.joined);
    knn.healed = ToSizes(ckp.healed);
    if (ctx.obs != nullptr) {
      ctx.obs->GetCounter("select.checkpoint.resumed")->Add(1);
    }
  } else {
    // --- Oracle phase with churn handling. ---
    // A fault plan with join= rules means some participants are not yet part
    // of the consortium: they start absent and are spliced in when a run
    // observes their join threshold.
    if (ctx.network->faults_enabled()) {
      const net::FaultSpec* spec = ctx.network->fault_spec();
      for (net::NodeId node : spec->InitialAbsentees()) {
        const auto id = static_cast<size_t>(node);
        if (node >= 1 && id < p && !Contains(knn.joined, id)) {
          SortedInsert(&knn.absent, id);
        }
      }
    }

    // The contribution cache turns every rerun into an incremental repair:
    // only the membership delta recomputes. Attached only under a fault plan
    // so the pristine path stays byte-for-byte untouched.
    vfl::SelectionCache cache;
    if (ctx.network->faults_enabled()) oracle.set_cache(&cache);

    uint64_t repair_rounds = 0, repair_leaves = 0, repair_crashes = 0;
    uint64_t repair_joins = 0, repair_heals = 0;
    // Each membership change triggers at most one rerun; P participants can
    // each leave once and join once, plus slack for heals.
    const uint64_t max_rounds = 2 * static_cast<uint64_t>(p) + 4;

    obs::Span span_oracle(tracer, "select.oracle", ctx.clock);
    Result<std::vector<vfl::QueryNeighborhood>> run =
        oracle.Run(knn, &outcome.knn_stats);
    for (;;) {
      bool membership_changed = false;
      if (!run.ok()) {
        if (!run.status().IsPeerDead()) return run.status();
        // Only participants (ids >= 1) are expendable: a dead leader or
        // server is unrecoverable and the error propagates.
        const std::vector<net::NodeId> dead = outcome.knn_stats.dead_nodes;
        bool recoverable = !dead.empty();
        for (net::NodeId d : dead) {
          recoverable = recoverable && d >= 1 && static_cast<size_t>(d) < p;
        }
        if (!recoverable) return run.status();
        const std::vector<net::NodeId>& departed =
            outcome.knn_stats.departed_nodes;
        for (net::NodeId d : dead) {
          const auto id = static_cast<size_t>(d);
          if (Contains(knn.quarantined, id)) continue;
          SortedInsert(&knn.quarantined, id);
          const bool left = std::find(departed.begin(), departed.end(), d) !=
                            departed.end();
          if (left) {
            ++repair_leaves;
          } else {
            ++repair_crashes;
          }
          if (tracer != nullptr) {
            tracer->Instant("select.churn.quarantine",
                            {{"party", StrFormat("%zu", id)},
                             {"cause", left ? "leave" : "crash"}});
          }
          membership_changed = true;
        }
        if (!membership_changed) return run.status();  // no progress possible
        VFPS_LOG(Warning) << name() << ": membership loss mid-oracle ("
                          << run.status().ToString() << "); quarantining "
                          << knn.quarantined.size()
                          << " participant(s) and repairing over survivors";
        if (ctx.obs != nullptr) {
          ctx.obs->GetCounter("select.quarantine.events")->Add(1);
        }
      } else {
        // Success: splice in any participant whose join= threshold the run
        // crossed, and un-quarantine any whose heal= threshold it crossed.
        for (net::NodeId j : outcome.knn_stats.joined_nodes) {
          const auto id = static_cast<size_t>(j);
          if (j < 1 || id >= p || !Contains(knn.absent, id)) continue;
          knn.absent.erase(
              std::remove(knn.absent.begin(), knn.absent.end(), id),
              knn.absent.end());
          SortedInsert(&knn.joined, id);
          ++repair_joins;
          if (tracer != nullptr) {
            tracer->Instant("select.churn.join",
                            {{"party", StrFormat("%zu", id)}});
          }
          membership_changed = true;
        }
        for (net::NodeId h : outcome.knn_stats.healed_nodes) {
          const auto id = static_cast<size_t>(h);
          if (h < 1 || id >= p || !Contains(knn.quarantined, id)) continue;
          knn.quarantined.erase(std::remove(knn.quarantined.begin(),
                                            knn.quarantined.end(), id),
                                knn.quarantined.end());
          SortedInsert(&knn.healed, id);
          ++repair_heals;
          if (tracer != nullptr) {
            tracer->Instant("select.churn.heal",
                            {{"party", StrFormat("%zu", id)}});
          }
          membership_changed = true;
        }
        if (!membership_changed) break;  // converged
        VFPS_LOG(Info) << name() << ": splicing membership change ("
                       << repair_joins << " join(s), " << repair_heals
                       << " heal(s)) and repairing the selection";
      }

      if (++repair_rounds > max_rounds) {
        return Status::Unavailable(StrFormat(
            "%s: selection repair did not converge after %llu rounds",
            name().c_str(), static_cast<unsigned long long>(repair_rounds)));
      }
      obs::Span span_repair(tracer, "select.repair", ctx.clock);
      outcome.knn_stats = vfl::FedKnnStats{};
      run = oracle.Run(knn, &outcome.knn_stats);
      span_repair.End();
    }
    span_oracle.End();

    if (ctx.obs != nullptr) {
      if (repair_rounds > 0) {
        obs::MetricsRegistry* m = ctx.obs;
        m->GetCounter("select.repair.events")->Add(1);
        m->GetCounter("select.repair.rounds")->Add(repair_rounds);
        m->GetCounter("select.repair.leaves")->Add(repair_leaves);
        m->GetCounter("select.repair.crashes")->Add(repair_crashes);
        m->GetCounter("select.repair.joins")->Add(repair_joins);
        m->GetCounter("select.repair.heals")->Add(repair_heals);
        m->GetCounter("select.repair.reused_contributions")
            ->Add(outcome.knn_stats.reused_contributions);
      }
      if (!knn.quarantined.empty()) {
        ctx.obs->GetCounter("select.quarantine.participants")
            ->Add(knn.quarantined.size());
      }
    }
    neighborhoods = run.MoveValueUnsafe();
  }
  outcome.quarantined = knn.quarantined;
  outcome.absent = knn.absent;

  // Similarity + greedy over the survivors. With no exclusions this is the
  // pristine P-sized path, bit-identical to the fault-free run.
  std::vector<size_t> survivors;
  survivors.reserve(p);
  for (size_t id = 0; id < p; ++id) {
    if (!Contains(outcome.quarantined, id) && !Contains(outcome.absent, id)) {
      survivors.push_back(id);
    }
  }

  obs::Span span_sim(tracer, "select.similarity", ctx.clock);
  if (survivors.size() == p) {
    VFPS_ASSIGN_OR_RETURN(last_similarity_,
                          BuildSimilarity(neighborhoods, p, ctx.pool));
  } else {
    // Compact each neighborhood's per-participant aggregates to survivor
    // positions so the matrix is indexed 0..|survivors|-1.
    std::vector<vfl::QueryNeighborhood> compact = neighborhoods;
    for (vfl::QueryNeighborhood& hood : compact) {
      std::vector<double> dt;
      dt.reserve(survivors.size());
      for (size_t id : survivors) dt.push_back(hood.per_party_dt[id]);
      hood.per_party_dt = std::move(dt);
    }
    VFPS_ASSIGN_OR_RETURN(
        last_similarity_,
        BuildSimilarity(compact, survivors.size(), ctx.pool));
  }
  span_sim.End();

  obs::Span span_greedy(tracer, "select.greedy", ctx.clock);
  KnnSubmodularFunction f(last_similarity_);
  const size_t effective_target = std::min(target, survivors.size());
  GreedyCheckpoint gc;
  GreedyResult greedy;
  if (lazy_greedy_) {
    greedy = LazyGreedyMaximize(
        f, effective_target,
        ctx.resume != nullptr ? &ctx.resume->greedy : nullptr,
        ctx.checkpoint != nullptr ? &gc : nullptr);
  } else {
    greedy = GreedyMaximize(f, effective_target);
    if (ctx.checkpoint != nullptr) {
      // Plain greedy keeps no CELF bounds; publish the prefix with vacuous
      // bounds so a resume re-evaluates every candidate (same selection).
      KnnSubmodularFunction::Incremental replay(&f);
      for (size_t s : greedy.selected) replay.Add(s);
      gc.selected = greedy.selected;
      gc.gains = greedy.gains;
      gc.best = replay.best();
      gc.value = replay.value();
      gc.bounds.assign(survivors.size(),
                       std::numeric_limits<double>::infinity());
      gc.bound_rounds.assign(survivors.size(), 0);
    }
  }
  // The greedy pass runs at the leader over the survivor-sized similarity
  // matrix; its cost is |survivors|^2 per marginal-gain evaluation.
  ctx.clock->Advance(CostCategory::kCompute,
                     static_cast<double>(greedy.evaluations) *
                         static_cast<double>(survivors.size()) *
                         ctx.cost->compare_seconds);
  span_greedy.End();
  if (ctx.obs != nullptr) {
    ctx.obs->GetCounter("select.greedy.evaluations")->Add(greedy.evaluations);
  }

  // Map survivor positions back to original participant ids; quarantined and
  // absent slots keep a 0.0 score.
  outcome.scores.assign(p, 0.0);
  outcome.selected.clear();
  outcome.selected.reserve(greedy.selected.size());
  for (size_t i = 0; i < greedy.selected.size(); ++i) {
    const size_t id = survivors[greedy.selected[i]];
    outcome.scores[id] = greedy.gains[i];
    outcome.selected.push_back(id);
  }
  std::sort(outcome.selected.begin(), outcome.selected.end());

  if (ctx.checkpoint != nullptr) {
    SelectionCheckpoint& ckp = *ctx.checkpoint;
    ckp.seed = ctx.seed;
    ckp.mode = static_cast<int64_t>(mode_);
    ckp.k = knn.k;
    ckp.num_queries = knn.num_queries;
    ckp.fagin_batch = knn.fagin_batch;
    ckp.query_group = knn.query_group;
    ckp.n_rows = n;
    ckp.num_participants = p;
    ckp.shards = knn.shards;
    ckp.prefilter_clusters = knn.prefilter_clusters;
    ckp.data_digest = SelectionCheckpoint::ComputeDataDigest(
        ctx.split->train, *ctx.partition);
    ckp.target = target;
    ckp.quarantined = ToU64(outcome.quarantined);
    ckp.absent = ToU64(outcome.absent);
    ckp.joined = ToU64(knn.joined);
    ckp.healed = ToU64(knn.healed);
    ckp.neighborhoods = neighborhoods;
    ckp.party_digests = SelectionCheckpoint::ComputePartyDigests(neighborhoods, p);
    ckp.greedy = gc;
    ckp.value = greedy.value;
    if (ctx.obs != nullptr) {
      ctx.obs->GetCounter("select.checkpoint.saved")->Add(1);
    }
  }

  outcome.sim_seconds = ctx.clock->Total() - clock_before;
  if (ctx.obs != nullptr) {
    // Per-selection-job latency for the SLO surface. Simulated time is a
    // deterministic function of the protocol (thread-count-invariant
    // percentiles); wall time is real elapsed time.
    ctx.obs->GetHistogram("select.job.sim_ns")
        ->Record(static_cast<uint64_t>(
            std::llround(outcome.sim_seconds * 1e9)));
    ctx.obs->GetHistogram("select.job.wall_ns")
        ->Record(static_cast<uint64_t>(
            std::llround(job_watch.ElapsedSeconds() * 1e9)));
  }
  return outcome;
}

}  // namespace vfps::core
