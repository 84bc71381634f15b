#include "core/vfps_sm.h"

#include <algorithm>
#include <cmath>

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

}  // namespace

Result<SelectionOutcome> VfpsSmSelector::Select(const SelectionContext& ctx,
                                                size_t target) {
  VFPS_RETURN_NOT_OK(ValidateContext(ctx, target));
  Stopwatch job_watch;
  const double clock_before = ctx.clock->Total();
  const size_t p = ctx.partition->size();
  obs::Tracer* const tracer =
      ctx.obs == nullptr ? nullptr : ctx.obs->tracer();

  vfl::FederatedKnnOracle oracle(&ctx.split->train, ctx.partition, ctx.backend,
                                 ctx.network, ctx.cost, ctx.clock, ctx.pool,
                                 ctx.obs);
  vfl::FedKnnConfig knn = ctx.knn;
  knn.mode = mode_;
  knn.seed = ctx.seed;
  // Only a resume or a checkpoint needs the shape, which costs a data pass.
  vfl::ProtocolShape shape;
  if (ctx.resume != nullptr || ctx.checkpoint != nullptr) {
    shape = vfl::ProtocolShape::Of(knn, ctx.split->train, *ctx.partition);
  }

  SelectionOutcome outcome;
  std::vector<vfl::QueryNeighborhood> neighborhoods;

  // --- Resume path: a compatible checkpoint replaces the oracle phase. ---
  if (ctx.resume != nullptr) {
    const SelectionCheckpoint& ckp = *ctx.resume;
    VFPS_RETURN_NOT_OK(ckp.shape.CheckMatches(shape));
    VFPS_RETURN_NOT_OK(ckp.CheckConsistent());
    neighborhoods = ckp.neighborhoods;
    knn.quarantined = ckp.quarantined;
    knn.absent = ckp.absent;
    knn.joined = ckp.joined;
    knn.healed = ckp.healed;
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

  // Similarity + greedy over the survivors. With no exclusions the
  // compaction below is the identity, so the matrix is bit-identical to the
  // fault-free run's.
  std::vector<size_t> survivors;
  survivors.reserve(p);
  for (size_t id = 0; id < p; ++id) {
    if (!Contains(outcome.quarantined, id) && !Contains(outcome.absent, id)) {
      survivors.push_back(id);
    }
  }

  obs::Span span_sim(tracer, "select.similarity", ctx.clock);
  // Compact each neighborhood's per-participant aggregates to survivor
  // positions so the matrix is indexed 0..|survivors|-1 (the similarity reads
  // nothing else; the checkpoint keeps the P-sized aggregates).
  std::vector<vfl::QueryNeighborhood> compact(neighborhoods.size());
  for (size_t q = 0; q < neighborhoods.size(); ++q) {
    for (size_t id : survivors) {
      compact[q].per_party_dt.push_back(neighborhoods[q].per_party_dt[id]);
    }
  }
  VFPS_ASSIGN_OR_RETURN(last_similarity_,
                        BuildSimilarity(compact, survivors.size(), ctx.pool));
  span_sim.End();

  obs::Span span_greedy(tracer, "select.greedy", ctx.clock);
  KnnSubmodularFunction f(last_similarity_);
  GreedyCheckpoint gc;
  const GreedyResult greedy = LazyGreedyMaximize(
      f, target, ctx.resume != nullptr ? &ctx.resume->greedy : nullptr,
      ctx.checkpoint != nullptr ? &gc : nullptr);
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
    ckp.shape = shape;
    ckp.target = target;
    ckp.quarantined = outcome.quarantined;
    ckp.absent = outcome.absent;
    ckp.joined = knn.joined;
    ckp.healed = knn.healed;
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
