// selection_bench — closed-loop benchmark of one VFPS-SM selection workload.
//
//   selection_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                   [--commit=<id>]
//
// The deployment is put together from the public calls core::RunExperiment
// makes, in the same order (the data seed is pinned; see kDataSeed):
// data::LoadPreset, SplitDataset + StandardizeSplit, RandomVerticalPartition,
// HE key generation. Then one consortium operator submits selection jobs back
// to back (closed loop, one client): one untimed warm-up job, then timed jobs
// until --seconds have passed. A job is a fresh SimNetwork and SimClock,
// CreateSelector(...)->Select, then vfl::RunDownstreamTraining. Set-up is
// timed again after every timed job, on a deployment that is then dropped.
//
// Every job is checked against a reference computed outside the timed
// region (see CheckReference) and against the warm-up job, which it must
// repeat exactly; a mismatch or an error counts as a failed job. A run whose
// workload no longer exercises its mechanism (see CheckGuards) is invalid.
//
// --trace=0 reports the end-to-end metrics. --trace=1 spends half the time
// on untraced jobs and half on traced ones (tracer on, HE backend decorated
// with TimedBackend), replays the distance/sort/top-k kernels at the
// workload's shape, and reports per-layer metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/selector.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "data/presets.h"
#include "data/scaler.h"
#include "he/backend.h"
#include "ml/kernels.h"
#include "net/cost_model.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "span_layers.h"
#include "timed_backend.h"
#include "topk/fagin.h"
#include "topk/ranked_list.h"
#include "vfl/fed_knn.h"
#include "vfl/split_train.h"

namespace perfbench {
namespace {

using namespace vfps;  // NOLINT(build/namespaces)

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* dataset;
  double scale;
  size_t participants;
  size_t select;
  core::SelectionMethod method;
  core::HeBackendKind backend;
  size_t queries;
  size_t shards;
  size_t threads;
  const char* fault_spec;  // "" = no fault plan; the fault seed is --seed
};

constexpr size_t kNeighbors = 10;

const Workload kWorkloads[] = {
    {"susy-fagin-ckks", "SUSY", 0.5, 4, 2, core::SelectionMethod::kVfpsSm,
     core::HeBackendKind::kCkks, 64, 1, 1, ""},
    {"susy-base-sharded-ckks", "SUSY", 0.5, 4, 2,
     core::SelectionMethod::kVfpsSmBase, core::HeBackendKind::kCkks, 32, 4, 1,
     ""},
    {"hdi-churn-plain", "HDI", 1.0, 8, 3, core::SelectionMethod::kVfpsSm,
     core::HeBackendKind::kPlain, 128, 1, 2, "leave=3@10,drop=0.02"},
};

/// Seed of every workload's data: the preset is generated, split and
/// partitioned at this seed, so a workload is one fixed consortium. --seed
/// draws everything a job samples: the HE keys and encryption streams, the
/// query rows and pseudo IDs, and the fault schedule. At --seed=42 a run is
/// therefore the exact `vfps_cli run` of CliFlags().
constexpr uint64_t kDataSeed = 42;

/// f(S) of a CKKS job may differ from the exact plain-backend reference by
/// CKKS decryption noise only; this is the relative tolerance.
constexpr double kCkksValueTolerance = 1e-6;

/// Set-ups after each timed job; setup_s is the median of all set-ups.
constexpr int kSetupsPerJob = 3;

/// Kernel replay: leading train rows used as query rows, and repetitions.
constexpr size_t kReplayRows = 4;
constexpr int kReplayReps = 3;

/// The `vfps_cli run` flags a --seed=kDataSeed run reproduces.
std::string CliFlags(const Workload& w) {
  const std::string seed = std::to_string(kDataSeed);
  std::string flags = std::string("--dataset=") + w.dataset +
                      " --scale=" + StrFormat("%.1f", w.scale) +
                      " --participants=" + std::to_string(w.participants) +
                      " --select=" + std::to_string(w.select) +
                      " --method=" + core::SelectionMethodName(w.method) +
                      " --backend=" + core::HeBackendKindName(w.backend) +
                      " --k=" + std::to_string(kNeighbors) +
                      " --queries=" + std::to_string(w.queries) +
                      " --shards=" + std::to_string(w.shards) +
                      " --threads=" + std::to_string(w.threads) +
                      " --seed=" + seed;
  if (w.fault_spec[0] != '\0') {
    flags += std::string(" --fault-spec=") + w.fault_spec +
             " --fault-seed=" + seed;
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Deployment {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  std::unique_ptr<he::HeBackend> plain;  // exact reference backend
  std::unique_ptr<ThreadPool> pool;
  net::FaultSpec faults;
  net::CostModel cost;
};

struct SetupTimes {
  double load = 0, split = 0, partition = 0, keygen = 0;
  double Total() const { return load + split + partition + keygen; }
};

/// One set-up, as RunExperiment does it (with the data seed pinned to
/// kDataSeed); spans go to `tracer` if non-null.
Result<Deployment> SetUp(const Workload& w, uint64_t seed, obs::Tracer* tracer,
                         SetupTimes* t) {
  Deployment d;
  Stopwatch sw;
  obs::Span load_span(tracer, "bench.setup.load");
  auto synthetic = data::LoadPreset(w.dataset, w.scale, kDataSeed);
  if (!synthetic.ok()) return synthetic.status();
  load_span.End();
  t->load = sw.ElapsedSeconds();

  sw.Restart();
  obs::Span split_span(tracer, "bench.setup.split");
  auto split = data::SplitDataset(synthetic->data, 0.8, 0.1, kDataSeed);
  if (!split.ok()) return split.status();
  d.split = split.MoveValueUnsafe();
  if (Status st = data::StandardizeSplit(&d.split); !st.ok()) return st;
  split_span.End();
  t->split = sw.ElapsedSeconds();

  sw.Restart();
  obs::Span partition_span(tracer, "bench.setup.partition");
  auto partition = data::RandomVerticalPartition(
      synthetic->data.num_features(), w.participants, kDataSeed);
  if (!partition.ok()) return partition.status();
  d.partition = partition.MoveValueUnsafe();
  partition_span.End();
  t->partition = sw.ElapsedSeconds();

  sw.Restart();
  obs::Span keygen_span(tracer, "bench.setup.keygen");
  if (w.backend == core::HeBackendKind::kCkks) {
    auto backend = he::CreateCkksBackend(he::CkksParams{}, seed,
                                         he::CkksPacking::kPacked);
    if (!backend.ok()) return backend.status();
    d.backend = backend.MoveValueUnsafe();
  } else {
    d.backend = he::CreatePlainBackend();
  }
  if (w.threads != 1) {
    d.pool = std::make_unique<ThreadPool>(w.threads);
    d.backend->set_thread_pool(d.pool.get());
  }
  keygen_span.End();
  t->keygen = sw.ElapsedSeconds();

  auto faults = net::ParseFaultSpec(w.fault_spec);
  if (!faults.ok()) return faults.status();
  d.faults = faults.MoveValueUnsafe();
  if (d.faults.any()) {
    if (Status st = d.faults.Validate(); !st.ok()) return st;
  }
  d.plain = he::CreatePlainBackend();
  d.plain->set_thread_pool(d.pool.get());
  return d;
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

struct JobOptions {
  he::HeBackend* backend = nullptr;
  obs::MetricsRegistry* obs = nullptr;  // nullptr = observability off
  bool faults = true;                   // attach the workload's fault plan
  std::vector<size_t> quarantined;      // FedKnnConfig::quarantined
};

struct JobRecord {
  core::SelectionOutcome selection;
  vfl::TrainingOutcome training;
  double select_s = 0;
  double train_s = 0;
  /// f(S): the greedy gains of the selected set sum to f(S) (f(∅) = 0).
  double Value() const {
    return std::accumulate(selection.scores.begin(), selection.scores.end(),
                           0.0);
  }
};

vfl::FedKnnConfig KnnConfig(const Workload& w) {
  vfl::FedKnnConfig knn;
  knn.k = kNeighbors;
  knn.num_queries = w.queries;
  knn.shards = w.shards;
  return knn;
}

Result<JobRecord> RunJob(const Workload& w, uint64_t seed, const Deployment& d,
                         const JobOptions& o) {
  obs::Tracer* const tracer = o.obs == nullptr ? nullptr : o.obs->tracer();
  obs::Span job_span(tracer, "bench.job");
  net::SimNetwork network;
  SimClock clock;
  o.backend->set_metric_labels({{"backend", o.backend->name()}});
  o.backend->set_metrics(o.obs);
  network.set_metrics(o.obs);
  if (o.faults && d.faults.any()) network.EnableFaults(d.faults, seed, &clock);

  core::SelectionContext ctx;
  ctx.split = &d.split;
  ctx.partition = &d.partition;
  ctx.backend = o.backend;
  ctx.network = &network;
  ctx.cost = &d.cost;
  ctx.clock = &clock;
  ctx.pool = d.pool.get();
  ctx.obs = o.obs;
  ctx.knn = KnnConfig(w);
  ctx.knn.quarantined = o.quarantined;
  ctx.seed = seed;
  auto selector = core::CreateSelector(w.method);
  if (!selector.ok()) return selector.status();

  JobRecord job;
  Stopwatch sw;
  obs::Span select_span(tracer, "bench.select", &clock);
  auto selection = (*selector)->Select(ctx, w.select);
  select_span.End();
  job.select_s = sw.ElapsedSeconds();
  if (!selection.ok()) return selection.status();
  job.selection = selection.MoveValueUnsafe();

  sw.Restart();
  obs::Span train_span(tracer, "bench.train", &clock);
  auto training = vfl::RunDownstreamTraining(
      d.split, d.partition, job.selection.selected, vfl::DownstreamOptions{},
      d.cost, &clock);
  train_span.End();
  job.train_s = sw.ElapsedSeconds();
  if (!training.ok()) return training.status();
  job.training = *training;
  return job;
}

std::string Ids(const std::vector<size_t>& ids) {
  std::string s;
  for (size_t id : ids) s += (s.empty() ? "" : ",") + std::to_string(id);
  return "{" + s + "}";
}

bool SameHeStats(const he::HeOpStats& a, const he::HeOpStats& b) {
  return a.encrypt_ops == b.encrypt_ops && a.decrypt_ops == b.decrypt_ops &&
         a.add_ops == b.add_ops && a.values_encrypted == b.values_encrypted &&
         a.values_decrypted == b.values_decrypted &&
         a.values_added == b.values_added;
}

/// "" when `job` repeats `expected` exactly, else what differs.
std::string Diff(const JobRecord& job, const JobRecord& expected) {
  const core::SelectionOutcome& a = job.selection;
  const core::SelectionOutcome& b = expected.selection;
  if (a.selected != b.selected) {
    return "selected " + Ids(a.selected) + " != " + Ids(b.selected);
  }
  if (a.scores != b.scores) return "scores differ";
  if (a.sim_seconds != b.sim_seconds) return "select_sim_s differs";
  if (a.quarantined != b.quarantined) return "quarantined set differs";
  if (!SameHeStats(a.knn_stats.he_ops, b.knn_stats.he_ops)) {
    return "HeOpStats differ";
  }
  if (a.knn_stats.candidates_encrypted != b.knn_stats.candidates_encrypted ||
      a.knn_stats.fagin_depth != b.knn_stats.fagin_depth) {
    return "candidate count or Fagin depth differs";
  }
  if (job.training.test_accuracy != expected.training.test_accuracy) {
    return "test accuracy differs";
  }
  return "";
}

/// The reference outcome, computed with exact (plain-backend) arithmetic:
/// for a CKKS workload the same job on the plain backend; for a churn
/// workload a fault-free run with the leavers quarantined from the start
/// (repair == rerun). Returns "" when `job` matches it.
Result<std::string> CheckReference(const Workload& w, uint64_t seed,
                                   const Deployment& d, const JobRecord& job) {
  JobOptions o;
  o.backend = d.plain.get();
  if (!d.faults.leaves.empty()) {
    o.faults = false;
    for (const net::LeaveRule& leave : d.faults.leaves) {
      o.quarantined.push_back(leave.node);
    }
  }
  auto ref = RunJob(w, seed, d, o);
  if (!ref.ok()) return ref.status();
  const core::SelectionOutcome& got = job.selection;
  const core::SelectionOutcome& want = ref->selection;
  if (got.selected != want.selected) {
    return "selected " + Ids(got.selected) + " != reference " +
           Ids(want.selected);
  }
  if (got.quarantined != want.quarantined) {
    return "quarantined " + Ids(got.quarantined) + " != reference " +
           Ids(want.quarantined);
  }
  const double value = job.Value();
  const double ref_value = ref->Value();
  if (w.backend == core::HeBackendKind::kCkks) {
    const double tol = kCkksValueTolerance * std::max(1.0, std::fabs(ref_value));
    if (std::fabs(value - ref_value) > tol) {
      return "f(S) " + std::to_string(value) + " outside CKKS tolerance of " +
             std::to_string(ref_value);
    }
  } else if (got.scores != want.scores) {
    return std::string("repaired scores differ from the clean rerun");
  }
  std::printf("reference: picked=%s f(S)=%.12f (job f(S)=%.12f, |diff|=%.3g)\n",
              Ids(want.selected).c_str(), ref_value, value,
              std::fabs(value - ref_value));
  return std::string();
}

/// Counters of one job, read from its metrics registry.
struct JobCounters {
  uint64_t ciphertexts = 0, values_encrypted = 0;
  uint64_t messages = 0, bytes = 0, retries = 0, dropped = 0;
  uint64_t cache_hits = 0, cache_misses = 0, repair_rounds = 0;
  uint64_t greedy_evals = 0, shard_merges = 0;
};

JobCounters ReadCounters(const obs::MetricsRegistry& m,
                         const std::string& backend) {
  JobCounters c;
  const obs::MetricLabels label = {{"backend", backend}};
  c.ciphertexts = m.CounterValue("he.encrypt.count", label);
  c.values_encrypted = m.CounterValue("he.encrypt.values", label);
  c.messages = m.CounterValue("net.messages");
  c.bytes = m.CounterValue("net.bytes_sent");
  c.retries = m.CounterValue("net.chan.retries");
  c.dropped = m.CounterValue("net.faults.dropped");
  c.cache_hits = m.CounterValue("knn.cache.lookups", {{"cache", "hit"}});
  c.cache_misses = m.CounterValue("knn.cache.lookups", {{"cache", "miss"}});
  c.repair_rounds = m.CounterValue("select.repair.rounds");
  c.greedy_evals = m.CounterValue("select.greedy.evaluations");
  c.shard_merges = m.CounterValue("knn.shard.merges");
  return c;
}

double CandidateRatio(const Deployment& d, const JobRecord& job) {
  const vfl::FedKnnStats& s = job.selection.knn_stats;
  const double per_query = static_cast<double>(d.split.train.num_samples() - 1);
  return s.queries == 0 ? 0.0
                        : static_cast<double>(s.candidates_encrypted) /
                              (static_cast<double>(s.queries) * per_query);
}

double FaginDepth(const JobRecord& job) {
  const vfl::FedKnnStats& s = job.selection.knn_stats;
  return s.queries == 0 ? 0.0
                        : static_cast<double>(s.fagin_depth) /
                              static_cast<double>(s.queries);
}

/// A run is invalid, not "unchanged", when its workload stopped exercising
/// the mechanism it exists for: HE work, Fagin pruning, the shard merge, or
/// churn repair through the selection cache. "" when every guard holds.
std::string CheckGuards(const Workload& w, const Deployment& d,
                        const JobRecord& job, const JobCounters& c) {
  std::string failed;
  if (c.ciphertexts == 0) failed += " no ciphertexts;";
  if (w.method == core::SelectionMethod::kVfpsSm &&
      (!(CandidateRatio(d, job) < 1.0) || FaginDepth(job) <= 0.0)) {
    failed += " Fagin pruned nothing (candidate_ratio=" +
              std::to_string(CandidateRatio(d, job)) +
              ", depth=" + std::to_string(FaginDepth(job)) + ");";
  }
  // One hierarchical merge per query: shards - 1 pairwise merges.
  const uint64_t merges = w.shards > 1 ? w.queries * (w.shards - 1) : 0;
  if (c.shard_merges != merges) {
    failed += " shard_merges=" + std::to_string(c.shard_merges) +
              ", want " + std::to_string(merges) + ";";
  }
  if (!d.faults.leaves.empty() &&
      (c.repair_rounds < 1 || c.cache_hits == 0 || c.retries == 0)) {
    failed += " no churn repair (repair_rounds=" +
              std::to_string(c.repair_rounds) +
              ", cache_hits=" + std::to_string(c.cache_hits) +
              ", retries=" + std::to_string(c.retries) + ");";
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Decorated vs undecorated oracle: every d_T must be identical.
// ---------------------------------------------------------------------------

Result<std::vector<vfl::QueryNeighborhood>> RunOracle(
    const Workload& w, uint64_t seed, const Deployment& d,
    he::HeBackend* backend, vfl::FedKnnStats* stats, double* sim_s) {
  net::SimNetwork network;
  SimClock clock;
  backend->set_metrics(nullptr);
  vfl::FederatedKnnOracle oracle(&d.split.train, &d.partition, backend,
                                 &network, &d.cost, &clock, d.pool.get());
  vfl::FedKnnConfig knn = KnnConfig(w);
  knn.mode = w.method == core::SelectionMethod::kVfpsSmBase
                 ? vfl::KnnOracleMode::kBase
                 : vfl::KnnOracleMode::kFagin;
  knn.seed = seed;
  auto hoods = oracle.Run(knn, stats);
  *sim_s = clock.Total();
  return hoods;
}

std::string CompareDecoratedOracle(const Workload& w, uint64_t seed,
                                   const Deployment& d) {
  obs::MetricsRegistry registry;
  registry.EnableTracing();
  TimedBackend decorated(d.backend.get(), registry.tracer());
  decorated.set_thread_pool(d.pool.get());
  vfl::FedKnnStats plain_stats, timed_stats;
  double plain_sim = 0, timed_sim = 0;
  auto plain = RunOracle(w, seed, d, d.backend.get(), &plain_stats, &plain_sim);
  auto timed = RunOracle(w, seed, d, &decorated, &timed_stats, &timed_sim);
  if (!plain.ok() || !timed.ok()) return "oracle run failed";
  if (plain->size() != timed->size()) return "neighborhood count differs";
  for (size_t q = 0; q < plain->size(); ++q) {
    const vfl::QueryNeighborhood& a = (*plain)[q];
    const vfl::QueryNeighborhood& b = (*timed)[q];
    if (a.query_row != b.query_row || a.neighbors != b.neighbors ||
        a.per_party_dt != b.per_party_dt) {
      return "d_T of query " + std::to_string(q) + " differs when decorated";
    }
  }
  if (!SameHeStats(plain_stats.he_ops, timed_stats.he_ops) ||
      plain_sim != timed_sim) {
    return "HeOpStats or simulated time differ when decorated";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Kernel replay at the workload's shape
// ---------------------------------------------------------------------------

struct Replay {
  double distance_ns_per_row = 0;
  double sort_ms_per_list = 0;
  double fagin_ms_per_call = 0;
  double smallest_k_us_per_call = 0;
  bool agree = true;  // FaginTopk and SmallestK found the same neighbors
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

Replay RunReplay(const Deployment& d) {
  const data::Dataset& train = d.split.train;
  const size_t n = train.num_samples();
  const size_t p = d.partition.size();
  std::vector<ml::FeatureBlock> blocks;
  for (const auto& columns : d.partition) blocks.emplace_back(train, columns);

  std::vector<double> dist_ns, sort_ms, fagin_ms, smallest_us;
  Replay r;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    for (size_t row = 0; row < kReplayRows && row < n; ++row) {
      std::vector<std::vector<double>> scores(p);
      std::vector<std::vector<uint64_t>> orders(p);
      for (size_t party = 0; party < p; ++party) {
        const ml::FeatureBlock& block = blocks[party];
        std::vector<double> query(block.cols());
        block.GatherInto(train.Row(row), query.data());
        const double q_norm = ml::SquaredNorm(query.data(), query.size());
        scores[party].resize(n);
        Stopwatch sw;
        ml::BlockSquaredDistances(block, query.data(), q_norm, 0, n,
                                  scores[party].data());
        dist_ns.push_back(sw.ElapsedSeconds() * 1e9 / static_cast<double>(n));
        scores[party][row] = std::numeric_limits<double>::infinity();
        sw.Restart();
        orders[party] = topk::RankedListSet::SortedOrder(scores[party]);
        sort_ms.push_back(sw.ElapsedMillis());
      }
      std::vector<double> aggregate(n, 0.0);
      for (size_t party = 0; party < p; ++party) {
        for (size_t i = 0; i < n; ++i) aggregate[i] += scores[party][i];
      }
      auto lists = topk::RankedListSet::BuildPresorted(scores, orders);
      if (!lists.ok()) {
        r.agree = false;
        continue;
      }
      Stopwatch sw;
      auto fagin = topk::FaginTopk(*lists, kNeighbors, /*batch=*/64);
      fagin_ms.push_back(sw.ElapsedMillis());
      sw.Restart();
      const std::vector<uint64_t> nearest =
          ml::SmallestK(aggregate, kNeighbors);
      smallest_us.push_back(sw.ElapsedSeconds() * 1e6);
      if (!fagin.ok() || fagin->ids != nearest) r.agree = false;
    }
  }
  r.distance_ns_per_row = Median(dist_ns);
  r.sort_ms_per_list = Median(sort_ms);
  r.fagin_ms_per_call = Median(fagin_ms);
  r.smallest_k_us_per_call = Median(smallest_us);
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      f->workload = value;
    } else if (key == "seed") {
      f->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (key == "seconds") {
      f->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      f->trace = value[0] - '0';
    } else if (key == "commit") {
      f->commit = value;
    } else {
      return false;
    }
  }
  return have_seed && f->seconds > 0 && f->seconds <= 600 && f->trace >= 0;
}

int Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "selection_bench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return 1;
}

int Run(const Flags& flags) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (flags.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "selection_bench: unknown workload '%s'\n",
                 flags.workload.c_str());
    return 2;
  }
  const uint64_t seed = flags.seed;
  const bool traced_run = flags.trace == 1;
  std::printf(
      "provenance: {\"isa\": \"%s\", \"nproc\": %ld, \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"commit\": \"%s\"}\n",
      simd::IsaName(simd::ActiveIsa()), sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, flags.commit.c_str());
  std::printf("workload: %s, seed %llu (seed %llu = vfps_cli run %s)\n",
              w->name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(kDataSeed), CliFlags(*w).c_str());

  // The deployment the jobs run on. Later set-ups, interleaved with the
  // jobs so that their median spans the whole run, build a deployment and
  // drop it. A traced run records the set-up steps as spans of its own
  // registry.
  obs::MetricsRegistry setup_registry;
  if (traced_run) setup_registry.EnableTracing();
  std::vector<SetupTimes> setups;
  const auto set_up = [&]() -> Result<Deployment> {
    SetupTimes t;
    auto deployment = SetUp(*w, seed, setup_registry.tracer(), &t);
    if (deployment.ok()) setups.push_back(t);
    return deployment;
  };
  auto deployment = set_up();
  if (!deployment.ok()) return Fail("set-up", deployment.status());
  const Deployment d = deployment.MoveValueUnsafe();
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };

  // Warm-up: untimed, with metrics on for the mechanism guards. Every later
  // job must repeat it exactly.
  obs::MetricsRegistry warmup_registry;
  JobOptions warmup_options;
  warmup_options.backend = d.backend.get();
  warmup_options.obs = &warmup_registry;
  auto warmup = RunJob(*w, seed, d, warmup_options);
  if (!warmup.ok()) return Fail("warm-up job", warmup.status());
  // One deployment and one job: what a user's process holds. Read before
  // the reference job and the extra set-ups, which only the benchmark runs.
  const double peak_rss_mb = PeakRssMb();
  const JobCounters warmup_counters =
      ReadCounters(warmup_registry, d.backend->name());
  std::printf("warm-up: picked=%s selection=%.1fs (select_sim_s %.9f) "
              "candidates/query=%.0f accuracy=%.4f\n",
              Ids(warmup->selection.selected).c_str(),
              warmup->selection.sim_seconds, warmup->selection.sim_seconds,
              warmup->selection.knn_stats.AvgCandidatesPerQuery(),
              warmup->training.test_accuracy);

  auto reference = CheckReference(*w, seed, d, *warmup);
  if (!reference.ok()) return Fail("reference job", reference.status());
  const std::string reference_error = *reference;
  const std::string guard_error = CheckGuards(*w, d, *warmup, warmup_counters);
  if (!reference_error.empty()) {
    std::printf("REFERENCE MISMATCH: %s\n", reference_error.c_str());
  }
  if (!guard_error.empty()) std::printf("INVALID RUN: %s\n", guard_error.c_str());

  // Timed jobs, closed loop. A traced run spends the first half untraced
  // and the second half traced.
  size_t attempted = 0, failed = 0, setup_errors = 0;
  std::vector<double> select_s, job_s, traced_select_s;
  std::vector<SpanTimes> traced_spans;
  std::vector<JobCounters> traced_counters;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> traced_registries;
  const double untraced_budget = traced_run ? flags.seconds / 2 : flags.seconds;
  Stopwatch loop;
  const auto run_phase = [&](bool traced, double until) {
    size_t jobs = 0;
    while (jobs < 2 || loop.ElapsedSeconds() < until) {
      ++jobs;
      ++attempted;
      JobOptions o;
      o.backend = d.backend.get();
      std::unique_ptr<TimedBackend> decorated;
      if (traced) {
        traced_registries.push_back(std::make_unique<obs::MetricsRegistry>());
        o.obs = traced_registries.back().get();
        o.obs->EnableTracing();
        decorated = std::make_unique<TimedBackend>(d.backend.get(),
                                                   o.obs->tracer());
        decorated->set_thread_pool(d.pool.get());
        o.backend = decorated.get();
      }
      auto job = RunJob(*w, seed, d, o);
      if (!job.ok()) {
        ++failed;
        std::printf("job %zu failed: %s\n", attempted,
                    job.status().ToString().c_str());
        continue;
      }
      const std::string diff = Diff(*job, *warmup);
      if (!diff.empty() || !reference_error.empty()) {
        ++failed;
        if (!diff.empty()) {
          std::printf("job %zu mismatch: %s\n", attempted, diff.c_str());
        }
      }
      if (traced) {
        traced_select_s.push_back(job->select_s);
        traced_spans.push_back(AnalyzeSpans(o.obs->tracer()->Snapshot()));
        traced_counters.push_back(ReadCounters(*o.obs, o.backend->name()));
      } else {
        select_s.push_back(job->select_s);
        job_s.push_back(job->select_s + job->train_s);
      }
      for (int i = 0; i < kSetupsPerJob; ++i) {
        if (!set_up().ok()) ++setup_errors;
      }
    }
  };
  run_phase(/*traced=*/false, untraced_budget);
  if (traced_run) run_phase(/*traced=*/true, flags.seconds);
  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.Total());

  std::vector<Metric> metrics;
  bool correct = reference_error.empty() && guard_error.empty() &&
                 failed == 0 && setup_errors == 0;
  if (!traced_run) {
    std::printf("%zu timed jobs and %zu set-ups in %.1f s; select_s per job:",
                select_s.size(), setups.size(), loop.ElapsedSeconds());
    for (double t : select_s) std::printf(" %.4f", t);
    std::printf("\n");
    metrics = {
        {"select_s", Median(select_s), "s"},
        {"job_s", Median(job_s), "s"},
        {"setup_s", Median(setup_totals), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"selection_value", warmup->Value(), "score"},
        {"test_accuracy", warmup->training.test_accuracy, "ratio"},
    };
    std::printf("jobs_failed: %zu / %zu\n", failed, attempted);
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // Traced run: decorated d_T identity, kernel replay, per-layer table.
  const std::string decorated_error = CompareDecoratedOracle(*w, seed, d);
  if (!decorated_error.empty()) {
    std::printf("DECORATOR MISMATCH: %s\n", decorated_error.c_str());
    correct = false;
  }
  const Replay replay = RunReplay(d);
  if (!replay.agree) {
    std::printf("REPLAY MISMATCH: FaginTopk and SmallestK disagree\n");
    correct = false;
  }

  // Per-job values, reported as their median over the traced jobs.
  const auto per_job = [&](auto fn) {
    std::vector<double> v;
    for (size_t i = 0; i < traced_spans.size(); ++i) {
      v.push_back(fn(traced_spans[i], traced_counters[i]));
    }
    return Median(v);
  };
  const auto total = [&](const char* name) {
    return per_job([&](const SpanTimes& s, const JobCounters&) {
      return s.Total(name);
    });
  };
  const auto self = [&](std::initializer_list<const char*> names) {
    return per_job([&](const SpanTimes& s, const JobCounters&) {
      double sum = 0;
      for (const char* name : names) sum += s.Self(name);
      return sum;
    });
  };
  const auto counter = [&](uint64_t JobCounters::*field) {
    return per_job([&](const SpanTimes&, const JobCounters& jc) {
      return static_cast<double>(jc.*field);
    });
  };
  // Spans that only group protocol work; their self time is the oracle's
  // unattributed time.
  const std::initializer_list<const char*> kContainers = {
      "select.oracle", "select.repair", "knn.query", "knn.shard"};
  // Σ self time of the selection: every program and HE span plus the
  // benchmark's own bench.select span (one thread: its wall time).
  const auto selection_self = [](const SpanTimes& s) {
    double sum = s.Self("bench.select");
    for (const auto& [name, self_s] : s.self_s) {
      if (name.rfind("bench.", 0) != 0) sum += self_s;
    }
    return sum;
  };
  std::vector<double> query_ms;
  for (const SpanTimes& s : traced_spans) {
    const auto it = s.durations_s.find("knn.query");
    if (it == s.durations_s.end()) continue;
    for (double sec : it->second) query_ms.push_back(sec * 1e3);
  }
  // ThreadPool::ParallelFor runs on the workers and the calling thread.
  const double participants =
      w->threads > 1 ? static_cast<double>(w->threads + 1) : 1.0;
  const size_t slots = d.backend->SlotsPerCiphertext();
  const double encrypt_s = total("he.op.encrypt");
  const double ciphertexts = counter(&JobCounters::ciphertexts);
  const double queries =
      static_cast<double>(warmup->selection.knn_stats.queries);
  const double untraced_select = Median(select_s);
  metrics = {
      // Deterministic for a fixed shape (constant across seeds on BASE), so
      // it is reported here rather than as a bounded end-to-end metric.
      {"select_sim_s", warmup->selection.sim_seconds, "s"},
      {"data.load_s", setup_median(&SetupTimes::load), "s"},
      {"data.split_s", setup_median(&SetupTimes::split), "s"},
      {"data.partition_s", setup_median(&SetupTimes::partition), "s"},
      {"he.keygen_s", setup_median(&SetupTimes::keygen), "s"},
      {"he.encrypt_s", encrypt_s, "s"},
      {"he.ciphertexts", ciphertexts, "count"},
      {"he.encrypt_us_per_ct",
       ciphertexts > 0 ? encrypt_s * 1e6 / ciphertexts : 0.0, "us"},
      {"he.slot_fill",
       per_job([&](const SpanTimes&, const JobCounters& jc) {
         if (jc.ciphertexts == 0) return 0.0;
         // A plain-backend "ciphertext" is the whole vector: always full.
         if (slots == std::numeric_limits<size_t>::max()) return 1.0;
         return static_cast<double>(jc.values_encrypted) /
                (static_cast<double>(jc.ciphertexts) * static_cast<double>(slots));
       }),
       "ratio"},
      {"he.sum_s", total("he.op.sum"), "s"},
      {"he.decrypt_s", total("he.op.decrypt"), "s"},
      {"he.fork_s", total("he.op.fork"), "s"},
      {"vfl.partial_distance_s",
       self({"knn.partial_distance", "knn.party.compute"}), "s"},
      {"vfl.oracle_self_s", self(kContainers), "s"},
      {"vfl.phase_self_s",
       self({"he.encrypt", "knn.aggregate", "knn.decrypt_rank",
             "knn.dt_exchange", "knn.prefilter"}),
       "s"},
      {"vfl.candidate_ratio", CandidateRatio(d, *warmup), "ratio"},
      {"vfl.fagin_depth", FaginDepth(*warmup), "rows"},
      {"vfl.cache_hits", counter(&JobCounters::cache_hits), "count"},
      {"vfl.cache_reuse_ratio",
       per_job([](const SpanTimes&, const JobCounters& jc) {
         const double lookups =
             static_cast<double>(jc.cache_hits + jc.cache_misses);
         return lookups == 0 ? 0.0 : jc.cache_hits / lookups;
       }),
       "ratio"},
      {"vfl.repair_rounds", counter(&JobCounters::repair_rounds), "count"},
      {"vfl.query_ms.p50", Quantile(query_ms, 0.50), "ms"},
      {"vfl.query_ms.p84", Quantile(query_ms, 0.84), "ms"},
      {"vfl.query_samples", static_cast<double>(query_ms.size()), "count"},
      {"topk.merge_s", self({"knn.topk_merge"}), "s"},
      {"topk.sort_ms_per_list", replay.sort_ms_per_list, "ms"},
      {"topk.fagin_ms_per_call", replay.fagin_ms_per_call, "ms"},
      {"topk.shard_merges_per_query",
       queries > 0 ? counter(&JobCounters::shard_merges) / queries : 0.0,
       "count"},
      {"ml.distance_ns_per_row", replay.distance_ns_per_row, "ns"},
      {"ml.smallest_k_us_per_call", replay.smallest_k_us_per_call, "us"},
      {"ml.train_s", total("bench.train"), "s"},
      {"net.messages", counter(&JobCounters::messages), "count"},
      {"net.mb", counter(&JobCounters::bytes) / 1e6, "MB"},
      {"net.retries", counter(&JobCounters::retries), "count"},
      {"net.dropped", counter(&JobCounters::dropped), "count"},
      {"net.stream_s", self({"knn.stream_rankings"}), "s"},
      {"core.similarity_s", total("select.similarity"), "s"},
      {"core.greedy_s", total("select.greedy"), "s"},
      {"core.greedy_evals", counter(&JobCounters::greedy_evals), "count"},
      {"core.select_self_s", self({"bench.select"}), "s"},
      {"pool.utilization",
       per_job([&](const SpanTimes& s, const JobCounters&) {
         const double oracle = s.Total("select.oracle");
         return oracle == 0 ? 0.0
                            : s.Total("knn.query") / (oracle * participants);
       }),
       "ratio"},
      {"obs.trace_overhead",
       untraced_select > 0 ? Median(traced_select_s) / untraced_select - 1.0
                           : 0.0,
       "ratio"},
      {"obs.span_coverage",
       per_job([&](const SpanTimes& s, const JobCounters&) {
         double uncovered = s.Self("bench.select");
         for (const char* name : kContainers) uncovered += s.Self(name);
         const double all = selection_self(s);
         return all == 0 ? 0.0 : 1.0 - uncovered / all;
       }),
       "ratio"},
  };
  std::printf("traced: %zu untraced + %zu traced jobs; jobs_failed %zu / %zu\n",
              select_s.size(), traced_select_s.size(), failed, attempted);
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "selection_bench: refusing to time a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 1;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "selection_bench: refusing to time a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 1;
  }
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: selection_bench --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> [--commit=<id>]\n");
    return 2;
  }
  return perfbench::Run(flags);
}
