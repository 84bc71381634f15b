// vfps_cli — command-line front end for the VFPS-SM experiment pipeline.
//
//   vfps_cli datasets
//       List the Table III dataset presets.
//   vfps_cli run [--dataset=Bank] [--method=VFPS-SM] [--model=lr]
//                [--participants=4] [--select=2] [--backend=plain]
//                [--scale=0.5] [--k=10] [--queries=64] [--seed=42]
//                [--query-group=1]
//                                (BASE mode: queries per packed HE round;
//                                 0 = auto-fit the backend's CKKS slots,
//                                 1 = one query per round, as before)
//                [--shards=1]    (row-shard the oracle's data plane across N
//                                 simulated storage nodes; per-shard top-k
//                                 lists are merged hierarchically. --shards=1
//                                 is bit-identical to the unsharded oracle)
//                [--prefilter=treecss:C]
//                                (TreeCSS-style per-party k-means pre-filter
//                                 with C clusters; only the nominated cluster
//                                 union pays per-row distance work. Off by
//                                 default — approximate when enabled)
//                [--duplicates=0] [--partition=random|stratified]
//                [--threads=1]   (0 = all cores; results are identical at
//                                 any thread count, only wall time changes)
//                [--fault-spec=drop=0.05,leave=3@40,join=2@80,heal=3@200]
//                [--fault-seed=7]
//                                (seeded network-fault plan; see net/fault.h
//                                 for the mini-language, including the churn
//                                 rules leave=/join=/heal=/part=. Absorbable
//                                 faults leave results identical; a crash or
//                                 leave quarantines the participant and the
//                                 selection is repaired incrementally over
//                                 the survivors; joins/heals are spliced in)
//                [--net-retries=6] [--net-jitter=0.25]
//                                (reliable-channel retry budget and backoff
//                                 jitter factor; defaults 0 keep the built-in
//                                 policy and the exact exponential schedule)
//                [--checkpoint-out=sel.ckpt] [--resume-from=sel.ckpt]
//                                (serialize the selection state — membership,
//                                 neighborhoods, greedy prefix — after the
//                                 run / resume a prior run, skipping its
//                                 oracle phase; VFPS-SM methods only)
//                [--metrics-out=metrics.json]
//                                (write the run's internal counters — HE ops,
//                                 wire bytes, Fagin depth, greedy evaluations
//                                 — as deterministic JSON; identical at any
//                                 --threads value)
//                [--trace-out=trace.json]
//                                (write causally linked spans as
//                                 chrome://tracing JSON, loadable in Perfetto
//                                 and by tools/trace_report.py)
//                [--metrics-interval=0.5]
//                                (with --metrics-out: additionally overwrite
//                                 the metrics file with a live snapshot every
//                                 N seconds while the run is in flight; the
//                                 final write still happens at exit)
//       Run one experiment grid cell and print the outcome.
//   vfps_cli sweep --dataset=Bank [--model=lr] [...]
//       Run every selection method on one configuration side by side
//       (accepts the run flags except --method and the output flags).
//
// Flags are strict: a flag the subcommand does not read (a typo such as
// --treads=4), a malformed value, or a count outside its range (--k=-1,
// --participants=0) exits with status 2 before any work starts. A run
// that starts and then fails (a checkpoint that cannot be resumed, an
// output file that cannot be written) prints the error and exits with
// status 1.

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "data/presets.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace {

using namespace vfps;  // NOLINT(build/namespaces)

// The --key=value flags of one subcommand. Every lookup marks its key as
// read, so after a subcommand has read everything it understands,
// CheckAllRead() rejects the rest (typos such as --treads would otherwise
// be ignored silently).
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  Status CheckAllRead(const char* command) const {
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) {
        return Status::InvalidArgument(
            StrFormat("unknown flag --%s for 'vfps_cli %s'", key.c_str(), command));
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

// An unsigned count flag in [lo, hi]. Parsed as a signed integer first so
// that "-1" is reported as out of range instead of wrapping to SIZE_MAX.
Result<size_t> GetCount(const Flags& flags, const std::string& key,
                        const std::string& fallback, int64_t lo, int64_t hi) {
  VFPS_ASSIGN_OR_RETURN(int64_t value, ParseInt64(flags.Get(key, fallback)));
  if (value < lo || value > hi) {
    return Status::InvalidArgument(
        StrFormat("--%s must be in [%lld, %lld], got %lld", key.c_str(),
                  static_cast<long long>(lo), static_cast<long long>(hi),
                  static_cast<long long>(value)));
  }
  return static_cast<size_t>(value);
}

// Invalid flags exit with status 2, the same as a malformed argument.
int FailFlags(const Status& status) {
  std::fprintf(stderr, "[vfps] invalid flags: %s\n", status.ToString().c_str());
  return 2;
}

// A run that started and failed (a rejected resume, an unwritable output
// file) prints the status and exits 1.
int FailRun(const char* what, const Status& status) {
  std::fprintf(stderr, "[vfps] %s failed: %s\n", what,
               status.ToString().c_str());
  return 1;
}

Result<core::ExperimentConfig> BuildConfig(const Flags& flags) {
  core::ExperimentConfig config;
  config.dataset = flags.Get("dataset", "Bank");
  config.csv_path = flags.Get("csv", "");
  VFPS_ASSIGN_OR_RETURN(auto method,
                        core::ParseSelectionMethod(flags.Get("method", "VFPS-SM")));
  config.method = method;
  VFPS_ASSIGN_OR_RETURN(auto model, ml::ParseModelKind(flags.Get("model", "lr")));
  config.model = model;
  VFPS_ASSIGN_OR_RETURN(config.participants,
                        GetCount(flags, "participants", "4", 1, 4096));
  VFPS_ASSIGN_OR_RETURN(config.select, GetCount(flags, "select", "2", 1, 4096));
  VFPS_ASSIGN_OR_RETURN(config.scale, ParseDouble(flags.Get("scale", "0.5")));
  VFPS_ASSIGN_OR_RETURN(config.knn.k, GetCount(flags, "k", "10", 1, 1 << 20));
  VFPS_ASSIGN_OR_RETURN(config.knn.num_queries,
                        GetCount(flags, "queries", "64", 1, 1 << 20));
  VFPS_ASSIGN_OR_RETURN(config.knn.query_group,
                        GetCount(flags, "query-group", "1", 0, 1 << 16));
  VFPS_ASSIGN_OR_RETURN(int64_t seed, ParseInt64(flags.Get("seed", "42")));
  config.seed = static_cast<uint64_t>(seed);
  VFPS_ASSIGN_OR_RETURN(config.duplicates,
                        GetCount(flags, "duplicates", "0", 0, 4096));
  VFPS_ASSIGN_OR_RETURN(int64_t threads, ParseInt64(flags.Get("threads", "1")));
  if (threads < 0 || threads > 1024) {
    return Status::InvalidArgument("--threads must be in [0, 1024] (0 = all cores)");
  }
  config.num_threads = static_cast<size_t>(threads);
  VFPS_ASSIGN_OR_RETURN(config.faults,
                        net::ParseFaultSpec(flags.Get("fault-spec", "")));
  // The run has one participant per --participants and per --duplicates.
  VFPS_RETURN_NOT_OK(
      config.faults.CheckNodes(config.participants + config.duplicates));
  VFPS_ASSIGN_OR_RETURN(int64_t fault_seed,
                        ParseInt64(flags.Get("fault-seed", "0")));
  config.fault_seed = static_cast<uint64_t>(fault_seed);
  VFPS_ASSIGN_OR_RETURN(int64_t net_retries,
                        ParseInt64(flags.Get("net-retries", "0")));
  if (net_retries < 0 || net_retries > 64) {
    return Status::InvalidArgument("--net-retries must be in [0, 64]");
  }
  config.knn.net_retries = static_cast<size_t>(net_retries);
  VFPS_ASSIGN_OR_RETURN(config.knn.net_jitter,
                        ParseDouble(flags.Get("net-jitter", "0")));
  if (config.knn.net_jitter < 0.0 || config.knn.net_jitter > 1.0) {
    return Status::InvalidArgument("--net-jitter must be in [0, 1]");
  }
  config.checkpoint_out = flags.Get("checkpoint-out", "");
  config.resume_from = flags.Get("resume-from", "");
  VFPS_ASSIGN_OR_RETURN(int64_t shards, ParseInt64(flags.Get("shards", "1")));
  if (shards < 1 || shards > 4096) {
    return Status::InvalidArgument("--shards must be in [1, 4096]");
  }
  config.knn.shards = static_cast<size_t>(shards);
  const std::string prefilter = flags.Get("prefilter", "");
  if (!prefilter.empty()) {
    const std::string prefix = "treecss:";
    if (prefilter.rfind(prefix, 0) != 0) {
      return Status::InvalidArgument(
          "--prefilter must be of the form treecss:<clusters>");
    }
    VFPS_ASSIGN_OR_RETURN(int64_t clusters,
                          ParseInt64(prefilter.substr(prefix.size())));
    if (clusters < 1 || clusters > 65536) {
      return Status::InvalidArgument(
          "--prefilter cluster count must be in [1, 65536]");
    }
    config.knn.prefilter_clusters = static_cast<size_t>(clusters);
  }

  const std::string backend = flags.Get("backend", "plain");
  if (backend == "plain") {
    config.backend = core::HeBackendKind::kPlain;
  } else if (backend == "ckks") {
    config.backend = core::HeBackendKind::kCkks;
  } else if (backend == "paillier") {
    config.backend = core::HeBackendKind::kPaillier;
  } else {
    return Status::InvalidArgument("unknown backend: " + backend);
  }
  const std::string partition = flags.Get("partition", "random");
  if (partition == "random") {
    config.partition = core::PartitionMode::kRandom;
  } else if (partition == "stratified") {
    config.partition = core::PartitionMode::kQualityStratified;
  } else {
    return Status::InvalidArgument("unknown partition mode: " + partition);
  }
  return config;
}

void PrintResult(const char* method, const core::ExperimentResult& r) {
  std::string picked;
  for (size_t p : r.selection.selected) {
    picked += (picked.empty() ? "" : ",") + std::to_string(p);
  }
  std::printf(
      "%-13s picked={%s} accuracy=%.4f selection=%.1fs training=%.1fs "
      "total=%.1fs (wall %.2fs)\n",
      method, picked.c_str(), r.training.test_accuracy, r.selection_sim_seconds,
      r.training_sim_seconds, r.total_sim_seconds, r.wall_seconds);
}

int CmdDatasets() {
  std::printf("%-10s %-11s %12s %10s %9s %8s\n", "Name", "Domain", "PaperRows",
              "BaseRows", "Features", "Classes");
  for (const auto& preset : data::PaperDatasets()) {
    std::printf("%-10s %-11s %12zu %10zu %9zu %8d\n", preset.name.c_str(),
                preset.domain.c_str(), preset.paper_rows, preset.base_rows,
                preset.features, preset.classes);
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  auto config = BuildConfig(flags);
  if (!config.ok()) return FailFlags(config.status());
  const std::string metrics_out = flags.Get("metrics-out", "");
  const std::string trace_out = flags.Get("trace-out", "");
  auto interval = ParseDouble(flags.Get("metrics-interval", "0"));
  if (!interval.ok()) return FailFlags(interval.status());
  if (*interval < 0.0) {
    return FailFlags(Status::InvalidArgument("--metrics-interval must be >= 0"));
  }
  if (*interval > 0.0 && metrics_out.empty()) {
    return FailFlags(
        Status::InvalidArgument("--metrics-interval requires --metrics-out"));
  }
  const Status all_read = flags.CheckAllRead("run");
  if (!all_read.ok()) return FailFlags(all_read);
  obs::MetricsRegistry registry;
  if (!metrics_out.empty() || !trace_out.empty()) {
    if (!trace_out.empty()) registry.EnableTracing();
    config->obs = &registry;
  }
  obs::PeriodicSnapshotWriter snapshots(&registry, metrics_out, *interval);
  if (*interval > 0.0) snapshots.Start();
  auto result = core::RunExperiment(*config);
  snapshots.Stop();
  if (!result.ok()) return FailRun("experiment", result.status());
  if (!config->resume_from.empty()) {
    std::printf("resumed selection from %s\n", config->resume_from.c_str());
  }
  if (!config->checkpoint_out.empty()) {
    std::printf("selection checkpoint written to %s\n",
                config->checkpoint_out.c_str());
  }
  if (!metrics_out.empty()) {
    const Status written = registry.WriteJsonFile(metrics_out);
    if (!written.ok()) return FailRun("metrics-out", written);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    const Status written = registry.tracer()->WriteJsonFile(trace_out);
    if (!written.ok()) return FailRun("trace-out", written);
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  const std::string source =
      config->csv_path.empty() ? config->dataset : config->csv_path;
  std::printf("dataset=%s rows=%zu features=%zu consortium=%zu backend=%s\n\n",
              source.c_str(), result->rows, result->features,
              result->consortium_size, core::HeBackendKindName(config->backend));
  PrintResult(core::SelectionMethodName(config->method), *result);
  if (!result->selection.scores.empty()) {
    std::printf("\nper-participant scores:");
    for (size_t p = 0; p < result->selection.scores.size(); ++p) {
      std::printf(" %zu:%.4f", p, result->selection.scores[p]);
    }
    std::printf("\n");
  }
  if (result->selection.knn_stats.queries > 0) {
    std::printf("oracle: %zu queries, %.0f candidates/query, %llu KB on the wire\n",
                result->selection.knn_stats.queries,
                result->selection.knn_stats.AvgCandidatesPerQuery(),
                static_cast<unsigned long long>(
                    result->selection.knn_stats.traffic.bytes / 1024));
  }
  if (result->faults.any()) {
    std::printf(
        "faults: %llu dropped, %llu duplicated, %llu corrupted, %llu delayed "
        "(+%.3fs), %llu swallowed by dead nodes\n",
        static_cast<unsigned long long>(result->faults.dropped),
        static_cast<unsigned long long>(result->faults.duplicated),
        static_cast<unsigned long long>(result->faults.corrupted),
        static_cast<unsigned long long>(result->faults.delayed),
        result->faults.delay_seconds,
        static_cast<unsigned long long>(result->faults.swallowed_dead));
  }
  if (!result->selection.quarantined.empty()) {
    std::string quarantined;
    for (size_t p : result->selection.quarantined) {
      quarantined += (quarantined.empty() ? "" : ",") + std::to_string(p);
    }
    std::printf(
        "degraded: participant(s) {%s} crashed mid-protocol and were "
        "quarantined; selection completed over the survivors\n",
        quarantined.c_str());
  }
  if (!result->selection.absent.empty()) {
    std::string absent;
    for (size_t p : result->selection.absent) {
      absent += (absent.empty() ? "" : ",") + std::to_string(p);
    }
    std::printf(
        "absent: participant(s) {%s} never joined (join= threshold not "
        "reached); selection completed without them\n",
        absent.c_str());
  }
  return 0;
}

int CmdSweep(const Flags& flags) {
  if (flags.Has("method")) {
    return FailFlags(Status::InvalidArgument(
        "'vfps_cli sweep' runs every method; drop --method"));
  }
  const core::SelectionMethod methods[] = {
      core::SelectionMethod::kAll,     core::SelectionMethod::kRandom,
      core::SelectionMethod::kShapley, core::SelectionMethod::kVfMine,
      core::SelectionMethod::kVfpsSmBase, core::SelectionMethod::kVfpsSm};
  for (core::SelectionMethod method : methods) {
    auto method_flags = flags;
    method_flags.Set("method", core::SelectionMethodName(method));
    auto config = BuildConfig(method_flags);
    if (!config.ok()) return FailFlags(config.status());
    const Status all_read = method_flags.CheckAllRead("sweep");
    if (!all_read.ok()) return FailFlags(all_read);
    auto result = core::RunExperiment(*config);
    if (!result.ok()) return FailRun("experiment", result.status());
    PrintResult(core::SelectionMethodName(method), *result);
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: vfps_cli <datasets|run|sweep> [--key=value ...]\n"
               "try:   vfps_cli run --dataset=SUSY --method=VFPS-SM --model=lr\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "datasets") return CmdDatasets();
  if (command == "run") return CmdRun(Flags(argc, argv, 2));
  if (command == "sweep") return CmdSweep(Flags(argc, argv, 2));
  Usage();
  return 2;
}
