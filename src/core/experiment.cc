#include "core/experiment.h"

#include <numeric>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "data/csv_loader.h"
#include "data/presets.h"
#include "data/scaler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace vfps::core {

const char* HeBackendKindName(HeBackendKind kind) {
  switch (kind) {
    case HeBackendKind::kCkks:
      return "ckks";
    case HeBackendKind::kPaillier:
      return "paillier";
    case HeBackendKind::kPlain:
      return "plain";
  }
  return "unknown";
}

namespace {
Result<std::unique_ptr<he::HeBackend>> MakeBackend(const ExperimentConfig& config) {
  switch (config.backend) {
    case HeBackendKind::kCkks:
      return he::CreateCkksBackend(he::CkksParams{}, config.seed,
                                   config.ckks_packing);
    case HeBackendKind::kPaillier:
      return he::CreatePaillierBackend(config.paillier_modulus_bits,
                                       /*fractional_bits=*/20, config.seed);
    case HeBackendKind::kPlain:
      return Result<std::unique_ptr<he::HeBackend>>(he::CreatePlainBackend());
  }
  return Status::InvalidArgument("unknown HE backend kind");
}
}  // namespace

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  Stopwatch wall;
  // A fault rule for a node this run does not have would never fire.
  VFPS_RETURN_NOT_OK(
      config.faults.CheckNodes(config.participants + config.duplicates));

  // Data: preset or CSV -> 80/10/10 split -> standardize on train statistics.
  data::SyntheticDataset synthetic;
  if (!config.csv_path.empty()) {
    VFPS_ASSIGN_OR_RETURN(synthetic.data,
                          data::LoadCsv(config.csv_path, data::CsvOptions{}));
    // Real data carries no generator metadata; treat every column uniformly.
    synthetic.kinds.assign(synthetic.data.num_features(),
                           data::FeatureKind::kInformative);
  } else {
    VFPS_ASSIGN_OR_RETURN(
        synthetic, data::LoadPreset(config.dataset, config.scale, config.seed));
  }
  VFPS_ASSIGN_OR_RETURN(auto split,
                        data::SplitDataset(synthetic.data, 0.8, 0.1, config.seed));
  VFPS_RETURN_NOT_OK(data::StandardizeSplit(&split));

  // Consortium: vertical partition (+ Fig. 6 duplicates).
  data::VerticalPartition partition;
  if (config.partition == PartitionMode::kQualityStratified) {
    VFPS_ASSIGN_OR_RETURN(
        partition,
        data::QualityStratifiedPartition(synthetic.kinds, config.participants,
                                         config.seed));
  } else {
    VFPS_ASSIGN_OR_RETURN(
        partition,
        data::RandomVerticalPartition(synthetic.data.num_features(),
                                      config.participants, config.seed));
  }
  for (size_t i = 0; i < config.duplicates; ++i) {
    VFPS_ASSIGN_OR_RETURN(
        partition, data::WithDuplicates(partition, i % config.participants, 1));
  }

  // Simulated deployment.
  VFPS_ASSIGN_OR_RETURN(auto backend, MakeBackend(config));
  net::SimNetwork network;
  SimClock clock;
  // Label the HE op counters with the backend kind (he.encrypt_ops{backend=
  // ckks} etc.), so a run's ciphertext-op totals attribute to the scheme
  // that produced them. Must precede set_metrics — labels apply when the
  // counter handles are resolved.
  backend->set_metric_labels({{"backend", HeBackendKindName(config.backend)}});
  backend->set_metrics(config.obs);
  network.set_metrics(config.obs);
  obs::Tracer* const tracer =
      config.obs == nullptr ? nullptr : config.obs->tracer();
  if (config.faults.any()) {
    VFPS_RETURN_NOT_OK(config.faults.Validate());
    network.EnableFaults(config.faults, config.fault_seed, &clock);
  }
  std::unique_ptr<ThreadPool> pool;
  if (config.num_threads != 1) {  // 0 = hardware concurrency (ThreadPool ctor)
    pool = std::make_unique<ThreadPool>(config.num_threads);
    backend->set_thread_pool(pool.get());
  }

  ExperimentResult result;
  result.rows = split.train.num_samples();
  result.features = split.train.num_features();
  result.consortium_size = partition.size();

  // Selection phase.
  if (config.method == SelectionMethod::kAll) {
    result.selection.selected.resize(partition.size());
    std::iota(result.selection.selected.begin(), result.selection.selected.end(),
              size_t{0});
    result.selection.sim_seconds = 0.0;
  } else {
    obs::Span span_select(tracer, "experiment.selection", &clock);
    SelectionContext ctx;
    ctx.split = &split;
    ctx.partition = &partition;
    ctx.backend = backend.get();
    ctx.network = &network;
    ctx.cost = &config.cost;
    ctx.clock = &clock;
    ctx.pool = pool.get();
    ctx.obs = config.obs;
    ctx.knn = config.knn;
    ctx.seed = config.seed;
    ctx.utility_queries = config.utility_queries;
    ctx.shapley_exact_limit = config.shapley_exact_limit;
    ctx.shapley_mc_permutations = config.shapley_mc_permutations;
    SelectionCheckpoint resume;
    if (!config.resume_from.empty()) {
      VFPS_ASSIGN_OR_RETURN(resume,
                            SelectionCheckpoint::LoadFile(config.resume_from));
      ctx.resume = &resume;
    }
    SelectionCheckpoint checkpoint;
    if (!config.checkpoint_out.empty()) ctx.checkpoint = &checkpoint;
    VFPS_ASSIGN_OR_RETURN(auto selector, CreateSelector(config.method));
    VFPS_ASSIGN_OR_RETURN(result.selection, selector->Select(ctx, config.select));
    // Only the VFPS-SM variants fill the checkpoint; an untouched one (other
    // methods) is not worth writing.
    if (ctx.checkpoint != nullptr && checkpoint.shape.num_participants > 0) {
      VFPS_RETURN_NOT_OK(checkpoint.SaveFile(config.checkpoint_out));
    }
  }
  result.selection_sim_seconds = result.selection.sim_seconds;
  result.faults = network.fault_stats();

  // Downstream training on the selected sub-consortium.
  obs::Span span_train(tracer, "experiment.training", &clock);
  vfl::DownstreamOptions downstream;
  downstream.model = config.model;
  downstream.classifier = config.classifier;
  VFPS_ASSIGN_OR_RETURN(
      result.training,
      vfl::RunDownstreamTraining(split, partition, result.selection.selected,
                                 downstream, config.cost, &clock));
  span_train.End();
  result.training_sim_seconds = result.training.sim_seconds;
  result.total_sim_seconds =
      result.selection_sim_seconds + result.training_sim_seconds;
  result.wall_seconds = wall.ElapsedSeconds();
  if (config.obs != nullptr) {
    config.obs->SetGauge("experiment.accuracy", result.training.test_accuracy);
    config.obs->SetGauge("experiment.sim_seconds", result.total_sim_seconds);
    config.obs->SetGauge("experiment.wall_seconds", result.wall_seconds);
    config.obs->SetGauge("experiment.consortium_size",
                         static_cast<double>(result.consortium_size));
    config.obs->SetGauge(
        "experiment.threads",
        static_cast<double>(pool != nullptr ? pool->num_threads() : 1));
    // Kernel ISA provenance lives in the runner layer, NOT in the selector:
    // the forced-scalar-vs-SIMD bit-identity check compares the selector's
    // merged counters across runs, and an isa label inside the selector
    // would make those legitimately differ.
    const simd::Isa isa = simd::ActiveIsa();
    config.obs->SetGauge("kernel.isa", static_cast<double>(isa));
    config.obs
        ->GetLabeledCounter("kernel.isa.selected", {{"isa", simd::IsaName(isa)}})
        ->Add();
  }
  return result;
}

}  // namespace vfps::core
