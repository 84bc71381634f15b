#ifndef VFPS_CORE_EXPERIMENT_H_
#define VFPS_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/selector.h"
#include "ml/classifier.h"
#include "net/fault.h"
#include "vfl/split_train.h"

namespace vfps::core {

/// Which HE backend the experiment instantiates. Accuracy-focused benches use
/// kPlain for speed (the cost model makes simulated times backend-agnostic);
/// protocol-focused benches run real CKKS.
enum class HeBackendKind { kCkks, kPaillier, kPlain };

const char* HeBackendKindName(HeBackendKind kind);

/// How the joint feature space is split across participants.
enum class PartitionMode {
  kQualityStratified,  // heterogeneous quality + overlap (selection benches)
  kRandom,             // the paper's uniform random split (diversity study)
};

/// \brief One cell of the paper's evaluation grid: a dataset, a consortium
/// shape, a selection method, and a downstream model.
struct ExperimentConfig {
  std::string dataset = "Bank";
  /// When non-empty, load this CSV file (numeric cells, label in the last
  /// column) instead of generating the `dataset` preset — the path for
  /// running the pipeline on real copies of the paper's datasets. CSV runs
  /// always use random vertical partitions (no feature-kind metadata).
  std::string csv_path;
  double scale = 1.0;            // row-count multiplier on the preset
  size_t participants = 4;       // P (before duplicate injection)
  size_t select = 2;             // |S| participants to keep
  SelectionMethod method = SelectionMethod::kVfpsSm;
  ml::ModelKind model = ml::ModelKind::kLogReg;

  HeBackendKind backend = HeBackendKind::kPlain;
  /// Key size for the Paillier backend. 1024 is the realistic default; the
  /// HE-backend ablation drops to 512 to keep its (one ciphertext per value,
  /// that is the point) demonstration fast.
  size_t paillier_modulus_bits = 1024;
  /// CKKS slot layout: kPacked (production, n/2 values per ciphertext) or
  /// kScalar (one value per ciphertext — the ablation baseline that measures
  /// what slot packing saves).
  he::CkksPacking ckks_packing = he::CkksPacking::kPacked;
  vfl::FedKnnConfig knn;                 // oracle settings
  ml::ClassifierOptions classifier;      // downstream hyper-parameters
  net::CostModel cost;                   // simulated-deployment calibration

  /// Fig. 6 diversity study: append `duplicates` cloned participants to the
  /// consortium before selection. Following the paper's protocol of
  /// "incrementally adding participants with replicated data", duplicate i
  /// clones participant (i mod P).
  size_t duplicates = 0;
  PartitionMode partition = PartitionMode::kQualityStratified;

  uint64_t seed = 42;
  size_t utility_queries = 32;           // SHAPLEY / VF-MINE query budget
  size_t shapley_exact_limit = 12;
  size_t shapley_mc_permutations = 16;

  /// Worker threads for the encrypted-KNN pipeline. 1 (default) runs fully
  /// serial; 0 means "use the hardware concurrency"; N > 1 creates an
  /// N-thread pool shared by the selection phase. Results are bit-identical
  /// at any value — only wall_seconds changes.
  size_t num_threads = 1;

  /// Seeded network-fault plan (CLI `--fault-spec`). The zero default means
  /// no plan is attached and the run is bit-identical to pre-fault-injection
  /// behavior. Faults the retry layer absorbs leave selection output
  /// unchanged; a participant crash triggers graceful degradation (see
  /// VfpsSmSelector). The schedule is a pure function of (faults, fault_seed)
  /// at any thread count.
  net::FaultSpec faults;
  uint64_t fault_seed = 0;  // CLI `--fault-seed`

  /// Selection checkpointing (VFPS-SM variants only; see core/checkpoint.h).
  /// `checkpoint_out`: after a successful selection, serialize its state to
  /// this path. `resume_from`: load a prior checkpoint and continue from it —
  /// the oracle phase is skipped and the greedy scan resumes. Empty (default)
  /// disables both. CLI `--checkpoint-out` / `--resume-from`.
  std::string checkpoint_out;
  std::string resume_from;

  /// Optional metrics/tracing sink (CLI `--metrics-out` / `--trace-out`).
  /// When non-null, the deployment objects (HE backend, network, selector)
  /// publish their counters and spans here; run-level facts are added as
  /// gauges. Borrowed; must outlive RunExperiment. nullptr disables all
  /// observability (the default, and effectively free).
  obs::MetricsRegistry* obs = nullptr;
};

/// \brief Everything a table/figure needs about one experiment run.
struct ExperimentResult {
  SelectionOutcome selection;
  vfl::TrainingOutcome training;
  double selection_sim_seconds = 0.0;
  double training_sim_seconds = 0.0;
  double total_sim_seconds = 0.0;
  double wall_seconds = 0.0;  // real time this run took on this host
  size_t rows = 0;            // training rows after the split
  size_t features = 0;
  size_t consortium_size = 0;  // P after duplicate injection
  /// Injected faults that fired during the run (all zeros without a fault
  /// plan). Quarantined participants are in selection.quarantined.
  net::FaultStats faults;
};

/// \brief Run the full pipeline for one grid cell: generate the dataset
/// preset, split 80/10/10, standardize, build the quality-stratified vertical
/// partition (+ optional duplicates), select participants with the chosen
/// method over the simulated encrypted deployment, then train and evaluate
/// the downstream model on the selected sub-consortium.
Result<ExperimentResult> RunExperiment(const ExperimentConfig& config);

}  // namespace vfps::core

#endif  // VFPS_CORE_EXPERIMENT_H_
