#ifndef VFPS_VFL_SPLIT_LR_H_
#define VFPS_VFL_SPLIT_LR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "he/backend.h"
#include "ml/train_config.h"
#include "net/cost_model.h"
#include "net/network.h"

namespace vfps::vfl {

/// \brief Federated split logistic regression with the actual message flow
/// (paper §V-A: "each participant maintains a single linear layer, and the
/// server aggregates the outputs of the participants by summing them",
/// HE-protecting the transmitted outputs).
///
/// Unlike vfl::RunDownstreamTraining — which trains the mathematically
/// equivalent centralized model and charges an analytic cost model — this
/// class executes the protocol for real: per mini-batch, every selected
/// participant encrypts its partial logits, the aggregation server
/// homomorphically sums them, the leader decrypts, forms the softmax
/// residuals against its labels, and returns them to the participants, who
/// update their own weight slices with local Adam optimizers. All payloads
/// cross the byte-metered SimNetwork; clock charges come from the *measured*
/// HE-op and traffic deltas plus the compute rate.
///
/// Threat-model note (documented deviation shared with vanilla split
/// learning): the returned residuals are plaintext, so participants learn
/// per-sample gradient information; BlindFL-style residual protection is out
/// of scope here, as it is in the paper.
class SplitLrProtocol {
 public:
  struct Outcome {
    double test_accuracy = 0.0;
    size_t epochs = 0;
    double sim_seconds = 0.0;       // charged onto the clock as kTraining
    net::TrafficStats traffic;      // metered bytes/messages of the run
    he::HeOpStats he_ops;           // HE operations actually executed
  };

  /// \param split standardized joint train/valid/test views.
  /// \param selected the trained sub-consortium (distinct participant ids;
  ///        must include participant 0, the leader, or training fails — the
  ///        leader always takes part because it owns the labels).
  SplitLrProtocol(const data::DataSplit* split,
                  const data::VerticalPartition* partition,
                  std::vector<size_t> selected, he::HeBackend* backend,
                  net::SimNetwork* network, const net::CostModel* cost_model,
                  SimClock* clock);

  /// Run the training loop (early stopping on the leader's validation loss)
  /// and evaluate on the test split.
  Result<Outcome> Train(const ml::TrainConfig& config);

  /// \brief A participant's decode of the leader's residual payload: one
  /// length-prefixed vector of doubles. Rejects a payload too short for the
  /// length it carries, and with ProtocolError one that goes on after the
  /// vector (the message names the extra byte count).
  static Result<std::vector<double>> DecodeDoubles(
      const std::vector<uint8_t>& payload);

 private:
  // One forward pass of `rows` of `source` through the split model: returns
  // the decrypted aggregated logits at the leader (row-major batch x C).
  Result<std::vector<double>> ForwardBatch(const data::Dataset& source,
                                           const std::vector<size_t>& rows);

  // Mean cross-entropy of a dataset under the current split model.
  Result<double> DatasetLoss(const data::Dataset& dataset);

  const data::DataSplit* split_;
  const data::VerticalPartition* partition_;
  std::vector<size_t> selected_;
  he::HeBackend* backend_;
  net::SimNetwork* network_;
  const net::CostModel* cost_;
  SimClock* clock_;

  size_t num_classes_ = 0;
  // Per selected participant: weight slice (F_p x C flattened); the leader
  // additionally owns the bias (C).
  std::vector<std::vector<double>> weights_;
  std::vector<double> bias_;
};

}  // namespace vfps::vfl

#endif  // VFPS_VFL_SPLIT_LR_H_
