#include "vfl/split_lr.h"

#include <algorithm>
#include <cmath>

#include "common/buffer.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "ml/metrics.h"
#include "ml/optimizer.h"

namespace vfps::vfl {

namespace {
constexpr net::NodeId kLeader = 0;

std::vector<uint8_t> EncodeDoubles(const std::vector<double>& v) {
  BinaryWriter writer;
  writer.WriteDoubleVec(v);
  return writer.TakeBytes();
}

std::vector<uint8_t> EncodeIds(const std::vector<size_t>& ids) {
  BinaryWriter writer;
  std::vector<uint64_t> wide(ids.begin(), ids.end());
  writer.WriteU64Vec(wide);
  return writer.TakeBytes();
}
}  // namespace

Result<std::vector<double>> SplitLrProtocol::DecodeDoubles(
    const std::vector<uint8_t>& payload) {
  BinaryReader reader(payload);
  VFPS_ASSIGN_OR_RETURN(auto values, reader.ReadDoubleVec());
  if (!reader.AtEnd()) {
    return Status::ProtocolError(StrFormat(
        "split-LR payload: %zu bytes after the last value",
        reader.remaining()));
  }
  return values;
}

SplitLrProtocol::SplitLrProtocol(const data::DataSplit* split,
                                 const data::VerticalPartition* partition,
                                 std::vector<size_t> selected,
                                 he::HeBackend* backend,
                                 net::SimNetwork* network,
                                 const net::CostModel* cost_model,
                                 SimClock* clock)
    : split_(split),
      partition_(partition),
      selected_(std::move(selected)),
      backend_(backend),
      network_(network),
      cost_(cost_model),
      clock_(clock) {}

Result<std::vector<double>> SplitLrProtocol::ForwardBatch(
    const data::Dataset& source, const std::vector<size_t>& rows) {
  const size_t c = num_classes_;
  const size_t batch = rows.size();

  // The leader shares the batch row ids (shared sample indices, no features).
  for (size_t party : selected_) {
    if (party == 0) continue;
    VFPS_RETURN_NOT_OK(
        network_->Send(kLeader, static_cast<int>(party), EncodeIds(rows)));
    VFPS_RETURN_NOT_OK(network_->Recv(kLeader, static_cast<int>(party)).status());
  }

  // Each participant computes its partial logits, encrypts, sends to the
  // aggregation server.
  std::vector<he::EncryptedVector> encrypted(selected_.size());
  std::vector<const he::EncryptedVector*> ptrs(selected_.size());
  for (size_t idx = 0; idx < selected_.size(); ++idx) {
    const size_t party = selected_[idx];
    const auto& columns = (*partition_)[party];
    const double* w = weights_[idx].data();
    std::vector<double> partial(batch * c, 0.0);
    for (size_t b = 0; b < batch; ++b) {
      const double* row = source.Row(rows[b]);
      double* out = partial.data() + b * c;
      for (size_t f = 0; f < columns.size(); ++f) {
        const double x = row[columns[f]];
        if (x == 0.0) continue;
        const double* wrow = w + f * c;
        for (size_t j = 0; j < c; ++j) out[j] += x * wrow[j];
      }
      if (party == 0) {
        for (size_t j = 0; j < c; ++j) out[j] += bias_[j];
      }
    }
    VFPS_ASSIGN_OR_RETURN(encrypted[idx], backend_->Encrypt(partial));
    VFPS_RETURN_NOT_OK(network_->Send(static_cast<int>(party),
                                      net::kAggregationServer,
                                      encrypted[idx].blob));
  }

  // Aggregation server: homomorphic sum, forward to the leader.
  for (size_t idx = 0; idx < selected_.size(); ++idx) {
    VFPS_ASSIGN_OR_RETURN(
        auto blob,
        network_->Recv(static_cast<int>(selected_[idx]), net::kAggregationServer));
    encrypted[idx] = he::EncryptedVector{std::move(blob), batch * c};
    ptrs[idx] = &encrypted[idx];
  }
  VFPS_ASSIGN_OR_RETURN(auto summed, backend_->Sum(ptrs));
  VFPS_RETURN_NOT_OK(network_->Send(net::kAggregationServer, kLeader, summed.blob));

  // Leader: decrypt the aggregated logits.
  VFPS_ASSIGN_OR_RETURN(auto blob, network_->Recv(net::kAggregationServer, kLeader));
  return backend_->Decrypt(he::EncryptedVector{std::move(blob), batch * c});
}

Result<double> SplitLrProtocol::DatasetLoss(const data::Dataset& dataset) {
  const size_t c = num_classes_;
  std::vector<size_t> rows(dataset.num_samples());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  VFPS_ASSIGN_OR_RETURN(auto logits, ForwardBatch(dataset, rows));
  for (size_t i = 0; i < rows.size(); ++i) {
    ml::SoftmaxInPlace(logits.data() + i * c, c);
  }
  return ml::CrossEntropy(logits, c, dataset.labels());
}

Result<SplitLrProtocol::Outcome> SplitLrProtocol::Train(
    const ml::TrainConfig& config) {
  VFPS_CHECK_ARG(!selected_.empty(), "split-lr: empty selection");
  VFPS_CHECK_ARG(std::find(selected_.begin(), selected_.end(), size_t{0}) !=
                     selected_.end(),
                 "split-lr: the leader (participant 0) must take part");
  const data::Dataset& train = split_->train;
  VFPS_CHECK_ARG(train.num_samples() > 0, "split-lr: empty training set");
  num_classes_ = static_cast<size_t>(train.num_classes());
  const size_t c = num_classes_;

  const net::TrafficStats traffic_before = network_->total();
  const he::HeOpStats he_before = backend_->stats();

  // Initialize slices.
  weights_.assign(selected_.size(), {});
  std::vector<ml::Adam> optimizers(selected_.size(),
                                   ml::Adam(config.learning_rate));
  for (size_t idx = 0; idx < selected_.size(); ++idx) {
    weights_[idx].assign((*partition_)[selected_[idx]].size() * c, 0.0);
  }
  bias_.assign(c, 0.0);
  ml::Adam bias_optimizer(config.learning_rate);

  Rng rng(config.seed);
  ml::EarlyStopper stopper(config.patience);
  size_t epochs = 0;
  const bool has_valid = split_->valid.num_samples() > 0;

  for (size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    const auto order = rng.Permutation(train.num_samples());
    const auto batches =
        ml::MakeBatches(train.num_samples(), config.batch_size, order);
    for (const auto& batch : batches) {
      VFPS_ASSIGN_OR_RETURN(auto logits, ForwardBatch(train, batch));
      // Leader: residuals r = (softmax - onehot) / B against its labels.
      const double inv = 1.0 / static_cast<double>(batch.size());
      for (size_t b = 0; b < batch.size(); ++b) {
        double* row = logits.data() + b * c;
        ml::SoftmaxInPlace(row, c);
        row[static_cast<size_t>(train.Label(batch[b]))] -= 1.0;
        for (size_t j = 0; j < c; ++j) row[j] *= inv;
      }
      // Leader returns the residuals to every participant (see the
      // threat-model note in the header).
      for (size_t party : selected_) {
        if (party == 0) continue;
        VFPS_RETURN_NOT_OK(network_->Send(kLeader, static_cast<int>(party),
                                          EncodeDoubles(logits)));
      }
      // Each participant computes its local gradient and steps its Adam.
      for (size_t idx = 0; idx < selected_.size(); ++idx) {
        const size_t party = selected_[idx];
        std::vector<double> residuals = logits;
        if (party != 0) {
          VFPS_ASSIGN_OR_RETURN(
              auto payload, network_->Recv(kLeader, static_cast<int>(party)));
          VFPS_ASSIGN_OR_RETURN(residuals, DecodeDoubles(payload));
        }
        const auto& columns = (*partition_)[party];
        std::vector<double> grad(columns.size() * c, 0.0);
        for (size_t b = 0; b < batch.size(); ++b) {
          const double* row = train.Row(batch[b]);
          const double* r = residuals.data() + b * c;
          for (size_t f = 0; f < columns.size(); ++f) {
            const double x = row[columns[f]];
            if (x == 0.0) continue;
            double* grow = grad.data() + f * c;
            for (size_t j = 0; j < c; ++j) grow[j] += x * r[j];
          }
        }
        if (config.l2 > 0.0) {
          for (size_t i = 0; i < grad.size(); ++i) {
            grad[i] += config.l2 * weights_[idx][i];
          }
        }
        optimizers[idx].Step(&weights_[idx], grad);
        if (party == 0) {
          std::vector<double> grad_bias(c, 0.0);
          for (size_t b = 0; b < batch.size(); ++b) {
            const double* r = residuals.data() + b * c;
            for (size_t j = 0; j < c; ++j) grad_bias[j] += r[j];
          }
          bias_optimizer.Step(&bias_, grad_bias);
        }
      }
    }
    ++epochs;
    double monitored;
    if (has_valid) {
      VFPS_ASSIGN_OR_RETURN(monitored, DatasetLoss(split_->valid));
    } else {
      VFPS_ASSIGN_OR_RETURN(monitored, DatasetLoss(train));
    }
    if (stopper.ShouldStop(monitored)) break;
  }

  // Evaluate on the test split through the same protocol.
  Outcome outcome;
  outcome.epochs = epochs;
  {
    const data::Dataset& test = split_->test;
    std::vector<size_t> rows(test.num_samples());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    VFPS_ASSIGN_OR_RETURN(auto logits, ForwardBatch(test, rows));
    std::vector<int> preds(test.num_samples());
    for (size_t i = 0; i < preds.size(); ++i) {
      preds[i] = static_cast<int>(ml::ArgMax(logits.data() + i * c, c));
    }
    outcome.test_accuracy = ml::Accuracy(preds, test.labels());
  }

  // Charge the clock from what actually happened: measured traffic, measured
  // HE operations, plus plaintext compute at the training rate.
  const net::TrafficStats traffic_after = network_->total();
  outcome.traffic.messages = traffic_after.messages - traffic_before.messages;
  outcome.traffic.bytes = traffic_after.bytes - traffic_before.bytes;
  const he::HeOpStats he_after = backend_->stats();
  outcome.he_ops.encrypt_ops = he_after.encrypt_ops - he_before.encrypt_ops;
  outcome.he_ops.decrypt_ops = he_after.decrypt_ops - he_before.decrypt_ops;
  outcome.he_ops.add_ops = he_after.add_ops - he_before.add_ops;
  outcome.he_ops.values_encrypted =
      he_after.values_encrypted - he_before.values_encrypted;
  outcome.he_ops.values_decrypted =
      he_after.values_decrypted - he_before.values_decrypted;
  outcome.he_ops.values_added = he_after.values_added - he_before.values_added;

  const size_t features = data::SelectedFeatureCount(*partition_, selected_);
  const double compute =
      static_cast<double>(epochs) *
      cost_->TrainEpochSeconds(train.num_samples(), features);
  const double network_seconds = cost_->NetworkSeconds(outcome.traffic);
  const double he_seconds = cost_->HeSeconds(outcome.he_ops);
  outcome.sim_seconds = compute + network_seconds + he_seconds;
  if (clock_ != nullptr) {
    clock_->Advance(CostCategory::kTraining, outcome.sim_seconds);
  }
  return outcome;
}

}  // namespace vfps::vfl
