#ifndef PERFBENCH_TIMED_BACKEND_H_
#define PERFBENCH_TIMED_BACKEND_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "he/backend.h"
#include "obs/trace.h"

namespace perfbench {

/// \brief HE backend decorator that records one span per operation.
///
/// Every Do* hook forwards to the wrapped backend's *public* operation of the
/// same kind (the batch ones included, so the wrapped backend keeps its own
/// randomness schedule) inside a `he.op.<kind>` span on `tracer`, then folds
/// the wrapped backend's stats() delta into this decorator's stats. The
/// decorator's thread pool is handed to the wrapped backend before each
/// call; forks are wrapped in decorators of their own that own the
/// wrapped fork. With a null tracer the decorator is a plain pass-through.
///
/// Outputs (ciphertexts, decryptions, HeOpStats) are identical to those of
/// the wrapped backend driven directly.
class TimedBackend final : public vfps::he::HeBackend {
 public:
  /// Wraps `inner` without owning it; `inner` must outlive the decorator.
  TimedBackend(vfps::he::HeBackend* inner, vfps::obs::Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  size_t CiphertextBytes(size_t count) const override {
    return inner_->CiphertextBytes(count);
  }
  size_t SlotsPerCiphertext() const override {
    return inner_->SlotsPerCiphertext();
  }

 protected:
  vfps::Result<vfps::he::EncryptedVector> DoEncrypt(
      std::span<const double> values) override;
  vfps::Result<vfps::he::EncryptedVector> DoSum(
      const std::vector<const vfps::he::EncryptedVector*>& vectors) override;
  vfps::Result<std::vector<double>> DoDecrypt(
      const vfps::he::EncryptedVector& v) override;
  vfps::Result<std::vector<vfps::he::EncryptedVector>> DoEncryptBatch(
      const std::vector<std::vector<double>>& batch) override;
  vfps::Result<std::vector<vfps::he::EncryptedVector>> DoAddBatch(
      const std::vector<std::vector<const vfps::he::EncryptedVector*>>& groups)
      override;
  vfps::Result<std::vector<std::vector<double>>> DoDecryptBatch(
      const std::vector<vfps::he::EncryptedVector>& batch) override;
  vfps::Result<std::unique_ptr<vfps::he::HeBackend>> DoFork(
      uint64_t stream_seed) const override;

 private:
  // Fork decorator: owns the wrapped fork.
  TimedBackend(std::unique_ptr<vfps::he::HeBackend> owned,
               vfps::obs::Tracer* tracer)
      : inner_(owned.get()), owned_(std::move(owned)), tracer_(tracer) {}

  /// Run `op` on the wrapped backend inside a `name` span and merge the
  /// wrapped backend's stats delta into stats_.
  template <typename Op>
  auto Forward(const char* name, Op op) -> decltype(op());

  vfps::he::HeBackend* inner_;
  std::unique_ptr<vfps::he::HeBackend> owned_;  // set for forks only
  vfps::obs::Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_BACKEND_H_
