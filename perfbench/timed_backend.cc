#include "timed_backend.h"

namespace perfbench {

using vfps::Result;
using vfps::he::EncryptedVector;
using vfps::he::HeBackend;

template <typename Op>
auto TimedBackend::Forward(const char* name, Op op) -> decltype(op()) {
  inner_->ResetStats();
  inner_->set_thread_pool(pool_);
  vfps::obs::Span span(tracer_, name);
  auto result = op();
  span.End();
  stats_.Merge(inner_->stats());
  return result;
}

Result<EncryptedVector> TimedBackend::DoEncrypt(std::span<const double> values) {
  return Forward("he.op.encrypt", [&] { return inner_->Encrypt(values); });
}

Result<EncryptedVector> TimedBackend::DoSum(
    const std::vector<const EncryptedVector*>& vectors) {
  return Forward("he.op.sum", [&] { return inner_->Sum(vectors); });
}

Result<std::vector<double>> TimedBackend::DoDecrypt(const EncryptedVector& v) {
  return Forward("he.op.decrypt", [&] { return inner_->Decrypt(v); });
}

Result<std::vector<EncryptedVector>> TimedBackend::DoEncryptBatch(
    const std::vector<std::vector<double>>& batch) {
  return Forward("he.op.encrypt", [&] { return inner_->EncryptBatch(batch); });
}

Result<std::vector<EncryptedVector>> TimedBackend::DoAddBatch(
    const std::vector<std::vector<const EncryptedVector*>>& groups) {
  return Forward("he.op.sum", [&] { return inner_->AddBatch(groups); });
}

Result<std::vector<std::vector<double>>> TimedBackend::DoDecryptBatch(
    const std::vector<EncryptedVector>& batch) {
  return Forward("he.op.decrypt", [&] { return inner_->DecryptBatch(batch); });
}

Result<std::unique_ptr<HeBackend>> TimedBackend::DoFork(
    uint64_t stream_seed) const {
  vfps::obs::Span span(tracer_, "he.op.fork");
  auto fork = inner_->Fork(stream_seed);
  span.End();
  if (!fork.ok()) return fork.status();
  return std::unique_ptr<HeBackend>(
      new TimedBackend(fork.MoveValueUnsafe(), tracer_));
}

}  // namespace perfbench
