#include "he/backend.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/buffer.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace vfps::he {

namespace {

// Run fn(i) for i in [0, n): on the pool when one is attached and useful,
// serially otherwise. Helpers below guarantee result/stats determinism by
// keeping all randomness derivation and stats merging on the calling thread.
void RunIndexed(ThreadPool* pool, size_t n,
                const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(0, n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

// Per-item scratch for the parallel batch paths.
struct BatchSlot {
  Status status = Status::OK();
  HeOpStats stats;
};

// Check every slot's status (in order) and fold its counters into `stats`.
Status MergeSlots(std::vector<BatchSlot>* slots, HeOpStats* stats) {
  for (auto& slot : *slots) {
    if (!slot.status.ok()) return slot.status;
    stats->Merge(slot.stats);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CKKS backend: values are chunked into chunk-slot-sized slices, one
// ciphertext per slice (chunk_slots = slot_count() in packed mode, 1 in the
// scalar ablation mode).
// ---------------------------------------------------------------------------

// Key material shared (immutably) by every Fork() session. A CKKS key pair
// is three ring elements (~n * primes * 24 bytes); sharing makes Fork O(1)
// instead of copying ~100 KB per query task.
struct CkksKeyMaterial {
  CkksSecretKey sk;
  CkksPublicKey pk;
};

class CkksBackend final : public HeBackend {
 public:
  CkksBackend(std::shared_ptr<const CkksContext> ctx, uint64_t seed,
              size_t chunk_slots)
      : ctx_(std::move(ctx)), rng_(seed), chunk_slots_(chunk_slots) {
    auto keys = std::make_shared<CkksKeyMaterial>();
    keys->sk = ctx_->GenerateSecretKey(&rng_);
    keys->pk = ctx_->GeneratePublicKey(keys->sk, &rng_);
    keys_ = std::move(keys);
  }

  // Fork constructor: share the context and keys, own randomness stream.
  CkksBackend(std::shared_ptr<const CkksContext> ctx,
              std::shared_ptr<const CkksKeyMaterial> keys, size_t chunk_slots,
              uint64_t stream_seed)
      : ctx_(std::move(ctx)), rng_(stream_seed), keys_(std::move(keys)),
        chunk_slots_(chunk_slots) {}

  std::string name() const override { return "ckks"; }

  Result<EncryptedVector> DoEncrypt(std::span<const double> values) override {
    return EncryptImpl(values, &rng_, &stats_);
  }

  Result<EncryptedVector> DoSum(
      const std::vector<const EncryptedVector*>& vectors) override {
    return SumImpl(vectors, &stats_);
  }

  Result<std::vector<double>> DoDecrypt(const EncryptedVector& v) override {
    return DecryptImpl(v, &stats_);
  }

  Result<std::vector<EncryptedVector>> DoEncryptBatch(
      const std::vector<std::vector<double>>& batch) override {
    const size_t n = batch.size();
    // Randomness is consumed serially, in batch order, before fanning out:
    // the ciphertexts are identical at any thread count.
    std::vector<uint64_t> seeds(n);
    for (size_t i = 0; i < n; ++i) seeds[i] = rng_.Next();
    std::vector<EncryptedVector> out(n);
    std::vector<BatchSlot> slots(n);
    RunIndexed(pool_, n, [&](size_t i) {
      Rng rng(seeds[i]);
      auto enc = EncryptImpl(batch[i], &rng, &slots[i].stats);
      if (enc.ok()) {
        out[i] = enc.MoveValueUnsafe();
      } else {
        slots[i].status = enc.status();
      }
    });
    VFPS_RETURN_NOT_OK(MergeSlots(&slots, &stats_));
    return out;
  }

  Result<std::vector<EncryptedVector>> DoAddBatch(
      const std::vector<std::vector<const EncryptedVector*>>& groups) override {
    const size_t n = groups.size();
    std::vector<EncryptedVector> out(n);
    std::vector<BatchSlot> slots(n);
    RunIndexed(pool_, n, [&](size_t g) {
      auto sum = SumImpl(groups[g], &slots[g].stats);
      if (sum.ok()) {
        out[g] = sum.MoveValueUnsafe();
      } else {
        slots[g].status = sum.status();
      }
    });
    VFPS_RETURN_NOT_OK(MergeSlots(&slots, &stats_));
    return out;
  }

  Result<std::vector<std::vector<double>>> DoDecryptBatch(
      const std::vector<EncryptedVector>& batch) override {
    const size_t n = batch.size();
    std::vector<std::vector<double>> out(n);
    std::vector<BatchSlot> slots(n);
    RunIndexed(pool_, n, [&](size_t i) {
      auto dec = DecryptImpl(batch[i], &slots[i].stats);
      if (dec.ok()) {
        out[i] = dec.MoveValueUnsafe();
      } else {
        slots[i].status = dec.status();
      }
    });
    VFPS_RETURN_NOT_OK(MergeSlots(&slots, &stats_));
    return out;
  }

  Result<std::unique_ptr<HeBackend>> DoFork(uint64_t stream_seed) const override {
    return std::unique_ptr<HeBackend>(
        new CkksBackend(ctx_, keys_, chunk_slots_, stream_seed));
  }

  size_t CiphertextBytes(size_t count) const override {
    const size_t chunks =
        count == 0 ? 0 : (count + chunk_slots_ - 1) / chunk_slots_;
    return sizeof(uint32_t) + chunks * ctx_->CiphertextByteSize();
  }

  size_t SlotsPerCiphertext() const override { return chunk_slots_; }

 private:
  Result<EncryptedVector> EncryptImpl(std::span<const double> values,
                                      Rng* rng, HeOpStats* stats) const {
    BinaryWriter writer;
    writer.Reserve(CiphertextBytes(values.size()));
    const size_t slots = chunk_slots_;
    const size_t num_chunks =
        values.empty() ? 0 : (values.size() + slots - 1) / slots;
    writer.WriteU32(static_cast<uint32_t>(num_chunks));
    // Per-thread ciphertext whose buffers every chunk reuses.
    thread_local CkksCiphertext ct;
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = c * slots;
      const size_t len = std::min(values.size() - lo, slots);
      // Sub-span, no copy; the encoder zero-masks the final ragged tail.
      VFPS_RETURN_NOT_OK(ctx_->EncryptVectorInto(
          keys_->pk, values.subspan(lo, len), rng, &ct));
      ctx_->SerializeCiphertext(ct, &writer);
      ++stats->encrypt_ops;
    }
    stats->values_encrypted += values.size();
    EncryptedVector out;
    out.blob = writer.TakeBytes();
    out.count = values.size();
    return out;
  }

  Result<EncryptedVector> SumImpl(
      const std::vector<const EncryptedVector*>& vectors,
      HeOpStats* stats) const {
    VFPS_CHECK_ARG(!vectors.empty(), "CKKS Sum: no inputs");
    const size_t count = vectors[0]->count;
    std::vector<CkksCiphertext> acc;
    VFPS_RETURN_NOT_OK(ParseChunks(*vectors[0], &acc));
    for (size_t i = 1; i < vectors.size(); ++i) {
      if (vectors[i]->count != count) {
        return Status::InvalidArgument("CKKS Sum: count mismatch");
      }
      std::vector<CkksCiphertext> cts;
      VFPS_RETURN_NOT_OK(ParseChunks(*vectors[i], &cts));
      for (size_t c = 0; c < acc.size(); ++c) {
        VFPS_RETURN_NOT_OK(ctx_->AddInPlaceCt(&acc[c], cts[c]));
        ++stats->add_ops;
      }
      stats->values_added += count;
    }
    BinaryWriter writer;
    writer.Reserve(CiphertextBytes(count));
    writer.WriteU32(static_cast<uint32_t>(acc.size()));
    for (const auto& ct : acc) ctx_->SerializeCiphertext(ct, &writer);
    EncryptedVector out;
    out.blob = writer.TakeBytes();
    out.count = count;
    return out;
  }

  Result<std::vector<double>> DecryptImpl(const EncryptedVector& v,
                                          HeOpStats* stats) const {
    std::vector<CkksCiphertext> cts;
    VFPS_RETURN_NOT_OK(ParseChunks(v, &cts));
    std::vector<double> out;
    out.reserve(v.count);
    const size_t slots = chunk_slots_;
    for (size_t c = 0; c < cts.size(); ++c) {
      const size_t want = std::min(slots, v.count - out.size());
      VFPS_ASSIGN_OR_RETURN(auto values,
                            ctx_->DecryptVector(keys_->sk, cts[c], want));
      out.insert(out.end(), values.begin(), values.end());
      ++stats->decrypt_ops;
    }
    stats->values_decrypted += out.size();
    return out;
  }

  Status ParseChunks(const EncryptedVector& v,
                     std::vector<CkksCiphertext>* out) const {
    BinaryReader reader(v.blob);
    VFPS_ASSIGN_OR_RETURN(uint32_t num_chunks, reader.ReadU32());
    // Sum indexes every input's chunks by the first input's chunk count.
    const size_t expected =
        v.count == 0 ? 0 : (v.count + chunk_slots_ - 1) / chunk_slots_;
    if (num_chunks != expected) {
      return Status::ProtocolError(
          StrFormat("CKKS blob holds %u ciphertexts; %zu values need %zu",
                    num_chunks, v.count, expected));
    }
    out->clear();
    out->reserve(num_chunks);
    for (uint32_t c = 0; c < num_chunks; ++c) {
      VFPS_ASSIGN_OR_RETURN(auto ct, ctx_->DeserializeCiphertext(&reader));
      out->push_back(std::move(ct));
    }
    return Status::OK();
  }

  std::shared_ptr<const CkksContext> ctx_;
  Rng rng_;
  std::shared_ptr<const CkksKeyMaterial> keys_;
  // Values packed per ciphertext: slot_count() (packed) or 1 (scalar mode).
  size_t chunk_slots_;
};

// ---------------------------------------------------------------------------
// Paillier backend: one ciphertext per value, fixed-point encoding.
// ---------------------------------------------------------------------------
class PaillierBackend final : public HeBackend {
 public:
  PaillierBackend(PaillierKeyPair keys, int fractional_bits, uint64_t seed)
      : keys_(std::move(keys)), frac_scale_(std::ldexp(1.0, fractional_bits)),
        rng_(seed) {
    ct_bytes_ = (keys_.pub.n_squared.BitLength() + 7) / 8;
  }

  std::string name() const override { return "paillier"; }

  Result<EncryptedVector> DoEncrypt(std::span<const double> values) override {
    return EncryptImpl(values, &rng_, &stats_);
  }

  Result<EncryptedVector> DoSum(
      const std::vector<const EncryptedVector*>& vectors) override {
    return SumImpl(vectors, &stats_);
  }

  Result<std::vector<double>> DoDecrypt(const EncryptedVector& v) override {
    return DecryptImpl(v, &stats_);
  }

  Result<std::vector<EncryptedVector>> DoEncryptBatch(
      const std::vector<std::vector<double>>& batch) override {
    const size_t n = batch.size();
    std::vector<uint64_t> seeds(n);
    for (size_t i = 0; i < n; ++i) seeds[i] = rng_.Next();
    std::vector<EncryptedVector> out(n);
    std::vector<BatchSlot> slots(n);
    RunIndexed(pool_, n, [&](size_t i) {
      Rng rng(seeds[i]);
      auto enc = EncryptImpl(batch[i], &rng, &slots[i].stats);
      if (enc.ok()) {
        out[i] = enc.MoveValueUnsafe();
      } else {
        slots[i].status = enc.status();
      }
    });
    VFPS_RETURN_NOT_OK(MergeSlots(&slots, &stats_));
    return out;
  }

  Result<std::vector<EncryptedVector>> DoAddBatch(
      const std::vector<std::vector<const EncryptedVector*>>& groups) override {
    const size_t n = groups.size();
    std::vector<EncryptedVector> out(n);
    std::vector<BatchSlot> slots(n);
    RunIndexed(pool_, n, [&](size_t g) {
      auto sum = SumImpl(groups[g], &slots[g].stats);
      if (sum.ok()) {
        out[g] = sum.MoveValueUnsafe();
      } else {
        slots[g].status = sum.status();
      }
    });
    VFPS_RETURN_NOT_OK(MergeSlots(&slots, &stats_));
    return out;
  }

  Result<std::vector<std::vector<double>>> DoDecryptBatch(
      const std::vector<EncryptedVector>& batch) override {
    const size_t n = batch.size();
    std::vector<std::vector<double>> out(n);
    std::vector<BatchSlot> slots(n);
    RunIndexed(pool_, n, [&](size_t i) {
      auto dec = DecryptImpl(batch[i], &slots[i].stats);
      if (dec.ok()) {
        out[i] = dec.MoveValueUnsafe();
      } else {
        slots[i].status = dec.status();
      }
    });
    VFPS_RETURN_NOT_OK(MergeSlots(&slots, &stats_));
    return out;
  }

  Result<std::unique_ptr<HeBackend>> DoFork(uint64_t stream_seed) const override {
    auto fork = std::unique_ptr<PaillierBackend>(
        new PaillierBackend(keys_, frac_scale_, ct_bytes_, stream_seed));
    return std::unique_ptr<HeBackend>(std::move(fork));
  }

  size_t CiphertextBytes(size_t count) const override {
    return sizeof(uint32_t) + count * (sizeof(uint32_t) + ct_bytes_);
  }

  // Paillier has no slot structure: the batch API is served by the loop
  // adapter below, one ciphertext per value.
  size_t SlotsPerCiphertext() const override { return 1; }

 private:
  // Fork constructor: share keys and encoding, own randomness stream.
  PaillierBackend(PaillierKeyPair keys, double frac_scale, size_t ct_bytes,
                  uint64_t stream_seed)
      : keys_(std::move(keys)), frac_scale_(frac_scale), rng_(stream_seed),
        ct_bytes_(ct_bytes) {}

  Result<EncryptedVector> EncryptImpl(std::span<const double> values,
                                      Rng* rng, HeOpStats* stats) const {
    BinaryWriter writer;
    writer.WriteU32(static_cast<uint32_t>(values.size()));
    for (double v : values) {
      const double scaled = v * frac_scale_;
      if (!(std::abs(scaled) < 9.0e18)) {
        return Status::OutOfRange("Paillier: value overflows fixed-point range");
      }
      const int64_t fixed = static_cast<int64_t>(std::llround(scaled));
      const BigInt m = Paillier::EncodeSigned(keys_.pub, fixed);
      VFPS_ASSIGN_OR_RETURN(auto ct, Paillier::Encrypt(keys_.pub, m, rng));
      writer.WriteBytes(PadCiphertext(ct.value));
      ++stats->encrypt_ops;
    }
    stats->values_encrypted += values.size();
    EncryptedVector out;
    out.blob = writer.TakeBytes();
    out.count = values.size();
    return out;
  }

  Result<EncryptedVector> SumImpl(
      const std::vector<const EncryptedVector*>& vectors,
      HeOpStats* stats) const {
    VFPS_CHECK_ARG(!vectors.empty(), "Paillier Sum: no inputs");
    const size_t count = vectors[0]->count;
    std::vector<PaillierCiphertext> acc;
    VFPS_RETURN_NOT_OK(Parse(*vectors[0], &acc));
    for (size_t i = 1; i < vectors.size(); ++i) {
      if (vectors[i]->count != count) {
        return Status::InvalidArgument("Paillier Sum: count mismatch");
      }
      std::vector<PaillierCiphertext> cts;
      VFPS_RETURN_NOT_OK(Parse(*vectors[i], &cts));
      for (size_t j = 0; j < acc.size(); ++j) {
        VFPS_ASSIGN_OR_RETURN(acc[j], Paillier::Add(keys_.pub, acc[j], cts[j]));
        ++stats->add_ops;
      }
      stats->values_added += count;
    }
    BinaryWriter writer;
    writer.WriteU32(static_cast<uint32_t>(acc.size()));
    for (const auto& ct : acc) writer.WriteBytes(PadCiphertext(ct.value));
    EncryptedVector out;
    out.blob = writer.TakeBytes();
    out.count = count;
    return out;
  }

  Result<std::vector<double>> DecryptImpl(const EncryptedVector& v,
                                          HeOpStats* stats) const {
    std::vector<PaillierCiphertext> cts;
    VFPS_RETURN_NOT_OK(Parse(v, &cts));
    std::vector<double> out;
    out.reserve(cts.size());
    for (const auto& ct : cts) {
      VFPS_ASSIGN_OR_RETURN(BigInt m, Paillier::Decrypt(keys_.pub, keys_.priv, ct));
      out.push_back(static_cast<double>(Paillier::DecodeSigned(keys_.pub, m)) /
                    frac_scale_);
      ++stats->decrypt_ops;
    }
    stats->values_decrypted += out.size();
    return out;
  }

  // Fixed-width big-endian encoding so every ciphertext has the same wire
  // size (leaking the magnitude through the length would be a side channel).
  std::vector<uint8_t> PadCiphertext(const BigInt& value) const {
    std::vector<uint8_t> raw = value.ToBytes();
    std::vector<uint8_t> out(ct_bytes_, 0);
    std::copy(raw.begin(), raw.end(), out.end() - raw.size());
    return out;
  }

  Status Parse(const EncryptedVector& v, std::vector<PaillierCiphertext>* out) const {
    BinaryReader reader(v.blob);
    VFPS_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
    out->clear();
    out->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      VFPS_ASSIGN_OR_RETURN(auto bytes, reader.ReadBytes());
      out->push_back(PaillierCiphertext{BigInt::FromBytes(bytes)});
    }
    return Status::OK();
  }

  PaillierKeyPair keys_;
  double frac_scale_;
  Rng rng_;
  size_t ct_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Plain backend: no cryptography; used for debugging and ablations.
// ---------------------------------------------------------------------------
class PlainBackend final : public HeBackend {
 public:
  std::string name() const override { return "plain"; }

  Result<EncryptedVector> DoEncrypt(std::span<const double> values) override {
    BinaryWriter writer;
    writer.WriteDoubleVec(values);
    stats_.encrypt_ops += values.empty() ? 0 : 1;
    stats_.values_encrypted += values.size();
    EncryptedVector out;
    out.blob = writer.TakeBytes();
    out.count = values.size();
    return out;
  }

  Result<EncryptedVector> DoSum(
      const std::vector<const EncryptedVector*>& vectors) override {
    VFPS_CHECK_ARG(!vectors.empty(), "Plain Sum: no inputs");
    std::vector<double> acc;
    {
      BinaryReader reader(vectors[0]->blob);
      VFPS_ASSIGN_OR_RETURN(acc, reader.ReadDoubleVec());
    }
    for (size_t i = 1; i < vectors.size(); ++i) {
      BinaryReader reader(vectors[i]->blob);
      VFPS_ASSIGN_OR_RETURN(auto vals, reader.ReadDoubleVec());
      if (vals.size() != acc.size()) {
        return Status::InvalidArgument("Plain Sum: count mismatch");
      }
      for (size_t j = 0; j < acc.size(); ++j) acc[j] += vals[j];
      ++stats_.add_ops;
      stats_.values_added += acc.size();
    }
    BinaryWriter writer;
    writer.WriteDoubleVec(acc);
    EncryptedVector out;
    out.blob = writer.TakeBytes();
    out.count = acc.size();
    return out;
  }

  Result<std::vector<double>> DoDecrypt(const EncryptedVector& v) override {
    BinaryReader reader(v.blob);
    ++stats_.decrypt_ops;
    stats_.values_decrypted += v.count;
    return reader.ReadDoubleVec();
  }

  Result<std::unique_ptr<HeBackend>> DoFork(uint64_t /*stream_seed*/) const override {
    // No randomness, no keys: a fresh instance is a valid session (the
    // "ciphertexts" are plain serialized doubles, interchangeable across
    // instances).
    return std::unique_ptr<HeBackend>(std::make_unique<PlainBackend>());
  }

  size_t CiphertextBytes(size_t count) const override {
    return sizeof(uint32_t) + count * sizeof(double);
  }

  // A plain "ciphertext" is one serialized vector of any length.
  size_t SlotsPerCiphertext() const override {
    return std::numeric_limits<size_t>::max();
  }
};

}  // namespace

// Default (serial) batch hooks: the cheap backends (plain) and any future
// backend get correct behaviour for free; CKKS/Paillier override with
// internally-parallel versions. They call the Do* hooks — not the public
// wrappers — so metrics are published exactly once, by the batch wrapper.
Result<std::vector<EncryptedVector>> HeBackend::DoEncryptBatch(
    const std::vector<std::vector<double>>& batch) {
  std::vector<EncryptedVector> out;
  out.reserve(batch.size());
  for (const auto& values : batch) {
    VFPS_ASSIGN_OR_RETURN(auto enc, DoEncrypt(values));
    out.push_back(std::move(enc));
  }
  return out;
}

Result<std::vector<EncryptedVector>> HeBackend::DoAddBatch(
    const std::vector<std::vector<const EncryptedVector*>>& groups) {
  std::vector<EncryptedVector> out;
  out.reserve(groups.size());
  for (const auto& group : groups) {
    VFPS_ASSIGN_OR_RETURN(auto sum, DoSum(group));
    out.push_back(std::move(sum));
  }
  return out;
}

Result<std::vector<std::vector<double>>> HeBackend::DoDecryptBatch(
    const std::vector<EncryptedVector>& batch) {
  std::vector<std::vector<double>> out;
  out.reserve(batch.size());
  for (const auto& v : batch) {
    VFPS_ASSIGN_OR_RETURN(auto dec, DoDecrypt(v));
    out.push_back(std::move(dec));
  }
  return out;
}

// ---------------------------------------------------------------------------
// NVI wrappers: delegate to the Do* hooks, then publish the stats_ delta
// (and output ciphertext bytes) to the attached registry, if any.
// ---------------------------------------------------------------------------

void HeBackend::set_metrics(obs::MetricsRegistry* registry) {
  obs_registry_ = registry;
  if (registry == nullptr) {
    c_encrypt_count_ = c_encrypt_values_ = c_encrypt_bytes_ = nullptr;
    c_decrypt_count_ = c_decrypt_values_ = nullptr;
    c_add_count_ = c_add_values_ = nullptr;
    return;
  }
  // The `.count` counters meter ciphertexts, the `.values` counters meter
  // plaintext slots; their ratio is the realized packing density. With
  // metric labels set (see set_metric_labels) the series carry the label
  // suffix, e.g. `he.encrypt.count{backend=ckks}`.
  const auto get = [&](const char* name) {
    return metric_labels_.empty()
               ? registry->GetCounter(name)
               : registry->GetLabeledCounter(name, metric_labels_);
  };
  c_encrypt_count_ = get("he.encrypt.count");
  c_encrypt_values_ = get("he.encrypt.values");
  c_encrypt_bytes_ = get("he.encrypt.bytes");
  c_decrypt_count_ = get("he.decrypt.count");
  c_decrypt_values_ = get("he.decrypt.values");
  c_add_count_ = get("he.add.count");
  c_add_values_ = get("he.add.values");
}

void HeBackend::PublishDelta(const HeOpStats& before, uint64_t bytes_out) {
  if (uint64_t d = stats_.encrypt_ops - before.encrypt_ops; d != 0) {
    c_encrypt_count_->Add(d);
  }
  if (uint64_t d = stats_.values_encrypted - before.values_encrypted; d != 0) {
    c_encrypt_values_->Add(d);
  }
  if (bytes_out != 0) c_encrypt_bytes_->Add(bytes_out);
  if (uint64_t d = stats_.decrypt_ops - before.decrypt_ops; d != 0) {
    c_decrypt_count_->Add(d);
  }
  if (uint64_t d = stats_.values_decrypted - before.values_decrypted; d != 0) {
    c_decrypt_values_->Add(d);
  }
  if (uint64_t d = stats_.add_ops - before.add_ops; d != 0) {
    c_add_count_->Add(d);
  }
  if (uint64_t d = stats_.values_added - before.values_added; d != 0) {
    c_add_values_->Add(d);
  }
}

Result<EncryptedVector> HeBackend::Encrypt(std::span<const double> values) {
  const HeOpStats before = stats_;
  auto result = DoEncrypt(values);
  if (obs_registry_ != nullptr && result.ok()) {
    PublishDelta(before, result->ByteSize());
  }
  return result;
}

Result<EncryptedVector> HeBackend::Sum(
    const std::vector<const EncryptedVector*>& vectors) {
  const HeOpStats before = stats_;
  auto result = DoSum(vectors);
  if (obs_registry_ != nullptr && result.ok()) PublishDelta(before, 0);
  return result;
}

Result<std::vector<double>> HeBackend::Decrypt(const EncryptedVector& v) {
  const HeOpStats before = stats_;
  auto result = DoDecrypt(v);
  if (obs_registry_ != nullptr && result.ok()) PublishDelta(before, 0);
  return result;
}

Result<std::vector<EncryptedVector>> HeBackend::EncryptBatch(
    const std::vector<std::vector<double>>& batch) {
  const HeOpStats before = stats_;
  auto result = DoEncryptBatch(batch);
  if (obs_registry_ != nullptr && result.ok()) {
    uint64_t bytes = 0;
    for (const auto& v : *result) bytes += v.ByteSize();
    PublishDelta(before, bytes);
  }
  return result;
}

Result<std::vector<EncryptedVector>> HeBackend::AddBatch(
    const std::vector<std::vector<const EncryptedVector*>>& groups) {
  const HeOpStats before = stats_;
  auto result = DoAddBatch(groups);
  if (obs_registry_ != nullptr && result.ok()) PublishDelta(before, 0);
  return result;
}

Result<std::vector<std::vector<double>>> HeBackend::DecryptBatch(
    const std::vector<EncryptedVector>& batch) {
  const HeOpStats before = stats_;
  auto result = DoDecryptBatch(batch);
  if (obs_registry_ != nullptr && result.ok()) PublishDelta(before, 0);
  return result;
}

Result<std::unique_ptr<HeBackend>> HeBackend::Fork(uint64_t stream_seed) const {
  VFPS_ASSIGN_OR_RETURN(auto fork, DoFork(stream_seed));
  fork->set_metric_labels(metric_labels_);
  if (obs_registry_ != nullptr) fork->set_metrics(obs_registry_);
  return fork;
}

Result<std::unique_ptr<HeBackend>> CreateCkksBackend(const CkksParams& params,
                                                     uint64_t seed,
                                                     CkksPacking packing) {
  VFPS_ASSIGN_OR_RETURN(auto ctx, CkksContext::Create(params));
  const size_t chunk_slots =
      packing == CkksPacking::kScalar ? 1 : ctx->slot_count();
  return std::unique_ptr<HeBackend>(
      new CkksBackend(std::move(ctx), seed, chunk_slots));
}

Result<std::unique_ptr<HeBackend>> CreateCkksBackend(const CkksParams& params,
                                                     uint64_t seed) {
  return CreateCkksBackend(params, seed, CkksPacking::kPacked);
}

Result<std::unique_ptr<HeBackend>> CreateCkksBackend(uint64_t seed) {
  return CreateCkksBackend(CkksParams{}, seed);
}

Result<std::unique_ptr<HeBackend>> CreatePaillierBackend(size_t modulus_bits,
                                                         int fractional_bits,
                                                         uint64_t seed) {
  Rng rng(seed);
  VFPS_ASSIGN_OR_RETURN(auto keys, Paillier::GenerateKeys(modulus_bits, &rng));
  return std::unique_ptr<HeBackend>(
      new PaillierBackend(std::move(keys), fractional_bits, seed ^ 0x5EEDF00DULL));
}

std::unique_ptr<HeBackend> CreatePlainBackend() {
  return std::make_unique<PlainBackend>();
}

}  // namespace vfps::he
