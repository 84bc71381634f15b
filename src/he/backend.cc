#include "he/backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/buffer.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "he/poly_simd.h"
#include "obs/metrics.h"

namespace vfps::he {

namespace {

// The one batch path every scheme shares. A scheme supplies DoFork plus a
// const encrypt / sum / decrypt of one vector that charges the Rng and
// HeOpStats it is handed; this base owns the session randomness and the six
// Do* hooks. A batch draws its per-item seeds serially in batch order, fans
// the items out with ParallelFor and folds their stats back in batch order,
// so outputs and stats are identical at any thread count.
class SchemeBackend : public HeBackend {
 protected:
  explicit SchemeBackend(uint64_t seed) : rng_(seed) {}

  virtual Result<EncryptedVector> EncryptOne(std::span<const double> values,
                                             Rng* rng,
                                             HeOpStats* stats) const = 0;
  virtual Result<EncryptedVector> SumOne(
      const std::vector<const EncryptedVector*>& vectors,
      HeOpStats* stats) const = 0;
  virtual Result<std::vector<double>> DecryptOne(const EncryptedVector& v,
                                                 HeOpStats* stats) const = 0;

  Rng rng_;  // the session stream; CKKS key generation draws from it first

 private:
  Result<EncryptedVector> DoEncrypt(std::span<const double> values) final {
    return EncryptOne(values, &rng_, &stats_);
  }

  Result<EncryptedVector> DoSum(
      const std::vector<const EncryptedVector*>& vectors) final {
    return SumOne(vectors, &stats_);
  }

  Result<std::vector<double>> DoDecrypt(const EncryptedVector& v) final {
    return DecryptOne(v, &stats_);
  }

  Result<std::vector<EncryptedVector>> DoEncryptBatch(
      const std::vector<std::vector<double>>& batch) final {
    std::vector<uint64_t> seeds(batch.size());
    for (uint64_t& seed : seeds) seed = rng_.Next();
    return RunBatch<EncryptedVector>(
        batch.size(), [&](size_t i, HeOpStats* st) {
          Rng rng(seeds[i]);
          return EncryptOne(batch[i], &rng, st);
        });
  }

  Result<std::vector<EncryptedVector>> DoAddBatch(
      const std::vector<std::vector<const EncryptedVector*>>& groups) final {
    return RunBatch<EncryptedVector>(
        groups.size(),
        [&](size_t g, HeOpStats* st) { return SumOne(groups[g], st); });
  }

  Result<std::vector<std::vector<double>>> DoDecryptBatch(
      const std::vector<EncryptedVector>& batch) final {
    return RunBatch<std::vector<double>>(
        batch.size(),
        [&](size_t i, HeOpStats* st) { return DecryptOne(batch[i], st); });
  }

  // out[i] = op(i, &item_stats[i]). Every item runs; the item stats are then
  // merged into stats_ in batch order up to the first failure, returned.
  template <typename T, typename Op>
  Result<std::vector<T>> RunBatch(size_t n, const Op& op) {
    std::vector<T> out(n);
    std::vector<Status> status(n);
    std::vector<HeOpStats> stats(n);
    ParallelFor(pool_, n, [&](size_t i) {
      auto result = op(i, &stats[i]);
      if (result.ok()) {
        out[i] = result.MoveValueUnsafe();
      } else {
        status[i] = result.status();
      }
    });
    for (size_t i = 0; i < n; ++i) {
      VFPS_RETURN_NOT_OK(status[i]);
      stats_.Merge(stats[i]);
    }
    return out;
  }
};

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

class CkksBackend final : public SchemeBackend {
 public:
  CkksBackend(std::shared_ptr<const CkksContext> ctx, uint64_t seed,
              size_t chunk_slots)
      : SchemeBackend(seed), ctx_(std::move(ctx)), chunk_slots_(chunk_slots) {
    auto keys = std::make_shared<CkksKeyMaterial>();
    keys->sk = ctx_->GenerateSecretKey(&rng_);
    keys->pk = ctx_->GeneratePublicKey(keys->sk, &rng_);
    keys_ = std::move(keys);
  }

  // Fork constructor: share the context and keys, own randomness stream.
  CkksBackend(std::shared_ptr<const CkksContext> ctx,
              std::shared_ptr<const CkksKeyMaterial> keys, size_t chunk_slots,
              uint64_t stream_seed)
      : SchemeBackend(stream_seed), ctx_(std::move(ctx)),
        keys_(std::move(keys)), chunk_slots_(chunk_slots) {}

  std::string name() const override { return "ckks"; }

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
  // Every ciphertext goes straight into the blob: the key products store
  // into its residue words (CkksContext::EncryptToWire).
  Result<EncryptedVector> EncryptOne(std::span<const double> values, Rng* rng,
                                     HeOpStats* stats) const override {
    const size_t slots = chunk_slots_;
    const size_t num_chunks =
        values.empty() ? 0 : (values.size() + slots - 1) / slots;
    const size_t ct_bytes = ctx_->CiphertextByteSize();
    EncryptedVector out;
    out.count = values.size();
    out.blob.resize(CiphertextBytes(values.size()));
    const uint32_t chunks32 = static_cast<uint32_t>(num_chunks);
    std::memcpy(out.blob.data(), &chunks32, sizeof(chunks32));
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = c * slots;
      const size_t len = std::min(values.size() - lo, slots);
      // Sub-span, no copy; the encoder zero-masks the final ragged tail.
      VFPS_RETURN_NOT_OK(ctx_->EncryptToWire(
          keys_->pk, values.subspan(lo, len), rng,
          out.blob.data() + sizeof(uint32_t) + c * ct_bytes));
      ++stats->encrypt_ops;
    }
    stats->values_encrypted += values.size();
    return out;
  }

  // Sums the inputs' wire bytes in place: the output starts as a copy of
  // input 0's blob (its headers are the sum's), and every residue vector of
  // it becomes the sum of all inputs' vectors in one range-checked pass
  // (detail::SumModVec). No CkksCiphertext is built.
  Result<EncryptedVector> SumOne(
      const std::vector<const EncryptedVector*>& vectors,
      HeOpStats* stats) const override {
    VFPS_CHECK_ARG(!vectors.empty(), "CKKS Sum: no inputs");
    const size_t count = vectors[0]->count;
    const size_t inputs = vectors.size();
    std::vector<std::vector<CkksCiphertextView>> views(inputs);
    VFPS_RETURN_NOT_OK(ParseChunks(*vectors[0], &views[0]));
    for (size_t i = 1; i < inputs; ++i) {
      if (vectors[i]->count != count) {
        return Status::InvalidArgument("CKKS Sum: count mismatch");
      }
      VFPS_RETURN_NOT_OK(ParseChunks(*vectors[i], &views[i]));
      for (size_t c = 0; c < views[0].size(); ++c) {
        const CkksCiphertextView& a = views[0][c];
        const CkksCiphertextView& b = views[i][c];
        if (a.scale != b.scale) {
          return Status::InvalidArgument("CKKS Add: scale mismatch");
        }
        if (a.level != b.level || a.ntt_form != b.ntt_form) {
          return Status::ProtocolError(StrFormat(
              "CKKS Sum: input %zu ciphertext %zu has %zu primes in form %d; "
              "input 0 has %zu in form %d",
              i, c, b.level, b.ntt_form ? 1 : 0, a.level, a.ntt_form ? 1 : 0));
        }
      }
    }
    EncryptedVector out;
    out.blob = vectors[0]->blob;
    out.count = count;
    const size_t n = ctx_->rns().n();
    const uint8_t* base = vectors[0]->blob.data();
    std::vector<const uint8_t*> src(inputs);
    for (size_t c = 0; c < views[0].size(); ++c) {
      for (size_t poly = 0; poly < 2; ++poly) {
        for (size_t p = 0; p < views[0][c].level; ++p) {
          for (size_t i = 0; i < inputs; ++i) {
            src[i] = poly == 0 ? views[i][c].c0[p] : views[i][c].c1[p];
          }
          uint8_t* dst = out.blob.data() + (src[0] - base);
          src[0] = dst;  // input 0's words, already copied
          if (!detail::SumModVec(dst, src.data(), inputs, n,
                                 ctx_->rns().prime(p))) {
            // DeserializeCiphertext's error for the first bad residue.
            for (const auto& input : views) {
              VFPS_RETURN_NOT_OK(ctx_->CheckResidues(input[c]));
            }
            return Status::Internal("CKKS Sum: range checks disagree");
          }
        }
      }
    }
    stats->add_ops += (inputs - 1) * views[0].size();
    stats->values_added += (inputs - 1) * count;
    return out;
  }

  // Decrypts each ciphertext from the wire bytes (CkksContext::
  // DecryptViewInto) and decodes it straight into the output.
  Result<std::vector<double>> DecryptOne(const EncryptedVector& v,
                                         HeOpStats* stats) const override {
    std::vector<CkksCiphertextView> cts;
    VFPS_RETURN_NOT_OK(ParseChunks(v, &cts));
    std::vector<double> out(v.count);
    const size_t slots = chunk_slots_;
    for (size_t c = 0; c < cts.size(); ++c) {
      const size_t lo = c * slots;
      const size_t want = std::min(slots, v.count - lo);
      VFPS_RETURN_NOT_OK(
          ctx_->DecryptViewInto(keys_->sk, cts[c], want, out.data() + lo));
      ++stats->decrypt_ops;
    }
    stats->values_decrypted += out.size();
    return out;
  }

  // Every ciphertext header of the blob, checked (CkksContext::
  // ParseCiphertext); the residues are range-checked by whoever reads them.
  Status ParseChunks(const EncryptedVector& v,
                     std::vector<CkksCiphertextView>* out) const {
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
      VFPS_ASSIGN_OR_RETURN(auto ct, ctx_->ParseCiphertext(&reader));
      out->push_back(ct);
    }
    if (!reader.AtEnd()) {
      return Status::ProtocolError(
          StrFormat("CKKS blob: %zu bytes after the last ciphertext",
                    reader.remaining()));
    }
    return Status::OK();
  }

  std::shared_ptr<const CkksContext> ctx_;
  std::shared_ptr<const CkksKeyMaterial> keys_;
  // Values packed per ciphertext: slot_count() (packed) or 1 (scalar mode).
  size_t chunk_slots_;
};

// ---------------------------------------------------------------------------
// Paillier backend: one ciphertext per value, fixed-point encoding.
// ---------------------------------------------------------------------------
class PaillierBackend final : public SchemeBackend {
 public:
  PaillierBackend(PaillierKeyPair keys, double frac_scale, uint64_t seed)
      : SchemeBackend(seed), keys_(std::move(keys)), frac_scale_(frac_scale),
        ct_bytes_((keys_.pub.n_squared.BitLength() + 7) / 8) {}

  std::string name() const override { return "paillier"; }

  // A fork shares the keys and the encoding and owns its randomness stream.
  Result<std::unique_ptr<HeBackend>> DoFork(uint64_t stream_seed) const override {
    return std::unique_ptr<HeBackend>(
        new PaillierBackend(keys_, frac_scale_, stream_seed));
  }

  size_t CiphertextBytes(size_t count) const override {
    return sizeof(uint32_t) + count * (sizeof(uint32_t) + ct_bytes_);
  }

  // Paillier has no slot structure: one ciphertext per value.
  size_t SlotsPerCiphertext() const override { return 1; }

 private:
  Result<EncryptedVector> EncryptOne(std::span<const double> values, Rng* rng,
                                     HeOpStats* stats) const override {
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

  Result<EncryptedVector> SumOne(
      const std::vector<const EncryptedVector*>& vectors,
      HeOpStats* stats) const override {
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

  Result<std::vector<double>> DecryptOne(const EncryptedVector& v,
                                         HeOpStats* stats) const override {
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

  // A blob is a u32 count, then per value a u32 length and the ct_bytes_
  // bytes of one ciphertext below n^2. The count is checked against the
  // vector's and against the bytes left before anything is sized by it.
  Status Parse(const EncryptedVector& v, std::vector<PaillierCiphertext>* out) const {
    BinaryReader reader(v.blob);
    VFPS_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
    if (n != v.count) {
      return Status::ProtocolError(StrFormat(
          "Paillier blob holds %u ciphertexts for %zu values", n, v.count));
    }
    const size_t wire_bytes = sizeof(uint32_t) + ct_bytes_;
    if (n > reader.remaining() / wire_bytes) {
      return Status::ProtocolError(
          StrFormat("Paillier blob: %zu bytes cannot hold %u ciphertexts",
                    reader.remaining(), n));
    }
    out->clear();
    out->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      VFPS_ASSIGN_OR_RETURN(auto bytes, reader.ReadBytes());
      if (bytes.size() != ct_bytes_) {
        return Status::ProtocolError(StrFormat(
            "Paillier blob: ciphertext %u has %zu bytes, not %zu", i,
            bytes.size(), ct_bytes_));
      }
      PaillierCiphertext ct{BigInt::FromBytes(bytes)};
      if (ct.value >= keys_.pub.n_squared) {
        return Status::ProtocolError(
            StrFormat("Paillier blob: ciphertext %u is not below n^2", i));
      }
      out->push_back(std::move(ct));
    }
    if (!reader.AtEnd()) {
      return Status::ProtocolError(
          StrFormat("Paillier blob: %zu bytes after the last ciphertext",
                    reader.remaining()));
    }
    return Status::OK();
  }

  PaillierKeyPair keys_;
  double frac_scale_;
  size_t ct_bytes_;
};

// ---------------------------------------------------------------------------
// Plain backend: no cryptography; used for debugging and ablations.
// ---------------------------------------------------------------------------
class PlainBackend final : public SchemeBackend {
 public:
  // Keyless and deterministic: the session stream goes unused.
  PlainBackend() : SchemeBackend(0) {}

  std::string name() const override { return "plain"; }

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

 private:
  Result<EncryptedVector> EncryptOne(std::span<const double> values,
                                     Rng* /*rng*/,
                                     HeOpStats* stats) const override {
    BinaryWriter writer;
    writer.WriteDoubleVec(values);
    stats->encrypt_ops += values.empty() ? 0 : 1;
    stats->values_encrypted += values.size();
    EncryptedVector out;
    out.blob = writer.TakeBytes();
    out.count = values.size();
    return out;
  }

  // Adds straight from the input blobs: the output starts as a copy of
  // input 0's, and each further input is added into its values in input
  // order, so every sum is ((v0 + v1) + v2) + ... as before.
  Result<EncryptedVector> SumOne(
      const std::vector<const EncryptedVector*>& vectors,
      HeOpStats* stats) const override {
    VFPS_CHECK_ARG(!vectors.empty(), "Plain Sum: no inputs");
    const size_t count = vectors[0]->count;
    std::vector<const uint8_t*> values(vectors.size());
    for (size_t i = 0; i < vectors.size(); ++i) {
      VFPS_ASSIGN_OR_RETURN(values[i], Values(*vectors[i]));
      if (vectors[i]->count != count) {
        return Status::InvalidArgument("Plain Sum: count mismatch");
      }
    }
    EncryptedVector out;
    out.blob = vectors[0]->blob;
    out.count = count;
    uint8_t* acc = out.blob.data() + sizeof(uint32_t);
    for (size_t i = 1; i < vectors.size(); ++i) {
      for (size_t j = 0; j < count; ++j) {
        double a, b;
        std::memcpy(&a, acc + j * sizeof(double), sizeof(double));
        std::memcpy(&b, values[i] + j * sizeof(double), sizeof(double));
        a += b;
        std::memcpy(acc + j * sizeof(double), &a, sizeof(double));
      }
      ++stats->add_ops;
      stats->values_added += count;
    }
    return out;
  }

  Result<std::vector<double>> DecryptOne(const EncryptedVector& v,
                                         HeOpStats* stats) const override {
    VFPS_ASSIGN_OR_RETURN(const uint8_t* values, Values(v));
    std::vector<double> out(v.count);
    if (v.count != 0) {
      std::memcpy(out.data(), values, v.count * sizeof(double));
    }
    ++stats->decrypt_ops;
    stats->values_decrypted += v.count;
    return out;
  }

  // The blob's doubles in place (at any alignment): it must hold exactly
  // v.count of them, as WriteDoubleVec wrote them, and nothing after.
  static Result<const uint8_t*> Values(const EncryptedVector& v) {
    BinaryReader reader(v.blob);
    VFPS_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
    if (n != v.count) {
      return Status::ProtocolError(StrFormat(
          "Plain blob holds %u values for a vector of %zu", n, v.count));
    }
    VFPS_ASSIGN_OR_RETURN(const uint8_t* values,
                          reader.ReadRaw(v.count * sizeof(double)));
    if (!reader.AtEnd()) {
      return Status::ProtocolError(
          StrFormat("Plain blob: %zu bytes after the last value",
                    reader.remaining()));
    }
    return values;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// NVI wrappers: delegate to the Do* hooks, then publish the stats_ delta
// (and output ciphertext bytes) to the attached registry, if any.
// ---------------------------------------------------------------------------

void HeBackend::set_metrics(obs::MetricsRegistry* registry) {
  obs_registry_ = registry;
  meters_ = Meters{};
  if (registry == nullptr) return;
  // The `.count` counters meter ciphertexts, the `.values` counters meter
  // plaintext slots; their ratio is the realized packing density. With
  // metric labels set (see set_metric_labels) the series carry the label
  // suffix, e.g. `he.encrypt.count{backend=ckks}`.
  const auto get = [&](const char* name) {
    return metric_labels_.empty()
               ? registry->GetCounter(name)
               : registry->GetLabeledCounter(name, metric_labels_);
  };
  meters_.encrypt_count = get("he.encrypt.count");
  meters_.encrypt_values = get("he.encrypt.values");
  meters_.encrypt_bytes = get("he.encrypt.bytes");
  meters_.decrypt_count = get("he.decrypt.count");
  meters_.decrypt_values = get("he.decrypt.values");
  meters_.add_count = get("he.add.count");
  meters_.add_values = get("he.add.values");
}

void HeBackend::PublishDelta(const HeOpStats& before, uint64_t bytes_out) {
  if (uint64_t d = stats_.encrypt_ops - before.encrypt_ops; d != 0) {
    meters_.encrypt_count->Add(d);
  }
  if (uint64_t d = stats_.values_encrypted - before.values_encrypted; d != 0) {
    meters_.encrypt_values->Add(d);
  }
  if (bytes_out != 0) meters_.encrypt_bytes->Add(bytes_out);
  if (uint64_t d = stats_.decrypt_ops - before.decrypt_ops; d != 0) {
    meters_.decrypt_count->Add(d);
  }
  if (uint64_t d = stats_.values_decrypted - before.values_decrypted; d != 0) {
    meters_.decrypt_values->Add(d);
  }
  if (uint64_t d = stats_.add_ops - before.add_ops; d != 0) {
    meters_.add_count->Add(d);
  }
  if (uint64_t d = stats_.values_added - before.values_added; d != 0) {
    meters_.add_values->Add(d);
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
  fork->obs_registry_ = obs_registry_;
  fork->meters_ = meters_;
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
  return std::unique_ptr<HeBackend>(new PaillierBackend(
      std::move(keys), std::ldexp(1.0, fractional_bits), seed ^ 0x5EEDF00DULL));
}

std::unique_ptr<HeBackend> CreatePlainBackend() {
  return std::make_unique<PlainBackend>();
}

}  // namespace vfps::he
