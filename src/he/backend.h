#ifndef VFPS_HE_BACKEND_H_
#define VFPS_HE_BACKEND_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "he/ckks.h"
#include "he/paillier.h"

namespace vfps::obs {
class Counter;
class MetricsRegistry;
}  // namespace vfps::obs

namespace vfps::he {

/// \brief An encrypted vector of real values, as it travels on the wire.
///
/// `blob` is the serialized ciphertext payload (its size is what the
/// simulated network meters); `count` is the number of plaintext values.
struct EncryptedVector {
  std::vector<uint8_t> blob;
  size_t count = 0;

  size_t ByteSize() const { return blob.size(); }
};

/// \brief Operation counters used by the cost model to convert HE work into
/// simulated seconds.
///
/// Ciphertext operations (`*_ops`) and plaintext slots (`values_*`) are
/// counted separately: for a packing backend (CKKS) one encrypt_op carries up
/// to SlotsPerCiphertext() values, so `values_encrypted / encrypt_ops` is the
/// realized packing density — the number the slot-batching optimization
/// moves. For a scalar backend (Paillier) the two columns track 1:1.
struct HeOpStats {
  uint64_t encrypt_ops = 0;       // ciphertexts produced
  uint64_t decrypt_ops = 0;       // ciphertexts opened
  uint64_t add_ops = 0;           // ciphertext-level homomorphic additions
  uint64_t values_encrypted = 0;  // plaintext scalars encrypted (slots)
  uint64_t values_decrypted = 0;  // plaintext scalars recovered (slots)
  uint64_t values_added = 0;      // slot-wise additions performed

  void Reset() { *this = HeOpStats{}; }
  void Merge(const HeOpStats& o) {
    encrypt_ops += o.encrypt_ops;
    decrypt_ops += o.decrypt_ops;
    add_ops += o.add_ops;
    values_encrypted += o.values_encrypted;
    values_decrypted += o.values_decrypted;
    values_added += o.values_added;
  }
};

/// \brief Uniform additively-homomorphic backend used by the VFL protocols.
///
/// One backend instance is created by the (simulated) key server and shared
/// by every party; the protocol layer enforces the trust model: only the
/// leader invokes Decrypt, and the aggregation server only invokes Sum.
///
/// The public operations are non-virtual (NVI): they delegate to the
/// protected Do* hooks and, when a MetricsRegistry is attached with
/// set_metrics(), publish the op/byte deltas as `he.*` counters. With no
/// registry attached (the default) the bookkeeping is a single null-pointer
/// branch per call.
///
/// Thread-safety contract:
///  - A single HeBackend instance is NOT safe for concurrent calls: Encrypt
///    consumes the internal randomness stream and every operation mutates the
///    stats() counters. Callers that parallelize *across* protocol rounds
///    must give each thread its own session via Fork() and fold the sessions'
///    counters back with AbsorbStats() (see FederatedKnnOracle::Run).
///  - The *Batch operations parallelize internally (over items) when a
///    ThreadPool is attached with set_thread_pool(); their results and stats
///    are bit-identical with and without a pool, at any thread count, because
///    per-item randomness is derived serially before fanning out.
///  - Fork() sessions share the (immutable) key material, so ciphertexts
///    produced by one session decrypt under any other; forks do NOT inherit
///    the thread pool (they are meant to be thread-confined). Forks DO
///    inherit the metrics registry: its counters are striped and safe for
///    concurrent sessions, and the shard-merge is order-independent, so
///    totals stay thread-count-invariant.
class HeBackend {
 public:
  virtual ~HeBackend() = default;

  virtual std::string name() const = 0;

  /// \brief Encrypt a vector of real values (public-key operation).
  ///
  /// This is the batched entry point of the API: the backend packs as many
  /// values as it can into each ciphertext (CKKS: SlotsPerCiphertext() slots
  /// per ciphertext, chunked when `values.size()` exceeds it, with the ragged
  /// tail of the last chunk zero-masked; Paillier/plain degenerate to one
  /// value per ciphertext / one blob). Accepts any contiguous double range —
  /// callers batching many logical vectors can encrypt one concatenated span
  /// without copying.
  Result<EncryptedVector> Encrypt(std::span<const double> values);

  /// Brace-list convenience for tests and examples: Encrypt({1.0, 2.0}).
  Result<EncryptedVector> Encrypt(std::initializer_list<double> values) {
    return Encrypt(std::span<const double>(values.begin(), values.size()));
  }

  /// \brief Homomorphic slot-wise sum; all inputs must have equal count.
  ///
  /// Cost is per *ciphertext chunk*, not per value: summing P packed vectors
  /// of `count` values performs (P-1) * ceil(count / SlotsPerCiphertext())
  /// ciphertext additions (see HeOpStats::add_ops vs values_added).
  Result<EncryptedVector> Sum(
      const std::vector<const EncryptedVector*>& vectors);

  /// \brief Decrypt a packed vector (secret-key operation; leader only).
  /// One ciphertext opening per chunk; returns exactly `v.count` values (the
  /// zero-masked tail slots of the final chunk are discarded).
  Result<std::vector<double>> Decrypt(const EncryptedVector& v);

  /// \brief Encrypt many vectors at once — out[i] = Enc(batch[i]).
  ///
  /// Parallelized over the batch when a thread pool is attached. Per-item
  /// encryption randomness is pre-derived from the backend's stream in batch
  /// order, so the ciphertexts (and therefore CKKS decryption noise) do not
  /// depend on the thread count. Note the randomness *schedule* differs from
  /// looping Encrypt(): EncryptBatch({v}) != Encrypt(v) ciphertext-wise, but
  /// both decrypt to the same values. Complexity: one Encrypt per item,
  /// wall-clock ~ max item cost when parallel.
  Result<std::vector<EncryptedVector>> EncryptBatch(
      const std::vector<std::vector<double>>& batch);

  /// \brief Homomorphically sum each group — out[g] = Sum(groups[g]).
  /// Parallelized over groups when a thread pool is attached.
  Result<std::vector<EncryptedVector>> AddBatch(
      const std::vector<std::vector<const EncryptedVector*>>& groups);

  /// \brief Decrypt many vectors at once — out[i] = Dec(batch[i]).
  /// Parallelized over the batch when a thread pool is attached.
  Result<std::vector<std::vector<double>>> DecryptBatch(
      const std::vector<EncryptedVector>& batch);

  /// \brief Create an independent session sharing this backend's keys.
  ///
  /// The fork has its own randomness stream (seeded from `stream_seed`) and
  /// its own zeroed stats() counters, so it can run on another thread without
  /// synchronization. Deterministic: the same (keys, stream_seed) pair always
  /// produces the same ciphertext stream. The fork inherits this backend's
  /// metrics registry (see class comment).
  Result<std::unique_ptr<HeBackend>> Fork(uint64_t stream_seed) const;

  /// Wire size of an encrypted vector holding `count` values.
  virtual size_t CiphertextBytes(size_t count) const = 0;

  /// \brief Plaintext values one ciphertext of this backend carries.
  ///
  /// CKKS: n, one value per plaintext coefficient
  /// (CkksContext::slot_count()), or 1 in scalar packing mode;
  /// Paillier: 1 (inherently scalar);
  /// plain: SIZE_MAX (a "ciphertext" is the whole serialized vector).
  /// Protocol layers use this to size slot-aligned batches (e.g. how many
  /// queries' distance vectors fit one ciphertext group).
  virtual size_t SlotsPerCiphertext() const = 0;

  /// Attach (or detach, with nullptr) the pool the *Batch operations use.
  /// Not thread-safe; set it before sharing the backend. Not inherited by
  /// Fork() sessions.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Attach (or detach, with nullptr) a metrics registry. Counter handles
  /// are cached here, so the per-operation cost is a null check plus relaxed
  /// atomic adds. Not thread-safe; set it before sharing the backend.
  /// Inherited by Fork() sessions.
  void set_metrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return obs_registry_; }

  /// Label set applied to the `he.*` counter series resolved by the *next*
  /// set_metrics() call (e.g. {{"backend", "ckks"}} yields
  /// `he.encrypt.count{backend=ckks}`). Empty (the default) keeps the
  /// classic unlabeled names, which the HE unit/fuzz tests pin down. Set it
  /// before set_metrics; inherited by Fork() sessions, so forked recording
  /// stays attributed to the same backend dimension.
  void set_metric_labels(
      std::vector<std::pair<std::string, std::string>> labels) {
    metric_labels_ = std::move(labels);
  }

  const HeOpStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Fold a forked session's counters into this backend's stats(). Does NOT
  /// touch the metrics registry: forks record there live (at op time), so
  /// re-publishing absorbed counters would double-count.
  void AbsorbStats(const HeOpStats& session_stats) {
    stats_.Merge(session_stats);
  }

 protected:
  /// Implementation hooks; the public wrappers above add metrics recording.
  /// Each hook updates stats_ itself (the wrapper publishes the delta). The
  /// built-in schemes share one implementation of all six (the batch base in
  /// backend.cc) and differ only in how they encrypt, sum and decrypt one
  /// vector.
  virtual Result<EncryptedVector> DoEncrypt(
      std::span<const double> values) = 0;
  virtual Result<EncryptedVector> DoSum(
      const std::vector<const EncryptedVector*>& vectors) = 0;
  virtual Result<std::vector<double>> DoDecrypt(const EncryptedVector& v) = 0;
  virtual Result<std::vector<EncryptedVector>> DoEncryptBatch(
      const std::vector<std::vector<double>>& batch) = 0;
  virtual Result<std::vector<EncryptedVector>> DoAddBatch(
      const std::vector<std::vector<const EncryptedVector*>>& groups) = 0;
  virtual Result<std::vector<std::vector<double>>> DoDecryptBatch(
      const std::vector<EncryptedVector>& batch) = 0;
  virtual Result<std::unique_ptr<HeBackend>> DoFork(
      uint64_t stream_seed) const = 0;

  HeOpStats stats_;
  ThreadPool* pool_ = nullptr;

 private:
  /// Publish stats_ minus `before` (plus `bytes_out` ciphertext bytes) to the
  /// cached counter handles. Caller checks obs_registry_ first.
  void PublishDelta(const HeOpStats& before, uint64_t bytes_out);

  /// The `he.*` counter handles set_metrics resolves. Fork() copies them,
  /// so a session forked inside a query task never takes the registry mutex.
  struct Meters {
    obs::Counter* encrypt_count = nullptr;
    obs::Counter* encrypt_values = nullptr;
    obs::Counter* encrypt_bytes = nullptr;
    obs::Counter* decrypt_count = nullptr;
    obs::Counter* decrypt_values = nullptr;
    obs::Counter* add_count = nullptr;
    obs::Counter* add_values = nullptr;
  };

  obs::MetricsRegistry* obs_registry_ = nullptr;
  std::vector<std::pair<std::string, std::string>> metric_labels_;
  Meters meters_;
};

/// \brief How the CKKS backend maps values to ciphertext slots.
///
/// kPacked is the production mode: SlotsPerCiphertext() = n values per
/// ciphertext, one per plaintext coefficient (TenSEAL's slot encoding, which
/// the paper used, carries n/2). kScalar forces one value per ciphertext —
/// the layout the scalar-era protocol (and every non-packing scheme) pays —
/// and exists for ablations and the batched-vs-scalar differential tests;
/// both modes decrypt to the same values within CKKS tolerance.
enum class CkksPacking { kPacked, kScalar };

/// CKKS-based backend: CKKS's RLWE encryption, as the paper uses via
/// TenSEAL, with coefficient encoding instead of TenSEAL's slot encoding
/// (see CkksContext).
Result<std::unique_ptr<HeBackend>> CreateCkksBackend(const CkksParams& params,
                                                     uint64_t seed,
                                                     CkksPacking packing);
Result<std::unique_ptr<HeBackend>> CreateCkksBackend(const CkksParams& params,
                                                     uint64_t seed);
Result<std::unique_ptr<HeBackend>> CreateCkksBackend(uint64_t seed);

/// Paillier-based backend; values are fixed-point encoded with
/// `fractional_bits` bits after the binary point.
Result<std::unique_ptr<HeBackend>> CreatePaillierBackend(size_t modulus_bits,
                                                         int fractional_bits,
                                                         uint64_t seed);

/// Pass-through backend (no cryptography) for debugging and cost ablations.
std::unique_ptr<HeBackend> CreatePlainBackend();

}  // namespace vfps::he

#endif  // VFPS_HE_BACKEND_H_
