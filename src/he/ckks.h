#ifndef VFPS_HE_CKKS_H_
#define VFPS_HE_CKKS_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "common/result.h"
#include "he/rns.h"

namespace vfps::he {

/// \brief CKKS scheme parameters.
///
/// The defaults (n = 4096, two 50-bit primes, scale 2^40) match the additive
/// workload of the VFPS-SM protocol: Q ~ 2^100 is within the 109-bit bound
/// of the HE standard for 128-bit security at n = 4096, and leaves ~2^59 of
/// headroom above the scale, so dozens of ciphertext additions stay far from
/// overflow. Primes below 2^50 also let the NTT and the key products run on
/// AVX-512 IFMA where the CPU has it (docs/KERNELS.md).
struct CkksParams {
  size_t poly_degree = 4096;
  std::vector<int> prime_bits = {50, 50};
  double scale = 1099511627776.0;  // 2^40
  /// Standard deviation of the rounded-Gaussian error; must be finite and
  /// in (0, GaussianCdt::kMaxSigma].
  double noise_sigma = 3.2;
};

/// Secret key: a ternary ring element (stored in NTT form), with the Shoup
/// companions of its residues for the c1 * s product of decryption.
/// Built only by CkksContext::GenerateSecretKey.
struct CkksSecretKey {
  RnsPoly s;
  ShoupTable s_shoup;
};

/// Public key (b, a) with b = -(a*s + e); both in NTT form, each with the
/// Shoup companions of its residues for the b * u and a * u products of
/// encryption. Built only by CkksContext::GeneratePublicKey.
struct CkksPublicKey {
  RnsPoly b;
  RnsPoly a;
  ShoupTable b_shoup;
  ShoupTable a_shoup;
};

/// RLWE ciphertext (c0, c1); decryption computes c0 + c1 * s.
struct CkksCiphertext {
  RnsPoly c0;
  RnsPoly c1;
  double scale = 0.0;

  /// RNS primes per polynomial (params.prime_bits.size() for every
  /// ciphertext this context produces).
  size_t level() const { return c0.num_primes(); }
};

/// \brief A serialized ciphertext read in place: ParseCiphertext has checked
/// every header field, and the residues stay in the wire bytes. Residue
/// vector i of c0 (c1) is n native 64-bit words at c0[i] (c1[i]), at any
/// byte alignment (see detail::LoadWord), not yet range-checked: the
/// kernels that read them check each word against its prime in the same
/// pass (detail::SumModVec, detail::MulAddModShoupVec).
struct CkksCiphertextView {
  double scale = 0.0;
  bool ntt_form = false;
  size_t level = 0;  // primes per polynomial, the same for c0 and c1
  std::array<const uint8_t*, RnsContext::kMaxPrimes> c0{};
  std::array<const uint8_t*, RnsContext::kMaxPrimes> c1{};
};

/// \brief CKKS context: validated parameters, RNS base, the coefficient
/// encoder, and the additive scheme operations. Immutable and shareable
/// across threads.
///
/// Values are coefficient-encoded: plaintext coefficient j is
/// round(values[j] * scale), so one ciphertext carries n values and neither
/// direction runs an FFT. Adding ciphertexts adds the encoded vectors
/// coefficient by coefficient, which is all the selection protocol does.
/// Textbook CKKS encodes through the canonical embedding instead, which
/// carries n/2 values and exists for slot-wise products; this context has
/// no product (docs/HE.md).
class CkksContext {
 public:
  static Result<std::shared_ptr<const CkksContext>> Create(
      const CkksParams& params);

  const CkksParams& params() const { return params_; }
  const RnsContext& rns() const { return *rns_; }
  /// The error sampler built from params().noise_sigma.
  const GaussianCdt& noise() const { return *noise_; }
  /// Values one ciphertext carries: n, one per coefficient.
  size_t slot_count() const { return rns_->n(); }

  /// \brief Coefficient encoding of at most slot_count() values at `scale`,
  /// returned in NTT form: coefficient j is round(values[j] * scale)
  /// (half away from zero) reduced into every prime, and the coefficients
  /// from values.size() on are zero, so a partly filled ciphertext decodes
  /// zeros past its values. CapacityError past slot_count() values;
  /// OutOfRange when some |values[j] * scale| reaches min(2^62, Q/2) or is
  /// NaN: past Q/2 it would wrap mod Q and decode as another value (the
  /// message names the first such product).
  Result<RnsPoly> Encode(std::span<const double> values, double scale) const;
  /// \brief Decode `count` values of a plaintext (either form; a copy is
  /// transformed) at `scale`: the centred CRT value of coefficient j, over
  /// the scale.
  Result<std::vector<double>> Decode(const RnsPoly& poly, double scale,
                                     size_t count) const;

  CkksSecretKey GenerateSecretKey(Rng* rng) const;
  CkksPublicKey GeneratePublicKey(const CkksSecretKey& sk, Rng* rng) const;

  /// Encode + encrypt at most slot_count() doubles. Takes a span so batched
  /// callers can encrypt slot_count()-sized windows of a longer vector
  /// without copying; coefficients past `values.size()` encode as zero.
  Result<CkksCiphertext> EncryptVector(const CkksPublicKey& pk,
                                       std::span<const double> values,
                                       Rng* rng) const;
  /// \brief EncryptVector straight into wire bytes: writes exactly
  /// CiphertextByteSize() bytes at `out`, the bytes SerializeCiphertext
  /// writes for the same ciphertext. The key products add the error and
  /// plaintext terms in the same pass and store into `out`, so no
  /// CkksCiphertext is built. Same randomness and errors as EncryptVector.
  Status EncryptToWire(const CkksPublicKey& pk, std::span<const double> values,
                       Rng* rng, uint8_t* out) const;
  /// Brace-list convenience (std::span lacks the initializer_list
  /// constructor until C++26).
  Result<CkksCiphertext> EncryptVector(const CkksPublicKey& pk,
                                       std::initializer_list<double> values,
                                       Rng* rng) const {
    return EncryptVector(pk, std::span<const double>(values.begin(), values.size()),
                         rng);
  }

  /// Decrypt + decode `count` doubles: DecryptViewInto over ct's residue
  /// vectors, so a residue not below its prime is a ProtocolError.
  Result<std::vector<double>> DecryptVector(const CkksSecretKey& sk,
                                            const CkksCiphertext& ct,
                                            size_t count) const;
  /// \brief DecryptVector of a ciphertext read in place: computes
  /// c0 + c1 * s from the wire words, range-checking every residue in the
  /// same pass (ProtocolError naming the first bad one, as
  /// DeserializeCiphertext would), and decodes `count` doubles into out.
  Status DecryptViewInto(const CkksSecretKey& sk, const CkksCiphertextView& ct,
                         size_t count, double* out) const;

  /// Homomorphic ciphertext addition (scales must match).
  Result<CkksCiphertext> Add(const CkksCiphertext& x,
                             const CkksCiphertext& y) const;
  Status AddInPlaceCt(CkksCiphertext* x, const CkksCiphertext& y) const;

  /// Ciphertext wire format; size feeds the simulated network's byte meter.
  void SerializeCiphertext(const CkksCiphertext& ct, BinaryWriter* out) const;
  /// ParseCiphertext, then every residue checked against its prime and
  /// copied out of the wire bytes.
  Result<CkksCiphertext> DeserializeCiphertext(BinaryReader* in) const;
  /// \brief Reads one serialized ciphertext in place, advancing `in` past
  /// it. Rejects (ProtocolError, or OutOfRange when truncated) a scale that
  /// is not finite and positive, a form byte other than 0 or 1, a prime
  /// count outside [1, num_primes] or differing between c0 and c1, and a
  /// residue vector whose length is not n. Residue ranges are left to the
  /// reader of the view (see CkksCiphertextView).
  Result<CkksCiphertextView> ParseCiphertext(BinaryReader* in) const;
  /// ProtocolError naming the first residue of `ct` not below its prime, or
  /// OK when there is none.
  Status CheckResidues(const CkksCiphertextView& ct) const;

  /// Serialized ciphertext size in bytes for the current parameters.
  size_t CiphertextByteSize() const;

 private:
  CkksContext() = default;
  // Encode() without the NTT, into `out` (resized, every residue
  // overwritten): encryption adds the error polynomial first and
  // transforms the sum once (docs/HE.md).
  Status EncodeCoefficients(std::span<const double> values, double scale,
                            RnsPoly* out) const;
  // Decode() without the copy: transforms `poly` to coefficient form in
  // place and writes `count` values to out. Checks before writing.
  Status DecodeInto(RnsPoly* poly, double scale, size_t count,
                    double* out) const;
  // The encryption core: c0 = b*u + (e0 + m) and c1 = a*u + e1, written as
  // wire words to c0[i] and c1[i] for each prime i.
  Status EncryptResidues(const CkksPublicKey& pk,
                         std::span<const double> values, Rng* rng,
                         uint8_t* const* c0, uint8_t* const* c1) const;

  CkksParams params_;
  std::shared_ptr<const RnsContext> rns_;
  std::unique_ptr<const GaussianCdt> noise_;
  // min(2^62, floor(Q/2)), rounded down to a double: a coefficient below it
  // in magnitude rounds to an integer that decodes back to itself. 2^62
  // also keeps the rounded magnitude within one 64-bit word.
  double coeff_bound_ = 0.0;
};

}  // namespace vfps::he

#endif  // VFPS_HE_CKKS_H_
