#ifndef VFPS_HE_RNS_H_
#define VFPS_HE_RNS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "he/ntt.h"
#include "he/poly_simd.h"

namespace vfps::he {

/// \brief Residue number system context: the ciphertext modulus
/// Q = q_0 * q_1 * ... with NTT tables per prime.
///
/// At most two primes are supported so that CRT composition fits in 128-bit
/// integers; the default two 50-bit primes give Q ~ 2^100, ample for the
/// additive homomorphic workload of the selection protocol.
class RnsContext {
 public:
  /// Most primes a context holds (detail::kMaxPrimes: two-prime CRT fits
  /// 128-bit integers).
  static constexpr size_t kMaxPrimes = detail::kMaxPrimes;

  /// \param n ring degree (power of two).
  /// \param prime_bits bit width of each RNS prime (1 or 2 entries, <= 59).
  static Result<std::shared_ptr<const RnsContext>> Create(
      size_t n, const std::vector<int>& prime_bits);

  size_t n() const { return n_; }
  size_t num_primes() const { return primes_.size(); }
  const std::vector<uint64_t>& primes() const { return primes_; }
  uint64_t prime(size_t i) const { return primes_[i]; }
  const NttTables& ntt(size_t i) const { return ntt_[i]; }

  /// Barrett-ready modulus for prime i (division-free pointwise arithmetic).
  const Modulus& modulus(size_t i) const { return ntt_[i].modulus(); }

  /// Q as a long double (used only for headroom checks, never for arithmetic).
  long double modulus_approx() const { return q_approx_; }

  /// q_0^{-1} mod q_1, cached for CRT composition (two-prime contexts only),
  /// and its Shoup companion.
  uint64_t crt_q0_inv_q1() const { return crt_q0_inv_q1_; }
  uint64_t crt_q0_inv_q1_shoup() const { return crt_q0_inv_q1_shoup_; }

 private:
  RnsContext() = default;
  size_t n_ = 0;
  std::vector<uint64_t> primes_;
  std::vector<NttTables> ntt_;
  long double q_approx_ = 0.0L;
  uint64_t crt_q0_inv_q1_ = 0;
  uint64_t crt_q0_inv_q1_shoup_ = 0;
};

/// \brief Ring element in RNS representation: one residue vector of length n
/// per prime. `ntt_form` tracks whether the residues are in evaluation form.
struct RnsPoly {
  std::vector<std::vector<uint64_t>> residues;
  bool ntt_form = false;

  size_t num_primes() const { return residues.size(); }
  size_t n() const { return residues.empty() ? 0 : residues[0].size(); }
};

/// Fresh zero polynomial (coefficient form).
RnsPoly ZeroPoly(const RnsContext& ctx);

/// \brief Resize `p` to the context's shape without zero-filling live data.
/// Used by the *Into sampling variants to reuse scratch buffers: callers must
/// treat the previous contents as garbage (every component is overwritten by
/// the samplers below).
void ResizePoly(const RnsContext& ctx, RnsPoly* p);

/// \brief Cumulative-distribution-table (CDT) sampler for the rounded
/// Gaussian round(N(0, sigma^2)), the CKKS error distribution.
///
/// One uniform 64-bit word gives one sample: its low bit is the sign and
/// its upper 63 bits are inverted through the table of the magnitude's CDF,
/// cdt[m] = round(2^63 * P(|round(X)| <= m)). Each threshold is computed from
/// the tail mass erfc((m + 1/2) / (sigma * sqrt(2))), so every probability
/// is exact to 2^-63 plus the relative error of erfc. The table stops at the
/// first magnitude whose tail mass rounds to zero at that resolution
/// (tail_bound() ~ 9.3 sigma); larger magnitudes are never drawn. Built once
/// per CkksContext and read-only afterwards, so threads share it freely.
class GaussianCdt {
 public:
  /// Largest accepted sigma (the table holds ~9.3 * sigma entries).
  static constexpr double kMaxSigma = 1024.0;

  /// Fails unless sigma is finite and in (0, kMaxSigma].
  static Result<GaussianCdt> Create(double sigma);

  /// Largest magnitude Sample() can return.
  int64_t tail_bound() const { return static_cast<int64_t>(cdt_.size()) - 1; }

  /// Maps one uniform 64-bit word to a sample in [-tail_bound(), tail_bound()].
  /// The search starts at the first threshold above u's 1/256th of the
  /// range and finishes with a short scan: the last entry is 2^63, above
  /// every u, so the scan always stops there.
  int64_t Sample(uint64_t word) const { return tables().Sample(word); }

  /// The thresholds and the guide, for the block residue map of
  /// SampleGaussianInto (detail::CdtResiduesVec).
  detail::CdtTables tables() const {
    return {cdt_.data(), cdt_.size(), guide_.data()};
  }

 private:
  GaussianCdt() = default;
  std::vector<uint64_t> cdt_;  // non-decreasing; back() == 2^63
  // guide_[b] = number of thresholds <= b * 2^detail::kCdtGuideShift: where
  // the scan for any u in bucket b may start.
  std::array<uint32_t, size_t{1} << (63 - detail::kCdtGuideShift)> guide_{};
};

/// Uniform element of R_Q (directly usable in either form; sampled per prime).
RnsPoly SampleUniform(const RnsContext& ctx, Rng* rng);

/// Ternary secret {-1, 0, 1}; returned in coefficient form. Coefficient j is
/// Rng::NextBounded(3) - 1, drawn in order.
RnsPoly SampleTernary(const RnsContext& ctx, Rng* rng);

/// Centered discrete Gaussian error from `noise`, one Rng::Next() per
/// coefficient in order; coefficient form.
RnsPoly SampleGaussian(const RnsContext& ctx, Rng* rng, const GaussianCdt& noise);

/// \brief Allocation-free variants writing into an existing polynomial
/// (resized to the context's shape; all components overwritten). Each
/// consumes the Rng identically to its allocating counterpart, so swapping
/// one for the other never perturbs a deterministic randomness stream.
///
/// Where the residue map runs in vector registers
/// (detail::TernaryResiduesVectorized, detail::CdtResiduesVectorized), each
/// draws the polynomial's words in one tight loop, bound by the generator's
/// dependency chain, and then maps the block to every prime's residues in
/// one dispatched pass (detail::TernaryResiduesVec, detail::CdtResiduesVec).
/// Elsewhere the per-word work runs inside the draw loop, where it overlaps
/// that chain. With `plus` set, SampleGaussianInto writes the sample plus
/// *plus (coefficient form, the context's shape; `plus` may be `out`): the
/// encryption's e0 + m in the same pass.
void SampleTernaryInto(const RnsContext& ctx, Rng* rng, RnsPoly* out);
void SampleGaussianInto(const RnsContext& ctx, Rng* rng, RnsPoly* out,
                        const GaussianCdt& noise,
                        const RnsPoly* plus = nullptr);

/// a += b (must be in the same form).
void AddInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b);
/// a = -a.
void NegateInPlace(const RnsContext& ctx, RnsPoly* a);
/// a *= b pointwise (both must be in NTT form).
void MulPointwiseInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b);

/// Per-coefficient Shoup companions of a polynomial, one vector per prime:
/// entry j of vector i is floor(w_ij * 2^64 / q_i).
using ShoupTable = std::vector<std::vector<uint64_t>>;

/// \brief The Shoup companions of `w` (fully reduced residues), for a
/// polynomial that multiplies many others: a key polynomial.
ShoupTable ShoupCompanions(const RnsContext& ctx, const RnsPoly& w);

/// Transform to evaluation (NTT) form; no-op if already there.
void ToNtt(const RnsContext& ctx, RnsPoly* a);
/// Transform to coefficient form; no-op if already there.
void FromNtt(const RnsContext& ctx, RnsPoly* a);

/// \brief CRT-compose the residues of coefficient `idx` and recenter to a
/// signed value in (-Q/2, Q/2], returned as a double (lossy for huge values,
/// which is fine: CKKS decode divides by the scale immediately).
double ComposeCoeffToDouble(const RnsContext& ctx, const RnsPoly& poly,
                            size_t idx);

/// \brief ComposeCoeffToDouble for coefficients [0, count), into
/// out[0, count): the two-prime case runs the dispatched CRT kernel
/// (detail::ComposeCrtVec), which writes the same doubles on every ISA.
void ComposeToDouble(const RnsContext& ctx, const RnsPoly& poly, size_t count,
                     double* out);

}  // namespace vfps::he

#endif  // VFPS_HE_RNS_H_
