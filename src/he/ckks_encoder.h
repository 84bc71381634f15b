#ifndef VFPS_HE_CKKS_ENCODER_H_
#define VFPS_HE_CKKS_ENCODER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "he/rns.h"

namespace vfps::he {

/// \brief CKKS canonical-embedding encoder.
///
/// Encodes a vector of up to n/2 real values into a plaintext polynomial of
/// Z_Q[X]/(X^n + 1) such that the polynomial evaluated at the odd powers of
/// the primitive 2n-th complex root of unity reproduces the values times the
/// scale. Both directions run one n-point radix-2 FFT, O(n log n):
///
///   encode:  place the values (zero-padded to n) in bit-reversed order,
///            forward FFT, twist by w^{-k}, take (2/n)*Re, multiply by the
///            scale, round to integers, Barrett-reduce into each RNS prime,
///            forward NTT.
///   decode:  inverse NTT, CRT-compose each coefficient, twist by w^k,
///            inverse FFT, take the first `count` real parts over the scale.
///
/// The FFT runs on split real/imaginary arrays with per-stage contiguous
/// twiddles and writes every complex product out as (ac - bd, ad + bc). It
/// and the round-and-reduce step have AVX2 and AVX-512 backends, dispatched
/// on simd::ActiveIsa(), that apply the same operations to each element as
/// the scalar loops (both vector FFTs run two radix-2 stages per pass after
/// the first, and the AVX-512 one gathers its first pass's inputs; the
/// AVX-512 round-and-reduce takes an exact small-quotient reduction below
/// 2^52). Both files build
/// with -ffp-contract=off, so no multiply-add is ever fused and the
/// residues are bit-identical on every ISA and optimization level (see
/// docs/KERNELS.md, "Per-kernel numerics contract").
class CkksEncoder {
 public:
  static Result<CkksEncoder> Create(std::shared_ptr<const RnsContext> ctx);

  size_t slot_count() const { return ctx_->n() / 2; }

  /// \brief Encode at most slot_count() values with the given scale. The
  /// result is returned in NTT (evaluation) form, ready for pointwise ops.
  /// Fails with OutOfRange if any coefficient reaches min(2^62, Q/2) in
  /// magnitude: past Q/2 it would wrap mod Q and decode as another value.
  /// Values beyond `values.size()` implicitly encode as zero (the unused
  /// slots of a partially-filled ciphertext are zero-masked by construction).
  /// Accepts a span so batched callers can encode sub-ranges without copying.
  Result<RnsPoly> Encode(std::span<const double> values, double scale) const;

  /// \brief Encode() without the final NTT: writes the plaintext in
  /// coefficient form to `out` (resized to the context's shape, every
  /// residue overwritten). Lets an encryption add the error polynomial
  /// first and transform the sum once (see docs/HE.md). Same checks and
  /// errors as Encode().
  Status EncodeCoefficients(std::span<const double> values, double scale,
                            RnsPoly* out) const;

  /// \brief Decode `count` values from a plaintext polynomial at the given
  /// scale. Accepts either form (transforms a copy if needed).
  Result<std::vector<double>> Decode(const RnsPoly& poly, double scale,
                                     size_t count) const;

  /// \brief Decode() without the copy: transforms `poly` to coefficient
  /// form in place and writes `count` values to out[0, count). Same checks
  /// and errors as Decode(), made before anything is written.
  Status DecodeInto(RnsPoly* poly, double scale, size_t count,
                    double* out) const;

 private:
  explicit CkksEncoder(std::shared_ptr<const RnsContext> ctx)
      : ctx_(std::move(ctx)) {}

  // The encode's forward FFT of `values` (zero-padded to n) in bit-reversed
  // order, and the decode's inverse FFT of the twisted coefficients
  // twist_k * coeffs[k] in bit-reversed order; both unnormalized, into
  // re/im. On AVX-512 (n >= 16) the zero fill or twist and the bit-reversed
  // scatter fold into the FFT's first pass, which gathers each 16-element
  // window from its sources (ckks_encoder_simd.cc); elsewhere they run as
  // separate loops before Fft.
  void ForwardFromValues(std::span<const double> values, double* re,
                         double* im) const;
  void InverseFromCoeffs(const double* coeffs, double* re, double* im) const;
  void ForwardFromValuesAvx512(std::span<const double> values, double* re,
                               double* im) const;
  void InverseFromCoeffsAvx512(const double* coeffs, double* re,
                               double* im) const;

  // In-place radix-2 FFT over n points whose input is already in
  // bit-reversed order; `inverse` selects the conjugate roots
  // (unnormalized). Runs the AVX2 backend when the ISA allows it and
  // n >= 8, else the scalar reference.
  void Fft(double* re, double* im, bool inverse) const;
  void FftScalar(double* re, double* im, const double* roots_im) const;
  void FftAvx2(double* re, double* im, const double* roots_im) const;

  // Coefficient k of the encoding from the forward FFT output:
  // round((2/n) * Re(w^{-k} * A_k) * scale), reduced into every prime of
  // `out`. The scalar loop covers k in [begin, n) and returns OutOfRange at
  // the first coefficient past coeff_bound_. The vector backends cover
  // whole vectors from k = 0 and stop at the first vector with a lane out
  // of bounds (or NaN), returning where they stopped; the scalar loop
  // finishes from there, so the error is the scalar one.
  Status RoundAndReduceScalar(const double* re, const double* im,
                              double scale, size_t begin, RnsPoly* out) const;
  size_t RoundAndReduceAvx2(const double* re, const double* im, double scale,
                            RnsPoly* out) const;
  size_t RoundAndReduceAvx512(const double* re, const double* im,
                              double scale, RnsPoly* out) const;

  std::shared_ptr<const RnsContext> ctx_;
  // min(2^62, Q/2), rounded down to a double: a coefficient below it in
  // magnitude rounds to an integer that decodes back to itself. 2^62 also
  // guards the int64 rounding path.
  double coeff_bound_ = 0.0;
  // Twist factors w^k = exp(i*pi*k/n), k in [0, n), and the same in
  // bit-reversed order (twist_*_br_[m] = twist_*_[bit_rev_[m]]) for the
  // decode's gathered first pass.
  std::vector<double> twist_re_;
  std::vector<double> twist_im_;
  std::vector<double> twist_re_br_;
  std::vector<double> twist_im_br_;
  // Bit-reversal permutation for the FFT.
  std::vector<size_t> bit_rev_;
  // Forward roots e^{-2*pi*i*j/(2h)}, j in [0, h), for the stage of half
  // length h, stored contiguously from offset h - 1 (n - 1 roots in all).
  // root_im_inv_ is the imaginary part of the conjugate roots (inverse FFT).
  std::vector<double> root_re_;
  std::vector<double> root_im_;
  std::vector<double> root_im_inv_;
};

}  // namespace vfps::he

#endif  // VFPS_HE_CKKS_ENCODER_H_
