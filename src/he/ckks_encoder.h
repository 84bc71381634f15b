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
/// twiddles and writes every complex product out as (ac - bd, ad + bc). The
/// file builds with -ffp-contract=off, so no multiply-add is ever fused and
/// the residues are bit-identical on every ISA and optimization level (see
/// docs/KERNELS.md, "Per-kernel numerics contract").
class CkksEncoder {
 public:
  static Result<CkksEncoder> Create(std::shared_ptr<const RnsContext> ctx);

  size_t slot_count() const { return ctx_->n() / 2; }

  /// \brief Encode at most slot_count() values with the given scale. The
  /// result is returned in NTT (evaluation) form, ready for pointwise ops.
  /// Fails if any rounded coefficient would overflow the 62-bit safety bound.
  /// Values beyond `values.size()` implicitly encode as zero (the unused
  /// slots of a partially-filled ciphertext are zero-masked by construction).
  /// Accepts a span so batched callers can encode sub-ranges without copying.
  Result<RnsPoly> Encode(std::span<const double> values, double scale) const;

  /// \brief Decode `count` values from a plaintext polynomial at the given
  /// scale. Accepts either form (transforms a copy if needed).
  Result<std::vector<double>> Decode(const RnsPoly& poly, double scale,
                                     size_t count) const;

 private:
  explicit CkksEncoder(std::shared_ptr<const RnsContext> ctx)
      : ctx_(std::move(ctx)) {}

  // In-place radix-2 FFT over n points whose input is already in
  // bit-reversed order; `inverse` selects the conjugate roots
  // (unnormalized).
  void Fft(double* re, double* im, bool inverse) const;

  std::shared_ptr<const RnsContext> ctx_;
  // Twist factors w^k = exp(i*pi*k/n), k in [0, n).
  std::vector<double> twist_re_;
  std::vector<double> twist_im_;
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
