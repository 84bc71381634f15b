#ifndef VFPS_HE_NTT_H_
#define VFPS_HE_NTT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "he/modarith.h"

namespace vfps::he {

/// \brief Precomputed tables for the negacyclic number-theoretic transform
/// over Z_q[X]/(X^n + 1).
///
/// The forward transform maps coefficient form to evaluation form at the odd
/// powers of a primitive 2n-th root of unity ψ; in evaluation form polynomial
/// multiplication is pointwise. n must be a power of two and q ≡ 1 (mod 2n).
class NttTables {
 public:
  /// Builds tables (finds ψ automatically).
  static Result<NttTables> Create(size_t n, uint64_t q);

  size_t n() const { return n_; }
  uint64_t q() const { return q_; }
  uint64_t psi() const { return psi_; }

  /// Barrett-ready modulus for division-free pointwise arithmetic mod q.
  const Modulus& modulus() const { return modulus_; }

  /// \brief Bit-reversal permutation over [0, n): bit_rev()[i] is i with its
  /// log2(n) low bits reversed. Precomputed once at Create.
  const std::vector<size_t>& bit_rev() const { return bit_rev_; }

  /// \brief In-place forward negacyclic NTT (coefficient -> evaluation
  /// form), dispatched to the widest backend simd::ActiveIsa() allows; the
  /// AVX-512 backend multiplies in 52 bits (IFMA) when the CPU has it and
  /// q < 2^50. Input residues must be < q; output residues are fully
  /// reduced to [0, q). Every backend is bit-identical to ForwardScalar:
  /// between butterfly stages values stay lazy in [0, 4q) and the final
  /// pass reduces (see docs/KERNELS.md).
  void Forward(uint64_t* a) const;

  /// \brief In-place inverse negacyclic NTT (evaluation -> coefficient
  /// form), dispatched like Forward. Input residues must be < q; stages stay
  /// lazy in [0, 2q); outputs are fully reduced to [0, q) and bit-identical
  /// to InverseScalar.
  void Inverse(uint64_t* a) const;

  /// Always-built scalar reference for Forward (the differential-test
  /// oracle; also the portable fallback the dispatcher selects when no
  /// vector backend applies).
  void ForwardScalar(uint64_t* a) const;

  /// Always-built scalar reference for Inverse.
  void InverseScalar(uint64_t* a) const;

  void Forward(std::vector<uint64_t>* a) const { Forward(a->data()); }
  void Inverse(std::vector<uint64_t>* a) const { Inverse(a->data()); }

 private:
  NttTables() = default;

  // Vector backends (ntt_simd.cc); the AVX-512 pair takes its IFMA variant
  // itself (detail::UseIfma). On non-x86 builds they fall back to the
  // scalar reference; the dispatcher never selects them there anyway.
  void ForwardAvx2(uint64_t* a) const;
  void InverseAvx2(uint64_t* a) const;
  void ForwardAvx512(uint64_t* a) const;
  void InverseAvx512(uint64_t* a) const;

  size_t n_ = 0;
  int log_n_ = 0;
  uint64_t q_ = 0;
  uint64_t psi_ = 0;
  uint64_t n_inv_ = 0;
  uint64_t n_inv_shoup_ = 0;
  Modulus modulus_;
  // Powers of psi in bit-reversed order (Cooley-Tukey layout), and likewise
  // for psi^{-1} (Gentleman-Sande layout for the inverse). The *_shoup_
  // companions hold floor(w * 2^64 / q) for each twiddle, enabling the
  // division-free lazy butterflies (see docs/ARCHITECTURE.md, "Performance
  // kernels").
  std::vector<uint64_t> root_powers_;
  std::vector<uint64_t> root_powers_shoup_;
  std::vector<uint64_t> inv_root_powers_;
  std::vector<uint64_t> inv_root_powers_shoup_;
  std::vector<size_t> bit_rev_;
};

}  // namespace vfps::he

#endif  // VFPS_HE_NTT_H_
