#ifndef VFPS_HE_POLY_SIMD_H_
#define VFPS_HE_POLY_SIMD_H_

/// \file
/// \brief Dispatched residue-vector kernels behind the RnsPoly operations,
/// the CKKS rescale inner loop and the decoder's CRT composition.
///
/// Every operation comes in two spellings: `XxxVec` runs the widest backend
/// simd::ActiveIsa() allows (scalar, AVX2, or AVX-512, with IFMA variants
/// where noted), and `XxxScalar` is the always-built portable reference.
/// The backends are exact unsigned integer arithmetic (the CRT decode's
/// final int64 -> double conversion rounds to nearest on every path), so
/// Vec and Scalar are bit-identical for every input that meets the
/// preconditions — the property tests/test_simd_differential fuzzes.
/// Preconditions follow the scalar originals in modarith.h: moduli
/// q < 2^62, fully reduced inputs in [0, q) unless a lazy range is called
/// out explicitly.

#include <cstddef>
#include <cstdint>

#include "he/modarith.h"

namespace vfps::he::detail {

/// a[i] = (a[i] + b[i]) mod q, inputs in [0, q).
void AddModVec(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);
/// Scalar reference for AddModVec.
void AddModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);

/// a[i] = (a[i] - b[i]) mod q, inputs in [0, q).
void SubModVec(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);
/// Scalar reference for SubModVec.
void SubModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);

/// a[i] = (q - a[i]) mod q (zero stays zero), inputs in [0, q).
void NegateModVec(uint64_t* a, size_t n, uint64_t q);
/// Scalar reference for NegateModVec.
void NegateModScalar(uint64_t* a, size_t n, uint64_t q);

/// a[i] = a[i] * b[i] mod q via the full 128-bit Barrett reduction. Valid
/// for any 64-bit inputs (the pointwise product path feeds reduced residues).
void MulModBarrettVec(uint64_t* a, const uint64_t* b, size_t n,
                      const Modulus& m);
/// Scalar reference for MulModBarrettVec.
void MulModBarrettScalar(uint64_t* a, const uint64_t* b, size_t n,
                         const Modulus& m);

/// a[i] = a[i] * w mod q with the precomputed Shoup quotient for w < q;
/// valid for any a[i] < 2^64 (lazy inputs included), outputs in [0, q).
void MulModShoupVec(uint64_t* a, size_t n, uint64_t w, uint64_t w_shoup,
                    uint64_t q);
/// Scalar reference for MulModShoupVec.
void MulModShoupScalar(uint64_t* a, size_t n, uint64_t w, uint64_t w_shoup,
                       uint64_t q);

/// \brief dst[i] = a[i] * w[i] mod q for a fixed operand w (a key
/// polynomial's residues, < q) with its per-coefficient Shoup companions
/// w_shoup[i] = floor(w[i] * 2^64 / q). Inputs a[i] < q; outputs fully
/// reduced, so they equal MulModBarrettVec's residue for residue. dst may
/// alias a. On AVX-512 with IFMA and q < 2^50 it multiplies in 52 bits.
void MulModShoupPointwiseVec(uint64_t* dst, const uint64_t* a,
                             const uint64_t* w, const uint64_t* w_shoup,
                             size_t n, uint64_t q);
/// Scalar reference for MulModShoupPointwiseVec.
void MulModShoupPointwiseScalar(uint64_t* dst, const uint64_t* a,
                                const uint64_t* w, const uint64_t* w_shoup,
                                size_t n, uint64_t q);

/// \brief The two-prime CRT representative of one coefficient,
/// x = r0 + q0 * ((r1 - r0) * q0^{-1} mod q1), in [0, q0 * q1) for r0 < q0
/// and r1 < q1. ComposeCrtScalar and ComposeCoeffU128 (rns.h) both use it.
inline unsigned __int128 ComposeCrtCoeff(uint64_t r0, uint64_t r1,
                                         uint64_t q0, const Modulus& m1,
                                         uint64_t q0_inv,
                                         uint64_t q0_inv_shoup) {
  const uint64_t diff =
      SubMod(BarrettReduce64(r1, m1), BarrettReduce64(r0, m1), m1.value);
  const uint64_t t = MulModShoup(diff, q0_inv, q0_inv_shoup, m1.value);
  return r0 + static_cast<unsigned __int128>(q0) * t;
}

/// \brief Two-prime CRT decode: for each c, the representative
/// x = r0[c] + q0 * ((r1[c] - r0[c]) * q0^{-1} mod q1) in [0, q0 * q1),
/// centred to (-Q/2, Q/2] and rounded to the nearest double, into out[c].
/// r0[c] < q0 and r1[c] < q1; q0_inv / q0_inv_shoup are q0^{-1} mod q1 and
/// its Shoup companion (RnsContext::crt_q0_inv_q1() and
/// RnsContext::crt_q0_inv_q1_shoup()). The vector backends
/// compute magnitudes below 2^63 in 64 bits and convert them like the
/// scalar int64 cast; a lane whose magnitude may need more goes to the
/// scalar code, so every ISA writes the same doubles.
void ComposeCrtVec(double* out, const uint64_t* r0, const uint64_t* r1,
                   size_t n, uint64_t q0, const Modulus& m1, uint64_t q0_inv,
                   uint64_t q0_inv_shoup);
/// Scalar reference for ComposeCrtVec (128-bit composition).
void ComposeCrtScalar(double* out, const uint64_t* r0, const uint64_t* r1,
                      size_t n, uint64_t q0, const Modulus& m1,
                      uint64_t q0_inv, uint64_t q0_inv_shoup);

/// \brief One retained-prime round of the CKKS rescale: for each coefficient
/// c, center the dropped residue last[c] (of the dropped prime q_last),
/// reduce it into q, subtract it from src[c], and multiply by
/// (q_last mod q)^{-1}:
///
///   r_mod_q = last[c] > q_last/2 ? -Barrett(q_last - last[c]) mod q
///                                :  Barrett(last[c]) mod q
///   dst[c]  = (src[c] - r_mod_q) * q_last_inv mod q
///
/// src holds residues of the retained prime q (in [0, q)); dst may not alias
/// src or last. q_last_inv/q_last_inv_shoup come precomputed from
/// RnsContext (`rescale_q_last_inv`).
void RescaleRoundVec(uint64_t* dst, const uint64_t* src, const uint64_t* last,
                     size_t n, uint64_t q_last, const Modulus& m,
                     uint64_t q_last_inv, uint64_t q_last_inv_shoup);
/// Scalar reference for RescaleRoundVec.
void RescaleRoundScalar(uint64_t* dst, const uint64_t* src,
                        const uint64_t* last, size_t n, uint64_t q_last,
                        const Modulus& m, uint64_t q_last_inv,
                        uint64_t q_last_inv_shoup);

}  // namespace vfps::he::detail

#endif  // VFPS_HE_POLY_SIMD_H_
