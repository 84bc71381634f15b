#ifndef VFPS_HE_POLY_SIMD_H_
#define VFPS_HE_POLY_SIMD_H_

/// \file
/// \brief Dispatched residue-vector kernels behind the RnsPoly operations,
/// the coefficient encoder's round-and-reduce, the samplers' residue maps,
/// the fused key product and the P-way sum that encryption, aggregation
/// and decryption run on wire bytes, and the decoder's CRT composition.
///
/// Every operation comes in two spellings: `XxxVec` runs the widest backend
/// simd::ActiveIsa() allows (scalar, AVX2, or AVX-512, with IFMA variants
/// where noted), and `XxxScalar` is the always-built portable reference.
/// The backends are exact unsigned integer arithmetic (the encoder's one
/// double product per value and the CRT decode's final int64 -> double
/// conversion round to nearest on every path), so Vec and Scalar are
/// bit-identical for every input that meets the preconditions — the
/// property tests/test_simd_differential fuzzes.
/// Preconditions follow the scalar originals in modarith.h: moduli
/// q < 2^62, fully reduced inputs in [0, q) unless a lazy range is called
/// out explicitly.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "he/modarith.h"

namespace vfps::he::detail {

/// The most RNS primes a context holds: the CRT decode composes two
/// residues in 128 bits. RnsContext::kMaxPrimes is this limit, and the
/// kernels size their per-prime arrays by it.
inline constexpr size_t kMaxPrimes = 2;

/// A CDT sampler's guide has one entry per 2^kCdtGuideShift-wide bucket of
/// a word's upper 63 bits: 256 buckets.
inline constexpr int kCdtGuideShift = 63 - 8;

/// a[i] = (a[i] + b[i]) mod q, inputs in [0, q).
void AddModVec(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);
/// Scalar reference for AddModVec.
void AddModScalar(uint64_t* a, const uint64_t* b, size_t n, uint64_t q);

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

/// \brief Residue words as a wire blob holds them: n native (little-endian)
/// 64-bit words starting at any byte address. The kernels below that take
/// `uint8_t*` operands read and write such words (a blob places its
/// residues at odd offsets), and accept word-aligned arrays as well.
inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreWord(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

/// \brief The fused key product of encryption and decryption:
/// dst[j] = (a[j] * w[j] + b[j]) mod q, with w a fixed operand (a key's
/// residues, < q) and w_shoup its per-coefficient Shoup companions
/// floor(w[j] * 2^64 / q). dst, a and b are wire words (dst may alias a or
/// b). Returns whether every a[j] and b[j] was below q; the outputs are
/// then fully reduced, so they equal AddMod(MulModShoup(a, w, w_shoup, q),
/// b, q) and the Barrett product plus b, and are unspecified otherwise. On
/// AVX-512 with IFMA and q < 2^50 it multiplies in 52 bits.
bool MulAddModShoupVec(uint8_t* dst, const uint8_t* a, const uint64_t* w,
                       const uint64_t* w_shoup, const uint8_t* b, size_t n,
                       uint64_t q);
/// Scalar reference for MulAddModShoupVec.
bool MulAddModShoupScalar(uint8_t* dst, const uint8_t* a, const uint64_t* w,
                          const uint64_t* w_shoup, const uint8_t* b, size_t n,
                          uint64_t q);

/// \brief dst[j] = (src[0][j] + ... + src[count-1][j]) mod q over `count`
/// >= 1 wire-word vectors, added in input order; dst may alias src[0].
/// Returns whether every source word was below q (the sum is unspecified
/// otherwise). The CKKS backend's Sum: every input is read once and the
/// range check that DeserializeCiphertext makes rides along.
bool SumModVec(uint8_t* dst, const uint8_t* const* src, size_t count,
               size_t n, uint64_t q);
/// Scalar reference for SumModVec.
bool SumModScalar(uint8_t* dst, const uint8_t* const* src, size_t count,
                  size_t n, uint64_t q);

/// \brief The coefficient encoder: for j < n, c = values[j] * scale and
/// dst[i][j] = round(c) mod moduli[i].value, rounding half away from zero
/// (llround), for i < num_primes <= kMaxPrimes. `bound` is at most 2^62.
/// Returns n when every |c| is below `bound`; otherwise the index of the
/// first c that is not (NaN and infinities included), with dst written
/// before that index and unspecified from it on. The vector backends stop
/// at the first vector with a lane out of bounds and hand the rest to the
/// scalar code, so every ISA returns the same index.
size_t RoundAndReduceVec(uint64_t* const* dst, const Modulus* moduli,
                         size_t num_primes, const double* values, size_t n,
                         double scale, double bound);
/// Scalar reference for RoundAndReduceVec.
size_t RoundAndReduceScalar(uint64_t* const* dst, const Modulus* moduli,
                            size_t num_primes, const double* values, size_t n,
                            double scale, double bound);

/// \brief Whether TernaryResiduesVec maps in vector registers on this CPU
/// (AVX2 or AVX-512). Where it does not, SampleTernaryInto does the
/// per-word work inside its draw loop instead: there it overlaps the
/// generator's dependency chain, and a scalar pass over the block after
/// the draws costs more (docs/KERNELS.md has the per-ISA timings).
bool TernaryResiduesVectorized();

/// \brief The residue map of the ternary sampler: coefficient j is
/// words[j] % 3 - 1 (Rng::NextBounded(3) - 1 for a nonzero raw word), and
/// dst[i][j] is its residue mod primes[i], for i < num_primes <= kMaxPrimes.
/// Returns false if a word is 0, which NextBounded(3) would have redrawn
/// (the caller then replays the draw), so the draw loop checks nothing.
bool TernaryResiduesVec(uint64_t* const* dst, const uint64_t* primes,
                        size_t num_primes, const uint64_t* words, size_t n);
/// Scalar reference for TernaryResiduesVec.
bool TernaryResiduesScalar(uint64_t* const* dst, const uint64_t* primes,
                           size_t num_primes, const uint64_t* words, size_t n);

/// \brief The tables of a CDT Gaussian sampler (GaussianCdt in rns.h):
/// `size` non-decreasing thresholds ending in 2^63, and `guide`, 256 start
/// indices: guide[b] = number of thresholds <= b * 2^kCdtGuideShift.
struct CdtTables {
  const uint64_t* cdt;
  size_t size;
  const uint32_t* guide;

  /// GaussianCdt::Sample: bit 0 of the word is the sign, and the magnitude
  /// is the number of thresholds at or below its upper 63 bits.
  int64_t Sample(uint64_t word) const {
    const uint64_t u = word >> 1;
    uint32_t m = guide[u >> kCdtGuideShift];
    while (u >= cdt[m]) ++m;
    const int64_t mag = static_cast<int64_t>(m);
    return (word & 1) ? -mag : mag;
  }
};

/// \brief Whether CdtResiduesVec searches in vector registers on this CPU
/// (AVX-512 only). Where it does not, SampleGaussianInto searches inside
/// its draw loop, for the reason TernaryResiduesVectorized gives.
bool CdtResiduesVectorized();

/// \brief The residue map of the Gaussian sampler: coefficient j is the CDT
/// sample of words[j], and dst[i][j] is its residue mod primes[i], plus
/// add[i][j] mod primes[i] when `add` is not null (add[i] may alias
/// dst[i]; its words are below primes[i]), for i < num_primes <= kMaxPrimes.
/// Requires every |sample| (at most size - 1) to be below every prime. The
/// AVX-512 backend finds each magnitude among the first 16 thresholds in
/// registers; a word at or past the 16th (probability ~1.5e-6 at sigma 3.2)
/// takes the scalar search.
void CdtResiduesVec(uint64_t* const* dst, const uint64_t* primes,
                    size_t num_primes, const uint64_t* words, size_t n,
                    const CdtTables& tables, const uint64_t* const* add);
/// Scalar reference for CdtResiduesVec.
void CdtResiduesScalar(uint64_t* const* dst, const uint64_t* primes,
                       size_t num_primes, const uint64_t* words, size_t n,
                       const CdtTables& tables, const uint64_t* const* add);

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

}  // namespace vfps::he::detail

#endif  // VFPS_HE_POLY_SIMD_H_
