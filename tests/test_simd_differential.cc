// SIMD differential harness: every vector backend against its always-built
// scalar reference, plus the end-to-end consequence of the contract.
//
// The contracts proven here (see docs/KERNELS.md):
//   1. NTT forward/inverse are BIT-IDENTICAL across scalar/AVX2/AVX-512 for
//      200 random NTT-friendly moduli at sizes 2^4..2^14 (seeded fuzz), and
//      for the primes on either side of the IFMA bound 2^50 at 2^4..2^14
//      (on an IFMA host the one below takes the IFMA butterflies).
//   2. The dispatched RNS pointwise ops (add/negate/pointwise-mul) and the
//      two-prime CRT decode are
//      bit-identical to their scalar references, including ragged tails
//      (n mod 8 in 1..7). So are the wire-word kernels (the fused key
//      product at the {50, 50} and {54, 54} primes, also equal to the
//      Barrett product plus the addend, and the P-way sum; at every byte
//      alignment, in place too), whose range checks fail alike on an
//      out-of-range word, and the samplers' residue maps (ternary, and CDT
//      with and without the plaintext addend, at four sigmas and on the
//      extreme words).
//   3. The double kernels (SquaredNorm/DotProduct/BlockSquaredDistances)
//      are bit-identical scalar-vs-SIMD (the stronger property the
//      implementation maintains by preserving accumulation order), and agree
//      with an independently-associated naive formulation exactly on integer
//      grids and to 1e-9 relative tolerance on well-scaled doubles —
//      including denormal and ±DBL_MAX inputs and unaligned row strides.
//      Every column count 1-16 (the AVX-512 narrow-block kernel, one row
//      per lane, takes 1-7) matches the scalar kernel bit for bit over
//      ragged [begin, end) ranges, with ±0, subnormal, ±inf and NaN inputs.
//   3b. The lazy ranking's AVX-512 passes (the key-and-count pass and the
//      window collection) read every rank SortedOrder gives, at every first
//      read depth and from known prefixes of every length.
//   4. SmallestK clamps k >= N and is ISA-independent.
//   5. VFPS_FORCE_SCALAR pins ResolveIsa() to the scalar reference.
//   6. End to end: a full VFPS-SM selection (kBase and kFagin, CKKS packed
//      backend, 1/2/8 threads) under VFPS_FORCE_SCALAR equals the dispatched
//      run — identical SelectionOutcome, identical checkpoint bytes,
//      identical merged counters. Under a churn fault plan, where every
//      message is CRC-framed, the same holds, so the CRC kernel accepts
//      and rejects the same frames on every path.
//   7. The CKKS coefficient encoder's round-and-reduce backends are
//      bit-identical to the scalar reference at the {50, 50}, {54, 54} and
//      {30} primes, on random, ragged, signed-zero, denormal, tie, above-2^52
//      and near-bound values; an over-bound, NaN or infinite value past the
//      first vector stops every ISA at the same index. End to end, Encode
//      residues and Decode doubles are bit-identical for n = 8..4096, and
//      the context's error names the same value on every ISA.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "he/ckks.h"
#include "he/modarith.h"
#include "he/ntt.h"
#include "he/poly_simd.h"
#include "he/rns.h"
#include "he/simd_math.h"
#include "ml/kernels.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "topk/ranked_list.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

// ---------------------------------------------------------------------------
// Harness: ISA pinning

/// Pins simd::ActiveIsa() for a scope and restores the previous value.
class IsaPin {
 public:
  explicit IsaPin(simd::Isa isa) : prev_(simd::ActiveIsa()) {
    simd::SetActiveIsa(isa);
  }
  ~IsaPin() { simd::SetActiveIsa(prev_); }
  IsaPin(const IsaPin&) = delete;
  IsaPin& operator=(const IsaPin&) = delete;

 private:
  simd::Isa prev_;
};

/// The vector backends this host can actually run (empty on a pre-AVX2 or
/// non-x86 host, where every check below degenerates to scalar-vs-scalar and
/// passes trivially — the suite still exercises the dispatch plumbing).
std::vector<simd::Isa> VectorIsas() {
  std::vector<simd::Isa> isas;
  const simd::Isa widest = simd::DetectCpuIsa();
  if (widest >= simd::Isa::kAvx2) isas.push_back(simd::Isa::kAvx2);
  if (widest >= simd::Isa::kAvx512) isas.push_back(simd::Isa::kAvx512);
  return isas;
}

// ---------------------------------------------------------------------------
// 1. NTT bit-identity fuzz

TEST(SimdNttDifferentialTest, ForwardAndInverseBitIdenticalAcrossModuli) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xD1FFE7);
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int log_n = 4 + static_cast<int>(rng.NextBounded(11));  // 2^4..2^14
    const size_t n = size_t{1} << log_n;
    // NTT-friendly prime: q ≡ 1 (mod 2n), q < 2^62 (lazy-range bound).
    const int bits = 30 + static_cast<int>(rng.NextBounded(29));  // 30..58
    auto prime = he::GeneratePrime(bits, 2 * n);
    ASSERT_TRUE(prime.ok()) << prime.status().ToString();
    auto tables = he::NttTables::Create(n, *prime);
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();

    std::vector<uint64_t> input(n);
    for (auto& v : input) v = rng.NextBounded(*prime);

    std::vector<uint64_t> ref = input;
    tables->ForwardScalar(ref.data());
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      std::vector<uint64_t> got = input;
      tables->Forward(got.data());
      ASSERT_EQ(got, ref) << "forward " << simd::IsaName(isa) << " n=" << n
                          << " q=" << *prime << " trial=" << trial;
    }

    // Inverse from evaluation form (ref), back to the original input.
    std::vector<uint64_t> inv_ref = ref;
    tables->InverseScalar(inv_ref.data());
    ASSERT_EQ(inv_ref, input) << "scalar roundtrip n=" << n << " q=" << *prime;
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      std::vector<uint64_t> got = ref;
      tables->Inverse(got.data());
      ASSERT_EQ(got, inv_ref) << "inverse " << simd::IsaName(isa) << " n=" << n
                              << " q=" << *prime << " trial=" << trial;
    }
  }
}

// The primes on either side of the IFMA bound 2^50 for ring degree n: the
// largest NTT-friendly prime below it (the IFMA butterflies, on a CPU that
// has them) and the smallest above it (the AVX-512DQ path).
std::pair<uint64_t, uint64_t> PrimesAroundIfmaBound(size_t n) {
  constexpr uint64_t kBound = uint64_t{1} << 50;
  const uint64_t below = he::GeneratePrime(50, 2 * n).ValueOrDie();
  uint64_t above = kBound + 1;  // 2n divides 2^50, so this is 1 mod 2n
  while (!he::IsPrime(above)) above += 2 * n;
  return {below, above};
}

TEST(SimdNttDifferentialTest, PrimesAroundTheIfmaBoundBitIdentical) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x1F3A50);
  for (size_t n = 16; n <= 16384; n *= 2) {
    const auto [below, above] = PrimesAroundIfmaBound(n);
    ASSERT_LT(below, uint64_t{1} << 50);
    ASSERT_GT(above, uint64_t{1} << 50);
#ifdef VFPS_SIMD_X86
    EXPECT_EQ(he::detail::UseIfma(below),
              __builtin_cpu_supports("avx512ifma") != 0);
    EXPECT_FALSE(he::detail::UseIfma(above));
#endif
    for (uint64_t q : {below, above}) {
      auto tables = he::NttTables::Create(n, q);
      ASSERT_TRUE(tables.ok()) << tables.status().ToString();
      // Random residues, and all q - 1 (the largest lazy values).
      std::vector<uint64_t> random(n);
      for (auto& v : random) v = rng.NextBounded(q);
      for (const std::vector<uint64_t>& input :
           {random, std::vector<uint64_t>(n, q - 1)}) {
        std::vector<uint64_t> ref = input;
        tables->ForwardScalar(ref.data());
        std::vector<uint64_t> inv_ref = ref;
        tables->InverseScalar(inv_ref.data());
        ASSERT_EQ(inv_ref, input) << "scalar roundtrip n=" << n << " q=" << q;
        for (simd::Isa isa : isas) {
          IsaPin pin(isa);
          std::vector<uint64_t> got = input;
          tables->Forward(got.data());
          ASSERT_EQ(got, ref)
              << "forward " << simd::IsaName(isa) << " n=" << n << " q=" << q;
          tables->Inverse(got.data());
          ASSERT_EQ(got, inv_ref)
              << "inverse " << simd::IsaName(isa) << " n=" << n << " q=" << q;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. RNS pointwise ops

// Sizes that cover the vector body, every ragged tail n mod 8 in 1..7, and
// the degenerate small cases the tail loops handle alone.
const size_t kRaggedSizes[] = {0,  1,  2,  3,  5,  7,  8,  9,  12, 15,
                               17, 25, 31, 33, 63, 64, 65, 100, 127, 256};

TEST(SimdRnsDifferentialTest, PointwiseOpsBitIdentical) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xBA77E7);
  for (int trial = 0; trial < 50; ++trial) {
    // Arbitrary odd modulus below 2^62 — the pointwise ops do not need
    // NTT-friendliness (only the transform does).
    const uint64_t q =
        (rng.Next() % ((uint64_t{1} << 62) - 3)) | 1;
    if (q < 3) continue;
    const he::Modulus m(q);
    for (size_t n : kRaggedSizes) {
      std::vector<uint64_t> a(n), b(n);
      for (auto& v : a) v = rng.NextBounded(q);
      for (auto& v : b) v = rng.NextBounded(q);

      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        const char* name = simd::IsaName(isa);

        std::vector<uint64_t> ref = a, got = a;
        he::detail::AddModScalar(ref.data(), b.data(), n, q);
        he::detail::AddModVec(got.data(), b.data(), n, q);
        ASSERT_EQ(got, ref) << "add " << name << " n=" << n << " q=" << q;

        ref = a;
        got = a;
        he::detail::NegateModScalar(ref.data(), n, q);
        he::detail::NegateModVec(got.data(), n, q);
        ASSERT_EQ(got, ref) << "negate " << name << " n=" << n << " q=" << q;

        ref = a;
        got = a;
        he::detail::MulModBarrettScalar(ref.data(), b.data(), n, m);
        he::detail::MulModBarrettVec(got.data(), b.data(), n, m);
        ASSERT_EQ(got, ref) << "mul " << name << " n=" << n << " q=" << q;
      }
    }
  }
}

TEST(SimdRnsDifferentialTest, BarrettMulAcceptsLazyInputs) {
  // MulModBarrett is documented for ANY 64-bit inputs (the full 128-bit
  // Barrett chain); fuzz with completely unreduced operands.
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x1A2B3C);
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t q = (rng.Next() % ((uint64_t{1} << 62) - 3)) | 1;
    if (q < 3) continue;
    const he::Modulus m(q);
    for (size_t n : {size_t{13}, size_t{64}, size_t{65}}) {
      std::vector<uint64_t> a(n), b(n);
      for (auto& v : a) v = rng.Next();
      for (auto& v : b) v = rng.Next();
      std::vector<uint64_t> ref = a;
      he::detail::MulModBarrettScalar(ref.data(), b.data(), n, m);
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        std::vector<uint64_t> got = a;
        he::detail::MulModBarrettVec(got.data(), b.data(), n, m);
        ASSERT_EQ(got, ref) << "lazy mul " << simd::IsaName(isa) << " n=" << n
                            << " q=" << q;
      }
    }
  }
}

// The primes of the default set ({50, 50}) and of the old one ({54, 54})
// at n = 4096.
std::vector<uint64_t> ParameterSetPrimes() {
  std::vector<uint64_t> primes;
  for (const std::vector<int>& bits :
       std::vector<std::vector<int>>{{50, 50}, {54, 54}}) {
    auto ctx = he::RnsContext::Create(4096, bits).ValueOrDie();
    primes.insert(primes.end(), ctx->primes().begin(), ctx->primes().end());
  }
  return primes;
}

TEST(SimdCrtDifferentialTest, ComposeBitIdenticalToScalar) {
  // Residues of chosen integers x in [0, Q): small values of both signs
  // around the 2^63 fast-path limit, the centring boundary floor(Q/2), and
  // uniform residue pairs (huge values, mostly the scalar fallback).
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xC47);
  for (const std::vector<int>& bits :
       std::vector<std::vector<int>>{{50, 50}, {54, 54}}) {
    auto ctx = he::RnsContext::Create(4096, bits).ValueOrDie();
    const uint64_t q0 = ctx->prime(0);
    const uint64_t q1 = ctx->prime(1);
    using U128 = unsigned __int128;
    const U128 big_q = static_cast<U128>(q0) * q1;
    std::vector<U128> xs = {0, 1, big_q - 1, big_q / 2, big_q / 2 + 1,
                            big_q / 2 - 1, big_q / 2 + 2};
    for (int k = 0; k <= 100; ++k) {
      const U128 p = static_cast<U128>(1) << k;
      for (const U128 mag : {p - 1, p, p + 1}) {
        if (mag == 0 || mag >= big_q / 2) continue;
        xs.push_back(mag);
        xs.push_back(big_q - mag);
      }
    }
    for (int j = 0; j < 64; ++j) {
      xs.push_back(static_cast<U128>(rng.NextBounded(q1)) * q0 +
                   rng.NextBounded(q0));
    }
    std::vector<uint64_t> r0, r1;
    for (U128 x : xs) {
      r0.push_back(static_cast<uint64_t>(x % q0));
      r1.push_back(static_cast<uint64_t>(x % q1));
    }
    for (size_t n : {r0.size(), size_t{7}, size_t{9}, size_t{17}}) {
      std::vector<double> ref(n);
      he::detail::ComposeCrtScalar(ref.data(), r0.data(), r1.data(), n, q0,
                                   ctx->modulus(1), ctx->crt_q0_inv_q1(),
                                   ctx->crt_q0_inv_q1_shoup());
      for (size_t i = 0; i < n; ++i) {
        // The scalar reference is the single-coefficient decode.
        he::RnsPoly one;
        one.residues = {{r0[i]}, {r1[i]}};
        ASSERT_EQ(std::bit_cast<uint64_t>(ref[i]),
                  std::bit_cast<uint64_t>(he::ComposeCoeffToDouble(*ctx, one, 0)));
      }
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        std::vector<double> got(n);
        he::detail::ComposeCrtVec(got.data(), r0.data(), r1.data(), n, q0,
                                  ctx->modulus(1), ctx->crt_q0_inv_q1(),
                                  ctx->crt_q0_inv_q1_shoup());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                    std::bit_cast<uint64_t>(ref[i]))
              << simd::IsaName(isa) << " bits=" << bits[0] << " i=" << i
              << " ref=" << ref[i] << " got=" << got[i];
        }
      }
    }
  }
}

// Wire words: n residues written at byte offset `shift` (0..7) of a buffer,
// as a blob places them.
struct WireWords {
  std::vector<uint8_t> bytes;
  size_t shift;

  WireWords(const std::vector<uint64_t>& words, size_t shift_bytes)
      : bytes(words.size() * 8 + 8, 0xA5), shift(shift_bytes) {
    for (size_t j = 0; j < words.size(); ++j) {
      he::detail::StoreWord(data() + 8 * j, words[j]);
    }
  }
  uint8_t* data() { return bytes.data() + shift; }
};

TEST(SimdWireDifferentialTest, MulAddBitIdenticalAndRangeChecked) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x4D41);
  for (uint64_t q : ParameterSetPrimes()) {
    for (size_t n : kRaggedSizes) {
      std::vector<uint64_t> a(n), b(n), w(n), w_shoup(n);
      for (size_t j = 0; j < n; ++j) {
        // Edge operands on the first lanes (lane 3: the largest product),
        // random after.
        const uint64_t edges[] = {0, 1, q - 1};
        a[j] = j < 3 ? edges[j] : rng.NextBounded(q);
        b[j] = j < 3 ? edges[2 - j] : rng.NextBounded(q);
        w[j] = j < 3 ? edges[2 - j] : rng.NextBounded(q);
        if (j == 3) a[j] = w[j] = q - 1;
        w_shoup[j] = he::ShoupPrecompute(w[j], q);
      }
      // One out-of-range word (in a, then in b) must fail the check on every
      // path; in range, the outputs must match byte for byte.
      for (int bad = -1; bad < 2 && (bad < 0 || n > 0); ++bad) {
        std::vector<uint64_t> a2 = a, b2 = b;
        if (bad == 0) a2[rng.NextBounded(n)] = q + rng.NextBounded(3);
        if (bad == 1) b2[rng.NextBounded(n)] = ~uint64_t{0} - rng.NextBounded(3);
        const size_t shift = rng.NextBounded(8);
        WireWords wa(a2, shift), wb(b2, (shift + 3) % 8);
        WireWords ref(std::vector<uint64_t>(n), (shift + 5) % 8);
        const bool ref_ok = he::detail::MulAddModShoupScalar(
            ref.data(), wa.data(), w.data(), w_shoup.data(), wb.data(), n, q);
        ASSERT_EQ(ref_ok, bad < 0) << "n=" << n << " q=" << q;
        // The Shoup product reduces fully, so it is the Barrett product.
        const he::Modulus m(q);
        for (size_t j = 0; bad < 0 && j < n; ++j) {
          ASSERT_EQ(he::detail::LoadWord(ref.data() + 8 * j),
                    he::AddMod(he::MulMod(a[j], w[j], m), b[j], q));
        }
        for (simd::Isa isa : isas) {
          IsaPin pin(isa);
          WireWords got(std::vector<uint64_t>(n), (shift + 5) % 8);
          EXPECT_EQ(he::detail::MulAddModShoupVec(got.data(), wa.data(),
                                                  w.data(), w_shoup.data(),
                                                  wb.data(), n, q),
                    ref_ok)
              << simd::IsaName(isa) << " n=" << n << " q=" << q;
          if (ref_ok) {
            ASSERT_EQ(got.bytes, ref.bytes)
                << simd::IsaName(isa) << " n=" << n << " q=" << q;
            // In place: dst aliases b, then a.
            WireWords into_b(b2, (shift + 3) % 8);
            he::detail::MulAddModShoupVec(into_b.data(), wa.data(), w.data(),
                                          w_shoup.data(), into_b.data(), n, q);
            ASSERT_TRUE(std::equal(into_b.data(), into_b.data() + 8 * n,
                                   ref.data()))
                << "into b " << simd::IsaName(isa) << " n=" << n;
            WireWords into_a(a2, shift);
            he::detail::MulAddModShoupVec(into_a.data(), into_a.data(),
                                          w.data(), w_shoup.data(), wb.data(),
                                          n, q);
            ASSERT_TRUE(std::equal(into_a.data(), into_a.data() + 8 * n,
                                   ref.data()))
                << "into a " << simd::IsaName(isa) << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(SimdWireDifferentialTest, SumBitIdenticalAndRangeChecked) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x5A4D);
  for (uint64_t q : ParameterSetPrimes()) {
    for (size_t count : {1, 2, 4, 5}) {
      for (size_t n : kRaggedSizes) {
        std::vector<WireWords> inputs;
        for (size_t i = 0; i < count; ++i) {
          std::vector<uint64_t> words(n);
          for (size_t j = 0; j < n; ++j) {
            words[j] = j == i ? q - 1 : rng.NextBounded(q);
          }
          inputs.emplace_back(words, rng.NextBounded(8));
        }
        const bool poison = n > 0 && rng.NextBounded(3) == 0;
        if (poison) {
          WireWords& victim = inputs[rng.NextBounded(count)];
          he::detail::StoreWord(victim.data() + 8 * rng.NextBounded(n),
                                q + rng.NextBounded(1u << 20));
        }
        std::vector<const uint8_t*> src;
        for (WireWords& in : inputs) src.push_back(in.data());
        WireWords ref(std::vector<uint64_t>(n), 3);
        ASSERT_EQ(he::detail::SumModScalar(ref.data(), src.data(), count, n, q),
                  !poison);
        for (simd::Isa isa : isas) {
          IsaPin pin(isa);
          WireWords got(std::vector<uint64_t>(n), 6);
          EXPECT_EQ(he::detail::SumModVec(got.data(), src.data(), count, n, q),
                    !poison)
              << simd::IsaName(isa) << " count=" << count << " n=" << n;
          if (poison) continue;
          ASSERT_TRUE(std::equal(got.data(), got.data() + 8 * n, ref.data()))
              << simd::IsaName(isa) << " count=" << count << " n=" << n;
          // In place: dst aliases src[0].
          WireWords first = inputs[0];
          std::vector<const uint8_t*> aliased = src;
          aliased[0] = first.data();
          he::detail::SumModVec(first.data(), aliased.data(), count, n, q);
          ASSERT_TRUE(std::equal(first.data(), first.data() + 8 * n, ref.data()))
              << "in place " << simd::IsaName(isa) << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdSamplerDifferentialTest, ResidueMapsBitIdentical) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x5A3B);
  auto ctx = he::RnsContext::Create(1024, {50, 54}).ValueOrDie();
  const uint64_t* primes = ctx->primes().data();
  for (double sigma : {3.2, 0.5, 19.0, 1e-6}) {
    const he::GaussianCdt noise = he::GaussianCdt::Create(sigma).ValueOrDie();
    for (size_t n : kRaggedSizes) {
      std::vector<uint64_t> words(n);
      for (uint64_t& w : words) w = rng.Next();
      // The extreme words (both magnitudes, both signs) and 0.
      const uint64_t edges[] = {0, 1, ~uint64_t{0}, ~uint64_t{1},
                                uint64_t{1} << 63, 3};
      for (size_t j = 0; j < std::min<size_t>(n, 6); ++j) {
        words[n - 1 - j] = edges[j];
      }
      std::vector<uint64_t> plus0(n), plus1(n);
      for (size_t j = 0; j < n; ++j) {
        plus0[j] = rng.NextBounded(primes[0]);
        plus1[j] = rng.NextBounded(primes[1]);
      }
      const uint64_t* add[2] = {plus0.data(), plus1.data()};
      std::vector<uint64_t> t0(n), t1(n), g0(n), g1(n), p0(n), p1(n);
      uint64_t* tern[2] = {t0.data(), t1.data()};
      uint64_t* gauss[2] = {g0.data(), g1.data()};
      uint64_t* sum[2] = {p0.data(), p1.data()};
      // A 0 word (planted for n > 0) is reported, on every path.
      const bool nonzero =
          he::detail::TernaryResiduesScalar(tern, primes, 2, words.data(), n);
      ASSERT_EQ(nonzero, n == 0);
      he::detail::CdtResiduesScalar(gauss, primes, 2, words.data(), n,
                                    noise.tables(), nullptr);
      he::detail::CdtResiduesScalar(sum, primes, 2, words.data(), n,
                                    noise.tables(), add);
      for (size_t j = 0; j < n; ++j) {
        const int64_t s = noise.Sample(words[j]);
        for (size_t i = 0; i < 2; ++i) {
          const uint64_t q = primes[i];
          const uint64_t r = s < 0 ? q - static_cast<uint64_t>(-s)
                                   : static_cast<uint64_t>(s);
          ASSERT_EQ(gauss[i][j], r) << "sigma=" << sigma << " j=" << j;
          ASSERT_EQ(sum[i][j], he::AddMod(r, add[i][j], q));
          const int64_t t = static_cast<int64_t>(words[j] % 3) - 1;
          ASSERT_EQ(tern[i][j], t < 0 ? q - 1 : static_cast<uint64_t>(t));
        }
      }
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        std::vector<uint64_t> v0(n), v1(n);
        uint64_t* dst[2] = {v0.data(), v1.data()};
        EXPECT_EQ(he::detail::TernaryResiduesVec(dst, primes, 2, words.data(), n),
                  nonzero);
        ASSERT_TRUE(v0 == t0 && v1 == t1)
            << "ternary " << simd::IsaName(isa) << " n=" << n;
        he::detail::CdtResiduesVec(dst, primes, 2, words.data(), n,
                                   noise.tables(), nullptr);
        ASSERT_TRUE(v0 == g0 && v1 == g1)
            << "cdt " << simd::IsaName(isa) << " sigma=" << sigma << " n=" << n;
        // With the addend, in place (add aliases dst), as encryption calls it.
        v0 = plus0;
        v1 = plus1;
        const uint64_t* self[2] = {v0.data(), v1.data()};
        he::detail::CdtResiduesVec(dst, primes, 2, words.data(), n,
                                   noise.tables(), self);
        ASSERT_TRUE(v0 == p0 && v1 == p1)
            << "cdt + m " << simd::IsaName(isa) << " sigma=" << sigma
            << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Double kernels

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdDoubleKernelTest, DotAndNormBitIdenticalToScalar) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xF00D);
  for (int trial = 0; trial < 30; ++trial) {
    for (size_t n : kRaggedSizes) {
      std::vector<double> a(n), b(n);
      for (auto& v : a) v = rng.Uniform(-100.0, 100.0);
      for (auto& v : b) v = rng.Uniform(-100.0, 100.0);
      const double norm_ref = ml::SquaredNormScalar(a.data(), n);
      const double dot_ref = ml::DotProductScalar(a.data(), b.data(), n);
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        EXPECT_TRUE(BitEqual(ml::SquaredNorm(a.data(), n), norm_ref))
            << "norm " << simd::IsaName(isa) << " n=" << n;
        EXPECT_TRUE(BitEqual(ml::DotProduct(a.data(), b.data(), n), dot_ref))
            << "dot " << simd::IsaName(isa) << " n=" << n;
      }
    }
  }
}

TEST(SimdDoubleKernelTest, ExtremeValuesStayBitIdentical) {
  // Denormals, ±DBL_MAX (products overflow to ±inf identically on both
  // paths), zeros of both signs, and ordinary magnitudes mixed together.
  const std::vector<simd::Isa> isas = VectorIsas();
  const double specials[] = {0.0,      -0.0,      DBL_MIN / 4,  -DBL_MIN / 2,
                             DBL_MAX,  -DBL_MAX,  DBL_EPSILON,  -1.5,
                             1e308,    -1e-308,   42.0,         -7.25};
  Rng rng(0xDE0);
  for (size_t n : {size_t{4}, size_t{7}, size_t{12}, size_t{33}}) {
    std::vector<double> a(n), b(n);
    for (size_t j = 0; j < n; ++j) {
      a[j] = specials[rng.NextBounded(12)];
      b[j] = specials[rng.NextBounded(12)];
    }
    const double norm_ref = ml::SquaredNormScalar(a.data(), n);
    const double dot_ref = ml::DotProductScalar(a.data(), b.data(), n);
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      EXPECT_TRUE(BitEqual(ml::SquaredNorm(a.data(), n), norm_ref))
          << "norm " << simd::IsaName(isa) << " n=" << n;
      EXPECT_TRUE(BitEqual(ml::DotProduct(a.data(), b.data(), n), dot_ref))
          << "dot " << simd::IsaName(isa) << " n=" << n;
    }
  }
}

TEST(SimdDoubleKernelTest, UnalignedStridesBitIdentical) {
  // Rows at every 8-byte (not 32-byte) offset: the kernels use unaligned
  // loads, so the result must not depend on pointer alignment.
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xA11);
  std::vector<double> pool(512);
  for (auto& v : pool) v = rng.Uniform(-10.0, 10.0);
  for (size_t off_a = 0; off_a < 8; ++off_a) {
    for (size_t off_b = 0; off_b < 4; ++off_b) {
      const size_t n = 67;  // ragged on purpose
      const double* a = pool.data() + off_a;
      const double* b = pool.data() + 128 + off_b;
      const double dot_ref = ml::DotProductScalar(a, b, n);
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        EXPECT_TRUE(BitEqual(ml::DotProduct(a, b, n), dot_ref))
            << simd::IsaName(isa) << " off_a=" << off_a << " off_b=" << off_b;
      }
    }
  }
}

// Independently-associated oracle: naive sequential sum of squared
// differences, deliberately NOT the norm-decomposed form.
double NaiveSquaredDistance(const double* q, const double* x, size_t n) {
  double acc = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double d = q[j] - x[j];
    acc += d * d;
  }
  return acc;
}

TEST(SimdDistanceKernelTest, BlockDistancesMatchScalarAndTolerateNaive) {
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0xD157);
  for (size_t cols : {size_t{3}, size_t{7}, size_t{12}, size_t{33}}) {
    // Odd column counts make every row after the first start unaligned in
    // the packed layout — the strided-rows case of the contract.
    data::Dataset data(40, cols, 2);
    for (size_t i = 0; i < 40; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        data.Set(i, j, rng.Uniform(-5.0, 5.0));
      }
    }
    std::vector<size_t> columns(cols);
    for (size_t j = 0; j < cols; ++j) columns[j] = j;
    const ml::FeatureBlock block(data, columns);
    std::vector<double> query(cols);
    for (auto& v : query) v = rng.Uniform(-5.0, 5.0);
    const double q_norm = ml::SquaredNormScalar(query.data(), cols);

    std::vector<double> ref(40), got(40);
    ml::BlockSquaredDistancesScalar(block, query.data(), q_norm, 0, 40,
                                    ref.data());
    for (simd::Isa isa : isas) {
      IsaPin pin(isa);
      ml::BlockSquaredDistances(block, query.data(), q_norm, 0, 40,
                                got.data());
      for (size_t i = 0; i < 40; ++i) {
        EXPECT_TRUE(BitEqual(got[i], ref[i]))
            << simd::IsaName(isa) << " cols=" << cols << " row=" << i;
      }
    }
    // Documented cross-formulation contract: 1e-9 relative tolerance against
    // the naive association for well-scaled doubles.
    for (size_t i = 0; i < 40; ++i) {
      const double naive = NaiveSquaredDistance(query.data(), block.row(i),
                                                cols);
      const double scale = std::max({1.0, std::abs(naive), std::abs(ref[i])});
      EXPECT_LE(std::abs(ref[i] - naive) / scale, 1e-9)
          << "cols=" << cols << " row=" << i;
    }
  }
}

TEST(SimdDistanceKernelTest, IntegerGridsAreExactAcrossFormulations) {
  // Products of small integers are exactly representable, so the
  // norm-decomposed kernel, the naive oracle, and every ISA agree exactly.
  const std::vector<simd::Isa> isas = VectorIsas();
  Rng rng(0x6121D);
  const size_t cols = 9, rows = 25;
  data::Dataset data(rows, cols, 2);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      data.Set(i, j, static_cast<double>(rng.NextBounded(41)) - 20.0);
    }
  }
  std::vector<size_t> columns(cols);
  for (size_t j = 0; j < cols; ++j) columns[j] = j;
  const ml::FeatureBlock block(data, columns);
  std::vector<double> query(cols);
  for (auto& v : query) {
    v = static_cast<double>(rng.NextBounded(41)) - 20.0;
  }
  const double q_norm = ml::SquaredNormScalar(query.data(), cols);
  std::vector<double> out(rows);
  for (simd::Isa isa : isas) {
    IsaPin pin(isa);
    ml::BlockSquaredDistances(block, query.data(), q_norm, 0, rows,
                              out.data());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(out[i], NaiveSquaredDistance(query.data(), block.row(i), cols))
          << simd::IsaName(isa) << " row=" << i;
    }
  }
}

// NaN results are compared as NaN: which NaN a sum of two NaNs carries
// depends on the operand order the compiler gives a commutative add, which
// no contract fixes. Every other result must match bit for bit.
bool SameResult(double got, double want) {
  return BitEqual(got, want) || (std::isnan(got) && std::isnan(want));
}

TEST(SimdDistanceKernelTest, EveryWidthAndRangeBitIdentical) {
  // Every column count 1-16 (the AVX-512 narrow-block kernel takes 1-7, the
  // 4-wide kernels the rest), over [begin, end) ranges whose start and
  // length are not multiples of 4 or 8, on random rows and on rows mixing
  // ±0, subnormals, ±DBL_MAX (whose products overflow to ±inf), ±inf and
  // NaN with ordinary values.
  const std::vector<simd::Isa> isas = VectorIsas();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,     -0.0,     DBL_MIN / 4, -DBL_MIN / 2,
                             DBL_MAX, -DBL_MAX, kInf,        -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             DBL_EPSILON, -1.5, 42.0};
  constexpr size_t kRows = 61;
  const std::pair<size_t, size_t> ranges[] = {
      {0, kRows}, {1, kRows}, {3, 60}, {5, 18}, {13, 14}, {9, 28}, {33, 58}};
  Rng rng(0x5EED);
  for (size_t cols = 1; cols <= 16; ++cols) {
    for (bool extreme : {false, true}) {
      const auto draw = [&] {
        return extreme && rng.Bernoulli(0.5) ? specials[rng.NextBounded(12)]
                                             : rng.Uniform(-5.0, 5.0);
      };
      data::Dataset data(kRows, cols, 2);
      for (size_t i = 0; i < kRows; ++i) {
        for (size_t j = 0; j < cols; ++j) data.Set(i, j, draw());
      }
      std::vector<size_t> columns(cols);
      for (size_t j = 0; j < cols; ++j) columns[j] = j;
      const ml::FeatureBlock block(data, columns);
      std::vector<double> query(cols);
      for (double& v : query) v = draw();
      const double q_norm = ml::SquaredNormScalar(query.data(), cols);
      for (const auto& [begin, end] : ranges) {
        std::vector<double> ref(end - begin), got(end - begin);
        ml::BlockSquaredDistancesScalar(block, query.data(), q_norm, begin,
                                        end, ref.data());
        for (simd::Isa isa : isas) {
          IsaPin pin(isa);
          ml::BlockSquaredDistances(block, query.data(), q_norm, begin, end,
                                    got.data());
          for (size_t i = 0; i < ref.size(); ++i) {
            EXPECT_TRUE(SameResult(got[i], ref[i]))
                << simd::IsaName(isa) << " cols=" << cols
                << (extreme ? " extreme" : "") << " rows [" << begin << ", "
                << end << ") row=" << begin + i << ": " << got[i] << " vs "
                << ref[i];
          }
        }
      }
    }
  }
}

TEST(SimdDistanceKernelTest, SmallestKClampsAndIgnoresIsa) {
  const std::vector<double> values = {3.0, 1.0, 4.0, 1.0, 5.0};
  // k >= N clamps to N; ties break by lower index (1 before 3).
  const std::vector<uint64_t> expect = {1, 3, 0, 2, 4};
  EXPECT_EQ(ml::SmallestK(values, 99), expect);
  EXPECT_EQ(ml::SmallestK(values, 5), expect);
  for (simd::Isa isa : VectorIsas()) {
    IsaPin pin(isa);
    EXPECT_EQ(ml::SmallestK(values, 99), expect) << simd::IsaName(isa);
  }
}

// ---------------------------------------------------------------------------
// 3b. Lazy ranking passes

// Every ISA the ranking can run on here, the scalar reference included.
std::vector<simd::Isa> AllIsas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  for (simd::Isa isa : VectorIsas()) isas.push_back(isa);
  return isas;
}

// Builds one list from the first `known` ranks of `reference`, reads rank
// `first` first (the read that sizes the first scatter), then every rank in
// order, each against `reference` (SortedOrder of `scores`).
void ExpectLazyReadsEqual(const std::vector<double>& scores,
                          const std::vector<uint64_t>& reference, size_t known,
                          size_t first, const std::string& label) {
  auto set = topk::RankedListSet::BuildPresorted(
      std::vector<std::vector<double>>{scores},
      {std::vector<uint64_t>(reference.begin(), reference.begin() + known)});
  ASSERT_TRUE(set.ok()) << label;
  ASSERT_EQ(set->IdAtRank(0, first), reference[first])
      << label << " first read";
  for (size_t r = 0; r < scores.size(); ++r) {
    ASSERT_EQ(set->IdAtRank(0, r), reference[r]) << label << " rank=" << r;
  }
}

// n scores of one of three kinds: a small alphabet with -0.0/+0.0 ties and
// ±inf; consecutive doubles (keys one apart, so keys fall on every window
// and bucket bound); distance-like values with a few ties, zeros of both
// signs and +inf.
std::vector<double> RankingScores(size_t n, int kind, Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0: {
        const double alphabet[] = {-kInf, -2.5, -0.0, 0.0, 1.0, 3.5, kInf};
        scores[i] = alphabet[rng->NextBounded(7)];
        break;
      }
      case 1:
        scores[i] = std::bit_cast<double>(std::bit_cast<uint64_t>(1.0) +
                                          rng->NextBounded(n));
        break;
      default: {
        double d = 0.0;
        for (int c = 0; c < 3; ++c) d += std::pow(rng->Normal(), 2);
        scores[i] = d;
      }
    }
  }
  if (kind == 2) {
    for (size_t i = 0; i < n / 50 + 1; ++i) {
      scores[rng->NextBounded(n)] = scores[rng->NextBounded(n)];
      scores[rng->NextBounded(n)] = rng->Bernoulli(0.5) ? 0.0 : -0.0;
    }
    scores[rng->NextBounded(n)] = kInf;
  }
  return scores;
}

TEST(SimdRankingDifferentialTest, LazyReadsEqualSortedOrderOnEveryIsa) {
  // The key-and-count pass and the window collection run at vector width
  // on AVX-512. On every ISA, every rank read equals SortedOrder's: lists
  // of 1-40 items, read first at every depth, from known prefixes of every
  // length (so a prefix ends at every lane of a vector); and 16,000 items
  // read first at depths around the window bounds, from short and long
  // prefixes.
  Rng rng(0x2A4C);
  for (size_t n = 1; n <= 40; ++n) {
    for (int kind = 0; kind < 3; ++kind) {
      const std::vector<double> scores = RankingScores(n, kind, &rng);
      const std::vector<uint64_t> reference =
          topk::RankedListSet::SortedOrder(scores);
      for (simd::Isa isa : AllIsas()) {
        IsaPin pin(isa);
        for (size_t known = 0; known <= n; ++known) {
          for (size_t first = 0; first < n; ++first) {
            ExpectLazyReadsEqual(
                scores, reference, known, first,
                std::string(simd::IsaName(isa)) + " n=" + std::to_string(n) +
                    " kind=" + std::to_string(kind) +
                    " known=" + std::to_string(known) +
                    " first=" + std::to_string(first));
          }
        }
      }
    }
  }
  constexpr size_t kLong = 16000;
  for (int kind = 0; kind < 3; ++kind) {
    const std::vector<double> scores = RankingScores(kLong, kind, &rng);
    const std::vector<uint64_t> reference =
        topk::RankedListSet::SortedOrder(scores);
    for (simd::Isa isa : AllIsas()) {
      IsaPin pin(isa);
      for (size_t known : {0, 1, 13, 1003, 2953}) {
        for (size_t first : {0, 7, 999, 1000, 1001, 2952, 4000, 15999}) {
          ExpectLazyReadsEqual(scores, reference, known, first,
                               std::string(simd::IsaName(isa)) +
                                   " n=16000 kind=" + std::to_string(kind) +
                                   " known=" + std::to_string(known) +
                                   " first=" + std::to_string(first));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Environment override

TEST(SimdDispatchTest, ForceScalarEnvPinsResolveIsa) {
  // ResolveIsa reads the environment on every call, so the override is
  // testable in-process. ActiveIsa() caching is separate (SetActiveIsa).
  ASSERT_EQ(setenv("VFPS_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::Isa::kScalar);
  ASSERT_EQ(setenv("VFPS_FORCE_SCALAR", "0", 1), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::DetectCpuIsa());
  ASSERT_EQ(setenv("VFPS_FORCE_SCALAR", "", 1), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::DetectCpuIsa());
  ASSERT_EQ(unsetenv("VFPS_FORCE_SCALAR"), 0);
  EXPECT_EQ(simd::ResolveIsa(), simd::DetectCpuIsa());
}

TEST(SimdDispatchTest, SetActiveIsaClampsToHost) {
  const simd::Isa widest = simd::DetectCpuIsa();
  const simd::Isa prev = simd::ActiveIsa();
  EXPECT_EQ(simd::SetActiveIsa(simd::Isa::kAvx512),
            std::min(simd::Isa::kAvx512, widest));
  EXPECT_EQ(simd::SetActiveIsa(simd::Isa::kScalar), simd::Isa::kScalar);
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  simd::SetActiveIsa(prev);
}

// ---------------------------------------------------------------------------
// 5. End-to-end: forced-scalar selection == dispatched selection

struct Deployment {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Deployment Make() {
    Deployment d;
    data::SyntheticConfig config;
    config.num_samples = 400;
    config.num_features = 12;
    config.num_informative = 6;
    config.num_redundant = 3;
    config.seed = 31;
    auto generated = data::GenerateClassification(config);
    d.split = data::SplitDataset(generated->data, 0.8, 0.1, 5).MoveValueUnsafe();
    data::StandardizeSplit(&d.split).Abort("standardize");
    d.partition =
        data::RandomVerticalPartition(config.num_features, 4, 9).MoveValueUnsafe();
    // CKKS with the default packed (slot-batched) encoding — the path whose
    // NTT, encode and key-product loops the SIMD backends vectorize.
    he::CkksParams params;
    params.poly_degree = 1024;
    d.backend = he::CreateCkksBackend(params, 123).MoveValueUnsafe();
    return d;
  }
};

struct E2eArtifacts {
  core::SelectionOutcome outcome;
  std::vector<uint8_t> checkpoint_bytes;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

E2eArtifacts RunSelection(simd::Isa isa, vfl::KnnOracleMode mode,
                          size_t threads,
                          const net::FaultSpec* faults = nullptr) {
  IsaPin pin(isa);
  Deployment d = Deployment::Make();
  if (faults != nullptr) d.network.EnableFaults(*faults, 5, &d.clock);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  obs::MetricsRegistry obs;
  core::SelectionCheckpoint ckp;
  core::SelectionContext ctx;
  ctx.split = &d.split;
  ctx.partition = &d.partition;
  ctx.backend = d.backend.get();
  ctx.network = &d.network;
  ctx.cost = &d.cost;
  ctx.clock = &d.clock;
  ctx.pool = pool.get();
  ctx.obs = &obs;
  ctx.checkpoint = &ckp;
  ctx.knn.k = 6;
  ctx.knn.num_queries = 8;
  ctx.seed = 11;
  core::VfpsSmSelector selector(mode);
  auto outcome = selector.Select(ctx, 2);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  E2eArtifacts out;
  if (outcome.ok()) out.outcome = outcome.MoveValueUnsafe();
  out.checkpoint_bytes = ckp.Serialize();
  out.counters = obs.CounterEntries();
  return out;
}

TEST(SimdEndToEndTest, ForcedScalarSelectionEqualsDispatched) {
  if (VectorIsas().empty()) {
    GTEST_SKIP() << "no vector backend on this host";
  }
  const simd::Isa dispatched = simd::DetectCpuIsa();
  for (vfl::KnnOracleMode mode :
       {vfl::KnnOracleMode::kBase, vfl::KnnOracleMode::kFagin}) {
    // Scalar baseline at one thread; every (isa, threads) cell must match.
    const E2eArtifacts ref = RunSelection(simd::Isa::kScalar, mode, 1);
    ASSERT_FALSE(ref.outcome.selected.empty());
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      const E2eArtifacts got = RunSelection(dispatched, mode, threads);
      const char* label = mode == vfl::KnnOracleMode::kBase ? "base" : "fagin";
      EXPECT_EQ(got.outcome.selected, ref.outcome.selected)
          << label << " threads=" << threads;
      EXPECT_EQ(got.outcome.scores, ref.outcome.scores)
          << label << " threads=" << threads;
      EXPECT_EQ(got.outcome.quarantined, ref.outcome.quarantined)
          << label << " threads=" << threads;
      EXPECT_EQ(got.checkpoint_bytes, ref.checkpoint_bytes)
          << label << " threads=" << threads;
      EXPECT_EQ(got.counters, ref.counters)
          << label << " threads=" << threads;
    }
  }
}

TEST(SimdEndToEndTest, FaultPlanSelectionEqualsDispatched) {
  if (VectorIsas().empty()) {
    GTEST_SKIP() << "no vector backend on this host";
  }
  // A leave mid-oracle plus drops and corruptions: the reliable channel
  // frames, verifies and discards messages, and the cache repairs.
  auto faults = net::ParseFaultSpec("leave=3@2,drop=0.02,corrupt=0.02");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  const E2eArtifacts ref =
      RunSelection(simd::Isa::kScalar, vfl::KnnOracleMode::kFagin, 1, &*faults);
  ASSERT_EQ(ref.outcome.quarantined, std::vector<size_t>{3});
  const auto discards = std::find_if(
      ref.counters.begin(), ref.counters.end(),
      [](const auto& entry) { return entry.first == "net.chan.discards"; });
  ASSERT_NE(discards, ref.counters.end());
  ASSERT_GT(discards->second, 0u) << "no corrupted frame was rejected";
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const E2eArtifacts got = RunSelection(
        simd::DetectCpuIsa(), vfl::KnnOracleMode::kFagin, threads, &*faults);
    EXPECT_EQ(got.outcome.selected, ref.outcome.selected) << threads;
    EXPECT_EQ(got.outcome.scores, ref.outcome.scores) << threads;
    EXPECT_EQ(got.outcome.quarantined, ref.outcome.quarantined) << threads;
    EXPECT_EQ(got.checkpoint_bytes, ref.checkpoint_bytes) << threads;
    EXPECT_EQ(got.counters, ref.counters) << threads;
  }
}

// ---------------------------------------------------------------------------
// 7. CKKS coefficient encoder

struct EncodeCase {
  std::vector<double> values;
  double scale;
};

// Values past the first vector of every backend (4 and 8 lanes) and a
// ragged tail, at the production scale unless a case needs another.
std::vector<EncodeCase> EncodeCases(size_t n, double scale, double bound) {
  std::vector<EncodeCase> cases;
  Rng rng(0xC0DE + n);
  std::vector<double> uniform(n);
  for (double& v : uniform) v = rng.Uniform(-100.0, 100.0);
  cases.push_back({uniform, scale});
  // Ragged: every length around the 4- and 8-lane vectors.
  for (size_t len : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{9},
                     size_t{13}, n / 3 + 1, n - 1}) {
    cases.push_back({std::vector<double>(uniform.begin(),
                                         uniform.begin() + std::min(len, n)),
                     scale});
  }
  // Products up to just under the bound: most are integers above 2^52,
  // where rounding must leave them alone, mixed in one vector with small
  // ones (the AVX-512 small-quotient path takes whole vectors below 2^52).
  std::vector<double> wide(n);
  for (size_t j = 0; j < n; ++j) {
    wide[j] = rng.Uniform(-1.0, 1.0) * (j % 3 == 0 ? 1e-9 : 0.999);
  }
  cases.push_back({wide, bound});
  // Signed zeros and denormals round to zero.
  std::vector<double> tiny(n);
  for (size_t j = 0; j < n; ++j) {
    const double mags[] = {0.0, 4.9e-324, 2.2e-310, 1e-300};
    tiny[j] = (j % 2 == 0 ? 1.0 : -1.0) * mags[j % 4];
  }
  cases.push_back({tiny, scale});
  // Ties round away from zero; the largest double below the bound.
  std::vector<double> ties(n);
  for (size_t j = 0; j < n; ++j) {
    ties[j] = (j % 2 == 0 ? 1.0 : -1.0) * (static_cast<double>(j % 7) + 0.5);
  }
  ties[n - 1] = std::nextafter(bound, 0.0);
  cases.push_back({ties, 1.0});
  return cases;
}

struct RoundResult {
  size_t done;
  std::vector<std::vector<uint64_t>> residues;  // the first `done` of each
};

RoundResult RunRoundAndReduce(const he::RnsContext& ctx, const EncodeCase& c,
                              double bound, bool vec) {
  const size_t primes = ctx.num_primes();
  std::vector<std::vector<uint64_t>> out(primes,
                                         std::vector<uint64_t>(c.values.size()));
  uint64_t* dst[he::detail::kMaxPrimes] = {};
  he::Modulus moduli[he::detail::kMaxPrimes];
  for (size_t i = 0; i < primes; ++i) {
    dst[i] = out[i].data();
    moduli[i] = ctx.modulus(i);
  }
  const auto kernel = vec ? he::detail::RoundAndReduceVec
                          : he::detail::RoundAndReduceScalar;
  const size_t done = kernel(dst, moduli, primes, c.values.data(),
                             c.values.size(), c.scale, bound);
  for (auto& residue : out) residue.resize(std::min(done, residue.size()));
  return {done, out};
}

TEST(SimdEncoderDifferentialTest, EncodeAndDecodeBitIdenticalAcrossIsas) {
  const std::vector<simd::Isa> isas = VectorIsas();
  // The kernel, at the bound each prime set gets (min(2^62, Q/2)).
  for (const std::vector<int>& bits :
       std::vector<std::vector<int>>{{50, 50}, {54, 54}, {30}}) {
    auto ctx = he::RnsContext::Create(4096, bits).ValueOrDie();
    const double bound = bits.size() == 2
                             ? std::ldexp(1.0, 62)
                             : std::floor(static_cast<double>(ctx->prime(0)) / 2);
    const double scale = bits.size() == 2 ? std::ldexp(1.0, 40) : 1024.0;
    for (const EncodeCase& c : EncodeCases(4096, scale, bound)) {
      const RoundResult ref = RunRoundAndReduce(*ctx, c, bound, false);
      ASSERT_EQ(ref.done, c.values.size()) << "bits=" << bits[0];
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        const RoundResult got = RunRoundAndReduce(*ctx, c, bound, true);
        EXPECT_EQ(got.done, ref.done) << simd::IsaName(isa);
        EXPECT_TRUE(got.residues == ref.residues)
            << simd::IsaName(isa) << " bits=" << bits[0]
            << " len=" << c.values.size();
      }
    }
  }
  // End to end: Encode (round-and-reduce, the tail mask and the NTT) and
  // Decode (inverse NTT, CRT, over the scale) at every ring degree.
  for (size_t n : {size_t{8}, size_t{16}, size_t{32}, size_t{1024},
                   size_t{4096}}) {
    he::CkksParams params;
    params.poly_degree = n;
    auto ctx = he::CkksContext::Create(params).ValueOrDie();
    for (const EncodeCase& c :
         EncodeCases(n, params.scale, std::ldexp(1.0, 62))) {
      std::vector<std::vector<uint64_t>> ref_residues;
      std::vector<uint64_t> ref_decoded;
      const auto run = [&](std::vector<std::vector<uint64_t>>* residues,
                           std::vector<uint64_t>* decoded) {
        const he::RnsPoly pt = ctx->Encode(c.values, c.scale).ValueOrDie();
        *residues = pt.residues;
        decoded->clear();
        for (double v : ctx->Decode(pt, c.scale, n).ValueOrDie()) {
          decoded->push_back(std::bit_cast<uint64_t>(v));
        }
      };
      {
        IsaPin pin(simd::Isa::kScalar);
        run(&ref_residues, &ref_decoded);
      }
      for (simd::Isa isa : isas) {
        IsaPin pin(isa);
        std::vector<std::vector<uint64_t>> residues;
        std::vector<uint64_t> decoded;
        run(&residues, &decoded);
        EXPECT_TRUE(residues == ref_residues) << simd::IsaName(isa) << " n=" << n;
        EXPECT_EQ(decoded, ref_decoded) << simd::IsaName(isa) << " n=" << n;
      }
    }
  }
}

TEST(SimdEncoderDifferentialTest, OverflowPastTheFirstVectorFailsAlike) {
  // Bad values at lanes past the first vector of every backend, after
  // whole vectors the backends have already written: each must stop every
  // ISA at the same index, having written the same residues before it.
  he::CkksParams params;
  params.poly_degree = 1024;
  auto ctx = he::CkksContext::Create(params).ValueOrDie();
  const double bound = std::ldexp(1.0, 62);
  const double over = bound / params.scale;
  for (double bad : {over, -over, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (size_t at : {size_t{9}, size_t{17}, size_t{38}, size_t{1023}}) {
      EncodeCase c{std::vector<double>(1024), params.scale};
      Rng rng(at);
      for (double& v : c.values) v = rng.Uniform(-100.0, 100.0);
      c.values[at] = bad;
      const RoundResult ref = RunRoundAndReduce(ctx->rns(), c, bound, false);
      ASSERT_EQ(ref.done, at) << bad;
      std::string ref_error;
      {
        IsaPin pin(simd::Isa::kScalar);
        ref_error = ctx->Encode(c.values, c.scale).status().ToString();
      }
      EXPECT_EQ(ref_error.rfind("Out of range", 0), 0u) << ref_error;
      for (simd::Isa isa : VectorIsas()) {
        IsaPin pin(isa);
        const RoundResult got = RunRoundAndReduce(ctx->rns(), c, bound, true);
        EXPECT_EQ(got.done, at) << simd::IsaName(isa) << " " << bad;
        EXPECT_TRUE(got.residues == ref.residues) << simd::IsaName(isa);
        EXPECT_EQ(ctx->Encode(c.values, c.scale).status().ToString(), ref_error)
            << simd::IsaName(isa);
      }
    }
  }
}

}  // namespace
}  // namespace vfps
