// Differential tests for the performance kernels added by the kernel-level
// perf pass: Shoup/Barrett modular multiplication vs the __uint128_t
// reference, the lazy-reduction NTT vs a naive O(n^2) negacyclic transform,
// the blocked norm-decomposed distance kernel vs the scalar loop, and the
// bounded-heap SmallestK vs partial_sort.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "he/modarith.h"
#include "he/ntt.h"
#include "ml/kernels.h"

namespace vfps {
namespace {

uint64_t RefMulMod(uint64_t a, uint64_t b, uint64_t q) {
  return static_cast<uint64_t>((static_cast<__uint128_t>(a) * b) % q);
}

// ---------------------------------------------------------------------------
// Barrett / Shoup vs the __uint128_t reference
// ---------------------------------------------------------------------------

TEST(ModArithFuzz, BarrettMulModMatchesU128AcrossModuli) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    // Random moduli spanning the full supported range [2, 2^62), prime or
    // not (Barrett needs no structure).
    const int bits = 2 + static_cast<int>(rng.NextBounded(60));
    uint64_t q = (uint64_t{1} << bits) | rng.NextBounded(uint64_t{1} << bits);
    if (q < 2) q = 2;
    const he::Modulus m(q);
    for (int i = 0; i < 200; ++i) {
      const uint64_t a = rng.NextBounded(q);
      const uint64_t b = rng.NextBounded(q);
      ASSERT_EQ(he::MulMod(a, b, m), RefMulMod(a, b, q))
          << "q=" << q << " a=" << a << " b=" << b;
    }
  }
}

TEST(ModArithFuzz, BarrettReduce128MatchesU128) {
  Rng rng(102);
  for (int trial = 0; trial < 200; ++trial) {
    const int bits = 2 + static_cast<int>(rng.NextBounded(60));
    uint64_t q = (uint64_t{1} << bits) | rng.NextBounded(uint64_t{1} << bits);
    if (q < 2) q = 2;
    const he::Modulus m(q);
    for (int i = 0; i < 200; ++i) {
      const uint64_t lo = rng.Next();
      const uint64_t hi = rng.Next();
      const unsigned __int128 z =
          (static_cast<unsigned __int128>(hi) << 64) | lo;
      ASSERT_EQ(he::BarrettReduce128(lo, hi, m),
                static_cast<uint64_t>(z % q))
          << "q=" << q << " hi=" << hi << " lo=" << lo;
    }
  }
}

TEST(ModArithFuzz, BarrettReduce64MatchesU64) {
  Rng rng(103);
  for (int trial = 0; trial < 200; ++trial) {
    const int bits = 2 + static_cast<int>(rng.NextBounded(60));
    uint64_t q = (uint64_t{1} << bits) | rng.NextBounded(uint64_t{1} << bits);
    if (q < 2) q = 2;
    const he::Modulus m(q);
    for (int i = 0; i < 200; ++i) {
      const uint64_t a = rng.Next();
      ASSERT_EQ(he::BarrettReduce64(a, m), a % q) << "q=" << q << " a=" << a;
    }
  }
}

TEST(ModArithFuzz, ShoupMulMatchesU128AndLazyBoundHolds) {
  Rng rng(104);
  for (int trial = 0; trial < 200; ++trial) {
    const int bits = 2 + static_cast<int>(rng.NextBounded(60));
    uint64_t q = (uint64_t{1} << bits) | rng.NextBounded(uint64_t{1} << bits);
    if (q < 2) q = 2;
    for (int i = 0; i < 100; ++i) {
      const uint64_t w = rng.NextBounded(q);
      const uint64_t ws = he::ShoupPrecompute(w, q);
      // Lazy variant is specified for ANY 64-bit a (the NTT feeds it values
      // in [0, 4q)): result < 2q and congruent to a*w.
      const uint64_t a_any = rng.Next();
      const uint64_t lazy = he::MulModShoupLazy(a_any, w, ws, q);
      ASSERT_LT(lazy, 2 * q) << "q=" << q << " a=" << a_any << " w=" << w;
      ASSERT_EQ(lazy % q, RefMulMod(a_any, w, q));
      // Full variant is exactly the reference.
      const uint64_t a = rng.NextBounded(q);
      ASSERT_EQ(he::MulModShoup(a, w, he::ShoupPrecompute(w, q), q),
                RefMulMod(a, w, q));
    }
  }
}

// ---------------------------------------------------------------------------
// NTT vs a naive O(n^2) negacyclic reference transform
// ---------------------------------------------------------------------------

class NttKernelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(NttKernelTest, ForwardInverseRoundTripIsExact) {
  const size_t n = GetParam();
  auto prime = he::GeneratePrime(50, 2 * n);
  ASSERT_TRUE(prime.ok());
  auto tables = he::NttTables::Create(n, *prime);
  ASSERT_TRUE(tables.ok());
  Rng rng(7);
  std::vector<uint64_t> poly(n);
  for (auto& v : poly) v = rng.NextBounded(*prime);
  std::vector<uint64_t> copy = poly;
  tables->Forward(copy.data());
  tables->Inverse(copy.data());
  EXPECT_EQ(copy, poly);
  // Outputs of both directions are fully reduced.
  tables->Forward(copy.data());
  for (uint64_t v : copy) EXPECT_LT(v, *prime);
}

TEST_P(NttKernelTest, ForwardMatchesNaiveNegacyclicTransform) {
  const size_t n = GetParam();
  auto prime = he::GeneratePrime(50, 2 * n);
  ASSERT_TRUE(prime.ok());
  auto tables = he::NttTables::Create(n, *prime);
  ASSERT_TRUE(tables.ok());
  const uint64_t q = *prime;
  const uint64_t psi = tables->psi();
  Rng rng(8);
  std::vector<uint64_t> poly(n);
  for (auto& v : poly) v = rng.NextBounded(q);

  // Naive negacyclic DFT: E_k = sum_j a_j psi^{(2k+1) j} mod q. The in-place
  // Cooley-Tukey transform (natural input, bit-reversed twiddles) emits
  // evaluation k at output index bit_rev(k).
  std::vector<uint64_t> expected(n);
  const auto& rev = tables->bit_rev();
  for (size_t k = 0; k < n; ++k) {
    const uint64_t base = he::PowMod(psi, 2 * k + 1, q);
    uint64_t acc = 0;
    uint64_t power = 1;  // psi^{(2k+1) j}
    for (size_t j = 0; j < n; ++j) {
      acc = he::AddMod(acc, he::MulMod(poly[j], power, q), q);
      power = he::MulMod(power, base, q);
    }
    expected[rev[k]] = acc;
  }

  tables->Forward(poly.data());
  EXPECT_EQ(poly, expected);
}

TEST_P(NttKernelTest, BitReversalTableIsAnInvolution) {
  const size_t n = GetParam();
  auto prime = he::GeneratePrime(50, 2 * n);
  ASSERT_TRUE(prime.ok());
  auto tables = he::NttTables::Create(n, *prime);
  ASSERT_TRUE(tables.ok());
  const auto& rev = tables->bit_rev();
  ASSERT_EQ(rev.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_LT(rev[i], n);
    EXPECT_EQ(rev[rev[i]], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttKernelTest,
                         ::testing::Values(size_t{8}, size_t{64}, size_t{256}));

TEST(NttKernelTest, RejectsModulusAtOrAbove2To62) {
  // 2^62 + 2^17 + 1 is irrelevant — any q >= 2^62 must be rejected before
  // the lazy arithmetic can overflow.
  auto tables = he::NttTables::Create(8, (uint64_t{1} << 62) + 16 + 1);
  EXPECT_FALSE(tables.ok());
}

// ---------------------------------------------------------------------------
// Blocked distance kernel vs the scalar loop
// ---------------------------------------------------------------------------

double ScalarSquaredDistance(const double* a, const double* b, size_t n) {
  double d = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double diff = a[j] - b[j];
    d += diff * diff;
  }
  return d;
}

data::Dataset RandomDataset(size_t rows, size_t cols, Rng* rng, bool integer) {
  data::Dataset data(rows, cols, 2);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      data.Set(i, j,
               integer ? static_cast<double>(
                             static_cast<int64_t>(rng->NextBounded(17)) - 8)
                       : rng->Uniform(-10.0, 10.0));
    }
  }
  return data;
}

TEST(DistanceKernel, ExactOnIntegerGrid) {
  Rng rng(11);
  const data::Dataset data = RandomDataset(257, 12, &rng, /*integer=*/true);
  const std::vector<size_t> columns = {1, 3, 4, 7, 10};
  const ml::FeatureBlock block(data, columns);
  ASSERT_FALSE(block.aliases_dataset());
  std::vector<double> qslice(columns.size());
  std::vector<double> out(data.num_samples());
  for (size_t qi : {size_t{0}, size_t{100}, size_t{256}}) {
    block.GatherInto(data.Row(qi), qslice.data());
    const double q_norm = ml::SquaredNorm(qslice.data(), qslice.size());
    ml::BlockSquaredDistances(block, qslice.data(), q_norm, 0,
                              data.num_samples(), out.data());
    for (size_t i = 0; i < data.num_samples(); ++i) {
      double expected = 0.0;
      for (size_t c : columns) {
        const double diff = data.At(qi, c) - data.At(i, c);
        expected += diff * diff;
      }
      // Integer-grid inputs: every product is exactly representable, so the
      // norm decomposition is EXACT, not merely close.
      ASSERT_EQ(out[i], expected) << "query " << qi << " row " << i;
    }
  }
}

TEST(DistanceKernel, MatchesScalarLoopWithinRelTolOnRandomDoubles) {
  Rng rng(12);
  const data::Dataset data = RandomDataset(513, 16, &rng, /*integer=*/false);
  const ml::FeatureBlock block(data);  // all columns -> zero-copy view
  ASSERT_TRUE(block.aliases_dataset());
  std::vector<double> out(data.num_samples());
  for (size_t qi : {size_t{0}, size_t{17}, size_t{512}}) {
    const double* qrow = data.Row(qi);
    const double q_norm = ml::SquaredNorm(qrow, data.num_features());
    ml::BlockSquaredDistances(block, qrow, q_norm, 0, data.num_samples(),
                              out.data());
    for (size_t i = 0; i < data.num_samples(); ++i) {
      const double expected =
          ScalarSquaredDistance(qrow, data.Row(i), data.num_features());
      // Relative to the decomposition's natural magnitude ||q||^2 + ||x||^2
      // (the distance itself can cancel to ~0 for near-identical rows).
      const double magnitude =
          q_norm + block.row_norm(i) + std::numeric_limits<double>::min();
      ASSERT_NEAR(out[i] / magnitude, expected / magnitude, 1e-9);
    }
  }
}

TEST(DistanceKernel, RangeSplitsMatchFullRange) {
  Rng rng(13);
  const data::Dataset data = RandomDataset(101, 8, &rng, /*integer=*/false);
  const std::vector<size_t> columns = {0, 2, 5};
  const ml::FeatureBlock block(data, columns);
  std::vector<double> qslice(columns.size());
  block.GatherInto(data.Row(50), qslice.data());
  const double q_norm = ml::SquaredNorm(qslice.data(), qslice.size());
  const size_t n = data.num_samples();
  std::vector<double> full(n);
  ml::BlockSquaredDistances(block, qslice.data(), q_norm, 0, n, full.data());
  // Any sub-range gives the full sweep's values. The oracle's ShardDistances
  // relies on it for its per-shard sweeps and its single-row calls (one-row
  // ranges), and so does the d_T recompute.
  const size_t ex = 50;
  std::vector<double> split(n - 1);
  ml::BlockSquaredDistances(block, qslice.data(), q_norm, 0, ex, split.data());
  ml::BlockSquaredDistances(block, qslice.data(), q_norm, ex + 1, n,
                            split.data() + ex);
  for (size_t i = 0; i < n - 1; ++i) {
    const size_t row = i < ex ? i : i + 1;
    ASSERT_EQ(split[i], full[row]);
  }
}

// ---------------------------------------------------------------------------
// SmallestK vs partial_sort
// ---------------------------------------------------------------------------

std::vector<uint64_t> ReferenceSmallestK(const std::vector<double>& values,
                                         size_t k) {
  std::vector<uint64_t> idx(values.size());
  for (uint64_t i = 0; i < idx.size(); ++i) idx[i] = i;
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&values](uint64_t a, uint64_t b) {
                      if (values[a] != values[b]) return values[a] < values[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

TEST(SmallestKKernel, MatchesPartialSortIncludingTiesAndInf) {
  Rng rng(14);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    std::vector<double> values(n);
    for (auto& v : values) {
      // Coarse grid forces plenty of exact ties; sprinkle +inf (excluded
      // rows) too.
      const uint64_t r = rng.NextBounded(12);
      v = r == 0 ? std::numeric_limits<double>::infinity()
                 : static_cast<double>(r);
    }
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, n, n + 3}) {
      ASSERT_EQ(ml::SmallestK(values, k), ReferenceSmallestK(values, k))
          << "n=" << n << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace vfps
