#include "he/rns.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "he/modarith.h"
#include "simd/simd.h"

namespace vfps::he {
namespace {

// Runs `check` once per ISA this host can run, with dispatch pinned to it:
// the samplers map a block of draws where their map is vectorized and do
// the per-word work inside the draw loop elsewhere, so each path must draw
// and map identically.
template <typename Check>
void ForEachHostIsa(Check check) {
  const simd::Isa prev = simd::ActiveIsa();
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (isa > simd::DetectCpuIsa()) continue;
    simd::SetActiveIsa(isa);
    SCOPED_TRACE(simd::IsaName(isa));
    check();
  }
  simd::SetActiveIsa(prev);
}

std::shared_ptr<const RnsContext> MakeContext(size_t n = 64,
                                              std::vector<int> bits = {54, 54}) {
  auto ctx = RnsContext::Create(n, bits);
  return ctx.ValueOrDie();
}

GaussianCdt Noise(double sigma = 3.2) {
  return GaussianCdt::Create(sigma).ValueOrDie();
}

// P(round(X) = v) for X ~ N(0, sigma^2).
double RoundedGaussianPmf(int64_t v, double sigma) {
  const double s = sigma * std::sqrt(2.0);
  const double a = (std::abs(static_cast<double>(v)) - 0.5) / s;
  const double b = (std::abs(static_cast<double>(v)) + 0.5) / s;
  return v == 0 ? std::erf(b) : 0.5 * (std::erfc(a) - std::erfc(b));
}

TEST(RnsContextTest, CreatesDistinctNttFriendlyPrimes) {
  auto ctx = MakeContext();
  ASSERT_EQ(ctx->num_primes(), 2u);
  EXPECT_NE(ctx->prime(0), ctx->prime(1));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(IsPrime(ctx->prime(i)));
    EXPECT_EQ((ctx->prime(i) - 1) % (2 * ctx->n()), 0u);
  }
  EXPECT_GT(ctx->modulus_approx(), 0.0L);
}

TEST(RnsContextTest, RejectsTooManyPrimes) {
  EXPECT_FALSE(RnsContext::Create(64, {50, 50, 50}).ok());
  EXPECT_FALSE(RnsContext::Create(64, {}).ok());
}

TEST(RnsPolyTest, SetAndComposeRoundTripSigned) {
  auto ctx = MakeContext();
  RnsPoly poly = ZeroPoly(*ctx);
  const __int128 values[] = {0, 1, -1, 123456789, -987654321,
                             (static_cast<__int128>(1) << 100),
                             -(static_cast<__int128>(1) << 100)};
  for (size_t i = 0; i < std::size(values); ++i) {
    for (size_t p = 0; p < ctx->num_primes(); ++p) {
      const __int128 q = ctx->prime(p);
      poly.residues[p][i] = static_cast<uint64_t>((values[i] % q + q) % q);
    }
  }
  for (size_t i = 0; i < std::size(values); ++i) {
    const double got = ComposeCoeffToDouble(*ctx, poly, i);
    const double expected = static_cast<double>(values[i]);
    EXPECT_NEAR(got, expected, std::abs(expected) * 1e-12 + 1e-9) << "idx " << i;
  }
}

TEST(RnsPolyTest, ComposeToDoubleRoundsLikeThe128BitConversion) {
  // The centred value converts through int64 below 2^63 and through the
  // 128-bit conversion above; both round to nearest, so either way the
  // double equals the 128-bit conversion of the exact value. The cases
  // straddle 2^53 (where rounding starts), 2^63 (the switch) and +/-Q/2.
  auto ctx = MakeContext();
  const __int128 one = 1;
  const __int128 half_q = static_cast<__int128>(
      static_cast<unsigned __int128>(ctx->prime(0)) * ctx->prime(1) / 2);
  std::vector<__int128> values;
  for (int bits : {52, 53, 54, 62, 63, 64, 100}) {
    for (__int128 d : {-3, -1, 0, 1, 3}) {
      values.push_back((one << bits) + d);
      values.push_back(-((one << bits) + d));
    }
  }
  for (__int128 d : {0, 1, 2, 1000}) {
    values.push_back(half_q - d);
    values.push_back(-(half_q - d) + 1);
  }
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const __int128 v = static_cast<__int128>(rng.Next() >> (i % 64)) *
                       (i % 2 == 0 ? 1 : -1);
    values.push_back(v);
  }
  RnsPoly poly = ZeroPoly(*ctx);
  for (__int128 v : values) {
    for (size_t p = 0; p < ctx->num_primes(); ++p) {
      const __int128 q = ctx->prime(p);
      poly.residues[p][0] = static_cast<uint64_t>((v % q + q) % q);
    }
    const double got = ComposeCoeffToDouble(*ctx, poly, 0);
    const double expected =
        v < 0 ? -static_cast<double>(static_cast<unsigned __int128>(-v))
              : static_cast<double>(static_cast<unsigned __int128>(v));
    EXPECT_EQ(got, expected) << static_cast<double>(v);
  }
}

TEST(RnsPolyTest, AddNegateConsistent) {
  auto ctx = MakeContext();
  Rng rng(5);
  RnsPoly a = SampleUniform(*ctx, &rng);
  RnsPoly b = SampleUniform(*ctx, &rng);
  RnsPoly back = a;
  AddInPlace(*ctx, &back, b);
  RnsPoly neg_b = b;
  NegateInPlace(*ctx, &neg_b);
  AddInPlace(*ctx, &back, neg_b);
  EXPECT_EQ(back.residues, a.residues);
  RnsPoly neg = a;
  NegateInPlace(*ctx, &neg);
  AddInPlace(*ctx, &neg, a);
  for (const auto& res : neg.residues) {
    for (uint64_t v : res) EXPECT_EQ(v, 0u);
  }
}

TEST(RnsPolyTest, NttRoundTrip) {
  auto ctx = MakeContext();
  Rng rng(7);
  RnsPoly a = SampleGaussian(*ctx, &rng, Noise());
  const auto original = a.residues;
  ToNtt(*ctx, &a);
  EXPECT_TRUE(a.ntt_form);
  EXPECT_NE(a.residues, original);
  FromNtt(*ctx, &a);
  EXPECT_FALSE(a.ntt_form);
  EXPECT_EQ(a.residues, original);
  // Idempotence of the no-op direction.
  FromNtt(*ctx, &a);
  EXPECT_EQ(a.residues, original);
}

TEST(RnsPolyTest, LevelAwareOpsUseMinimumPrimes) {
  auto ctx = MakeContext();
  Rng rng(9);
  RnsPoly full = SampleUniform(*ctx, &rng);
  RnsPoly low = full;
  low.residues.pop_back();  // level-1 polynomial
  RnsPoly sum = low;
  AddInPlace(*ctx, &sum, full);  // must not touch the missing prime
  EXPECT_EQ(sum.num_primes(), 1u);
  for (size_t c = 0; c < ctx->n(); ++c) {
    EXPECT_EQ(sum.residues[0][c],
              AddMod(low.residues[0][c], full.residues[0][c], ctx->prime(0)));
  }
}

TEST(RnsPolyTest, TernaryAndGaussianAreSmall) {
  auto ctx = MakeContext(256);
  Rng rng(11);
  RnsPoly t = SampleTernary(*ctx, &rng);
  for (size_t c = 0; c < ctx->n(); ++c) {
    const double v = ComposeCoeffToDouble(*ctx, t, c);
    EXPECT_TRUE(v == 0.0 || v == 1.0 || v == -1.0) << v;
  }
  const GaussianCdt noise = Noise(3.2);
  RnsPoly g = SampleGaussian(*ctx, &rng, noise);
  for (size_t c = 0; c < ctx->n(); ++c) {
    EXPECT_LE(std::abs(ComposeCoeffToDouble(*ctx, g, c)),
              static_cast<double>(noise.tail_bound()));
  }
}

TEST(SamplerTest, TernaryIsDrawIdenticalToNextBounded) {
  auto ctx = MakeContext(1024);
  ForEachHostIsa([&] {
    for (uint64_t seed : {1u, 42u, 977u}) {
      Rng sampled(seed);
      Rng reference(seed);
      RnsPoly t;
      SampleTernaryInto(*ctx, &sampled, &t);
      for (size_t j = 0; j < ctx->n(); ++j) {
        const int64_t v = static_cast<int64_t>(reference.NextBounded(3)) - 1;
        for (size_t i = 0; i < ctx->num_primes(); ++i) {
          const uint64_t expected = v < 0 ? ctx->prime(i) - 1 : static_cast<uint64_t>(v);
          ASSERT_EQ(t.residues[i][j], expected) << "seed " << seed << " coeff " << j;
        }
      }
      EXPECT_EQ(sampled.Next(), reference.Next()) << "seed " << seed;
      // The allocating variant draws the same stream.
      RnsPoly into;
      SampleTernaryInto(*ctx, &reference, &into);
      EXPECT_EQ(SampleTernary(*ctx, &sampled).residues, into.residues);
    }
  });
}

TEST(SamplerTest, GaussianDrawsOneWordPerCoefficient) {
  auto ctx = MakeContext(1024);
  const GaussianCdt noise = Noise();
  // An addend below each prime, as the encryption's plaintext m.
  RnsPoly m = ZeroPoly(*ctx);
  Rng fill(9);
  for (size_t i = 0; i < ctx->num_primes(); ++i) {
    for (uint64_t& r : m.residues[i]) r = fill.NextBounded(ctx->prime(i));
  }
  ForEachHostIsa([&] {
    Rng sampled(5);
    Rng reference(5);
    RnsPoly g;
    SampleGaussianInto(*ctx, &sampled, &g, noise);
    // With the addend, in place (out is plus), as encryption calls it.
    RnsPoly g_plus_m = m;
    SampleGaussianInto(*ctx, &sampled, &g_plus_m, noise, &g_plus_m);
    for (size_t j = 0; j < ctx->n(); ++j) {
      const int64_t v = noise.Sample(reference.Next());
      for (size_t i = 0; i < ctx->num_primes(); ++i) {
        const uint64_t q = ctx->prime(i);
        const uint64_t expected = v < 0 ? q - static_cast<uint64_t>(-v) : static_cast<uint64_t>(v);
        ASSERT_EQ(g.residues[i][j], expected) << "coeff " << j;
      }
    }
    for (size_t j = 0; j < ctx->n(); ++j) {
      const int64_t v = noise.Sample(reference.Next());
      for (size_t i = 0; i < ctx->num_primes(); ++i) {
        const uint64_t q = ctx->prime(i);
        const uint64_t e = v < 0 ? q - static_cast<uint64_t>(-v) : static_cast<uint64_t>(v);
        ASSERT_EQ(g_plus_m.residues[i][j], AddMod(e, m.residues[i][j], q))
            << "coeff " << j;
      }
    }
    EXPECT_EQ(sampled.Next(), reference.Next());
  });
}

TEST(SamplerTest, GaussianReducesSamplesPastASmallPrime) {
  // At sigma = 1024 samples often exceed an 11-bit prime, so the residue map
  // must reduce |v| instead of adding q at most once.
  auto ctx = MakeContext(64, {11});
  const GaussianCdt noise = Noise(1024.0);
  const uint64_t q = ctx->prime(0);
  ASSERT_LT(q, static_cast<uint64_t>(noise.tail_bound()));
  Rng sampled(8);
  Rng reference(8);
  RnsPoly g;
  SampleGaussianInto(*ctx, &sampled, &g, noise);
  const int64_t qs = static_cast<int64_t>(q);
  bool reduced = false;
  for (size_t j = 0; j < ctx->n(); ++j) {
    const int64_t v = noise.Sample(reference.Next());
    ASSERT_EQ(g.residues[0][j], static_cast<uint64_t>((v % qs + qs) % qs))
        << "coeff " << j;
    reduced |= v >= qs || v <= -qs;
  }
  EXPECT_TRUE(reduced) << "no sample reached the prime";
  EXPECT_EQ(sampled.Next(), reference.Next());
}

TEST(SamplerTest, GaussianCdtRejectsBadSigma) {
  for (double sigma : {0.0, -3.2, std::nan(""), HUGE_VAL, -HUGE_VAL,
                       GaussianCdt::kMaxSigma * 2}) {
    EXPECT_FALSE(GaussianCdt::Create(sigma).ok()) << sigma;
  }
  EXPECT_TRUE(GaussianCdt::Create(GaussianCdt::kMaxSigma).ok());
  // A vanishing sigma is a valid (degenerate) table: every draw is 0.
  auto tiny = GaussianCdt::Create(1e-6);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->tail_bound(), 0);
  EXPECT_EQ(tiny->Sample(~uint64_t{0}), 0);
}

TEST(SamplerTest, GaussianCdtTailBound) {
  // The table stops at the first magnitude T whose tail mass P(|X| >= T + 1/2)
  // is below half a unit of 2^-63.
  for (double sigma : {0.5, 3.2, 19.0}) {
    const GaussianCdt noise = Noise(sigma);
    const int64_t t = noise.tail_bound();
    const long double denom = sigma * std::sqrt(2.0L);
    const long double unit = std::ldexp(1.0L, -63);
    EXPECT_LT(std::erfc((t + 0.5L) / denom), 0.5L * unit) << sigma;
    EXPECT_GE(std::erfc((t - 0.5L) / denom), 0.5L * unit) << sigma;
    EXPECT_NEAR(static_cast<double>(t) / sigma, 9.3, 0.8) << sigma;
    // The extreme words map to the extreme magnitudes; the sign is bit 0.
    EXPECT_EQ(noise.Sample(~uint64_t{0}), -t);
    EXPECT_EQ(noise.Sample(~uint64_t{1}), t);
    EXPECT_EQ(noise.Sample(0), 0);
    EXPECT_EQ(noise.Sample(1), 0);
  }
}

TEST(SamplerTest, GaussianCdtMatchesRoundedGaussianPmf) {
  // Chi-square goodness of fit of 2^20 draws against P(round(N(0, 3.2^2)) = v):
  // one bin per v with |v| <= 12 (expected count >= 121) and one bin for the
  // rest of the tail (expected count 98).
  constexpr double kSigma = 3.2;
  constexpr int64_t kEdge = 12;
  constexpr size_t kDraws = size_t{1} << 20;
  const GaussianCdt noise = Noise(kSigma);
  Rng rng(2718);
  std::map<int64_t, size_t> counts;
  int64_t max_abs = 0;
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < kDraws; ++i) {
    const int64_t v = noise.Sample(rng.Next());
    max_abs = std::max(max_abs, std::abs(v));
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
    ++counts[std::abs(v) > kEdge ? kEdge + 1 : v];
  }
  EXPECT_LE(max_abs, noise.tail_bound());
  double chi2 = 0.0;
  double tail_pmf = 1.0;
  for (int64_t v = -kEdge; v <= kEdge; ++v) {
    const double p = RoundedGaussianPmf(v, kSigma);
    tail_pmf -= p;
    const double expected = p * kDraws;
    const double diff = static_cast<double>(counts[v]) - expected;
    chi2 += diff * diff / expected;
  }
  const double expected_tail = tail_pmf * kDraws;
  const double diff = static_cast<double>(counts[kEdge + 1]) - expected_tail;
  chi2 += diff * diff / expected_tail;
  // 26 bins -> 25 degrees of freedom; 52.6 is the 0.1% critical value. A
  // sigma off by 1% alone pushes the statistic past 100 at this sample size.
  EXPECT_LT(chi2, 52.6);
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 0.0, 0.02);
  // Var(round(X)) = sigma^2 + 1/12 up to terms far below this tolerance.
  EXPECT_NEAR(sum_sq / kDraws - mean * mean, kSigma * kSigma + 1.0 / 12.0, 0.05);
}

}  // namespace
}  // namespace vfps::he
