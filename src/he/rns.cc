#include "common/macros.h"
#include "he/rns.h"

#include <array>
#include <cmath>

#include "common/string_util.h"
#include "he/modarith.h"
#include "he/poly_simd.h"

namespace vfps::he {

Result<std::shared_ptr<const RnsContext>> RnsContext::Create(
    size_t n, const std::vector<int>& prime_bits) {
  if (prime_bits.empty() || prime_bits.size() > kMaxPrimes) {
    return Status::InvalidArgument(
        "RnsContext: 1 or 2 primes supported (CRT uses 128-bit composition)");
  }
  auto ctx = std::shared_ptr<RnsContext>(new RnsContext());
  ctx->n_ = n;
  ctx->q_approx_ = 1.0L;
  uint64_t congruence = 2 * static_cast<uint64_t>(n);
  for (int bits : prime_bits) {
    uint64_t prime = 0;
    // Scan downward, skipping primes already chosen.
    VFPS_ASSIGN_OR_RETURN(prime, GeneratePrime(bits, congruence));
    while (true) {
      bool duplicate = false;
      for (uint64_t p : ctx->primes_) duplicate |= (p == prime);
      if (!duplicate) break;
      // Find the next prime below the duplicate.
      uint64_t candidate = prime - congruence;
      while (!IsPrime(candidate)) {
        if (candidate <= congruence) {
          return Status::NotFound("RnsContext: ran out of distinct primes");
        }
        candidate -= congruence;
      }
      prime = candidate;
    }
    ctx->primes_.push_back(prime);
    VFPS_ASSIGN_OR_RETURN(auto tables, NttTables::Create(n, prime));
    ctx->ntt_.push_back(std::move(tables));
    ctx->q_approx_ *= static_cast<long double>(prime);
  }
  if (ctx->primes_.size() == 2) {
    ctx->crt_q0_inv_q1_ =
        InvMod(ctx->primes_[0] % ctx->primes_[1], ctx->primes_[1]);
    ctx->crt_q0_inv_q1_shoup_ =
        ShoupPrecompute(ctx->crt_q0_inv_q1_, ctx->primes_[1]);
  }
  return std::shared_ptr<const RnsContext>(ctx);
}

RnsPoly ZeroPoly(const RnsContext& ctx) {
  RnsPoly p;
  p.residues.assign(ctx.num_primes(), std::vector<uint64_t>(ctx.n(), 0));
  p.ntt_form = false;
  return p;
}

void ResizePoly(const RnsContext& ctx, RnsPoly* p) {
  p->residues.resize(ctx.num_primes());
  for (auto& r : p->residues) r.resize(ctx.n());
  p->ntt_form = false;
}

RnsPoly SampleUniform(const RnsContext& ctx, Rng* rng) {
  RnsPoly p = ZeroPoly(ctx);
  for (size_t i = 0; i < ctx.num_primes(); ++i) {
    const uint64_t q = ctx.prime(i);
    for (size_t j = 0; j < ctx.n(); ++j) p.residues[i][j] = rng->NextBounded(q);
  }
  // A uniform element is uniform in both bases; mark as NTT form since all
  // uses (the public random polynomial "a") operate there.
  p.ntt_form = true;
  return p;
}

Result<GaussianCdt> GaussianCdt::Create(double sigma) {
  if (!std::isfinite(sigma) || sigma <= 0.0 || sigma > kMaxSigma) {
    return Status::InvalidArgument(
        StrFormat("GaussianCdt: sigma must be finite and in (0, %g], got %g",
                  kMaxSigma, sigma));
  }
  GaussianCdt table;
  constexpr long double kTwo63 = 9223372036854775808.0L;  // 2^63
  const long double denom = static_cast<long double>(sigma) * std::sqrt(2.0L);
  for (int64_t m = 0;; ++m) {
    // 2^63 * P(|round(X)| > m) = 2^63 * P(|X| >= m + 1/2).
    // Below 2^63 even at m = 0 for every accepted sigma (erfc(x) < 1 for
    // x > 0), so the rounding never overflows.
    const long double tail =
        kTwo63 * std::erfc((static_cast<long double>(m) + 0.5L) / denom);
    const uint64_t tail_units = static_cast<uint64_t>(std::llround(tail));
    if (tail_units == 0) break;
    table.cdt_.push_back((uint64_t{1} << 63) - tail_units);
  }
  table.cdt_.push_back(uint64_t{1} << 63);
  uint32_t m = 0;
  for (uint64_t b = 0; b < table.guide_.size(); ++b) {
    while (table.cdt_[m] <= (b << detail::kCdtGuideShift)) ++m;
    table.guide_[b] = m;
  }
  return table;
}

RnsPoly SampleTernary(const RnsContext& ctx, Rng* rng) {
  RnsPoly p = ZeroPoly(ctx);
  SampleTernaryInto(ctx, rng, &p);
  return p;
}

RnsPoly SampleGaussian(const RnsContext& ctx, Rng* rng, const GaussianCdt& noise) {
  RnsPoly p = ZeroPoly(ctx);
  SampleGaussianInto(ctx, rng, &p, noise);
  return p;
}

namespace {
// Per-thread block of raw words, one per coefficient (the samplers run once
// per encryption, so reusing the block keeps the hot path allocation-free).
uint64_t* WordBlock(size_t n) {
  thread_local std::vector<uint64_t> words;
  words.resize(n);
  return words.data();
}

// Destination residue vectors of `out`, one per prime.
std::array<uint64_t*, RnsContext::kMaxPrimes> Residues(RnsPoly* out) {
  std::array<uint64_t*, RnsContext::kMaxPrimes> dst{};
  for (size_t i = 0; i < out->num_primes(); ++i) dst[i] = out->residues[i].data();
  return dst;
}
}  // namespace

void SampleTernaryInto(const RnsContext& ctx, Rng* rng, RnsPoly* out) {
  ResizePoly(ctx, out);
  const size_t n = ctx.n();
  uint64_t* words = WordBlock(n);
  const auto dst = Residues(out);
  // The local copy keeps the state in registers.
  Rng local = *rng;
  if (!detail::TernaryResiduesVectorized()) {
    // Rng::NextBounded(3), inlined: the per-word work overlaps the
    // generator's dependency chain here, which a scalar pass over the
    // block after the draws cannot.
    for (size_t j = 0; j < n; ++j) {
      uint64_t r = local.Next();
      while (r == 0) r = local.Next();
      words[j] = r % 3;  // 0, 1, 2 -> -1, 0, 1
    }
    *rng = local;
    for (size_t i = 0; i < ctx.num_primes(); ++i) {
      const uint64_t q = ctx.prime(i);
      for (size_t j = 0; j < n; ++j) {
        // t - 1, with -1 (all ones) plus q wrapping to q - 1.
        const uint64_t v = words[j] - 1;
        dst[i][j] = v + (q & (0 - (v >> 63)));
      }
    }
    return;
  }
  // Rng::NextBounded(3) redraws only a raw 0 word: its rejection threshold
  // -3 % 3 is 1 (2^64 = 1 mod 3). So the block is n plain draws unless the
  // map finds a 0 among them (probability n * 2^-64); then the stream is
  // replayed with the redraws.
  for (size_t j = 0; j < n; ++j) words[j] = local.Next();
  if (!detail::TernaryResiduesVec(dst.data(), ctx.primes().data(),
                                  ctx.num_primes(), words, n)) {
    local = *rng;
    for (size_t j = 0; j < n; ++j) {
      uint64_t r = local.Next();
      while (r == 0) r = local.Next();
      words[j] = r;
    }
    detail::TernaryResiduesVec(dst.data(), ctx.primes().data(),
                               ctx.num_primes(), words, n);
  }
  *rng = local;
}

void SampleGaussianInto(const RnsContext& ctx, Rng* rng, RnsPoly* out,
                        const GaussianCdt& noise, const RnsPoly* plus) {
  ResizePoly(ctx, out);
  const size_t n = ctx.n();
  uint64_t* words = WordBlock(n);
  const auto dst = Residues(out);
  std::array<const uint64_t*, RnsContext::kMaxPrimes> add{};
  if (plus != nullptr) {
    for (size_t i = 0; i < ctx.num_primes(); ++i) add[i] = plus->residues[i].data();
  }
  const uint64_t bound = static_cast<uint64_t>(noise.tail_bound());
  bool small = true;
  for (uint64_t q : ctx.primes()) small &= bound < q;
  // One word per coefficient, in order. The local copy keeps the state in
  // registers.
  Rng local = *rng;
  if (small && detail::CdtResiduesVectorized()) {
    for (size_t j = 0; j < n; ++j) words[j] = local.Next();
    *rng = local;
    detail::CdtResiduesVec(dst.data(), ctx.primes().data(), ctx.num_primes(),
                           words, n, noise.tables(),
                           plus != nullptr ? add.data() : nullptr);
    return;
  }
  // The table search in the draw loop, where it overlaps the generator's
  // dependency chain; each word becomes its signed sample, stored two's
  // complement.
  for (size_t j = 0; j < n; ++j) {
    words[j] = static_cast<uint64_t>(noise.Sample(local.Next()));
  }
  *rng = local;
  for (size_t i = 0; i < ctx.num_primes(); ++i) {
    const uint64_t q = ctx.prime(i);
    for (size_t j = 0; j < n; ++j) {
      const uint64_t s = words[j];
      uint64_t r;
      if (small) {
        // |v| < q, so v mod q is v, or q + v for v < 0.
        r = s + (q & (0 - (s >> 63)));
      } else {
        // A sample may reach a (test-sized) prime: reduce |v|.
        const int64_t v = static_cast<int64_t>(s);
        r = BarrettReduce64(static_cast<uint64_t>(v >= 0 ? v : -v),
                            ctx.modulus(i));
        if (v < 0 && r != 0) r = q - r;
      }
      // add[i] may alias dst[i]: read before the store.
      if (plus != nullptr) r = AddMod(r, add[i][j], q);
      dst[i][j] = r;
    }
  }
}

void AddInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b) {
  for (size_t i = 0; i < std::min(a->num_primes(), b.num_primes()); ++i) {
    detail::AddModVec(a->residues[i].data(), b.residues[i].data(), ctx.n(),
                      ctx.prime(i));
  }
}

void NegateInPlace(const RnsContext& ctx, RnsPoly* a) {
  for (size_t i = 0; i < a->num_primes(); ++i) {
    detail::NegateModVec(a->residues[i].data(), ctx.n(), ctx.prime(i));
  }
}

void MulPointwiseInPlace(const RnsContext& ctx, RnsPoly* a, const RnsPoly& b) {
  for (size_t i = 0; i < std::min(a->num_primes(), b.num_primes()); ++i) {
    detail::MulModBarrettVec(a->residues[i].data(), b.residues[i].data(),
                             ctx.n(), ctx.modulus(i));
  }
}

ShoupTable ShoupCompanions(const RnsContext& ctx, const RnsPoly& w) {
  ShoupTable table(w.num_primes());
  for (size_t i = 0; i < w.num_primes(); ++i) {
    table[i].resize(w.residues[i].size());
    for (size_t j = 0; j < table[i].size(); ++j) {
      table[i][j] = ShoupPrecompute(w.residues[i][j], ctx.prime(i));
    }
  }
  return table;
}

void ToNtt(const RnsContext& ctx, RnsPoly* a) {
  if (a->ntt_form) return;
  for (size_t i = 0; i < a->num_primes(); ++i) {
    ctx.ntt(i).Forward(a->residues[i].data());
  }
  a->ntt_form = true;
}

void FromNtt(const RnsContext& ctx, RnsPoly* a) {
  if (!a->ntt_form) return;
  for (size_t i = 0; i < a->num_primes(); ++i) {
    ctx.ntt(i).Inverse(a->residues[i].data());
  }
  a->ntt_form = false;
}

double ComposeCoeffToDouble(const RnsContext& ctx, const RnsPoly& poly,
                            size_t idx) {
  if (poly.num_primes() == 1) {
    const uint64_t q = ctx.prime(0);
    const uint64_t r = poly.residues[0][idx];
    // Recenter to (-q/2, q/2].
    return r > q / 2 ? -static_cast<double>(q - r) : static_cast<double>(r);
  }
  // Two-prime CRT: x = r1 + q1 * ((r2 - r1) * q1^{-1} mod q2).
  double out;
  detail::ComposeCrtScalar(&out, &poly.residues[0][idx],
                           &poly.residues[1][idx], 1, ctx.prime(0),
                           ctx.modulus(1), ctx.crt_q0_inv_q1(),
                           ctx.crt_q0_inv_q1_shoup());
  return out;
}

void ComposeToDouble(const RnsContext& ctx, const RnsPoly& poly, size_t count,
                     double* out) {
  if (poly.num_primes() == 1) {
    for (size_t k = 0; k < count; ++k) {
      out[k] = ComposeCoeffToDouble(ctx, poly, k);
    }
    return;
  }
  detail::ComposeCrtVec(out, poly.residues[0].data(), poly.residues[1].data(),
                        count, ctx.prime(0), ctx.modulus(1),
                        ctx.crt_q0_inv_q1(), ctx.crt_q0_inv_q1_shoup());
}

}  // namespace vfps::he
