#include "common/random.h"

#include <cmath>
#include <unordered_map>

namespace vfps {

namespace {
// SplitMix64: seeds the xoshiro state from a single 64-bit value.
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(&x);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::Normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  spare_ = mag * std::sin(two_pi * u2);
  has_spare_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(&perm);
  return perm;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k > n) k = n;
  // Partial Fisher-Yates over a *virtual* pool: position p holds the value p
  // unless an earlier swap displaced it, and only displaced positions are
  // stored. Same NextBounded draw sequence and same outputs as the dense
  // version, but O(k) memory instead of O(n) — the out-of-core engine samples
  // a handful of query rows from row spaces of 5M+, where a dense pool would
  // be a 40 MB transient that dwarfs the per-shard working set.
  std::unordered_map<size_t, size_t> displaced;
  const auto value_at = [&](size_t pos) {
    const auto it = displaced.find(pos);
    return it == displaced.end() ? pos : it->second;
  };
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(NextBounded(n - i));
    const size_t vi = value_at(i);
    const size_t vj = value_at(j);
    displaced[i] = vj;
    displaced[j] = vi;
    out.push_back(vj);
  }
  return out;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xA5A5A5A5DEADBEEFULL); }

}  // namespace vfps
