#ifndef VFPS_COMMON_RANDOM_H_
#define VFPS_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vfps {

/// \brief Deterministic PRNG (xoshiro256++) used everywhere a seed is needed.
///
/// Every stochastic component of the library accepts an explicit seed so that
/// experiments are bit-for-bit reproducible across runs and platforms. The
/// standard library engines are avoided because their distributions are not
/// guaranteed to be identical across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value. Inline so that a loop drawing from a local
  /// copy of the generator (the CKKS samplers in he/rns.cc) keeps the state
  /// in registers.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Uniform int in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Split off an independent child generator (for parallel streams).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  // Box-Muller spare value.
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace vfps

#endif  // VFPS_COMMON_RANDOM_H_
