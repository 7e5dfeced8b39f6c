#ifndef CPD_UTIL_RNG_H_
#define CPD_UTIL_RNG_H_

/// \file rng.h
/// Fast, reproducible pseudo-random number generation (xoshiro256++ with a
/// SplitMix64 seeder). Every stochastic component in the library takes an Rng
/// so experiments are deterministic given a seed.

#include <cstdint>
#include <limits>

namespace cpd {

/// xoshiro256++ generator. Satisfies UniformRandomBitGenerator so it can be
/// used with <random> distributions, but the library prefers the built-in
/// helpers below for speed and cross-platform determinism.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four-word state via SplitMix64 from a single seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Next raw 64 random bits.
  uint64_t operator()() { return Next64(); }
  uint64_t Next64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in (0, 1) — never exactly 0; safe for log().
  double NextDoubleOpen();

  /// Uniform integer in [0, bound). Requires bound > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal via Marsaglia polar method.
  double NextGaussian();

  /// Exponential(1) variate.
  double NextExp();

  /// Bernoulli draw with success probability p.
  bool NextBernoulli(double p);

  /// Spawns an independent stream (re-seeded from this stream's output);
  /// the shard executors give each shard its own generator this way, so a
  /// shard draws the same sequence whichever thread runs it.
  Rng Split();

 private:
  uint64_t state_[4];
  // Cached second variate from the polar method.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace cpd

#endif  // CPD_UTIL_RNG_H_
