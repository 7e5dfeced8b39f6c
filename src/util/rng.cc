#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace cpd {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::Next64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpen() {
  // (raw + 0.5) / 2^53 in (0, 1).
  return (static_cast<double>(Next64() >> 11) + 0.5) * 0x1.0p-53;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  CPD_DCHECK(bound > 0);
  // Lemire's multiply-shift rejection method: unbiased and fast.
  uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0ULL - bound) % bound;
    while (low < threshold) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  CPD_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextUint64(static_cast<uint64_t>(hi - lo) + 1ULL));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::NextExp() { return -std::log(NextDoubleOpen()); }

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

Rng Rng::Split() { return Rng(Next64()); }

}  // namespace cpd
