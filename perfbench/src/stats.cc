#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

/// Nearest rank: the 1-based rank of the smallest sample with at least q*n
/// samples at or below it. The epsilon keeps q*n that should be integral
/// (0.99 * 1000) from rounding up past it.
size_t NearestRank(double q, size_t n) {
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  return (*samples)[NearestRank(q, n) - 1];
}

double Median(std::vector<double> samples) { return Quantile(&samples, 0.5); }

Summary Summarize(std::vector<double> samples, double max_percentile) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  summary.p50 = Quantile(&samples, 0.5);
  summary.tail = summary.p50;
  summary.tail_percentile = 50.0;
  summary.beyond = samples.size() - NearestRank(0.5, samples.size());
  for (const double percentile : {90.0, 99.0, 99.9}) {
    if (percentile > max_percentile) break;
    const size_t rank = NearestRank(percentile / 100.0, samples.size());
    const size_t beyond = samples.size() - rank;
    if (beyond < kMinBeyond) break;
    summary.tail = samples[rank - 1];
    summary.tail_percentile = percentile;
    summary.beyond = beyond;
  }
  return summary;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CalibrationKernelMs() {
  constexpr size_t kTable = 32 * 1024;  // 256 KiB of doubles.
  constexpr int kSteps = 1 << 20;
  static std::vector<double> table = [] {
    std::vector<double> t(kTable);
    for (size_t i = 0; i < kTable; ++i) t[i] = 1.0 + static_cast<double>(i % 97) * 1e-3;
    return t;
  }();
  const double start = NowSeconds();
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
    acc = acc * 0.999 + table[h % kTable];
  }
  const double ms = (NowSeconds() - start) * 1e3;
  // Keep the chain observable so the loop cannot be folded away.
  if (acc == -1.0) table[0] = static_cast<double>(h);
  return ms;
}

}  // namespace perfbench
