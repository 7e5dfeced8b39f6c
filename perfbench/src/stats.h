#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// Sample summaries and process counters shared by every workload.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median and tail of a latency sample. The tail is the highest percentile
/// of the ladder {50, 90, 99, 99.9}, capped at `max_percentile`, that leaves
/// at least kMinBeyond samples strictly above its rank; `beyond` records how
/// many did. The cap (kTailPercentile) sits where every workload's sample
/// count is far above the threshold, so the percentile cannot flip between
/// runs.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  ///< In percent, e.g. 99.
  size_t beyond = 0;             ///< Samples ranked above the tail.
};

inline constexpr size_t kMinBeyond = 10;

/// The ladder cap every workload uses. p99 of the HTTP workloads moved by up
/// to 3x between runs on a shared 4-core machine; p90 stays within the
/// bounds, and every workload keeps at least 120 samples so p90 always has
/// at least 12 beyond it.
inline constexpr double kTailPercentile = 90.0;

/// Nearest-rank quantile of `samples` (sorted in place). q in [0, 1].
double Quantile(std::vector<double>* samples, double q);

/// Median of a copy of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Summarizes a latency sample; see Summary. `max_percentile` in percent.
Summary Summarize(std::vector<double> samples, double max_percentile);

/// Attempted/failed op accounting. A wrong output is a failed op, and any
/// failure makes the run incorrect.
class OpCounter {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Folds another counter in (per-thread counters merge after a window).
  void Merge(const OpCounter& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  /// A failed check outside any op (setup, end-of-run verification).
  void FailCheck() { ++failed_checks_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const {
    return attempted_ > 0 && failed_ == 0 && failed_checks_ == 0;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failed_checks_ = 0;
};

/// Process CPU time (user + system, every thread), seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Monotonic wall clock, seconds.
double NowSeconds();

/// A fixed single-thread reference kernel (integer hash chain plus a
/// dependent floating-point recurrence over a 256 KiB table), returning its
/// wall time in milliseconds. It does identical work on every call, so a
/// slow reading marks a slow machine period rather than a slow program.
double CalibrationKernelMs();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
