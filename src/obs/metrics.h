#ifndef CPD_OBS_METRICS_H_
#define CPD_OBS_METRICS_H_

/// \file metrics.h
/// Dependency-free metrics registry: typed Counter / Gauge / Histogram
/// handles grouped into labeled families, rendered as Prometheus text
/// exposition (GET /metricsz) and queried for the /statsz JSON view.
///
/// Design points (docs/OBSERVABILITY.md covers the operator view):
///   - Handles are registered once (GetCounter/GetGauge/GetHistogram take a
///     registration mutex) and then recorded through raw pointers; the hot
///     path is one relaxed atomic add, no locks, no allocation.
///   - Histograms use one fixed log-spaced bucket layout (growth factor 1.1
///     from 1 us to ~60 s, ~190 buckets), so any two histograms are
///     mergeable bucket-by-bucket and percentiles reconstructed from bucket
///     midpoints carry <= ~5% relative error (sqrt(1.1) - 1). Counts live
///     in per-stripe atomic shards (threads hash to stripes) summed only at
///     scrape time, keeping concurrent writers off each other's cache
///     lines; values below the first bound report the representative
///     first_bound/2, so a nonzero count never yields a 0 percentile.
///   - Durations recorded into histograms should be measured with
///     obs::NowMicros() (src/obs/clock.h): under a frozen test clock every
///     duration is exactly 0 and scrape output is byte-deterministic
///     (tests/server_determinism_test.cc pins this across fresh stacks).
///   - A registry is an instantiable object, not a process singleton:
///     ServiceStats owns one per server stack, so tests can build two
///     stacks in one process and compare scrapes. DefaultRegistry() serves
///     code without a natural owner (training counters in cpd_train).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpd::obs {

/// Label key/value pairs of one child metric ({model="default"}). Order is
/// the registration order and must be consistent within a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(std::string_view value);
/// Prometheus HELP-text escaping: backslash, newline.
std::string EscapeHelpText(std::string_view value);

/// Renders `{k="v",...}` (empty string for no labels), values escaped.
std::string RenderLabels(const Labels& labels);

/// Appends `# HELP name help` + `# TYPE name type` lines.
void AppendExpositionHeader(std::string* out, const std::string& name,
                            const std::string& help, const char* type);

/// Appends one sample line `name{labels} value`. Usable for counters and
/// gauges alike (the caller renders the family header once).
void AppendSampleLine(std::string* out, const std::string& name,
                      const Labels& labels, double value);

/// Monotonic counter. Record path: one relaxed fetch_add.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-bucket histogram (see the file comment for the layout).
class Histogram {
 public:
  /// Concurrent-writer stripes; threads hash onto one by thread id.
  static constexpr size_t kStripes = 4;

  /// The shared bucket upper bounds: 1 * 1.1^i microseconds up to >= 60 s.
  static const std::vector<double>& LatencyBoundsUs();

  Histogram();

  /// Records one observation. Relaxed atomics only; any thread.
  void Record(double value);

  /// Scrape-time merge of the stripes. `buckets[i]` counts observations in
  /// (bounds[i-1], bounds[i]] (bucket 0: <= bounds[0]; the last bucket:
  /// > bounds.back(), the +Inf bucket).
  struct Snapshot {
    std::vector<uint64_t> buckets;  ///< size = bounds.size() + 1.
    uint64_t count = 0;
    double sum = 0.0;

    /// Percentile reconstructed from bucket representatives (geometric
    /// midpoints; first bucket bounds[0]/2, +Inf bucket bounds.back()).
    /// 0.0 when empty. `q` in [0, 1].
    double Percentile(double q) const;
  };
  Snapshot Snap() const;

 private:
  struct Stripe {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<double> sum{0.0};
  };
  std::unique_ptr<Stripe[]> stripes_;
};

/// Appends the full `_bucket`/`_sum`/`_count` exposition of one histogram
/// child (cumulative le counts, le="+Inf" last).
void AppendHistogramExposition(std::string* out, const std::string& name,
                               const Labels& labels,
                               const Histogram::Snapshot& snapshot);

enum class MetricType { kCounter, kGauge, kHistogram };

/// Families of typed metrics keyed by name; children keyed by label values.
/// Registration is mutexed and idempotent (same name + labels returns the
/// same handle); a name re-registered with a different type aborts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Handles are owned by the registry and stable until it is destroyed.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const Labels& labels = {});

  /// Sum of a counter family's children (0 when the family is absent).
  uint64_t CounterTotal(const std::string& name) const;

  /// First-label-value -> value map of a counter family (the per-model
  /// statsz rows; families queried this way carry exactly one label key).
  std::map<std::string, uint64_t> CounterByLabel(const std::string& name) const;

  /// Registered family names (sorted) — the docs-coverage check and tests.
  std::vector<std::string> FamilyNames() const;

  /// Prometheus text exposition of every family, names sorted, children
  /// label-sorted. Deterministic bytes for deterministic metric values.
  std::string ExpositionText() const;

 private:
  struct Child {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::map<std::string, Child> children;  ///< Key: RenderLabels(labels).
  };

  Child* GetChild(const std::string& name, const std::string& help,
                  MetricType type, const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Process-global registry for instrumentation without a natural owner
/// (training-side counters); server stacks use ServiceStats' own registry.
MetricsRegistry* DefaultRegistry();

}  // namespace cpd::obs

#endif  // CPD_OBS_METRICS_H_
