// Unit tests of the src/obs metrics + tracing subsystem: histogram
// percentile error bounds against exact quantiles, concurrent-writer
// merges (run under TSan in CI), Prometheus exposition escaping edge
// cases, and trace-event JSON well-formedness under the injectable clock.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace cpd::obs {
namespace {

// ---------------------------------------------------------------- histogram

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  return values[rank - 1];
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.Percentile(0.5), 0.0);
}

TEST(HistogramTest, PercentilesWithinLogBucketErrorBound) {
  // Bounds grow by 1.1 per bucket, representatives are geometric midpoints,
  // so any reconstructed percentile is within sqrt(1.1)-1 (< 5%) of an
  // exact in-bucket quantile. Use a deterministic pseudo-random spread
  // across four decades to exercise many buckets.
  Histogram h;
  std::vector<double> values;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double unit = static_cast<double>(state >> 11) /
                        static_cast<double>(1ull << 53);
    const double value = std::pow(10.0, 1.0 + 4.0 * unit);  // 10us..100ms
    values.push_back(value);
    h.Record(value);
  }
  const Histogram::Snapshot snap = h.Snap();
  ASSERT_EQ(snap.count, values.size());
  const double tolerance = std::sqrt(1.1) - 1.0 + 1e-9;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double approx = snap.Percentile(q);
    EXPECT_NEAR(approx / exact, 1.0, tolerance)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(HistogramTest, SubMicrosecondValuesReportNonzeroPercentile) {
  // Bucket 0's representative is bounds[0]/2, so a burst of ~0us
  // observations (frozen clock) still yields a positive p50.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(0.0);
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 10u);
  EXPECT_GT(snap.Percentile(0.5), 0.0);
  EXPECT_LE(snap.Percentile(0.5), 1.0);
}

TEST(HistogramTest, SumAndOverflowBucket) {
  Histogram h;
  h.Record(120e6);  // Above the last bound -> +Inf bucket.
  h.Record(5.0);
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 120e6 + 5.0);
  EXPECT_EQ(snap.buckets.back(), 1u);
  // The +Inf representative is the last finite bound.
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0),
                   Histogram::LatencyBoundsUs().back());
}

TEST(HistogramTest, ConcurrentWritersMergeExactCounts) {
  // Four threads hammer the same histogram; the striped shards must merge
  // to the exact total without losing observations. TSan covers the
  // data-race side of this in CI.
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(1 + (t * kPerThread + i) % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (const uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("cpd_test_total", "test counter");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < 100000; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(), 400000u);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistryTest, HandlesAreStableAndIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("cpd_x_total", "x", {{"model", "m"}});
  Counter* b = registry.GetCounter("cpd_x_total", "x", {{"model", "m"}});
  Counter* c = registry.GetCounter("cpd_x_total", "x", {{"model", "n"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment(3);
  c->Increment(4);
  EXPECT_EQ(registry.CounterTotal("cpd_x_total"), 7u);
  const auto by_label = registry.CounterByLabel("cpd_x_total");
  ASSERT_EQ(by_label.size(), 2u);
  EXPECT_EQ(by_label.at("m"), 3u);
  EXPECT_EQ(by_label.at("n"), 4u);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsRecordsUntilReenabled) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("cpd_c_total", "c");
  Gauge* gauge = registry.GetGauge("cpd_g", "g");
  Histogram* histogram = registry.GetHistogram("cpd_h_us", "h");
  registry.set_enabled(false);
  counter->Increment(5);
  gauge->Set(2.5);
  histogram->Record(3.0);
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(gauge->value(), 0.0);
  EXPECT_EQ(histogram->Snap().count, 0u);

  registry.set_enabled(true);
  counter->Increment(5);
  gauge->Set(2.5);
  histogram->Record(3.0);
  EXPECT_EQ(counter->value(), 5u);
  EXPECT_EQ(gauge->value(), 2.5);
  EXPECT_EQ(histogram->Snap().count, 1u);
}

TEST(MetricsRegistryTest, FamilyNamesSorted) {
  MetricsRegistry registry;
  registry.GetCounter("cpd_b_total", "b");
  registry.GetGauge("cpd_a_gauge", "a");
  registry.GetHistogram("cpd_c_us", "c");
  const std::vector<std::string> names = registry.FamilyNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "cpd_a_gauge");
  EXPECT_EQ(names[1], "cpd_b_total");
  EXPECT_EQ(names[2], "cpd_c_us");
}

// --------------------------------------------------------------- exposition

TEST(ExpositionTest, EscapesLabelValuesAndHelp) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(EscapeHelpText("help\nwith \\ and \"quotes\""),
            "help\\nwith \\\\ and \"quotes\"");
}

TEST(ExpositionTest, RendersEscapedChildren) {
  MetricsRegistry registry;
  registry
      .GetCounter("cpd_weird_total", "weird\nhelp",
                  {{"model", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# HELP cpd_weird_total weird\\nhelp"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cpd_weird_total counter"), std::string::npos);
  EXPECT_NE(text.find("cpd_weird_total{model=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(ExpositionTest, HistogramExpositionIsCumulativeWithInf) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("cpd_lat_us", "latency");
  h->Record(2.0);
  h->Record(2.0);
  h->Record(1e9);
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# TYPE cpd_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("cpd_lat_us_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("cpd_lat_us_count 3"), std::string::npos);
  // Cumulative counts never decrease across bucket lines.
  uint64_t last = 0;
  size_t pos = 0;
  int lines = 0;
  while ((pos = text.find("cpd_lat_us_bucket{le=", pos)) !=
         std::string::npos) {
    const size_t space = text.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    const uint64_t value =
        std::stoull(text.substr(space + 2, text.find('\n', space) - space - 2));
    EXPECT_GE(value, last);
    last = value;
    ++lines;
    pos = space;
  }
  EXPECT_GT(lines, 10);
}

TEST(ExpositionTest, DeterministicBytes) {
  MetricsRegistry registry;
  registry.GetCounter("cpd_z_total", "z")->Increment(5);
  registry.GetGauge("cpd_g", "g")->Set(2.5);
  EXPECT_EQ(registry.ExpositionText(), registry.ExpositionText());
}

// -------------------------------------------------------------------- trace

int64_t g_fake_now_us = 0;
int64_t FakeClock() { return g_fake_now_us; }

std::string StringField(const Json& object, const char* key) {
  auto value = object.GetString(key, "");
  return value.ok() ? *value : std::string();
}

double NumberField(const Json& object, const char* key) {
  auto value = object.GetNumber(key);
  return value.ok() ? *value : -1.0;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_fake_now_us = 1000;
    SetClockForTest(&FakeClock);
  }
  void TearDown() override { SetClockForTest(nullptr); }
};

TEST_F(TraceTest, SpansRecordUnderInjectedClock) {
  TraceRecorder recorder;
  recorder.SetThreadName(0, "trainer");
  {
    TraceSpan span(&recorder, "sweep", 0);
    span.AddArg("index", Json(int64_t{7}));
    g_fake_now_us += 250;
  }
  {
    TraceSpan span(&recorder, "merge", 0);
    g_fake_now_us += 50;
  }
  EXPECT_EQ(recorder.num_events(), 2u);

  auto parsed = Json::Parse(recorder.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata first, then the spans in recording order with monotonically
  // non-decreasing timestamps.
  ASSERT_EQ(events->size(), 3u);
  const Json& meta = (*events)[0];
  EXPECT_EQ(StringField(meta, "ph"), "M");
  EXPECT_EQ(StringField(meta, "name"), "thread_name");
  int64_t last_ts = -1;
  for (size_t i = 1; i < events->size(); ++i) {
    const Json& ev = (*events)[i];
    EXPECT_EQ(StringField(ev, "ph"), "X");
    const double ts = NumberField(ev, "ts");
    const double dur = NumberField(ev, "dur");
    EXPECT_GE(static_cast<int64_t>(ts), last_ts);
    EXPECT_GE(dur, 0.0);
    last_ts = static_cast<int64_t>(ts);
  }
  const Json& sweep = (*events)[1];
  EXPECT_EQ(StringField(sweep, "name"), "sweep");
  EXPECT_DOUBLE_EQ(NumberField(sweep, "ts"), 1000.0);
  EXPECT_DOUBLE_EQ(NumberField(sweep, "dur"), 250.0);
  const Json* args = sweep.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(NumberField(*args, "index"), 7.0);
}

TEST_F(TraceTest, NullRecorderIsNoOp) {
  TraceSpan span(nullptr, "ignored", 0);
  span.AddArg("k", Json(1));
  // Destruction must not crash; nothing to assert beyond that.
}

TEST_F(TraceTest, AddSpanDirectAndWorkerRows) {
  TraceRecorder recorder;
  recorder.SetThreadName(100, "worker 0");
  recorder.SetThreadName(101, "worker 1");
  Json args = Json::MakeObject();
  args.Set("shard", Json(3));
  recorder.AddSpan("shard 3", 101, 2000, 500, std::move(args));
  auto parsed = Json::Parse(recorder.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 3u);  // 2 metadata + 1 span.
  const Json& span = (*events)[2];
  EXPECT_DOUBLE_EQ(NumberField(span, "tid"), 101.0);
  EXPECT_DOUBLE_EQ(NumberField(span, "ts"), 2000.0);
  EXPECT_DOUBLE_EQ(NumberField(span, "dur"), 500.0);
}

TEST(ClockTest, RealClockIsMonotonicNonDecreasing) {
  const int64_t a = NowMicros();
  const int64_t b = NowMicros();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace cpd::obs
