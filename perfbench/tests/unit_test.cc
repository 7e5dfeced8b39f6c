// Unit tests of the benchmark's own rules: the tail-percentile rule, failure
// accounting and the result schema. Built with -DPERFBENCH_BUILD_TESTS=ON
// (perfbench/test_perfbench.py does this).

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "result.h"
#include "stats.h"
#include "util/json.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

TEST(QuantileTest, NearestRank) {
  std::vector<double> v = OneTo(10);
  EXPECT_EQ(Quantile(&v, 0.5), 5);
  EXPECT_EQ(Quantile(&v, 0.9), 9);
  EXPECT_EQ(Quantile(&v, 1.0), 10);
  EXPECT_EQ(Quantile(&v, 0.0), 1);
  std::vector<double> empty;
  EXPECT_EQ(Quantile(&empty, 0.5), 0);
}

TEST(SummarizeTest, TailLeavesAtLeastTenSamplesBeyond) {
  const Summary s = Summarize(OneTo(100), 90.0);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.tail_percentile, 90.0);
  EXPECT_EQ(s.tail, 90);
  EXPECT_EQ(s.beyond, 10u);
}

TEST(SummarizeTest, TooFewSamplesFallBackToTheMedian) {
  // 99 samples: p90 would leave only 9 beyond.
  const Summary s = Summarize(OneTo(99), 90.0);
  EXPECT_EQ(s.tail_percentile, 50.0);
  EXPECT_EQ(s.tail, s.p50);
  EXPECT_EQ(s.beyond, 49u);
}

TEST(SummarizeTest, HighestPercentileUnderTheCap) {
  Summary s = Summarize(OneTo(1000), 99.0);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(s.beyond, 10u);
  // The cap holds even when more samples would allow a higher percentile.
  s = Summarize(OneTo(100000), 99.0);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.beyond, 1000u);
  s = Summarize(OneTo(1000), 90.0);
  EXPECT_EQ(s.tail_percentile, 90.0);
  EXPECT_EQ(s.beyond, 100u);
  // p99.9 of 2000 leaves 2 beyond, so p99 is the highest admissible.
  s = Summarize(OneTo(2000), 99.9);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.beyond, 20u);
  s = Summarize(OneTo(10000), 99.9);
  EXPECT_EQ(s.tail_percentile, 99.9);
  EXPECT_EQ(s.beyond, 10u);
}

TEST(SummarizeTest, Empty) {
  const Summary s = Summarize({}, 99.0);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0);
}

TEST(OpCounterTest, WrongOutputsAreFailures) {
  OpCounter ops;
  EXPECT_FALSE(ops.correct());  // Nothing attempted.
  ops.Record(true);
  ops.Record(true);
  EXPECT_TRUE(ops.correct());
  ops.Record(false);
  EXPECT_EQ(ops.attempted(), 3u);
  EXPECT_EQ(ops.failed(), 1u);
  EXPECT_FALSE(ops.correct());
}

TEST(OpCounterTest, FailedChecksMakeTheRunIncorrect) {
  OpCounter ops;
  ops.Record(true);
  ops.FailCheck();
  EXPECT_EQ(ops.failed(), 0u);
  EXPECT_FALSE(ops.correct());
}

TEST(OpCounterTest, MergeAddsCounts) {
  OpCounter a, b;
  a.Record(true);
  b.Record(false);
  b.Record(true);
  a.Merge(b);
  EXPECT_EQ(a.attempted(), 3u);
  EXPECT_EQ(a.failed(), 1u);
}

std::set<std::string> Keys(const cpd::Json& object) {
  std::set<std::string> keys;
  for (const auto& field : object.fields()) keys.insert(field.first);
  return keys;
}

TEST(ResultTest, UntracedLineHoldsExactlyTheEndToEndMetrics) {
  Result result;
  for (const MetricDef& def : EndToEndMetrics()) result.Set(def.name, 1.25);
  result.Set("core.e_step_ms", 3.0);  // Per-layer values stay off this line.
  OpCounter ops;
  ops.Record(true);
  auto line = cpd::Json::Parse(result.FinalLine(false, ops));
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(Keys(*line),
            (std::set<std::string>{"correct", "attempted", "failed", "metrics"}));
  EXPECT_TRUE(line->Find("correct")->bool_value());
  EXPECT_EQ(line->Find("attempted")->number(), 1);
  EXPECT_EQ(line->Find("failed")->number(), 0);
  const cpd::Json& metrics = *line->Find("metrics");
  ASSERT_EQ(metrics.fields().size(), EndToEndMetrics().size());
  for (const MetricDef& def : EndToEndMetrics()) {
    const cpd::Json* metric = metrics.Find(def.name);
    ASSERT_NE(metric, nullptr) << def.name;
    EXPECT_EQ(Keys(*metric), (std::set<std::string>{"value", "unit"}));
    EXPECT_EQ(metric->Find("value")->number(), 1.25);
    EXPECT_EQ(metric->Find("unit")->string_value(), def.unit);
  }
}

TEST(ResultTest, TracedLineHoldsEveryPerLayerMetric) {
  Result result;
  result.Set("core.e_step_ms", 3.5);
  OpCounter ops;
  ops.Record(false);
  auto line = cpd::Json::Parse(result.FinalLine(true, ops));
  ASSERT_TRUE(line.ok());
  EXPECT_FALSE(line->Find("correct")->bool_value());
  EXPECT_EQ(line->Find("failed")->number(), 1);
  const cpd::Json& metrics = *line->Find("metrics");
  ASSERT_EQ(metrics.fields().size(), PerLayerMetrics().size());
  EXPECT_EQ(metrics.Find("core.e_step_ms")->Find("value")->number(), 3.5);
  // Layers off the workload's path read 0.
  EXPECT_EQ(metrics.Find("ingest.warm_ms")->Find("value")->number(), 0);
}

TEST(ResultTest, ValuesKeepAllTheirDigits) {
  Result result;
  for (const MetricDef& def : EndToEndMetrics()) result.Set(def.name, 1.0);
  result.Set("op_p50_ms", 0.123456789012345);
  OpCounter ops;
  ops.Record(true);
  const std::string line = result.FinalLine(false, ops);
  EXPECT_NE(line.find("0.123456789012345"), std::string::npos) << line;
}

TEST(ResultDeathTest, UnknownMetricAborts) {
  Result result;
  EXPECT_DEATH(result.Set("no.such.metric", 1.0), "unknown metric");
}

TEST(ResultDeathTest, MissingEndToEndMetricAborts) {
  Result result;
  OpCounter ops;
  ops.Record(true);
  EXPECT_DEATH(result.FinalLine(false, ops), "not measured");
}

}  // namespace
}  // namespace perfbench
