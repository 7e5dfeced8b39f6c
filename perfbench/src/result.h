#ifndef PERFBENCH_RESULT_H_
#define PERFBENCH_RESULT_H_

/// \file result.h
/// The benchmark's result schema. Every run prints, as its last stdout
/// line, one JSON object with exactly the keys correct / attempted / failed
/// / metrics; `metrics` holds every end-to-end metric (untraced run) or
/// every per-layer metric (traced run), each as {"value", "unit"}. Lines
/// before it carry the run's detail object (provenance, tail percentiles
/// and sample counts, output checks, reconciliation), prefixed "detail ".
///
/// The metric catalogs below mirror BENCHMARK.json; the benchmark's tests
/// check the two agree.

#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "util/json.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

class Result {
 public:
  /// Records one metric of either catalog (an unknown name aborts: the
  /// catalog is the schema).
  void Set(const std::string& name, double value);

  /// Free-form detail fields printed on the "detail" line.
  void SetDetail(const std::string& key, cpd::Json value);

  /// The final line. Untraced: every end-to-end metric must have been set
  /// (a missing one aborts). Traced: per-layer metrics a workload's path
  /// does not cross read 0.
  std::string FinalLine(bool trace, const OpCounter& ops) const;
  std::string DetailLine() const;

 private:
  std::map<std::string, double> values_;
  cpd::Json detail_ = cpd::Json::MakeObject();
};

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_H_
