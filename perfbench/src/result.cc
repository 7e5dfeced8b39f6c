#include "result.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},          {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},      {"ops_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},   {"rss_peak_mb", "MB"},
      {"nmi", "ratio"},          {"read_p50_ms", "ms"},
      {"read_tail_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"core.initialize_ms", "ms"},
      {"core.e_step_ms", "ms"},
      {"core.m_step_ms", "ms"},
      {"core.capture_parameters_ms", "ms"},
      {"core.snapshot_ms", "ms"},
      {"core.merge_ms", "ms"},
      {"core.doc_moves_per_sweep", "count"},
      {"core.tokens_per_s", "1/s"},
      {"core.eta_collapse_hit_ratio", "ratio"},
      {"core.artifact_write_ms", "ms"},
      {"core.artifact_bytes", "bytes"},
      {"parallel.sample_shards_ms", "ms"},
      {"parallel.shard_imbalance", "ratio"},
      {"parallel.cpu_per_wall", "ratio"},
      {"sampling.augment_ms", "ms"},
      {"sampling.mh_accept_topic", "ratio"},
      {"sampling.mh_accept_community", "ratio"},
      {"serve.index_load_ms", "ms"},
      {"serve.query_membership_us", "us"},
      {"serve.query_rank_us", "us"},
      {"serve.query_diffusion_us", "us"},
      {"serve.query_top_users_us", "us"},
      {"util.json.encode_us", "us"},
      {"util.json.decode_us", "us"},
      {"server.queue_wait_us", "us"},
      {"server.parse_us", "us"},
      {"server.batch_wait_us", "us"},
      {"server.scoring_us", "us"},
      {"server.serialize_us", "us"},
      {"server.write_us", "us"},
      {"server.latency_us", "us"},
      {"server.transport_us", "us"},
      {"server.healthz_us", "us"},
      {"server.response_bytes", "bytes"},
      {"server.client_membership_p50_us", "us"},
      {"server.client_rank_p50_us", "us"},
      {"server.client_diffusion_p50_us", "us"},
      {"server.client_top_users_p50_us", "us"},
      {"server.registry_swap_ms", "ms"},
      {"ingest.apply_ms", "ms"},
      {"ingest.warm_ms", "ms"},
      {"ingest.save_ms", "ms"},
      {"ingest.touched_tokens", "count"},
      {"machine.calib_ms", "ms"},
      {"trace.op_p50_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"reconcile.iteration_gap_pct", "%"},
      {"reconcile.e_step_spans_gap_pct", "%"},
      {"reconcile.server_stages_gap_pct", "%"},
      {"reconcile.client_gap_pct", "%"},
  };
  return kMetrics;
}

namespace {

const MetricDef* FindMetric(const std::string& name) {
  for (const auto* catalog : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *catalog) {
      if (name == def.name) return &def;
    }
  }
  return nullptr;
}

}  // namespace

void Result::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Result::SetDetail(const std::string& key, cpd::Json value) {
  detail_.Set(key, std::move(value));
}

std::string Result::FinalLine(bool trace, const OpCounter& ops) const {
  cpd::Json metrics = cpd::Json::MakeObject();
  for (const MetricDef& def : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = values_.find(def.name);
    if (it == values_.end() && !trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric '%s' not measured\n",
                   def.name);
      std::abort();
    }
    cpd::Json metric = cpd::Json::MakeObject();
    metric.Set("value", cpd::Json(it == values_.end() ? 0.0 : it->second));
    metric.Set("unit", cpd::Json(def.unit));
    metrics.Set(def.name, std::move(metric));
  }
  cpd::Json line = cpd::Json::MakeObject();
  line.Set("correct", cpd::Json(ops.correct()));
  line.Set("attempted", cpd::Json(ops.attempted()));
  line.Set("failed", cpd::Json(ops.failed()));
  line.Set("metrics", std::move(metrics));
  return line.Dump();
}

std::string Result::DetailLine() const { return "detail " + detail_.Dump(); }

}  // namespace perfbench
