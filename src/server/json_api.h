#ifndef CPD_SERVER_JSON_API_H_
#define CPD_SERVER_JSON_API_H_

/// \file json_api.h
/// The JSON wire format of the serving endpoints, and the route table that
/// binds it to an HttpServer + ModelRegistry. The mapping is 1:1 with the
/// in-process serve::QueryEngine API — the loopback tests assert that an
/// HTTP response body is byte-identical to serializing the in-process
/// response with these functions.
///
/// Requests (`"type"` selects the variant):
///   {"type":"membership","user":3,"top_k":5,"include_distribution":false}
///   {"type":"rank","words":[1,2],"top_k":5}            // ids, or
///   {"type":"rank","query":"solar panels","top_k":5}   // vocab required
///   {"type":"diffusion","source":1,"target":2,"document":7,"time_bin":3}
///   {"type":"top_users","community":2,"top_k":10}
/// A batch posts {"batch":[request,...]} and gets {"responses":[...]},
/// positionally aligned, each slot a response or an {"error":...} object.
///
/// Errors anywhere render as the unified envelope
///   {"error":{"code":"<StatusCodeToString>","message":"...",
///             "retry_after_ms":N?}}
/// with the HTTP status from HttpStatusForCode (retry_after_ms only on
/// load-shed 429s, rendered by the transport).
///
/// Endpoints registered by RegisterCpdRoutes (the registry serves a *named
/// set* of models; `{model}` routes address one by name, and the bare
/// routes are aliases for the "default" model):
///   POST /v1/query              single or batch query (above), default model
///   GET  /v1/membership/{user}  ?k=N&distribution=1 shortcut, default model
///   GET  /v1/models             every loaded model: name, generation,
///                               loaded_unix_ms, path
///   POST /v1/models/{model}/query             query a named model
///   GET  /v1/models/{model}/membership/{user} shortcut on a named model
///   GET  /healthz               serving generation + model liveness
///   GET  /statsz                transport + service + per-model counters,
///                               per-query-type latency p50/p99
///                               (+ "coalescer" when micro-batching is on)
///   GET  /metricsz              the same numbers (plus per-stage latency
///                               histograms) as Prometheus text exposition
///                               (docs/OBSERVABILITY.md is the catalog)
///   POST /admin/reload          hot-swap: re-read the artifact (optional
///                               body {"path":"other.cpdb"} switches files,
///                               {"model":"name"} addresses/registers a
///                               named model)
///   POST /admin/ingest          streaming ingest: body = UpdateBatch JSON
///                               (src/ingest/update_batch.h), optional
///                               "model" field picks the swap target;
///                               warm-starts the model, writes a fresh
///                               artifact, and swaps it in with zero
///                               downtime. 409 when the server runs without
///                               an ingest pipeline.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "server/coalescer.h"
#include "server/http_server.h"
#include "server/model_registry.h"
#include "util/json.h"
#include "util/status.h"

namespace cpd::ingest {
class IngestPipeline;
}  // namespace cpd::ingest

namespace cpd::server {

/// Service-level counters and latency/stage histograms, all backed by an
/// owned obs::MetricsRegistry (the transport counters live in
/// HttpServerStats and are folded into /metricsz at scrape time). The
/// registry is per-stats-object, not process-global, so two server stacks
/// in one process (server_determinism_test) scrape independently.
///
/// /statsz renders these through the accessors below with its original
/// field names; /metricsz renders registry->ExpositionText() directly.
/// Latency percentiles come from fixed log-bucket histograms (<= ~5%
/// relative error, see obs/metrics.h) instead of the old 2048-sample ring:
/// the ring's racy window sampling made scrapes nondeterministic, the
/// histogram's relaxed bucket counts are exact and, under a frozen
/// obs::Clock, byte-deterministic.
class ServiceStats {
 public:
  /// Type index = the QueryRequest variant index.
  static constexpr size_t kNumQueryTypes = 4;
  static constexpr const char* kQueryTypeNames[kNumQueryTypes] = {
      "membership", "rank", "diffusion", "top_users"};

  /// Handler-side stages of one query, recorded with the resolved query
  /// type (cpd_query_stage_us{query_type,stage}).
  enum class QueryStage { kParse = 0, kBatchWait = 1, kScoring = 2,
                          kSerialize = 3 };
  static constexpr size_t kNumQueryStages = 4;
  static constexpr const char* kQueryStageNames[kNumQueryStages] = {
      "parse", "batch_wait", "scoring", "serialize"};

  /// Transport-side stages recorded by HttpServer's stage-recorder hook,
  /// where the query type is unknown (cpd_request_stage_us{stage}).
  static constexpr size_t kNumRequestStages = 2;
  static constexpr const char* kRequestStageNames[kNumRequestStages] = {
      "queue_wait", "write"};

  ServiceStats();
  ServiceStats(const ServiceStats&) = delete;
  ServiceStats& operator=(const ServiceStats&) = delete;

  obs::MetricsRegistry* registry() { return &registry_; }
  const obs::MetricsRegistry* registry() const { return &registry_; }

  /// --metrics off: every Count*/Record* becomes a no-op (scrapes render
  /// zeros). bench_obs pins the instrumented-vs-off throughput delta.
  void set_metrics_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool metrics_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Per-model query counters, keyed by registry name.
  struct ModelCounters {
    uint64_t queries = 0;
    uint64_t batch_queries = 0;
    uint64_t query_errors = 0;
  };

  /// Bumps the {model}-labeled counter child (aggregates are computed at
  /// scrape by summing children).
  void CountQuery(const std::string& model);
  void CountBatchQuery(const std::string& model);
  void CountQueryError(const std::string& model);

  // Streaming-ingest counters (POST /admin/ingest).
  void CountIngestSuccess(uint64_t documents, uint64_t users, uint64_t links);
  void CountIngestFailure();

  // ----- statsz aggregate reads (wire field names unchanged) -----
  uint64_t queries() const;        ///< Single queries answered OK.
  uint64_t batch_queries() const;  ///< Requests inside batches.
  uint64_t query_errors() const;   ///< Typed per-query failures.
  uint64_t ingests() const;        ///< Batches applied + swapped.
  uint64_t ingest_failures() const;
  uint64_t ingested_documents() const;
  uint64_t ingested_users() const;
  uint64_t ingested_links() const;  ///< Friendships + diffusions.

  /// Snapshot of the per-model rows (name-sorted).
  std::map<std::string, ModelCounters> PerModel() const;

  struct LatencySummary {
    uint64_t count = 0;   ///< Samples ever recorded for the type.
    double p50_us = 0.0;  ///< Histogram-reconstructed (<= ~5% rel. error).
    double p99_us = 0.0;
  };

  /// Records one successful query's service time (handler-side, excludes
  /// transport). `type` out of range is ignored.
  void RecordLatency(size_t type, double micros);
  LatencySummary LatencyFor(size_t type) const;

  void RecordQueryStage(size_t type, QueryStage stage, double micros);
  /// `stage` must be one of kRequestStageNames (unknown names are dropped).
  void RecordRequestStage(const char* stage, double micros);

 private:
  obs::MetricsRegistry registry_;
  std::atomic<bool> enabled_{true};
  // Handles registered once in the constructor; Record* is lock-free.
  obs::Counter* ingests_;
  obs::Counter* ingest_failures_;
  obs::Counter* ingested_documents_;
  obs::Counter* ingested_users_;
  obs::Counter* ingested_links_;
  obs::Histogram* latency_[kNumQueryTypes];
  obs::Histogram* query_stage_[kNumQueryTypes][kNumQueryStages];
  obs::Histogram* request_stage_[kNumRequestStages];
};

/// HTTP status for a typed error (InvalidArgument -> 400, NotFound /
/// OutOfRange -> 404, FailedPrecondition -> 409, ResourceExhausted -> 429,
/// Unimplemented -> 501, Unavailable -> 503, DeadlineExceeded -> 504,
/// everything else -> 500).
int HttpStatusForCode(StatusCode code);

/// {"error":{"code":...,"message":...}}.
Json StatusToJson(const Status& status);

/// Decodes one typed request. `vocab` may be null (textual "query" fields
/// then fail with FailedPrecondition).
StatusOr<serve::QueryRequest> QueryRequestFromJson(const Json& json,
                                                   const Vocabulary* vocab);

/// Encodes a typed request (load generator / client side of the wire).
Json QueryRequestToJson(const serve::QueryRequest& request);

/// Encodes a typed response exactly as the HTTP endpoints do.
Json QueryResponseToJson(const serve::QueryResponse& response);

/// Registers every CPD endpoint on `server`. The registry, stats, and (when
/// given) pipeline and coalescer must outlive the server; the registry must
/// already hold a model (handlers answer 503 otherwise). `pipeline` enables
/// POST /admin/ingest — null keeps the route registered but answering 409
/// (the server was started without the training graph). `coalescer` (when
/// non-null and enabled) micro-batches single queries through the
/// QueryBatch path; batch requests and GET shortcuts bypass it.
void RegisterCpdRoutes(HttpServer* server, ModelRegistry* registry,
                       ServiceStats* stats,
                       ingest::IngestPipeline* pipeline = nullptr,
                       Coalescer* coalescer = nullptr);

}  // namespace cpd::server

#endif  // CPD_SERVER_JSON_API_H_
