#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/// \file common.h
/// Shared pieces of the four workloads: run options, seeded inputs, the
/// in-process reference answers, the closed-loop HTTP load generator and
/// the /metricsz scrape reader.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cpd_model.h"
#include "result.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "server/coalescer.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "stats.h"
#include "synth/generator.h"

namespace perfbench {

/// The cpd_serve stack in process: epoll I/O, 2 worker threads, coalescing
/// off, per-request log off. Members are declared so the server stops
/// before anything its handlers reference is destroyed.
struct ServeStack {
  std::unique_ptr<cpd::server::ModelRegistry> registry;
  std::unique_ptr<cpd::server::Coalescer> coalescer;
  std::unique_ptr<cpd::server::ServiceStats> stats;
  std::unique_ptr<cpd::server::HttpServer> server;

  /// Starts the HTTP front end over `registry` (already loaded); `pipeline`
  /// enables POST /admin/ingest.
  void Start(cpd::ingest::IngestPipeline* pipeline = nullptr);
  int port() const { return server->port(); }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes and short windows: every workload finishes in seconds.
  bool smoke = false;
  /// Scratch directory for artifacts (inside the checkout); removed at exit.
  std::string run_dir;
};

/// Derives an independent 64-bit stream seed from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// The Twitter-like planted dataset with `users` users, seeded from the run
/// seed (the program sees only this generated graph).
cpd::SynthResult MakeTwitterData(uint64_t seed, int users);

/// NMI of argmax pi over the first `users` users against planted labels.
double ArgmaxNmi(const cpd::serve::ProfileIndex& index,
                 const std::vector<int>& planted, size_t users);

/// The serving request mix of `cpd_serve` traffic: 55% membership, 25% rank
/// (1-2 word ids), 10% diffusion, 10% top_users, API-default fields, in a
/// fixed interleaving that repeats every kMixPeriod requests. Users, words
/// and documents are drawn below the given bounds so every request is valid
/// on the graph it was drawn from and on any graph that grew from it.
inline constexpr size_t kMixPeriod = 20;
std::vector<cpd::serve::QueryRequest> MixedRequests(
    const cpd::SocialGraph& graph, size_t num_users, size_t vocab_size,
    int num_communities, size_t count, uint64_t seed);

/// Request type index (the QueryRequest variant index).
inline int TypeOf(const cpd::serve::QueryRequest& request) {
  return static_cast<int>(request.index());
}
inline constexpr std::array<const char*, 4> kTypeNames = {
    "membership", "rank", "diffusion", "top_users"};

/// Exactly what the HTTP endpoint must return for `request`: the in-process
/// QueryEngine response through QueryResponseToJson. Empty on error.
std::string ReferenceBody(const cpd::serve::QueryEngine& engine,
                          const cpd::serve::QueryRequest& request);

/// One closed-loop window against POST /v1/query: `connections` client
/// threads, each with a keep-alive connection, each sending its next request
/// as soon as the previous response lands, until `seconds` elapse. Every
/// response must be 200 with a body byte-equal to `expected[i]`; a mismatch
/// is a failed op.
struct LoadResult {
  std::vector<double> latency_us;
  std::array<std::vector<double>, 4> per_type_us;
  std::vector<double> response_bytes;
  OpCounter ops;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};
LoadResult RunClosedLoop(int port, const std::vector<std::string>& bodies,
                         const std::vector<std::string>& expected,
                         const std::vector<int>& types, int connections,
                         double seconds);

/// Client p50 of GET /healthz on one connection (transport with a trivial
/// handler), microseconds.
double HealthzP50Us(int port, int requests);

/// Cumulative bucket counts of one /metricsz histogram family, summed over
/// every child whose label set contains `label_filter` ("" = all).
std::vector<uint64_t> ScrapeBuckets(const std::string& metricsz,
                                    const std::string& family,
                                    const std::string& label_filter);
/// GET /metricsz body ("" on failure).
std::string ScrapeMetricsz(int port);
/// p-quantile reconstructed from the delta of two cumulative scrapes.
double DeltaQuantile(const std::vector<uint64_t>& before,
                     const std::vector<uint64_t>& after, double q);

/// Server-side stage p50s over a window, from two /metricsz scrapes.
struct StageP50s {
  double queue_wait = 0, parse = 0, batch_wait = 0, scoring = 0,
         serialize = 0, write = 0, latency = 0;
  double Sum() const {
    return queue_wait + parse + batch_wait + scoring + serialize + write;
  }
};
StageP50s StagesFromScrapes(const std::string& before, const std::string& after);

/// Records the server.* stage metrics and the serve reconciliation:
/// batch_wait + scoring against the handler latency histogram, and stage sum
/// plus the /healthz transport against the client p50.
void RecordServerLayers(const StageP50s& stages, double client_p50_us,
                        double healthz_us, const StageP50s& healthz_stages,
                        Result* result);

/// Records util.json.{encode,decode}_us and serve.query_*_us by replaying
/// `requests` in-process (median per type over `rounds` passes).
void RecordInProcessLayers(const cpd::serve::QueryEngine& engine,
                           const std::vector<cpd::serve::QueryRequest>& requests,
                           int rounds, Result* result);

/// Median of a few calibration kernel runs (machine.calib_ms).
double CalibrateMs(int reps);

/// Percent gap |a - b| / b * 100.
double GapPct(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
