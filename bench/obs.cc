// Observability overhead benchmark -> BENCH_obs.json.
//
// Two measurements pin the cost of the src/obs subsystem:
//
//   1. Record-path microbench: ns/op for Counter::Increment and
//      Histogram::Record (the two hot-path primitives every request
//      touches), single-threaded, on the real registry handles.
//   2. End-to-end serving overhead: the cpd_serve stack (trained model,
//      epoll, one closed-loop connection per pass issuing POST /v1/query)
//      with ServiceStats metrics recording on and off (`cpd_serve
//      --metrics off` is the same switch). One server serves both modes
//      and its passes alternate (off-on, on-off, ...), so drift in a
//      shared machine's speed and the threads' placement land on both
//      modes alike. Reports best-of-N qps per mode and the relative
//      overhead; the budget is <= 2%.
//
// A single connection is the worst case for relative overhead: each
// request crosses every instrumented stage and there is no concurrency to
// hide the atomics behind. Best-of-N damps loopback scheduling noise
// (overhead can legitimately print negative on a noisy box — treat small
// magnitudes as "within noise", not as metrics being free).
//
// Laptop-friendly scale; honors CPD_BENCH_JSON_DIR and records
// hardware_concurrency.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cpd::bench {
namespace {

constexpr int kServerThreads = 8;
constexpr size_t kRequests = 3000;
constexpr int kMeasuredPasses = 10;  ///< Per mode.

/// cpd_serve's request mix (55% membership, 25% rank, 10% diffusion, 10%
/// top_users), pre-serialized.
std::vector<std::string> BuildWireWorkload(const SocialGraph& graph,
                                           const serve::ProfileIndex& index,
                                           size_t count, Rng* rng) {
  std::vector<std::string> bodies;
  bodies.reserve(count);
  const auto& links = graph.diffusion_links();
  for (size_t i = 0; i < count; ++i) {
    const double pick = rng->NextDouble();
    serve::QueryRequest request;
    if (pick < 0.55) {
      serve::MembershipRequest membership;
      membership.user = static_cast<UserId>(rng->NextUint64(graph.num_users()));
      membership.top_k = 5;
      request = membership;
    } else if (pick < 0.80) {
      serve::RankCommunitiesRequest rank;
      const size_t terms = 1 + rng->NextUint64(2);
      for (size_t t = 0; t < terms; ++t) {
        rank.words.push_back(
            static_cast<WordId>(rng->NextUint64(index.vocab_size())));
      }
      rank.top_k = 5;
      request = rank;
    } else if (pick < 0.90 && !links.empty()) {
      const DiffusionLink& link = links[rng->NextUint64(links.size())];
      serve::DiffusionRequest diffusion;
      diffusion.source = graph.document(link.i).user;
      diffusion.target = graph.document(link.j).user;
      diffusion.document = link.j;
      diffusion.time_bin = link.time;
      request = diffusion;
    } else {
      serve::TopUsersRequest top_users;
      top_users.community = static_cast<int>(
          rng->NextUint64(static_cast<uint64_t>(index.num_communities())));
      top_users.top_k = 10;
      request = top_users;
    }
    bodies.push_back(server::QueryRequestToJson(request).Dump());
  }
  return bodies;
}

/// One closed-loop pass on a single keep-alive connection; returns qps.
double RunPass(int port, const std::vector<std::string>& workload) {
  auto client = server::HttpClient::Connect("127.0.0.1", port);
  CPD_CHECK(client.ok());
  WallTimer wall;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto response = client->RoundTrip("POST", "/v1/query", workload[i]);
    CPD_CHECK(response.ok());
    CPD_CHECK_EQ(response->status, 200);
  }
  return static_cast<double>(workload.size()) / wall.ElapsedSeconds();
}

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  const BenchDataset& dataset = TwitterDataset(scale);
  PrintBenchHeader("Observability overhead (src/obs)", scale, dataset);

  // ----- 1. record-path microbench -----
  obs::MetricsRegistry registry_micro;
  obs::Counter* counter = registry_micro.GetCounter(
      "bench_obs_counter_total", "Microbench counter.");
  obs::Histogram* histogram = registry_micro.GetHistogram(
      "bench_obs_histogram_us", "Microbench histogram.");
  constexpr size_t kOps = 5'000'000;
  WallTimer counter_timer;
  for (size_t i = 0; i < kOps; ++i) counter->Increment();
  const double counter_ns = counter_timer.ElapsedSeconds() * 1e9 /
                            static_cast<double>(kOps);
  WallTimer histogram_timer;
  for (size_t i = 0; i < kOps; ++i) {
    histogram->Record(static_cast<double>(1 + (i & 1023)));
  }
  const double histogram_ns = histogram_timer.ElapsedSeconds() * 1e9 /
                              static_cast<double>(kOps);
  std::printf("record path: counter %.1f ns/op, histogram %.1f ns/op\n",
              counter_ns, histogram_ns);

  // ----- 2. end-to-end serving overhead -----
  CpdConfig config = BaseCpdConfig(scale);
  config.num_communities = 12;
  std::printf("training |C|=%d |Z|=%d T1=%d...\n", config.num_communities,
              config.num_topics, config.em_iterations);
  auto model = CpdModel::Train(dataset.data.graph, config);
  CPD_CHECK(model.ok());

  const std::string artifact_path =
      (std::filesystem::temp_directory_path() / "bench_obs.cpdb").string();
  CPD_CHECK(model
                ->SaveBinary(artifact_path,
                             &dataset.data.graph.corpus().vocabulary())
                .ok());
  server::ModelRegistry registry(
      serve::ProfileIndexOptions{},
      std::shared_ptr<const SocialGraph>(&dataset.data.graph,
                                         [](const SocialGraph*) {}));
  CPD_CHECK(registry.LoadFrom(artifact_path).ok());

  Rng rng(20260807);
  const std::vector<std::string> workload = BuildWireWorkload(
      dataset.data.graph, registry.Snapshot()->index, kRequests, &rng);

  server::HttpServerOptions options;
  options.port = 0;
  options.threads = kServerThreads;
  options.log_requests = false;
  server::ServiceStats stats;  // Outlives the server's handlers.
  server::HttpServer http_server(options);
  server::RegisterCpdRoutes(&http_server, &registry, &stats,
                            /*pipeline=*/nullptr, /*coalescer=*/nullptr);
  CPD_CHECK(http_server.Start().ok());
  RunPass(http_server.port(), workload);  // Warm-up.
  double qps_off = 0.0;
  double qps_on = 0.0;
  for (int pass = 0; pass < 2 * kMeasuredPasses; ++pass) {
    // Alternate which mode leads each pair: off, on, on, off, off, on, ...
    const bool off = (pass % 2 == 0) == (pass / 2 % 2 == 0);
    stats.set_metrics_enabled(!off);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    double& best = off ? qps_off : qps_on;
    best = std::max(best, RunPass(http_server.port(), workload));
  }
  http_server.Stop();
  const double overhead_pct = (qps_off - qps_on) / qps_off * 100.0;
  std::printf(
      "serving (epoll, 1 connection, best of %d): metrics off %7.0f "
      "req/sec, on %7.0f req/sec -> overhead %.2f%%\n",
      kMeasuredPasses, qps_off, qps_on, overhead_pct);
  std::filesystem::remove(artifact_path);

  std::string json = "{\n  \"bench\": \"obs\",\n";
  json += StrFormat(
      "  \"dataset\": {\"users\": %zu, \"documents\": %zu, "
      "\"communities\": %d, \"topics\": %d},\n",
      dataset.data.graph.num_users(), dataset.data.graph.num_documents(),
      config.num_communities, config.num_topics);
  json += StrFormat("  \"hardware_concurrency\": %u,\n",
                    std::thread::hardware_concurrency());
  json += StrFormat("  \"counter_increment_ns\": %.2f,\n", counter_ns);
  json += StrFormat("  \"histogram_record_ns\": %.2f,\n", histogram_ns);
  json += StrFormat("  \"serving_requests_per_pass\": %zu,\n", kRequests);
  json += StrFormat("  \"serving_passes\": %d,\n", kMeasuredPasses);
  json += StrFormat("  \"serving_qps_metrics_off\": %.1f,\n", qps_off);
  json += StrFormat("  \"serving_qps_metrics_on\": %.1f,\n", qps_on);
  json += StrFormat("  \"serving_overhead_pct\": %.2f\n", overhead_pct);
  json += "}\n";

  const char* dir = std::getenv("CPD_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_obs.json";
  const Status status = WriteStringToFile(path, json);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 status.message().c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace cpd::bench

int main() {
  cpd::bench::Run();
  return 0;
}
