#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "eval/metrics.h"
#include "obs/metrics.h"
#include "server/http.h"
#include "server/json_api.h"
#include "synth/synth_config.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using cpd::serve::QueryRequest;

void ServeStack::Start(cpd::ingest::IngestPipeline* pipeline) {
  cpd::server::HttpServerOptions options;
  options.port = 0;
  options.io_mode = cpd::server::IoMode::kEpoll;
  options.threads = 2;
  options.log_requests = false;  // One log line per request would dominate.
  coalescer = std::make_unique<cpd::server::Coalescer>(
      cpd::server::CoalescerOptions{});  // window_us 0: coalescing off.
  stats = std::make_unique<cpd::server::ServiceStats>();
  server = std::make_unique<cpd::server::HttpServer>(options);
  cpd::server::RegisterCpdRoutes(server.get(), registry.get(), stats.get(),
                                 pipeline, coalescer.get());
  CPD_CHECK(server->Start().ok());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): decorrelated streams per input kind.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

cpd::SynthResult MakeTwitterData(uint64_t seed, int users) {
  cpd::SynthConfig config = cpd::SynthConfig::TwitterLike();
  config.num_users = users;
  config.seed = SubSeed(seed, 1);
  auto generated = cpd::GenerateSocialGraph(config);
  CPD_CHECK(generated.ok());
  return std::move(*generated);
}

double ArgmaxNmi(const cpd::serve::ProfileIndex& index,
                 const std::vector<int>& planted, size_t users) {
  std::vector<int> found(users);
  for (size_t u = 0; u < users; ++u) {
    const auto pi = index.Membership(static_cast<cpd::UserId>(u));
    found[u] = static_cast<int>(std::max_element(pi.begin(), pi.end()) - pi.begin());
  }
  return cpd::NormalizedMutualInformation(
      found, std::span<const int>(planted.data(), users));
}

std::vector<QueryRequest> MixedRequests(const cpd::SocialGraph& graph,
                                        size_t num_users, size_t vocab_size,
                                        int num_communities, size_t count,
                                        uint64_t seed) {
  // Every 20 consecutive requests hold exactly 11 membership, 5 rank, 2
  // diffusion and 2 top_users queries (interleaved), so any window of the
  // pool carries the mix; only the request contents are random.
  static constexpr char kPattern[] = "MRMTMRMDMRMTMRMDMRMM";
  cpd::Rng rng(seed);
  std::vector<QueryRequest> requests;
  requests.reserve(count);
  const auto& links = graph.diffusion_links();
  for (size_t i = 0; i < count; ++i) {
    const char kind = kPattern[i % 20];
    if (kind == 'M') {
      cpd::serve::MembershipRequest membership;
      membership.user = static_cast<cpd::UserId>(rng.NextUint64(num_users));
      requests.emplace_back(membership);
    } else if (kind == 'R') {
      cpd::serve::RankCommunitiesRequest rank;
      const size_t terms = 1 + rng.NextUint64(2);
      for (size_t t = 0; t < terms; ++t) {
        rank.words.push_back(static_cast<cpd::WordId>(rng.NextUint64(vocab_size)));
      }
      requests.emplace_back(rank);
    } else if (kind == 'D' && !links.empty()) {
      const cpd::DiffusionLink& link = links[rng.NextUint64(links.size())];
      cpd::serve::DiffusionRequest diffusion;
      diffusion.source = graph.document(link.i).user;
      diffusion.target = graph.document(link.j).user;
      diffusion.document = link.j;
      diffusion.time_bin = link.time;
      requests.emplace_back(diffusion);
    } else {
      cpd::serve::TopUsersRequest top_users;
      top_users.community = static_cast<int>(
          rng.NextUint64(static_cast<uint64_t>(num_communities)));
      requests.emplace_back(top_users);
    }
  }
  return requests;
}

std::string ReferenceBody(const cpd::serve::QueryEngine& engine,
                          const QueryRequest& request) {
  auto response = engine.Query(request);
  if (!response.ok()) return "";
  return cpd::server::QueryResponseToJson(*response).Dump();
}

LoadResult RunClosedLoop(int port, const std::vector<std::string>& bodies,
                         const std::vector<std::string>& expected,
                         const std::vector<int>& types, int connections,
                         double seconds) {
  struct PerThread {
    std::vector<double> latency_us;
    std::array<std::vector<double>, 4> per_type_us;
    std::vector<double> response_bytes;
    OpCounter ops;
  };
  std::vector<PerThread> slots(static_cast<size_t>(connections));
  std::atomic<bool> stop{false};
  const double cpu_start = ProcessCpuSeconds();
  const double start = NowSeconds();
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      PerThread& slot = slots[static_cast<size_t>(c)];
      auto client = cpd::server::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        slot.ops.Record(false);
        return;
      }
      // Each connection walks the pool from its own offset.
      size_t i = static_cast<size_t>(c) * bodies.size() /
                 static_cast<size_t>(connections);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t k = i++ % bodies.size();
        const double t0 = NowSeconds();
        auto response = client->RoundTrip("POST", "/v1/query", bodies[k]);
        const double us = (NowSeconds() - t0) * 1e6;
        const bool ok = response.ok() && response->status == 200 &&
                        response->body == expected[k];
        slot.ops.Record(ok);
        if (!ok) {
          if (!client->connected()) {
            auto again = cpd::server::HttpClient::Connect("127.0.0.1", port);
            if (!again.ok()) return;
            *client = std::move(*again);
          }
          continue;
        }
        slot.latency_us.push_back(us);
        slot.per_type_us[static_cast<size_t>(types[k])].push_back(us);
        slot.response_bytes.push_back(static_cast<double>(response->body.size()));
      }
    });
  }
  while (NowSeconds() - start < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& thread : clients) thread.join();
  LoadResult result;
  result.wall_seconds = NowSeconds() - start;
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  for (PerThread& slot : slots) {
    result.latency_us.insert(result.latency_us.end(), slot.latency_us.begin(),
                             slot.latency_us.end());
    for (size_t t = 0; t < 4; ++t) {
      result.per_type_us[t].insert(result.per_type_us[t].end(),
                                   slot.per_type_us[t].begin(),
                                   slot.per_type_us[t].end());
    }
    result.response_bytes.insert(result.response_bytes.end(),
                                 slot.response_bytes.begin(),
                                 slot.response_bytes.end());
    result.ops.Merge(slot.ops);
  }
  return result;
}

double HealthzP50Us(int port, int requests) {
  auto client = cpd::server::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) return 0.0;
  std::vector<double> us;
  us.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const double t0 = NowSeconds();
    auto response = client->RoundTrip("GET", "/healthz");
    if (!response.ok() || response->status != 200) return 0.0;
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  return Median(std::move(us));
}

std::string ScrapeMetricsz(int port) {
  auto client = cpd::server::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) return "";
  auto response = client->RoundTrip("GET", "/metricsz");
  if (!response.ok() || response->status != 200) return "";
  return response->body;
}

std::vector<uint64_t> ScrapeBuckets(const std::string& metricsz,
                                    const std::string& family,
                                    const std::string& label_filter) {
  const std::string prefix = family + "_bucket{";
  std::vector<uint64_t> buckets;
  std::string_view current_child;
  size_t index = 0;
  size_t pos = 0;
  while (pos < metricsz.size()) {
    size_t eol = metricsz.find('\n', pos);
    if (eol == std::string::npos) eol = metricsz.size();
    const std::string_view line(metricsz.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, prefix.size()) != prefix) continue;
    const size_t le = line.find("le=\"");
    const size_t space = line.rfind(' ');
    if (le == std::string_view::npos || space == std::string_view::npos) continue;
    const std::string_view child = line.substr(0, le);
    if (!label_filter.empty() && child.find(label_filter) == std::string_view::npos) {
      continue;
    }
    if (child != current_child) {  // A child's bucket lines are consecutive.
      current_child = child;
      index = 0;
    }
    const uint64_t value = std::strtoull(line.data() + space + 1, nullptr, 10);
    if (index >= buckets.size()) buckets.resize(index + 1, 0);
    buckets[index++] += value;
  }
  return buckets;
}

double DeltaQuantile(const std::vector<uint64_t>& before,
                     const std::vector<uint64_t>& after, double q) {
  cpd::obs::Histogram::Snapshot snap;
  snap.buckets.resize(after.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    const uint64_t cumulative = after[i] - (i < before.size() ? before[i] : 0);
    snap.buckets[i] = cumulative - prev;
    prev = cumulative;
  }
  snap.count = prev;
  return snap.Percentile(q);
}

StageP50s StagesFromScrapes(const std::string& before, const std::string& after) {
  const auto p50 = [&](const char* family, const std::string& filter) {
    return DeltaQuantile(ScrapeBuckets(before, family, filter),
                         ScrapeBuckets(after, family, filter), 0.5);
  };
  StageP50s stages;
  stages.queue_wait = p50("cpd_request_stage_us", "stage=\"queue_wait\"");
  stages.write = p50("cpd_request_stage_us", "stage=\"write\"");
  stages.parse = p50("cpd_query_stage_us", "stage=\"parse\"");
  stages.batch_wait = p50("cpd_query_stage_us", "stage=\"batch_wait\"");
  stages.scoring = p50("cpd_query_stage_us", "stage=\"scoring\"");
  stages.serialize = p50("cpd_query_stage_us", "stage=\"serialize\"");
  stages.latency = p50("cpd_query_latency_us", "");
  return stages;
}

void RecordServerLayers(const StageP50s& stages, double client_p50_us,
                        double healthz_us, const StageP50s& healthz_stages,
                        Result* result) {
  result->Set("server.queue_wait_us", stages.queue_wait);
  result->Set("server.parse_us", stages.parse);
  result->Set("server.batch_wait_us", stages.batch_wait);
  result->Set("server.scoring_us", stages.scoring);
  result->Set("server.serialize_us", stages.serialize);
  result->Set("server.write_us", stages.write);
  result->Set("server.latency_us", stages.latency);
  result->Set("server.transport_us", client_p50_us - stages.latency);
  result->Set("server.healthz_us", healthz_us);
  // The handler latency histogram times batch_wait + scoring of each
  // request; the two stage medians must add up to its median. The gap is a
  // share of the client op time: sub-microsecond stages sit at the
  // histograms' 0.5 us floor, so a share of the stages themselves would
  // measure the bucket layout, not the blocking path.
  result->Set("reconcile.server_stages_gap_pct",
              std::abs(stages.batch_wait + stages.scoring - stages.latency) /
                  client_p50_us * 100.0);
  // Client time = every server stage + the transport cost, taken from the
  // /healthz round trip minus its own queue_wait and write stages.
  const double transport =
      healthz_us - healthz_stages.queue_wait - healthz_stages.write;
  result->Set("reconcile.client_gap_pct",
              GapPct(stages.Sum() + transport, client_p50_us));
}

void RecordInProcessLayers(const cpd::serve::QueryEngine& engine,
                           const std::vector<QueryRequest>& requests,
                           int rounds, Result* result) {
  std::array<std::vector<double>, 4> query_us;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  const cpd::Vocabulary* no_vocab = nullptr;
  for (int round = 0; round < rounds; ++round) {
    for (const QueryRequest& request : requests) {
      const std::string wire = cpd::server::QueryRequestToJson(request).Dump();
      double t0 = NowSeconds();
      auto parsed = cpd::Json::Parse(wire);
      CPD_CHECK(parsed.ok());
      auto decoded = cpd::server::QueryRequestFromJson(*parsed, no_vocab);
      decode_us.push_back((NowSeconds() - t0) * 1e6);
      CPD_CHECK(decoded.ok());
      t0 = NowSeconds();
      auto response = engine.Query(*decoded);
      query_us[static_cast<size_t>(TypeOf(request))].push_back(
          (NowSeconds() - t0) * 1e6);
      CPD_CHECK(response.ok());
      t0 = NowSeconds();
      const std::string body = cpd::server::QueryResponseToJson(*response).Dump();
      encode_us.push_back((NowSeconds() - t0) * 1e6);
      CPD_CHECK(!body.empty());
    }
  }
  result->Set("util.json.encode_us", Median(std::move(encode_us)));
  result->Set("util.json.decode_us", Median(std::move(decode_us)));
  for (size_t t = 0; t < 4; ++t) {
    if (query_us[t].empty()) continue;
    result->Set(std::string("serve.query_") + kTypeNames[t] + "_us",
                Median(std::move(query_us[t])));
  }
}

double CalibrateMs(int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(CalibrationKernelMs());
  return Median(std::move(ms));
}

double GapPct(double a, double b) {
  return b > 0.0 ? std::abs(a - b) / b * 100.0 : 0.0;
}

}  // namespace perfbench
