// Loopback end-to-end tests of the embedded HTTP serving layer: endpoint
// parity with the in-process QueryEngine (byte-identical JSON), malformed
// input -> 400, admission control -> 429, deadlines -> 504, zero-downtime
// hot reload, graceful shutdown draining in-flight requests, and the event
// loop's idle sweep and pipelined-request ordering.

#include "server/http_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cpd_model.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_batch.h"
#include "serve/query_engine.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "test_util.h"
#include "util/json.h"

namespace cpd {
namespace {

using server::HttpClient;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpServer;
using server::HttpServerOptions;

constexpr const char* kHost = "127.0.0.1";

/// Opens a raw loopback connection (for probes HttpClient cannot send).
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CPD_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  CPD_CHECK(::inet_pton(AF_INET, kHost, &addr.sin_addr) == 1);
  CPD_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  CPD_CHECK(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(bytes.size()));
}

/// Reads until the server closes, or until `timeout_ms` passes without
/// the close (the caller's assertions then see a truncated transcript).
std::string ReadToEof(int fd, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string response;
  char chunk[4096];
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  return response;
}

/// Trains one tiny model per seed (cached across tests).
class HttpServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(131));
    model_a_ = new CpdModel(Train(17));
    model_b_ = new CpdModel(Train(23));
  }
  static void TearDownTestSuite() {
    delete model_a_;
    delete model_b_;
    delete data_;
    model_a_ = nullptr;
    model_b_ = nullptr;
    data_ = nullptr;
  }

  static CpdModel Train(uint64_t seed) {
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 4;
    config.seed = seed;
    auto model = CpdModel::Train(data_->graph, config);
    CPD_CHECK(model.ok());
    return std::move(*model);
  }

  static std::string TempPath(const char* name) {
    return ::testing::TempDir() + "/" + name;
  }

  /// Non-owning alias of the suite-cached graph (it outlives every test).
  static std::shared_ptr<const SocialGraph> SharedGraph() {
    return {&data_->graph, [](const SocialGraph*) {}};
  }

  /// Saves `model` (with the training vocabulary bundled) to a temp .cpdb.
  static std::string SaveArtifact(const CpdModel& model, const char* name) {
    const std::string path = TempPath(name);
    const Status saved =
        model.SaveBinary(path, &data_->graph.corpus().vocabulary());
    CPD_CHECK(saved.ok());
    return path;
  }

  static HttpResponse Fetch(int port, const std::string& method,
                            const std::string& target,
                            const std::string& body = "") {
    auto client = HttpClient::Connect(kHost, port);
    CPD_CHECK(client.ok());
    auto response = client->RoundTrip(method, target, body);
    CPD_CHECK(response.ok());
    return *response;
  }

  static SynthResult* data_;
  static CpdModel* model_a_;
  static CpdModel* model_b_;
};

SynthResult* HttpServerTest::data_ = nullptr;
CpdModel* HttpServerTest::model_a_ = nullptr;
CpdModel* HttpServerTest::model_b_ = nullptr;

/// Server + registry + routes around one artifact, torn down in order.
struct ServingFixture {
  explicit ServingFixture(const std::string& artifact_path,
                          std::shared_ptr<const SocialGraph> graph = nullptr,
                          HttpServerOptions options = {})
      : registry(serve::ProfileIndexOptions{}, std::move(graph)),
        server(MakeOptions(options)) {
    CPD_CHECK(registry.LoadFrom(artifact_path).ok());
    server::RegisterCpdRoutes(&server, &registry, &stats);
  }

  static HttpServerOptions MakeOptions(HttpServerOptions options) {
    options.port = 0;
    options.log_requests = false;  // Keep test output readable.
    return options;
  }

  Status Start() { return server.Start(); }

  server::ModelRegistry registry;
  server::ServiceStats stats;
  HttpServer server;
};

// ----- endpoint parity: HTTP response bytes == in-process response -----

TEST_F(HttpServerTest, AllQueryTypesAreByteIdenticalToInProcessEngine) {
  const std::string path = SaveArtifact(*model_a_, "parity.cpdb");
  ServingFixture fixture(path, SharedGraph());
  ASSERT_TRUE(fixture.Start().ok());
  const int port = fixture.server.port();

  // The in-process reference: same artifact, same engine the server uses.
  const auto snapshot = fixture.registry.Snapshot();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_NE(snapshot->vocabulary, nullptr);  // The artifact bundles it.
  const serve::QueryEngine& engine = *snapshot->engine;

  serve::MembershipRequest membership;
  membership.user = 3;
  membership.top_k = 3;
  membership.include_distribution = true;
  serve::RankCommunitiesRequest rank;
  rank.words = {1, 2};
  rank.top_k = 3;
  serve::DiffusionRequest diffusion;
  diffusion.source = data_->graph.document(0).user;
  diffusion.target = data_->graph.document(1).user;
  diffusion.document = 1;
  diffusion.time_bin = 2;
  serve::TopUsersRequest top_users;
  top_users.community = 1;
  top_users.top_k = 5;

  for (const serve::QueryRequest& request :
       {serve::QueryRequest(membership), serve::QueryRequest(rank),
        serve::QueryRequest(diffusion), serve::QueryRequest(top_users)}) {
    const std::string body = server::QueryRequestToJson(request).Dump();
    const HttpResponse response = Fetch(port, "POST", "/v1/query", body);
    ASSERT_EQ(response.status, 200) << body << " -> " << response.body;
    auto expected = engine.Query(request);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(response.body, server::QueryResponseToJson(*expected).Dump())
        << body;
  }
}

TEST_F(HttpServerTest, MembershipGetMatchesPostAndTextualRankResolves) {
  const std::string path = SaveArtifact(*model_a_, "get_parity.cpdb");
  ServingFixture fixture(path);
  ASSERT_TRUE(fixture.Start().ok());
  const int port = fixture.server.port();

  const HttpResponse get =
      Fetch(port, "GET", "/v1/membership/3?k=3&distribution=1");
  const HttpResponse post = Fetch(
      port, "POST", "/v1/query",
      R"({"type":"membership","user":3,"top_k":3,"include_distribution":true})");
  ASSERT_EQ(get.status, 200) << get.body;
  EXPECT_EQ(get.body, post.body);

  // Textual rank goes through the bundled vocabulary server-side.
  const auto& vocab = data_->graph.corpus().vocabulary();
  ASSERT_GT(vocab.size(), 0u);
  const std::string term = vocab.WordOf(0);
  Json rank = Json::MakeObject();
  rank.Set("type", Json("rank"));
  rank.Set("query", Json(term));
  rank.Set("top_k", Json(2));
  const HttpResponse response =
      Fetch(port, "POST", "/v1/query", rank.Dump());
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"ranked\""), std::string::npos);
}

TEST_F(HttpServerTest, BatchIsPositionallyAlignedWithPerSlotErrors) {
  const std::string path = SaveArtifact(*model_a_, "batch.cpdb");
  ServingFixture fixture(path);
  ASSERT_TRUE(fixture.Start().ok());

  const std::string body =
      R"({"batch":[)"
      R"({"type":"membership","user":0},)"
      R"({"type":"membership","user":999999},)"
      R"({"type":"top_users","community":0,"top_k":2}]})";
  const HttpResponse response =
      Fetch(fixture.server.port(), "POST", "/v1/query", body);
  ASSERT_EQ(response.status, 200);
  auto json = Json::Parse(response.body);
  ASSERT_TRUE(json.ok());
  const Json* responses = json->Find("responses");
  ASSERT_NE(responses, nullptr);
  ASSERT_EQ(responses->size(), 3u);
  EXPECT_NE((*responses)[0].Find("top"), nullptr);
  ASSERT_NE((*responses)[1].Find("error"), nullptr);  // Bad slot isolated.
  EXPECT_EQ((*responses)[1].Find("error")->Find("code")->string_value(),
            "OutOfRange");
  EXPECT_NE((*responses)[2].Find("users"), nullptr);
}

// ----- health, stats, errors -----

TEST_F(HttpServerTest, HealthzStatszAndTypedErrors) {
  const std::string path = SaveArtifact(*model_a_, "health.cpdb");
  ServingFixture fixture(path);
  ASSERT_TRUE(fixture.Start().ok());
  const int port = fixture.server.port();

  const HttpResponse health = Fetch(port, "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  auto health_json = Json::Parse(health.body);
  ASSERT_TRUE(health_json.ok());
  EXPECT_EQ(health_json->Find("status")->string_value(), "serving");
  EXPECT_EQ(health_json->Find("generation")->number(), 1.0);

  // Drive one query, then statsz must reflect it.
  ASSERT_EQ(
      Fetch(port, "POST", "/v1/query", R"({"type":"membership","user":0})")
          .status,
      200);
  const HttpResponse stats = Fetch(port, "GET", "/statsz");
  EXPECT_EQ(stats.status, 200);
  auto stats_json = Json::Parse(stats.body);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_GE(stats_json->Find("service")->Find("queries")->number(), 1.0);
  EXPECT_GE(stats_json->Find("server")->Find("requests")->number(), 2.0);
  EXPECT_EQ(stats_json->Find("model")->Find("generation")->number(), 1.0);
  // The membership query above landed one latency sample for its type.
  const Json* latency = stats_json->Find("service")->Find("latency");
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(latency->Find("membership"), nullptr);
  EXPECT_GE(latency->Find("membership")->Find("count")->number(), 1.0);
  EXPECT_GT(latency->Find("membership")->Find("p50_us")->number(), 0.0);
  EXPECT_EQ(latency->Find("rank")->Find("count")->number(), 0.0);

  // Typed errors surface with mapped status codes.
  EXPECT_EQ(Fetch(port, "POST", "/v1/query", "this is not json").status, 400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/query", R"({"type":"bogus"})").status,
            400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/query", R"({"user":3})").status,
            400);  // Missing selector is malformed, not a missing resource.
  EXPECT_EQ(Fetch(port, "POST", "/v1/query",
                  R"({"type":"membership","user":999999})")
                .status,
            404);
  EXPECT_EQ(Fetch(port, "POST", "/v1/query",
                  R"({"type":"membership","user":4294967299})")
                .status,
            400);  // Out of int32 range: rejected, never truncated to u=3.
  EXPECT_EQ(Fetch(port, "GET", "/no/such/endpoint").status, 404);
  EXPECT_EQ(Fetch(port, "GET", "/v1/membership/notanumber").status, 400);
  EXPECT_EQ(Fetch(port, "GET", "/v1/membership/3?k=abc").status,
            400);  // The GET shortcut validates as strictly as the POST body.
  EXPECT_EQ(Fetch(port, "GET", "/v1/membership/99999999999999999999").status,
            400);
  // Diffusion without a bound graph is a typed FailedPrecondition (409).
  EXPECT_EQ(Fetch(port, "POST", "/v1/query",
                  R"({"type":"diffusion","source":0,"target":1,"document":0})")
                .status,
            409);
}

TEST_F(HttpServerTest, MalformedHttpFramingGets400AndClose) {
  const std::string path = SaveArtifact(*model_a_, "framing.cpdb");
  ServingFixture fixture(path);
  ASSERT_TRUE(fixture.Start().ok());

  const int fd = ConnectRaw(fixture.server.port());
  SendAll(fd, "THIS IS NOT HTTP\r\n\r\n");
  std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);

  // An HTTP/1.0 request gets its answer and a close (1.0 semantics), so a
  // read-to-EOF client is not parked until the idle timeout.
  const int fd10 = ConnectRaw(fixture.server.port());
  SendAll(fd10, "GET /healthz HTTP/1.0\r\n\r\n");
  response = ReadToEof(fd10);
  ::close(fd10);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
}

// ----- admission control -----

TEST_F(HttpServerTest, OverloadedRequestsGet429WithRetryAfter) {
  // No model needed: admission control lives below the routes.
  HttpServerOptions options;
  options.port = 0;
  options.threads = 3;       // A free worker answers the prober's shed.
  options.max_inflight = 1;  // But only one request may execute.
  options.log_requests = false;
  HttpServer server(options);

  std::mutex mutex;
  std::condition_variable cv;
  bool handler_entered = false;
  bool release_handler = false;
  server.Handle("GET", "/block", [&](const HttpRequest&) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      handler_entered = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release_handler; });
    HttpResponse response;
    response.body = "{\"blocked\":false}";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  std::thread blocker([&] {
    const HttpResponse response = Fetch(server.port(), "GET", "/block");
    EXPECT_EQ(response.status, 200);
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return handler_entered; });
  }

  // The slot is held: any further request is shed immediately, not queued.
  const auto before = std::chrono::steady_clock::now();
  auto client = HttpClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  auto rejected = client->RoundTrip("GET", "/block");
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 429);
  EXPECT_EQ(rejected->headers.at("retry-after"), "1");
  EXPECT_NE(rejected->body.find("\"ResourceExhausted\""), std::string::npos);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          before)
                .count(),
            5.0);  // Bounded: the 429 came back without waiting on the slot.

  // The request was shed, not the connection: the same keep-alive
  // connection works again once the slot frees up.
  {
    std::lock_guard<std::mutex> lock(mutex);
    release_handler = true;
  }
  cv.notify_all();
  blocker.join();
  auto after = client->RoundTrip("GET", "/block");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);

  EXPECT_GE(server.stats().rejected_429, 1u);
  server.Stop();
}

TEST_F(HttpServerTest, ConnectionFloodShedsAtTheAcceptEdge) {
  HttpServerOptions options;
  options.port = 0;
  options.max_connections = 2;  // Two live connections; the third is shed.
  options.log_requests = false;
  HttpServer server(options);
  server.Handle("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  auto first = HttpClient::Connect(kHost, server.port());
  auto second = HttpClient::Connect(kHost, server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Prove both connections are live (they hold both connection slots).
  ASSERT_EQ(first->RoundTrip("GET", "/ping")->status, 200);
  ASSERT_EQ(second->RoundTrip("GET", "/ping")->status, 200);

  auto third = HttpClient::Connect(kHost, server.port());
  ASSERT_TRUE(third.ok());
  auto shed = third->RoundTrip("GET", "/ping");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 429);
  EXPECT_FALSE(third->connected());  // 429-and-close at the accept edge.
  EXPECT_GE(server.stats().connections_rejected, 1u);
  server.Stop();
}

// ----- deadlines -----

TEST_F(HttpServerTest, SlowHandlerGets504) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.deadline_ms = 40;
  options.log_requests = false;
  HttpServer server(options);
  server.Handle("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    HttpResponse response;
    response.body = "{\"late\":true}";
    return response;
  });
  server.Handle("GET", "/fast", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{\"late\":false}";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  const HttpResponse slow = Fetch(server.port(), "GET", "/slow");
  EXPECT_EQ(slow.status, 504);
  EXPECT_NE(slow.body.find("DeadlineExceeded"), std::string::npos);
  const HttpResponse fast = Fetch(server.port(), "GET", "/fast");
  EXPECT_EQ(fast.status, 200);  // The deadline only fails over-budget work.
  EXPECT_EQ(server.stats().deadline_504, 1u);
  server.Stop();
}

// ----- hot reload -----

TEST_F(HttpServerTest, ReloadSwapsModelsWithZeroFailedInFlightRequests) {
  const std::string path_a = SaveArtifact(*model_a_, "reload_a.cpdb");
  const std::string path_b = SaveArtifact(*model_b_, "reload_b.cpdb");
  HttpServerOptions options;
  // Headroom for the 2 keep-alive traffic connections plus the test's
  // transient one-shot fetches (a closing client's server-side cleanup can
  // lag a connect by a few microseconds).
  options.threads = 6;
  ServingFixture fixture(path_a, nullptr, options);
  ASSERT_TRUE(fixture.Start().ok());
  const int port = fixture.server.port();

  // Expected membership bytes under each generation.
  serve::MembershipRequest probe;
  probe.user = 2;
  probe.top_k = 4;
  const std::string body = server::QueryRequestToJson(
      serve::QueryRequest(probe)).Dump();
  const auto expect_for = [&](const CpdModel& model) {
    const serve::ProfileIndex index = serve::ProfileIndex::FromModel(model);
    const serve::QueryEngine engine(index);
    auto response = engine.Membership(probe);
    CPD_CHECK(response.ok());
    return server::QueryResponseToJson(
               serve::QueryResponse(std::move(*response)))
        .Dump();
  };
  const std::string expected_a = expect_for(*model_a_);
  const std::string expected_b = expect_for(*model_b_);
  ASSERT_NE(expected_a, expected_b);  // Different seeds, different profiles.

  ASSERT_EQ(Fetch(port, "POST", "/v1/query", body).body, expected_a);

  // Hammer the endpoint from two threads while swapping to model B: every
  // response must be 200 and must equal one generation's bytes exactly
  // (never a torn mix).
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> traffic_count{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&] {
      auto client = HttpClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load()) {
        auto response = client->RoundTrip("POST", "/v1/query", body);
        if (!response.ok() || response->status != 200 ||
            (response->body != expected_a && response->body != expected_b)) {
          failures.fetch_add(1);
          return;
        }
        traffic_count.fetch_add(1);
      }
    });
  }
  // Let traffic flow, then swap mid-stream.
  while (traffic_count.load() < 20 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const HttpResponse reload = Fetch(port, "POST", "/admin/reload",
                                    "{\"path\":\"" + path_b + "\"}");
  ASSERT_EQ(reload.status, 200) << reload.body;
  auto reload_json = Json::Parse(reload.body);
  ASSERT_TRUE(reload_json.ok());
  EXPECT_EQ(reload_json->Find("generation")->number(), 2.0);
  const int after_swap = traffic_count.load();
  while (traffic_count.load() < after_swap + 20 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& thread : traffic) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Steady state after the swap: generation 2 serves model B's bytes.
  EXPECT_EQ(Fetch(port, "POST", "/v1/query", body).body, expected_b);
  auto health = Json::Parse(Fetch(port, "GET", "/healthz").body);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Find("generation")->number(), 2.0);

  // A failed reload keeps the current model serving. A missing file is
  // the mmap loader's NotFound: 404.
  EXPECT_EQ(Fetch(port, "POST", "/admin/reload",
                  R"({"path":"/no/such/file.cpdb"})")
                .status,
            404);
  EXPECT_EQ(Fetch(port, "POST", "/v1/query", body).body, expected_b);
}

// ----- streaming ingest -----

TEST_F(HttpServerTest, IngestWithoutAPipelineIsATyped409) {
  const std::string path = SaveArtifact(*model_a_, "ingest_off.cpdb");
  ServingFixture fixture(path);  // No pipeline registered.
  ASSERT_TRUE(fixture.Start().ok());
  const HttpResponse response =
      Fetch(fixture.server.port(), "POST", "/admin/ingest", "{}");
  EXPECT_EQ(response.status, 409);
  EXPECT_NE(response.body.find("ingest disabled"), std::string::npos);
}

TEST_F(HttpServerTest, IngestUnderLoadSwapsWithZeroFailedRequests) {
  const std::string artifact = SaveArtifact(*model_a_, "ingest_live.cpdb");

  // Pipeline over the suite graph + the artifact's model.
  ingest::IngestOptions ingest_options;
  ingest_options.config.num_communities = model_a_->num_communities();
  ingest_options.config.num_topics = model_a_->num_topics();
  ingest_options.config.seed = 71;
  ingest_options.warm_iterations = 1;
  ingest_options.artifact_base = TempPath("ingest_live");
  auto pipeline = ingest::IngestPipeline::Create(SharedGraph(), *model_a_,
                                                 ingest_options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // Registry wired by hand: injected clock, graph, pipeline-enabled routes.
  constexpr int64_t kFrozenClockMs = 1753948800123;
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, SharedGraph());
  registry.SetClock([] { return kFrozenClockMs; });
  ASSERT_TRUE(registry.LoadFrom(artifact).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 8;
  options.log_requests = false;
  HttpServer server(options);
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&server, &registry, &stats, pipeline->get());
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // The injected clock is what /statsz reports for the load timestamp.
  {
    auto statsz = Json::Parse(Fetch(port, "GET", "/statsz").body);
    ASSERT_TRUE(statsz.ok());
    EXPECT_EQ(statsz->Find("model")->Find("loaded_unix_ms")->number(),
              static_cast<double>(kFrozenClockMs));
    EXPECT_EQ(statsz->Find("service")->Find("ingests")->number(), 0.0);
  }

  // The soon-to-be-ingested user does not exist yet: 404.
  const size_t base_users = data_->graph.num_users();
  const std::string new_user_target =
      "/v1/membership/" + std::to_string(base_users);
  EXPECT_EQ(Fetch(port, "GET", new_user_target).status, 404);

  // Hammer an existing user's membership from two keep-alive connections
  // while the ingest (graph merge + warm sweeps + artifact swap) runs:
  // every response must be a 200 (zero failed requests across the swap).
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> traffic_count{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&] {
      auto client = HttpClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load()) {
        auto response = client->RoundTrip("GET", "/v1/membership/2?k=3");
        if (!response.ok() || response->status != 200 ||
            response->body.empty()) {
          failures.fetch_add(1);
          return;
        }
        traffic_count.fetch_add(1);
      }
    });
  }
  while (traffic_count.load() < 20 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // One batch: 2 new users with replayed-token documents + friendships.
  Rng rng(97);
  ingest::SampleUpdateOptions batch_options;
  batch_options.new_users = 2;
  batch_options.docs_per_user = 2;
  batch_options.friends_per_user = 2;
  batch_options.diffusions = 2;
  batch_options.time = data_->graph.num_time_bins() - 1;
  const std::string batch_body =
      ingest::UpdateBatchToJson(
          ingest::SampleUpdateBatch(data_->graph, batch_options, &rng))
          .Dump();
  const HttpResponse ingest_response =
      Fetch(port, "POST", "/admin/ingest", batch_body);
  ASSERT_EQ(ingest_response.status, 200) << ingest_response.body;
  auto ingest_json = Json::Parse(ingest_response.body);
  ASSERT_TRUE(ingest_json.ok());
  EXPECT_EQ(ingest_json->Find("generation")->number(), 2.0);
  EXPECT_EQ(ingest_json->Find("ingested")->Find("users")->number(), 2.0);

  // Keep traffic flowing past the swap, then stop: zero failures.
  const int after_swap = traffic_count.load();
  while (traffic_count.load() < after_swap + 20 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& thread : traffic) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The previously-unknown user now answers from the new generation.
  const HttpResponse membership = Fetch(port, "GET", new_user_target);
  EXPECT_EQ(membership.status, 200) << membership.body;
  EXPECT_NE(membership.body.find("\"top\""), std::string::npos);

  // statsz reflects the landed swap: generation 2, ingest counters, and the
  // new artifact path.
  auto statsz = Json::Parse(Fetch(port, "GET", "/statsz").body);
  ASSERT_TRUE(statsz.ok());
  const Json* model_json = statsz->Find("model");
  ASSERT_NE(model_json, nullptr);
  EXPECT_EQ(model_json->Find("generation")->number(), 2.0);
  EXPECT_EQ(model_json->Find("users")->number(),
            static_cast<double>(base_users + 2));
  EXPECT_NE(model_json->Find("path")->string_value().find(".g1.cpdb"),
            std::string::npos);
  const Json* service = statsz->Find("service");
  EXPECT_EQ(service->Find("ingests")->number(), 1.0);
  EXPECT_EQ(service->Find("ingested_users")->number(), 2.0);
  EXPECT_GE(service->Find("ingested_documents")->number(), 1.0);

  // A malformed batch is a typed client error and counts as a failure.
  EXPECT_EQ(Fetch(port, "POST", "/admin/ingest", "{\"num_users\":-1}").status,
            400);
  statsz = Json::Parse(Fetch(port, "GET", "/statsz").body);
  ASSERT_TRUE(statsz.ok());
  EXPECT_EQ(statsz->Find("service")->Find("ingest_failures")->number(), 1.0);
  server.Stop();
  std::filesystem::remove(TempPath("ingest_live.g1.cpdb"));
}

// ----- named models (/v1/models surface) -----

TEST_F(HttpServerTest, NamedModelRoutesServeIndependentModels) {
  const std::string path_a = SaveArtifact(*model_a_, "named_a.cpdb");
  const std::string path_b = SaveArtifact(*model_b_, "named_b.cpdb");
  ServingFixture fixture(path_a);
  ASSERT_TRUE(fixture.Start().ok());
  const int port = fixture.server.port();

  // Register a second model under the name "beta" via the reload route.
  const HttpResponse reload =
      Fetch(port, "POST", "/admin/reload",
            "{\"path\":\"" + path_b + "\",\"model\":\"beta\"}");
  ASSERT_EQ(reload.status, 200) << reload.body;
  auto reload_json = Json::Parse(reload.body);
  ASSERT_TRUE(reload_json.ok());
  EXPECT_EQ(reload_json->Find("name")->string_value(), "beta");
  EXPECT_EQ(reload_json->Find("generation")->number(), 1.0);

  // GET /v1/models lists both, name-sorted.
  const HttpResponse list = Fetch(port, "GET", "/v1/models");
  ASSERT_EQ(list.status, 200);
  auto list_json = Json::Parse(list.body);
  ASSERT_TRUE(list_json.ok());
  const Json* models = list_json->Find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_EQ(models->size(), 2u);
  EXPECT_EQ((*models)[0].Find("name")->string_value(), "beta");
  EXPECT_EQ((*models)[1].Find("name")->string_value(), "default");
  EXPECT_EQ((*models)[0].Find("path")->string_value(), path_b);
  EXPECT_EQ((*models)[1].Find("path")->string_value(), path_a);

  // The named query route answers with model B's bytes; the bare route
  // stays an alias for "default" (model A). Different seeds, different
  // profiles, so the bodies must differ.
  const std::string body = R"({"type":"membership","user":2,"top_k":4})";
  const HttpResponse via_default = Fetch(port, "POST", "/v1/query", body);
  const HttpResponse via_named_default =
      Fetch(port, "POST", "/v1/models/default/query", body);
  const HttpResponse via_beta =
      Fetch(port, "POST", "/v1/models/beta/query", body);
  ASSERT_EQ(via_default.status, 200);
  ASSERT_EQ(via_beta.status, 200);
  EXPECT_EQ(via_default.body, via_named_default.body);  // Alias is exact.
  EXPECT_NE(via_default.body, via_beta.body);

  // The named membership GET shortcut matches the named POST bytes.
  const HttpResponse get_beta =
      Fetch(port, "GET", "/v1/models/beta/membership/2?k=4");
  ASSERT_EQ(get_beta.status, 200);
  EXPECT_EQ(get_beta.body, via_beta.body);

  // An unknown name is a typed Unavailable (503), naming the model.
  const HttpResponse missing =
      Fetch(port, "POST", "/v1/models/nope/query", body);
  EXPECT_EQ(missing.status, 503);
  EXPECT_NE(missing.body.find("no model named 'nope'"), std::string::npos);
  EXPECT_EQ(Fetch(port, "GET", "/v1/models/nope/membership/2").status, 503);

  // statsz grows a per-model section; the beta row saw the beta queries.
  auto statsz = Json::Parse(Fetch(port, "GET", "/statsz").body);
  ASSERT_TRUE(statsz.ok());
  const Json* per_model = statsz->Find("models");
  ASSERT_NE(per_model, nullptr);
  ASSERT_NE(per_model->Find("beta"), nullptr);
  ASSERT_NE(per_model->Find("default"), nullptr);
  EXPECT_EQ(per_model->Find("beta")->Find("queries")->number(), 2.0);
  EXPECT_GE(per_model->Find("default")->Find("queries")->number(), 2.0);
}

TEST_F(HttpServerTest, ReloadModelFieldValidation) {
  const std::string path = SaveArtifact(*model_a_, "reload_named.cpdb");
  ServingFixture fixture(path);
  ASSERT_TRUE(fixture.Start().ok());
  const int port = fixture.server.port();

  // Empty name is a malformed request, not a lookup miss.
  EXPECT_EQ(Fetch(port, "POST", "/admin/reload", R"({"model":""})").status,
            400);
  // Reloading a name that was never loaded (and no path to load from) is a
  // client addressing error: 409, not 500.
  const HttpResponse missing =
      Fetch(port, "POST", "/admin/reload", R"({"model":"ghost"})");
  EXPECT_EQ(missing.status, 409);
  EXPECT_NE(missing.body.find("no model named 'ghost' loaded yet"),
            std::string::npos);
  // A bad path under a fresh name does not register the name.
  EXPECT_EQ(Fetch(port, "POST", "/admin/reload",
                  R"({"model":"ghost","path":"/no/such.cpdb"})")
                .status,
            404);
  auto list = Json::Parse(Fetch(port, "GET", "/v1/models").body);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->Find("models")->size(), 1u);
}

TEST_F(HttpServerTest, IngestModelFieldSwapsANamedModel) {
  const std::string artifact = SaveArtifact(*model_a_, "ingest_named.cpdb");
  ingest::IngestOptions ingest_options;
  ingest_options.config.num_communities = model_a_->num_communities();
  ingest_options.config.num_topics = model_a_->num_topics();
  ingest_options.config.seed = 73;
  ingest_options.warm_iterations = 1;
  ingest_options.artifact_base = TempPath("ingest_named");
  auto pipeline = ingest::IngestPipeline::Create(SharedGraph(), *model_a_,
                                                 ingest_options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  server::ModelRegistry registry(serve::ProfileIndexOptions{}, SharedGraph());
  ASSERT_TRUE(registry.LoadFrom(artifact).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 8;
  options.log_requests = false;
  HttpServer server(options);
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&server, &registry, &stats, pipeline->get());
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // The "model" selector rides in the same body as the update rows (the
  // batch decoder ignores unknown fields); the swap lands under that name
  // and the default model is untouched.
  Rng rng(101);
  ingest::SampleUpdateOptions batch_options;
  batch_options.new_users = 1;
  batch_options.docs_per_user = 1;
  batch_options.time = data_->graph.num_time_bins() - 1;
  Json batch_json = ingest::UpdateBatchToJson(
      ingest::SampleUpdateBatch(data_->graph, batch_options, &rng));
  batch_json.Set("model", Json("staging"));
  const HttpResponse response =
      Fetch(port, "POST", "/admin/ingest", batch_json.Dump());
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = Json::Parse(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("name")->string_value(), "staging");
  EXPECT_EQ(json->Find("generation")->number(), 1.0);

  auto list = Json::Parse(Fetch(port, "GET", "/v1/models").body);
  ASSERT_TRUE(list.ok());
  const Json* models = list->Find("models");
  ASSERT_EQ(models->size(), 2u);
  EXPECT_EQ((*models)[0].Find("name")->string_value(), "default");
  EXPECT_EQ((*models)[0].Find("path")->string_value(), artifact);
  EXPECT_EQ((*models)[1].Find("name")->string_value(), "staging");
  EXPECT_NE((*models)[1].Find("path")->string_value().find(".g1.cpdb"),
            std::string::npos);

  // The staging model serves the ingested user; the default still 404s it.
  const std::string new_user =
      "/membership/" + std::to_string(data_->graph.num_users());
  EXPECT_EQ(Fetch(port, "GET", "/v1/models/staging" + new_user).status, 200);
  EXPECT_EQ(Fetch(port, "GET", "/v1" + new_user).status, 404);
  server.Stop();
  std::filesystem::remove(TempPath("ingest_named.g1.cpdb"));
}

// ----- body cap: rejected by declared length, before any body bytes -----

TEST_F(HttpServerTest, OversizedContentLengthIs413BeforeTheBodyIsSent) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.max_body_bytes = 1024;
  options.log_requests = false;
  HttpServer server(options);
  server.Handle("POST", "/admin/ingest", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // An oversized ingest batch announces itself via Content-Length. The
  // head alone (zero body bytes sent) must already draw the 413 — the
  // parser rejects the declared length instead of buffering toward a cap
  // it can never reach.
  const int fd = ConnectRaw(server.port());
  SendAll(fd,
          "POST /admin/ingest HTTP/1.1\r\n"
          "Host: test\r\n"
          "Content-Length: 1048576\r\n"
          "\r\n");
  const std::string response = ReadToEof(fd);
  ::close(fd);
  EXPECT_NE(response.find("413 Payload Too Large"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"OutOfRange\""), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  server.Stop();
}

// ----- event loop: idle sweep and pipelining -----

TEST_F(HttpServerTest, IdleKeepAliveConnectionIsSweptButInFlightIsNot) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.idle_timeout_ms = 100;
  options.log_requests = false;
  HttpServer server(options);
  server.Handle("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{}";
    return response;
  });
  server.Handle("GET", "/slow", [](const HttpRequest&) {
    // Three idle timeouts: the sweep must skip the in-flight connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    HttpResponse response;
    response.body = "{\"slow\":true}";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  std::thread in_flight([&] {
    auto client = HttpClient::Connect(kHost, server.port());
    ASSERT_TRUE(client.ok());
    auto response = client->RoundTrip("GET", "/slow");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, "{\"slow\":true}");
  });

  // One request, then silence: the keep-alive connection is closed by the
  // sweep (a clean end-of-stream), not left open until the client leaves.
  const int fd = ConnectRaw(server.port());
  SendAll(fd, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  const auto start = std::chrono::steady_clock::now();
  const std::string response = ReadToEof(fd, /*timeout_ms=*/2000);
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
  EXPECT_LT(waited_s, 1.0);  // Swept at ~100 ms, not at the 2 s read cap.
  in_flight.join();
  server.Stop();
}

TEST_F(HttpServerTest, PipelinedRequestsAreAnsweredInOrderOnOneConnection) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.log_requests = false;
  HttpServer server(options);
  server.Handle("GET", "/echo/{n}", [](const HttpRequest& request) {
    // The first request is the slower one, so answering in completion
    // order instead of request order would swap the bodies.
    if (request.path_params.at("n") == "1") {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    HttpResponse response;
    response.body = "{\"n\":" + request.path_params.at("n") + "}";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // Both requests leave in one send; the second asks to close, so the
  // connection ends after exactly two responses.
  const int fd = ConnectRaw(server.port());
  SendAll(fd,
          "GET /echo/1 HTTP/1.1\r\nHost: x\r\n\r\n"
          "GET /echo/2 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  const std::string replies = ReadToEof(fd, /*timeout_ms=*/2000);
  ::close(fd);
  const size_t first = replies.find("HTTP/1.1 200 OK");
  ASSERT_NE(first, std::string::npos) << replies;
  const size_t second = replies.find("HTTP/1.1 200 OK", first + 1);
  ASSERT_NE(second, std::string::npos) << replies;
  EXPECT_EQ(replies.find("HTTP/1.1", second + 1), std::string::npos)
      << replies;
  const std::string first_reply = replies.substr(first, second - first);
  const std::string second_reply = replies.substr(second);
  EXPECT_NE(first_reply.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(first_reply.find("{\"n\":1}"), std::string::npos) << replies;
  EXPECT_NE(second_reply.find("Connection: close"), std::string::npos);
  EXPECT_NE(second_reply.find("{\"n\":2}"), std::string::npos) << replies;
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  server.Stop();
}

// ----- graceful shutdown -----

TEST_F(HttpServerTest, StopDrainsInFlightRequests) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.log_requests = false;
  HttpServer server(options);
  std::atomic<bool> handler_entered{false};
  server.Handle("GET", "/slow", [&](const HttpRequest&) {
    handler_entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    HttpResponse response;
    response.body = "{\"drained\":true}";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  std::thread in_flight([&] {
    const HttpResponse response = Fetch(port, "GET", "/slow");
    // The in-flight request finishes with its real response, and the
    // server closes the connection afterwards.
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "{\"drained\":true}");
  });
  while (!handler_entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();  // Must block until the in-flight response is written.
  in_flight.join();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(HttpClient::Connect(kHost, port).ok());
}

}  // namespace
}  // namespace cpd
