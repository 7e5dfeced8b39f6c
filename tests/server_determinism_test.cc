// Determinism suite for the serving stack: under a frozen clock, the same
// request trace driven through two fresh servers must produce
// byte-identical responses (statuses, headers and bodies, /metricsz and
// /statsz included); concurrent clients get the in-process engine's bytes
// and exact per-model counts; and every framing-error probe, including the
// response-splitting and request-smuggling ones, draws one exact pinned
// reply.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cpd_model.h"
#include "obs/clock.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "test_util.h"
#include "util/json.h"

namespace cpd {
namespace {

using server::HttpClient;
using server::HttpServer;
using server::HttpServerOptions;

constexpr const char* kHost = "127.0.0.1";

class ServerDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(211));
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 4;
    config.seed = 29;
    auto model = CpdModel::Train(data_->graph, config);
    CPD_CHECK(model.ok());
    model_ = new CpdModel(std::move(*model));
    artifact_ =
        new std::string(::testing::TempDir() + "/server_determinism.cpdb");
    CPD_CHECK(model_
                  ->SaveBinary(*artifact_,
                               &data_->graph.corpus().vocabulary())
                  .ok());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    delete artifact_;
    model_ = nullptr;
    data_ = nullptr;
    artifact_ = nullptr;
  }

  /// Non-owning alias of the suite-cached graph (it outlives every test).
  static std::shared_ptr<const SocialGraph> SharedGraph() {
    return {&data_->graph, [](const SocialGraph*) {}};
  }

  struct Exchange {
    std::string method;
    std::string target;
    std::string body;
  };

  /// The canonical trace: all four query types, a batch with per-slot
  /// errors, the GET shortcuts, and every keep-alive-safe error path.
  static std::vector<Exchange> CanonicalTrace() {
    return {
        {"POST", "/v1/query",
         R"({"type":"membership","user":3,"top_k":3,"include_distribution":true})"},
        {"POST", "/v1/query", R"({"type":"rank","words":[1,2],"top_k":3})"},
        {"POST", "/v1/query",
         R"({"type":"diffusion","source":0,"target":1,"document":1,"time_bin":2})"},
        {"POST", "/v1/query", R"({"type":"top_users","community":1,"top_k":5})"},
        {"POST", "/v1/query",
         R"({"batch":[{"type":"membership","user":0},)"
         R"({"type":"membership","user":999999},)"
         R"({"type":"top_users","community":0,"top_k":2}]})"},
        {"GET", "/v1/membership/3?k=3&distribution=1", ""},
        {"GET", "/v1/models", ""},
        {"POST", "/v1/models/default/query",
         R"({"type":"membership","user":2,"top_k":4})"},
        {"GET", "/v1/models/default/membership/2?k=4", ""},
        {"GET", "/healthz", ""},
        // Typed error paths (connection stays alive; framing errors are
        // exercised separately over raw sockets).
        {"POST", "/v1/query", "this is not json"},
        {"POST", "/v1/query", R"({"type":"bogus"})"},
        {"POST", "/v1/query", R"({"user":3})"},
        {"POST", "/v1/query", R"({"type":"membership","user":999999})"},
        {"POST", "/v1/query", R"({"type":"membership","user":4294967299})"},
        {"GET", "/no/such/endpoint", ""},
        {"GET", "/v1/membership/notanumber", ""},
        {"POST", "/v1/models/ghost/query", R"({"type":"membership","user":0})"},
        {"GET", "/v1/models/ghost/membership/0", ""},
        {"POST", "/admin/ingest", "{}"},
        {"POST", "/admin/reload", R"({"model":""})"},
        // Last: the counters above are now identical across runs, and the
        // obs clock is frozen (every recorded duration is exactly 0), so
        // both scrape views must match byte-for-byte too.
        {"GET", "/metricsz", ""},
        {"GET", "/statsz", ""},
    };
  }

  /// Runs the trace through a fresh server; returns the status, every
  /// header and the body per exchange, over one keep-alive connection.
  static std::vector<std::string> RunTrace(const std::vector<Exchange>& trace) {
    server::ModelRegistry registry(serve::ProfileIndexOptions{},
                                   SharedGraph());
    registry.SetClock([] { return int64_t{1754500000000}; });
    // Freeze the obs clock too: every latency/stage duration records as
    // exactly 0, making /statsz and /metricsz byte-deterministic.
    obs::SetClockForTest([]() -> int64_t { return 1754500000000; });
    CPD_CHECK(registry.LoadFrom(*artifact_).ok());
    HttpServerOptions options;
    options.port = 0;
    options.threads = 8;
    options.log_requests = false;
    HttpServer http_server(options);
    server::ServiceStats stats;
    server::RegisterCpdRoutes(&http_server, &registry, &stats);
    CPD_CHECK(http_server.Start().ok());

    std::vector<std::string> results;
    auto client = HttpClient::Connect(kHost, http_server.port());
    CPD_CHECK(client.ok());
    for (const Exchange& exchange : trace) {
      auto response =
          client->RoundTrip(exchange.method, exchange.target, exchange.body);
      CPD_CHECK(response.ok());
      std::string result = std::to_string(response->status) + "\n";
      for (const auto& [name, value] : response->headers) {
        result += name + ": " + value + "\n";
      }
      results.push_back(result + response->body);
    }
    http_server.Stop();
    obs::SetClockForTest(nullptr);
    return results;
  }

  /// Sends raw bytes over a fresh socket and reads to EOF (framing errors
  /// always close, so the full reply — status line, headers, body — comes
  /// back verbatim).
  static std::string RawRoundTrip(int port, const std::string& bytes) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    CPD_CHECK(fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    CPD_CHECK(::inet_pton(AF_INET, kHost, &addr.sin_addr) == 1);
    CPD_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    // MSG_NOSIGNAL + tolerated short writes: the server may answer and
    // close before consuming the whole probe.
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
  }

  static SynthResult* data_;
  static CpdModel* model_;
  static std::string* artifact_;
};

SynthResult* ServerDeterminismTest::data_ = nullptr;
CpdModel* ServerDeterminismTest::model_ = nullptr;
std::string* ServerDeterminismTest::artifact_ = nullptr;

TEST_F(ServerDeterminismTest, CanonicalTraceIsByteIdenticalAcrossFreshStacks) {
  // No latency scrubbing: the frozen obs clock makes every histogram
  // deterministic, so /statsz and /metricsz compare raw.
  const std::vector<Exchange> trace = CanonicalTrace();
  const std::vector<std::string> first = RunTrace(trace);
  const std::vector<std::string> second = RunTrace(trace);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i])
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
  }
}

TEST_F(ServerDeterminismTest, ConcurrentQueriesAreByteIdentical) {
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, SharedGraph());
  CPD_CHECK(registry.LoadFrom(*artifact_).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 12;
  options.log_requests = false;
  HttpServer http_server(options);
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&http_server, &registry, &stats);
  ASSERT_TRUE(http_server.Start().ok());
  const int port = http_server.port();

  // Expected bytes per user, from the in-process engine.
  const auto snapshot = registry.Snapshot();
  std::vector<std::string> expected;
  for (int user = 0; user < 8; ++user) {
    serve::MembershipRequest request;
    request.user = user;
    request.top_k = 3;
    auto response = snapshot->engine->Query(serve::QueryRequest(request));
    CPD_CHECK(response.ok());
    expected.push_back(server::QueryResponseToJson(*response).Dump());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      auto client = HttpClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string body =
          R"({"type":"membership","user":)" + std::to_string(t) +
          R"(,"top_k":3})";
      for (int i = 0; i < 40; ++i) {
        auto response = client->RoundTrip("POST", "/v1/query", body);
        if (!response.ok() || response->status != 200 ||
            response->body != expected[static_cast<size_t>(t)]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stats.queries(), 320u);
  http_server.Stop();
}

TEST_F(ServerDeterminismTest, ConcurrentPerModelCountsAreExact) {
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, SharedGraph());
  CPD_CHECK(registry.LoadFrom(*artifact_).ok());
  CPD_CHECK(registry.LoadFrom("beta", *artifact_).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.log_requests = false;
  HttpServer http_server(options);
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&http_server, &registry, &stats);
  ASSERT_TRUE(http_server.Start().ok());
  const int port = http_server.port();

  // One round per client and iteration. Per round, "default" answers 1
  // single query, 2 batch slots and 1 error; "beta" answers 2 single
  // queries (one via the GET shortcut), 1 batch slot and 2 errors. The
  // first beta request of every client races on registering beta's
  // counters.
  struct Step {
    const char* method;
    const char* target;
    const char* body;
    int status;
  };
  const std::vector<Step> round = {
      {"POST", "/v1/query", R"({"type":"membership","user":1})", 200},
      {"POST", "/v1/models/beta/query",
       R"({"type":"top_users","community":0,"top_k":2})", 200},
      {"POST", "/v1/query",
       R"({"batch":[{"type":"membership","user":0},)"
       R"({"type":"membership","user":999999},)"
       R"({"type":"top_users","community":1,"top_k":2}]})",
       200},
      {"POST", "/v1/models/beta/query",
       R"({"batch":[{"type":"rank","words":[1,2]},{"type":"bogus"}]})", 200},
      {"POST", "/v1/models/beta/query",
       R"({"type":"membership","user":999999})", 404},
      {"GET", "/v1/models/beta/membership/2?k=2", "", 200},
  };
  constexpr int kClients = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      auto client = HttpClient::Connect(kHost, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        for (const Step& step : round) {
          auto response =
              client->RoundTrip(step.method, step.target, step.body);
          if (!response.ok() || response->status != step.status) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  ASSERT_EQ(failures.load(), 0);

  auto client = HttpClient::Connect(kHost, port);
  ASSERT_TRUE(client.ok());
  auto statsz_response = client->RoundTrip("GET", "/statsz");
  ASSERT_TRUE(statsz_response.ok());
  auto statsz = Json::Parse(statsz_response->body);
  ASSERT_TRUE(statsz.ok());
  const Json* models = statsz->Find("models");
  ASSERT_NE(models, nullptr);
  constexpr double kTotalRounds = kClients * kRounds;
  const auto expect_row = [&](const char* name, double queries,
                              double batch_queries, double query_errors) {
    const Json* row = models->Find(name);
    ASSERT_NE(row, nullptr) << name;
    EXPECT_EQ(row->Find("queries")->number(), queries) << name;
    EXPECT_EQ(row->Find("batch_queries")->number(), batch_queries) << name;
    EXPECT_EQ(row->Find("query_errors")->number(), query_errors) << name;
  };
  expect_row("default", kTotalRounds, 2 * kTotalRounds, kTotalRounds);
  expect_row("beta", 2 * kTotalRounds, kTotalRounds, 2 * kTotalRounds);
  const Json* service = statsz->Find("service");
  EXPECT_EQ(service->Find("queries")->number(), 3 * kTotalRounds);
  EXPECT_EQ(service->Find("batch_queries")->number(), 3 * kTotalRounds);
  EXPECT_EQ(service->Find("query_errors")->number(), 3 * kTotalRounds);
  http_server.Stop();
}

TEST_F(ServerDeterminismTest, FramingErrorRepliesAreByteIdentical) {
  // Every probe's whole reply is pinned: status line, headers and
  // envelope. Framing errors never reach Dispatch, so no X-Request-Id.
  struct Probe {
    std::string bytes;
    std::string status_line;
    std::string code;
    std::string message;
  };
  const std::vector<Probe> probes = {
      {"THIS IS NOT HTTP\r\n\r\n", "400 Bad Request", "InvalidArgument",
       "unsupported HTTP version 'NOT HTTP'"},
      {"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
       "400 Bad Request", "InvalidArgument", "malformed Content-Length"},
      // Declared body over the cap: 413 from the head alone.
      {"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n"
       "\r\n",
       "413 Payload Too Large", "OutOfRange",
       "request body exceeds the size cap"},
      // Head over the cap: 431 (the filler header crosses max_head_bytes;
      // small enough that one server read consumes the whole probe, so the
      // close is a clean FIN and never an RST racing the reply).
      {"GET /healthz HTTP/1.1\r\nX-Filler: " + std::string(1500, 'a') +
           "\r\n\r\n",
       "431 Request Header Fields Too Large", "OutOfRange",
       "message head exceeds the size cap"},
      // Response splitting: a bare LF inside X-Request-Id would be echoed
      // as a second, attacker-chosen response header.
      {"GET /healthz HTTP/1.1\r\nHost: x\r\n"
       "X-Request-Id: abc\nSet-Cookie: pwned=1\r\nConnection: close\r\n\r\n",
       "400 Bad Request", "InvalidArgument",
       "header line contains CR, LF or NUL"},
      // Log splitting: a bare LF in the target would start a forged line
      // in the access log.
      {"GET /x\nFORGED HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
       "400 Bad Request", "InvalidArgument",
       "request line contains CR, LF or NUL"},
      // Smuggling: an empty Content-Length would frame no body, so the
      // body would be parsed as a second request.
      {"POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length:\r\n\r\n"
       "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
       "400 Bad Request", "InvalidArgument", "malformed Content-Length"},
      // Smuggling: with the last Content-Length winning, "cde" would be
      // parsed as the head of a second request.
      {"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
       "Content-Length: 2\r\nConnection: close\r\n\r\nabcde",
       "400 Bad Request", "InvalidArgument", "duplicate Content-Length"},
      // Smuggling: Transfer-Encoding beside Content-Length.
      {"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
       "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n0\r\n\r\n",
       "400 Bad Request", "InvalidArgument",
       "chunked transfer encoding not supported"},
  };
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.max_head_bytes = 1024;
  options.log_requests = false;
  HttpServer http_server(options);
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, nullptr);
  CPD_CHECK(registry.LoadFrom(*artifact_).ok());
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&http_server, &registry, &stats);
  ASSERT_TRUE(http_server.Start().ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    const Probe& probe = probes[i];
    const std::string body = R"({"error":{"code":")" + probe.code +
                             R"(","message":")" + probe.message + R"("}})";
    const std::string expected =
        "HTTP/1.1 " + probe.status_line +
        "\r\nContent-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
        body;
    const std::string reply = RawRoundTrip(http_server.port(), probe.bytes);
    EXPECT_EQ(reply, expected) << "probe " << i;
    EXPECT_EQ(reply.find("Set-Cookie"), std::string::npos) << "probe " << i;
  }
  http_server.Stop();
}

}  // namespace
}  // namespace cpd
