// Table-driven pin of the unified error envelope: every non-2xx JSON
// response — typed handler errors, admission 429s, deadline 504s, and the
// transport's framing 400/413/431 — is exactly
//   {"error":{"code":"<StatusCode name>","message":...}}
// with "retry_after_ms" on load-shed 429s and nowhere else
// (docs/HTTP_API.md documents this shape; MakeErrorResponse renders it).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cpd_model.h"
#include "server/http_server.h"
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

/// Asserts `body` is the envelope with `code` (and, when asked, a positive
/// retry_after_ms — absent otherwise).
void ExpectEnvelope(const std::string& body, const std::string& code,
                    bool expect_retry_after = false) {
  auto json = Json::Parse(body);
  ASSERT_TRUE(json.ok()) << body;
  ASSERT_TRUE(json->is_object()) << body;
  const Json* error = json->Find("error");
  ASSERT_NE(error, nullptr) << body;
  const Json* code_json = error->Find("code");
  const Json* message_json = error->Find("message");
  ASSERT_NE(code_json, nullptr) << body;
  ASSERT_NE(message_json, nullptr) << body;
  EXPECT_EQ(code_json->string_value(), code) << body;
  EXPECT_FALSE(message_json->string_value().empty()) << body;
  const Json* retry = error->Find("retry_after_ms");
  if (expect_retry_after) {
    ASSERT_NE(retry, nullptr) << body;
    EXPECT_GT(retry->number(), 0.0) << body;
  } else {
    EXPECT_EQ(retry, nullptr) << body;
  }
}

class ErrorEnvelopeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(157));
    CpdConfig config;
    config.num_communities = 3;
    config.num_topics = 4;
    config.em_iterations = 3;
    config.seed = 41;
    auto model = CpdModel::Train(data_->graph, config);
    CPD_CHECK(model.ok());
    artifact_ = new std::string(::testing::TempDir() + "/envelope.cpdb");
    CPD_CHECK(model
                  ->SaveBinary(*artifact_,
                               &data_->graph.corpus().vocabulary())
                  .ok());
    delete data_;
    data_ = nullptr;
  }
  static void TearDownTestSuite() {
    delete artifact_;
    artifact_ = nullptr;
  }

  static SynthResult* data_;
  static std::string* artifact_;
};

SynthResult* ErrorEnvelopeTest::data_ = nullptr;
std::string* ErrorEnvelopeTest::artifact_ = nullptr;

TEST_F(ErrorEnvelopeTest, EveryTypedHandlerErrorUsesTheEnvelope) {
  // One server (no graph, no pipeline) covers the whole typed-error table.
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, nullptr);
  ASSERT_TRUE(registry.LoadFrom(*artifact_).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 8;
  options.log_requests = false;
  HttpServer server(options);
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&server, &registry, &stats);
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    const char* name;
    const char* method;
    const char* target;
    const char* body;
    int status;
    const char* code;
  };
  const std::vector<Case> cases = {
      {"malformed json", "POST", "/v1/query", "this is not json", 400,
       "InvalidArgument"},
      {"unknown type", "POST", "/v1/query", R"({"type":"bogus"})", 400,
       "InvalidArgument"},
      {"missing selector", "POST", "/v1/query", R"({"user":3})", 400,
       "InvalidArgument"},
      {"unknown user", "POST", "/v1/query",
       R"({"type":"membership","user":999999})", 404, "OutOfRange"},
      {"integer overflow", "POST", "/v1/query",
       R"({"type":"membership","user":4294967299})", 400, "InvalidArgument"},
      {"unknown route", "GET", "/no/such/endpoint", "", 404, "NotFound"},
      {"bad path param", "GET", "/v1/membership/notanumber", "", 400,
       "InvalidArgument"},
      {"bad query param", "GET", "/v1/membership/3?k=abc", "", 400,
       "InvalidArgument"},
      {"diffusion without graph", "POST", "/v1/query",
       R"({"type":"diffusion","source":0,"target":1,"document":0})", 409,
       "FailedPrecondition"},
      {"unknown model", "POST", "/v1/models/ghost/query",
       R"({"type":"membership","user":0})", 503, "Unavailable"},
      {"unknown model via GET", "GET", "/v1/models/ghost/membership/0", "",
       503, "Unavailable"},
      {"ingest disabled", "POST", "/admin/ingest", "{}", 409,
       "FailedPrecondition"},
      {"empty model name", "POST", "/admin/reload", R"({"model":""})", 400,
       "InvalidArgument"},
      {"reload of unloaded name", "POST", "/admin/reload",
       R"({"model":"ghost"})", 409, "FailedPrecondition"},
      {"reload of a missing file", "POST", "/admin/reload",
       R"({"path":"/no/such/file.cpdb"})", 404, "NotFound"},
      {"reload body is an array", "POST", "/admin/reload", "[]", 400,
       "InvalidArgument"},
      {"reload body is a string", "POST", "/admin/reload", R"("x")", 400,
       "InvalidArgument"},
      {"reload body is a number", "POST", "/admin/reload", "3", 400,
       "InvalidArgument"},
      {"reload with a removed field", "POST", "/admin/reload",
       R"({"delta":"g2.bin"})", 400, "InvalidArgument"},
      {"reload with an unknown field", "POST", "/admin/reload",
       R"({"path":"/no/such/file.cpdb","force":true})", 400,
       "InvalidArgument"},
  };
  auto client = HttpClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  for (const Case& test_case : cases) {
    auto response =
        client->RoundTrip(test_case.method, test_case.target, test_case.body);
    ASSERT_TRUE(response.ok()) << test_case.name;
    EXPECT_EQ(response->status, test_case.status) << test_case.name;
    ExpectEnvelope(response->body, test_case.code);
  }
  server.Stop();
}

TEST_F(ErrorEnvelopeTest, EmptyRegistryAnswers503Envelopes) {
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, nullptr);
  HttpServerOptions options;
  options.port = 0;
  options.threads = 4;
  options.log_requests = false;
  HttpServer server(options);
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&server, &registry, &stats);
  ASSERT_TRUE(server.Start().ok());
  auto client = HttpClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  for (const char* target : {"/healthz", "/v1/membership/0"}) {
    auto response = client->RoundTrip("GET", target);
    ASSERT_TRUE(response.ok()) << target;
    EXPECT_EQ(response->status, 503) << target;
    ExpectEnvelope(response->body, "Unavailable");
  }
  auto query =
      client->RoundTrip("POST", "/v1/query", R"({"type":"membership","user":0})");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->status, 503);
  ExpectEnvelope(query->body, "Unavailable");
  server.Stop();
}

TEST_F(ErrorEnvelopeTest, AdmissionAndDeadlineErrorsUseTheEnvelope) {
  // 429 carries retry_after_ms in the body (and Retry-After on the wire).
  {
    HttpServerOptions options;
    options.port = 0;
    options.threads = 4;
    options.max_inflight = 1;
    options.log_requests = false;
    HttpServer server(options);
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;
    server.Handle("GET", "/block", [&](const HttpRequest&) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        entered = true;
      }
      cv.notify_all();
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return release; });
      return HttpResponse{};
    });
    ASSERT_TRUE(server.Start().ok());
    std::thread blocker([&] {
      auto client = HttpClient::Connect(kHost, server.port());
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE(client->RoundTrip("GET", "/block").ok());
    });
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return entered; });
    }
    auto prober = HttpClient::Connect(kHost, server.port());
    ASSERT_TRUE(prober.ok());
    auto rejected = prober->RoundTrip("GET", "/block");
    ASSERT_TRUE(rejected.ok());
    EXPECT_EQ(rejected->status, 429);
    ExpectEnvelope(rejected->body, "ResourceExhausted",
                   /*expect_retry_after=*/true);
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
    blocker.join();
    server.Stop();
  }

  // 504: the deadline turns an over-budget handler into DeadlineExceeded.
  {
    HttpServerOptions options;
    options.port = 0;
    options.threads = 2;
    options.deadline_ms = 30;
    options.log_requests = false;
    HttpServer server(options);
    server.Handle("GET", "/slow", [](const HttpRequest&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return HttpResponse{};
    });
    ASSERT_TRUE(server.Start().ok());
    auto client = HttpClient::Connect(kHost, server.port());
    ASSERT_TRUE(client.ok());
    auto slow = client->RoundTrip("GET", "/slow");
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(slow->status, 504);
    ExpectEnvelope(slow->body, "DeadlineExceeded");
    server.Stop();
  }
}

TEST_F(ErrorEnvelopeTest, FramingErrorsUseTheEnvelope) {
  HttpServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.max_head_bytes = 1024;
  options.max_body_bytes = 2048;
  options.log_requests = false;
  HttpServer server(options);
  server.Handle("GET", "/ok", [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    const char* name;
    std::string probe;
    const char* status_line;
    const char* code;
  };
  const std::vector<Case> cases = {
      {"malformed request line", "THIS IS NOT HTTP\r\n\r\n",
       "400 Bad Request", "InvalidArgument"},
      {"bad content-length",
       "GET /ok HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
       "400 Bad Request", "InvalidArgument"},
      {"declared body over cap",
       "POST /ok HTTP/1.1\r\nHost: x\r\nContent-Length: 999999\r\n\r\n",
       "413 Payload Too Large", "OutOfRange"},
      {"head over cap",
       "GET /ok HTTP/1.1\r\nX-Filler: " + std::string(1500, 'a') + "\r\n\r\n",
       "431 Request Header Fields Too Large", "OutOfRange"},
  };
  for (const Case& test_case : cases) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(::inet_pton(AF_INET, kHost, &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    size_t sent = 0;
    while (sent < test_case.probe.size()) {
      const ssize_t n = ::send(fd, test_case.probe.data() + sent,
                               test_case.probe.size() - sent, MSG_NOSIGNAL);
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
    EXPECT_NE(response.find(test_case.status_line), std::string::npos)
        << test_case.name << ": " << response;
    const size_t body_start = response.find("\r\n\r\n");
    ASSERT_NE(body_start, std::string::npos) << test_case.name;
    ExpectEnvelope(response.substr(body_start + 4), test_case.code);
  }
  server.Stop();
}

// Client errors that are rejected before a query is decoded (an unparseable
// body, a non-array batch, a bad path segment or `k`) count against the
// model they address, in /statsz and in /metricsz alike. A request for a
// model that is not loaded stays uncounted.
TEST_F(ErrorEnvelopeTest, ClientErrorsCountAgainstTheAddressedModel) {
  server::ModelRegistry registry(serve::ProfileIndexOptions{}, nullptr);
  ASSERT_TRUE(registry.LoadFrom(*artifact_).ok());
  ASSERT_TRUE(registry.LoadFrom("beta", *artifact_).ok());
  HttpServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.log_requests = false;
  HttpServer server(options);
  server::ServiceStats stats;
  server::RegisterCpdRoutes(&server, &registry, &stats);
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    const char* method;
    const char* target;
    const char* body;
    int status;
  };
  const std::vector<Case> cases = {
      {"POST", "/v1/query", "junk", 400},
      {"POST", "/v1/query", R"({"batch":3})", 400},
      {"GET", "/v1/membership/notanumber", "", 400},
      {"GET", "/v1/membership/3?k=abc", "", 400},
      {"POST", "/v1/models/beta/query", "junk", 400},
      {"GET", "/v1/models/beta/membership/3?k=9999999999", "", 400},
      {"POST", "/v1/models/ghost/query", "junk", 503},
      {"GET", "/v1/models/ghost/membership/notanumber", "", 503},
  };
  auto client = HttpClient::Connect(kHost, server.port());
  ASSERT_TRUE(client.ok());
  for (const Case& test_case : cases) {
    auto response =
        client->RoundTrip(test_case.method, test_case.target, test_case.body);
    ASSERT_TRUE(response.ok()) << test_case.target;
    EXPECT_EQ(response->status, test_case.status) << test_case.target;
  }

  auto statsz_response = client->RoundTrip("GET", "/statsz");
  ASSERT_TRUE(statsz_response.ok());
  auto statsz = Json::Parse(statsz_response->body);
  ASSERT_TRUE(statsz.ok());
  EXPECT_EQ(statsz->Find("service")->Find("query_errors")->number(), 6.0);
  const Json* models = statsz->Find("models");
  ASSERT_NE(models, nullptr);
  EXPECT_EQ(models->Find("default")->Find("query_errors")->number(), 4.0);
  EXPECT_EQ(models->Find("beta")->Find("query_errors")->number(), 2.0);
  EXPECT_EQ(models->Find("ghost"), nullptr);

  auto metricsz = client->RoundTrip("GET", "/metricsz");
  ASSERT_TRUE(metricsz.ok());
  const std::string& text = metricsz->body;
  EXPECT_NE(text.find("cpd_service_query_errors_total{model=\"default\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cpd_service_query_errors_total{model=\"beta\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("model=\"ghost\""), std::string::npos) << text;
  server.Stop();
}

}  // namespace
}  // namespace cpd
