// Differential suite over the two artifact load paths: the same v3 .cpdb
// served --load_mode heap and --load_mode mmap must produce byte-identical
// HTTP responses for every query type, every error path, and the frozen-
// clock scrape views. Also pins the publication flow: a chain of whole
// .cpdb generations hot-swapped through POST /admin/reload under traffic
// must serve the same bytes in both modes as a fresh load of the last one.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cpd_model.h"
#include "core/model_artifact.h"
#include "obs/clock.h"
#include "serve/profile_index.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "test_util.h"
#include "util/file_util.h"

namespace cpd {
namespace {

using serve::ArtifactLoadMode;
using server::HttpClient;
using server::HttpServer;
using server::HttpServerOptions;

constexpr const char* kHost = "127.0.0.1";

class MmapDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(223));
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 4;
    config.seed = 31;
    auto model = CpdModel::Train(data_->graph, config);
    CPD_CHECK(model.ok());
    model_ = new CpdModel(std::move(*model));

    base_path_ = new std::string(::testing::TempDir() + "/mmap_diff_g1.cpdb");
    CPD_CHECK(model_
                  ->SaveBinary(*base_path_,
                               &data_->graph.corpus().vocabulary(),
                               ArtifactWriteOptions{}, /*generation=*/1)
                  .ok());

    // Fabricate a three-generation lineage the way ingest would: generation
    // 2 retouches two pi rows and perturbs every global estimate;
    // generation 3 touches two more rows, appends one user AND one
    // vocabulary word (pi growth + phi reshape + a grown vocabulary in one
    // swap).
    auto decoded = ReadModelArtifact(*base_path_);
    CPD_CHECK(decoded.ok());
    const ModelArtifact base = std::move(*decoded);
    const int c_width = base.num_communities;

    ModelArtifact gen2 = base;
    gen2.generation = 2;
    RotateRow(&gen2.pi, 1, c_width);
    RotateRow(&gen2.pi, 3, c_width);
    std::swap(gen2.theta[0], gen2.theta[1]);
    std::swap(gen2.phi[0], gen2.phi[1]);
    std::swap(gen2.eta[0], gen2.eta[1]);
    std::swap(gen2.weights[0], gen2.weights[1]);
    std::swap(gen2.popularity[0], gen2.popularity[1]);
    for (int64_t& frequency : gen2.vocab_frequencies) ++frequency;

    ModelArtifact gen3 = gen2;
    gen3.generation = 3;
    RotateRow(&gen3.pi, 0, c_width);
    RotateRow(&gen3.pi, 4, c_width);
    new_user_ = static_cast<int>(gen3.num_users);
    for (int c = 0; c < c_width; ++c) {
      gen3.pi.push_back(2.0 * (c_width - c) /
                        (c_width * (c_width + 1.0)));
    }
    gen3.num_users += 1;
    appended_word_ = static_cast<int>(gen3.vocab_size);
    std::vector<double> widened_phi;
    widened_phi.reserve(static_cast<size_t>(gen3.num_topics) *
                        (gen3.vocab_size + 1));
    for (int z = 0; z < gen3.num_topics; ++z) {
      const double* row = gen3.phi.data() + z * gen3.vocab_size;
      widened_phi.insert(widened_phi.end(), row, row + gen3.vocab_size);
      widened_phi.push_back(1e-3 * (z + 1));
    }
    gen3.phi = std::move(widened_phi);
    gen3.vocab_size += 1;
    gen3.vocab_words.push_back("zzz@appended");
    gen3.vocab_frequencies.push_back(4);
    std::swap(gen3.theta[2], gen3.theta[3]);
    std::swap(gen3.eta[2], gen3.eta[3]);
    std::swap(gen3.popularity[2], gen3.popularity[3]);
    CPD_CHECK(gen3.Validate().ok());

    g2_path_ = new std::string(::testing::TempDir() + "/mmap_diff_g2.cpdb");
    g3_path_ = new std::string(::testing::TempDir() + "/mmap_diff_g3.cpdb");
    CPD_CHECK(WriteModelArtifact(*g2_path_, gen2).ok());
    CPD_CHECK(WriteModelArtifact(*g3_path_, gen3).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    delete base_path_;
    delete g2_path_;
    delete g3_path_;
    model_ = nullptr;
    data_ = nullptr;
    base_path_ = g2_path_ = g3_path_ = nullptr;
  }

  /// Rotates one matrix row left by one slot: values stay positive and the
  /// row sum is preserved, but the row is bitwise-different (the trained
  /// estimates are never uniform).
  static void RotateRow(std::vector<double>* matrix, size_t row, int width) {
    double* begin = matrix->data() + row * static_cast<size_t>(width);
    std::rotate(begin, begin + 1, begin + width);
  }

  /// Non-owning alias of the suite-cached graph (it outlives every test).
  static std::shared_ptr<const SocialGraph> SharedGraph() {
    return {&data_->graph, [](const SocialGraph*) {}};
  }

  static std::unique_ptr<server::ModelRegistry> MakeRegistry(
      ArtifactLoadMode mode) {
    serve::ProfileIndexOptions options;
    options.load_mode = mode;
    auto registry =
        std::make_unique<server::ModelRegistry>(options, SharedGraph());
    registry->SetClock([] { return int64_t{1754600000000}; });
    return registry;
  }

  struct Exchange {
    std::string method;
    std::string target;
    std::string body;
  };

  /// Query-only trace: all four query types, a batch with a per-slot
  /// error, the GET shortcuts, the user and word generation 3 introduces,
  /// and a keep-alive-safe error path. Deliberately free of /v1/models,
  /// /statsz, and /metricsz — those legitimately differ between a
  /// hot-swapped registry and a fresh load (load counters, source path).
  static std::vector<Exchange> QueryTrace() {
    return {
        {"POST", "/v1/query",
         R"({"type":"membership","user":1,"top_k":4,"include_distribution":true})"},
        {"POST", "/v1/query",
         R"({"type":"membership","user":3,"top_k":3,"include_distribution":true})"},
        {"POST", "/v1/query", R"({"type":"rank","words":[1,2],"top_k":3})"},
        {"POST", "/v1/query",
         R"({"type":"diffusion","source":0,"target":1,"document":1,"time_bin":2})"},
        {"POST", "/v1/query", R"({"type":"top_users","community":1,"top_k":5})"},
        {"POST", "/v1/query", R"({"type":"top_users","community":0,"top_k":3})"},
        {"POST", "/v1/query",
         R"({"batch":[{"type":"membership","user":0,"top_k":2},)"
         R"({"type":"membership","user":999999},)"
         R"({"type":"rank","words":[0],"top_k":2}]})"},
        {"GET", "/v1/membership/1?k=4&distribution=1", ""},
        // The user and word that only exist from generation 3 on (errors
        // before the chain lands; identical errors in both load modes).
        {"POST", "/v1/query",
         R"({"type":"membership","user":)" + std::to_string(new_user_) +
             R"(,"top_k":3,"include_distribution":true})"},
        {"GET", "/v1/membership/" + std::to_string(new_user_) + "?k=3", ""},
        {"POST", "/v1/query",
         R"({"type":"rank","words":[)" + std::to_string(appended_word_) +
             R"(],"top_k":4})"},
        {"POST", "/v1/query", R"({"type":"membership","user":999999})"},
    };
  }

  /// Runs the trace against a pre-loaded registry over one keep-alive
  /// connection with frozen clocks; returns "status\nbody" per exchange.
  static std::vector<std::string> ServeTrace(
      server::ModelRegistry* registry, const std::vector<Exchange>& trace) {
    obs::SetClockForTest([]() -> int64_t { return 1754600000000; });
    HttpServerOptions options;
    options.port = 0;
    options.threads = 4;
    options.log_requests = false;
    HttpServer http_server(options);
    server::ServiceStats stats;
    server::RegisterCpdRoutes(&http_server, registry, &stats);
    CPD_CHECK(http_server.Start().ok());
    std::vector<std::string> results;
    auto client = HttpClient::Connect(kHost, http_server.port());
    CPD_CHECK(client.ok());
    for (const Exchange& exchange : trace) {
      auto response =
          client->RoundTrip(exchange.method, exchange.target, exchange.body);
      CPD_CHECK(response.ok());
      results.push_back(std::to_string(response->status) + "\n" +
                        response->body);
    }
    http_server.Stop();
    obs::SetClockForTest(nullptr);
    return results;
  }

  static SynthResult* data_;
  static CpdModel* model_;
  static std::string* base_path_;
  static std::string* g2_path_;
  static std::string* g3_path_;
  static int new_user_;
  static int appended_word_;
};

SynthResult* MmapDifferentialTest::data_ = nullptr;
CpdModel* MmapDifferentialTest::model_ = nullptr;
std::string* MmapDifferentialTest::base_path_ = nullptr;
std::string* MmapDifferentialTest::g2_path_ = nullptr;
std::string* MmapDifferentialTest::g3_path_ = nullptr;
int MmapDifferentialTest::new_user_ = 0;
int MmapDifferentialTest::appended_word_ = 0;

TEST_F(MmapDifferentialTest, CanonicalTraceIsByteIdenticalAcrossLoadModes) {
  // One artifact, two load paths, plus the scrape views: both registries
  // did exactly one load with frozen clocks, so /statsz and /metricsz must
  // match raw too — the wire never betrays which path backs the spans.
  std::vector<Exchange> trace = QueryTrace();
  trace.push_back({"GET", "/v1/models", ""});
  trace.push_back({"GET", "/metricsz", ""});
  trace.push_back({"GET", "/statsz", ""});

  auto heap = MakeRegistry(ArtifactLoadMode::kHeap);
  ASSERT_TRUE(heap->LoadFrom(*base_path_).ok());
  ASSERT_FALSE(heap->Snapshot()->index.is_mmap_backed());
  auto mapped = MakeRegistry(ArtifactLoadMode::kMmap);
  ASSERT_TRUE(mapped->LoadFrom(*base_path_).ok());
  ASSERT_TRUE(mapped->Snapshot()->index.is_mmap_backed());
  EXPECT_EQ(mapped->Snapshot()->index.artifact_generation(), 1u);

  const std::vector<std::string> heap_results = ServeTrace(heap.get(), trace);
  const std::vector<std::string> mmap_results =
      ServeTrace(mapped.get(), trace);
  ASSERT_EQ(heap_results.size(), mmap_results.size());
  for (size_t i = 0; i < heap_results.size(); ++i) {
    EXPECT_EQ(heap_results[i], mmap_results[i])
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
  }
}

TEST_F(MmapDifferentialTest, FailedLoadLeavesNothingServingInBothModes) {
  // A truncated copy of the base artifact: both modes refuse it with the
  // same status, and the failed load must leave nothing serving
  // (load-then-swap) until a good file arrives.
  auto bytes = ReadFileToString(*base_path_);
  ASSERT_TRUE(bytes.ok());
  const std::string cut_path = ::testing::TempDir() + "/mmap_diff_cut.cpdb";
  ASSERT_TRUE(
      WriteStringToFile(cut_path, bytes->substr(0, bytes->size() / 2)).ok());

  for (const auto mode :
       {ArtifactLoadMode::kHeap, ArtifactLoadMode::kMmap}) {
    SCOPED_TRACE(serve::ArtifactLoadModeName(mode));
    auto registry = MakeRegistry(mode);
    const Status refused = registry->LoadFrom(cut_path);
    EXPECT_EQ(refused.code(), StatusCode::kOutOfRange) << refused.ToString();
    EXPECT_EQ(registry->Snapshot(), nullptr);
    EXPECT_EQ(registry->reload_failures(), 1u);
    ASSERT_TRUE(registry->LoadFrom(*base_path_).ok());
    EXPECT_EQ(registry->Snapshot()->index.is_mmap_backed(),
              mode == ArtifactLoadMode::kMmap);
  }
}

TEST_F(MmapDifferentialTest, AdminReloadChainIsByteIdenticalAcrossLoadModes) {
  // Generations 2 and 3 published as whole artifacts and swapped in over
  // the wire (POST /admin/reload {"path":...}) with queries interleaved,
  // then the reload error paths, then the scrape views. Both registries
  // walk identical load sequences, so even /metricsz and /statsz must
  // compare raw.
  const std::string missing_path =
      ::testing::TempDir() + "/mmap_diff_no_such_g4.cpdb";
  const Exchange user1 = {
      "POST", "/v1/query",
      R"({"type":"membership","user":1,"top_k":4,"include_distribution":true})"};
  std::vector<Exchange> trace;
  trace.push_back(user1);
  trace.push_back(
      {"POST", "/admin/reload", R"({"path":")" + *g2_path_ + R"("})"});
  trace.push_back(user1);
  trace.push_back(
      {"POST", "/admin/reload", R"({"path":")" + *g3_path_ + R"("})"});
  const size_t queries_begin = trace.size();
  for (Exchange& exchange : QueryTrace()) trace.push_back(std::move(exchange));
  // Reloading a name that never loaded -> 409 FailedPrecondition.
  trace.push_back({"POST", "/admin/reload", R"({"model":"ghost"})"});
  // A path that does not exist -> 404; generation 3 keeps serving.
  trace.push_back(
      {"POST", "/admin/reload", R"({"path":")" + missing_path + R"("})"});
  trace.push_back({"GET", "/v1/models", ""});
  trace.push_back({"GET", "/metricsz", ""});
  trace.push_back({"GET", "/statsz", ""});

  std::vector<std::vector<std::string>> results;
  std::vector<std::vector<std::string>> fresh;
  for (const auto mode :
       {ArtifactLoadMode::kHeap, ArtifactLoadMode::kMmap}) {
    SCOPED_TRACE(serve::ArtifactLoadModeName(mode));
    auto registry = MakeRegistry(mode);
    ASSERT_TRUE(registry->LoadFrom(*base_path_).ok());
    const std::vector<std::string> pre_chain =
        ServeTrace(registry.get(), QueryTrace());
    results.push_back(ServeTrace(registry.get(), trace));
    const auto snapshot = registry->Snapshot();
    EXPECT_EQ(snapshot->index.artifact_generation(), 3u);
    EXPECT_EQ(snapshot->source_path, *g3_path_);
    EXPECT_EQ(snapshot->index.is_mmap_backed(),
              mode == ArtifactLoadMode::kMmap);
    // The user and word generation 3 introduces were errors before the
    // chain landed.
    EXPECT_NE(pre_chain[8].substr(0, 3), "200");
    EXPECT_NE(pre_chain[10].substr(0, 3), "200");

    auto direct = MakeRegistry(mode);
    ASSERT_TRUE(direct->LoadFrom(*g3_path_).ok());
    fresh.push_back(ServeTrace(direct.get(), QueryTrace()));
  }

  ASSERT_EQ(results.size(), 2u);
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i])
        << trace[i].method << " " << trace[i].target << " " << trace[i].body;
  }
  // Two swaps leave nothing of generation 1 behind: the chained registry
  // answers exactly like a fresh load of generation 3.
  for (size_t i = 0; i < fresh[0].size(); ++i) {
    EXPECT_EQ(results[0][queries_begin + i], fresh[0][i])
        << "swapped vs fresh: " << trace[queries_begin + i].body;
    EXPECT_EQ(fresh[0][i], fresh[1][i])
        << "fresh heap vs mmap: " << trace[queries_begin + i].body;
  }
  // The reload responses publish the registry load counter (2, then 3) and
  // the artifact now serving; user 1's pi row genuinely moved in
  // generation 2, and the grown model resolves the new user and word.
  EXPECT_EQ(results[0][1].substr(0, 3), "200");
  EXPECT_NE(results[0][1].find("\"generation\":2"), std::string::npos);
  EXPECT_NE(results[0][1].find(*g2_path_), std::string::npos);
  EXPECT_NE(results[0][0], results[0][2]);
  EXPECT_EQ(results[0][3].substr(0, 3), "200");
  EXPECT_NE(results[0][3].find("\"generation\":3"), std::string::npos);
  EXPECT_EQ(results[0][queries_begin + 8].substr(0, 3), "200");
  EXPECT_EQ(results[0][queries_begin + 10].substr(0, 3), "200");
  const size_t tail = trace.size();
  EXPECT_EQ(results[0][tail - 5].substr(0, 3), "409");  // ghost model.
  EXPECT_EQ(results[0][tail - 4].substr(0, 3), "404");  // missing path.
}

}  // namespace
}  // namespace cpd
