// serve_mixed and serve_rank_large: the HTTP stack as cpd_serve runs it
// (epoll, coalescing off, precomputed scoring, v3 artifact mapped in auto
// mode, 2 server threads) under a closed loop from 2 keep-alive
// connections. Every response body must be byte-equal to the in-process
// QueryEngine answer run through QueryResponseToJson on an independently
// built (heap) index of the same model.
//
//   serve_mixed       a model trained on the Twitter-like preset; the
//                     cpd_serve request mix (55/25/10/10, API defaults).
//   serve_rank_large  the K=200, |Z|=32, V=50k, U=2000 synthetic artifact;
//                     rank queries only (1-3 words, top_k 10, topic
//                     distributions on), where response encoding dominates.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "common.h"
#include "core/model_artifact.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kConnections = 2;

/// One set-up instance: the served stack plus the in-process reference.
struct ServeSetup {
  std::shared_ptr<const cpd::SocialGraph> graph;  // Null: no diffusion.
  std::vector<int> planted;                       // Per-user community.
  std::string artifact_path;
  std::unique_ptr<cpd::serve::ProfileIndex> reference_index;
  std::unique_ptr<cpd::serve::QueryEngine> reference;
  std::vector<cpd::serve::QueryRequest> requests;
  std::vector<std::string> bodies;
  std::vector<std::string> expected;
  std::vector<int> types;
  ServeStack stack;
  double artifact_write_ms = 0.0;
  double artifact_bytes = 0.0;
  double index_load_ms = 0.0;
  double nmi = 0.0;
};

/// Builds set-up `instance`'s model artifact and request pool. Each set-up
/// instance draws its own inputs from the run seed, so the nmi averaged over
/// them spans independent datasets and chains.
using ArtifactBuilder = std::function<void(const Options&, uint64_t, ServeSetup*)>;

void TwitterArtifact(const Options& options, uint64_t instance, ServeSetup* setup) {
  const uint64_t seed = SubSeed(options.seed, 10 + instance);
  auto data = std::make_shared<cpd::SynthResult>(
      MakeTwitterData(seed, options.smoke ? 120 : 400));
  setup->graph = std::shared_ptr<const cpd::SocialGraph>(data, &data->graph);
  setup->planted = data->truth.user_community;
  cpd::CpdConfig config;
  config.num_communities = 10;
  config.num_topics = 12;
  config.em_iterations = options.smoke ? 3 : 30;
  config.seed = SubSeed(seed, 4);
  auto model = cpd::CpdModel::Train(*setup->graph, config);
  CPD_CHECK(model.ok());
  const double t0 = NowSeconds();
  CPD_CHECK(model->SaveBinary(setup->artifact_path,
                              &setup->graph->corpus().vocabulary())
                .ok());
  setup->artifact_write_ms = (NowSeconds() - t0) * 1e3;
  setup->reference_index = std::make_unique<cpd::serve::ProfileIndex>(
      cpd::serve::ProfileIndex::FromModel(*model));
  setup->requests = MixedRequests(*setup->graph, setup->graph->num_users(),
                                  setup->graph->vocabulary_size(),
                                  config.num_communities, 4096, SubSeed(seed, 5));
}

/// K=200, |Z|=32, V=50k, U=2000 with properly normalized random estimates
/// (the kernels see exactly the dimensions a trained model would have).
/// Each user gets a planted home community with extra pi mass, so argmax
/// pi recovers most but not all of the planted labels.
void LargeArtifact(const Options& options, uint64_t instance, ServeSetup* setup) {
  cpd::Rng rng(SubSeed(SubSeed(options.seed, 10 + instance), 6));
  cpd::ModelArtifact artifact;
  artifact.num_communities = options.smoke ? 40 : 200;
  artifact.num_topics = 32;
  artifact.num_users = options.smoke ? 300 : 2000;
  artifact.vocab_size = options.smoke ? 5000 : 50000;
  artifact.num_time_bins = 8;
  const size_t kc = static_cast<size_t>(artifact.num_communities);
  const size_t kz = static_cast<size_t>(artifact.num_topics);
  setup->planted.resize(artifact.num_users);
  for (int& c : setup->planted) c = static_cast<int>(rng.NextUint64(kc));
  const auto fill_rows = [&rng](std::vector<double>* matrix, size_t rows,
                                size_t cols, const std::vector<int>* home) {
    matrix->resize(rows * cols);
    for (size_t r = 0; r < rows; ++r) {
      double total = 0.0;
      for (size_t i = 0; i < cols; ++i) {
        double v = 0.05 + rng.NextDouble();
        if (home != nullptr && static_cast<size_t>((*home)[r]) == i) v += 0.9;
        (*matrix)[r * cols + i] = v;
        total += v;
      }
      for (size_t i = 0; i < cols; ++i) (*matrix)[r * cols + i] /= total;
    }
  };
  fill_rows(&artifact.pi, artifact.num_users, kc, &setup->planted);
  fill_rows(&artifact.theta, kc, kz, nullptr);
  fill_rows(&artifact.phi, kz, artifact.vocab_size, nullptr);
  fill_rows(&artifact.eta, kc * kc, kz, nullptr);
  artifact.weights.assign(cpd::kNumDiffusionWeights, 0.1);
  fill_rows(&artifact.popularity, static_cast<size_t>(artifact.num_time_bins), kz,
            nullptr);
  const double t0 = NowSeconds();
  CPD_CHECK(cpd::WriteModelArtifact(setup->artifact_path, artifact).ok());
  setup->artifact_write_ms = (NowSeconds() - t0) * 1e3;
  for (int i = 0; i < (options.smoke ? 256 : 2048); ++i) {
    cpd::serve::RankCommunitiesRequest rank;
    const size_t terms = 1 + rng.NextUint64(3);
    for (size_t t = 0; t < terms; ++t) {
      rank.words.push_back(
          static_cast<cpd::WordId>(rng.NextUint64(artifact.vocab_size)));
    }
    rank.top_k = 10;
    setup->requests.emplace_back(rank);
  }
  auto index = cpd::serve::ProfileIndex::FromArtifact(std::move(artifact));
  CPD_CHECK(index.ok());
  setup->reference_index =
      std::make_unique<cpd::serve::ProfileIndex>(std::move(*index));
}

std::unique_ptr<ServeSetup> SetUp(const Options& options, uint64_t instance,
                                  const ArtifactBuilder& build) {
  auto setup = std::make_unique<ServeSetup>();
  setup->artifact_path = options.run_dir + "/" + options.workload + ".cpdb";
  build(options, instance, setup.get());
  setup->artifact_bytes = static_cast<double>(
      std::filesystem::file_size(setup->artifact_path));
  setup->reference = std::make_unique<cpd::serve::QueryEngine>(
      *setup->reference_index, setup->graph.get());
  setup->nmi = ArgmaxNmi(*setup->reference_index, setup->planted,
                         setup->reference_index->num_users());
  for (const cpd::serve::QueryRequest& request : setup->requests) {
    setup->bodies.push_back(cpd::server::QueryRequestToJson(request).Dump());
    setup->expected.push_back(ReferenceBody(*setup->reference, request));
    setup->types.push_back(TypeOf(request));
  }
  setup->stack.registry = std::make_unique<cpd::server::ModelRegistry>(
      cpd::serve::ProfileIndexOptions{}, setup->graph);
  const double t0 = NowSeconds();
  CPD_CHECK(setup->stack.registry->LoadFrom(setup->artifact_path).ok());
  setup->index_load_ms = (NowSeconds() - t0) * 1e3;
  CPD_CHECK(setup->stack.registry->Snapshot()->index.is_mmap_backed());
  setup->stack.Start();
  // Warm-up: connections, page cache, allocator and branch predictors.
  RunClosedLoop(setup->stack.port(), setup->bodies, setup->expected,
                setup->types, kConnections, options.smoke ? 0.1 : 0.3);
  return setup;
}

void RunServe(const Options& options, const ArtifactBuilder& build,
              Result* result, OpCounter* ops) {
  const int setups = options.smoke ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<double> index_load_ms;
  double nmi = 0.0;
  std::unique_ptr<ServeSetup> setup;
  for (int s = 0; s < setups; ++s) {
    setup.reset();  // Tear the previous instance down first.
    const double t0 = NowSeconds();
    setup = SetUp(options, static_cast<uint64_t>(s), build);
    setup_s.push_back(NowSeconds() - t0);
    index_load_ms.push_back(setup->index_load_ms);
    nmi += setup->nmi / setups;
  }
  const int port = setup->stack.port();
  std::vector<double> calib_ms = {CalibrateMs(5)};

  // Untraced: one window. Traced: untraced quarter, traced half bracketed by
  // /metricsz scrapes, untraced quarter (the overhead comparison straddles
  // the traced window in time).
  std::vector<LoadResult> untraced;
  LoadResult traced;
  std::string scrape_before, scrape_after;
  const auto window = [&](double seconds) {
    return RunClosedLoop(port, setup->bodies, setup->expected, setup->types,
                         kConnections, seconds);
  };
  if (!options.trace) {
    untraced.push_back(window(options.seconds));
  } else {
    untraced.push_back(window(options.seconds / 4));
    scrape_before = ScrapeMetricsz(port);
    traced = window(options.seconds / 2);
    scrape_after = ScrapeMetricsz(port);
    untraced.push_back(window(options.seconds / 4));
  }
  calib_ms.push_back(CalibrateMs(5));

  std::vector<double> latency_us;
  double wall = 0.0, cpu = 0.0;
  for (LoadResult& part : untraced) {
    ops->Merge(part.ops);
    latency_us.insert(latency_us.end(), part.latency_us.begin(),
                      part.latency_us.end());
    wall += part.wall_seconds;
    cpu += part.cpu_seconds;
  }
  ops->Merge(traced.ops);
  std::vector<double> latency_ms;
  for (const double us : latency_us) latency_ms.push_back(us / 1e3);
  const Summary op = Summarize(latency_ms, kTailPercentile);
  for (const std::string& body : setup->expected) {
    if (body.empty()) ops->FailCheck();  // The pool must hold valid requests.
  }

  result->Set("setup_s", Median(setup_s));
  result->Set("op_p50_ms", op.p50);
  result->Set("op_tail_ms", op.tail);
  result->Set("ops_per_s", static_cast<double>(op.count) / wall);
  result->Set("cpu_ms_per_op", cpu * 1e3 / static_cast<double>(op.count));
  result->Set("rss_peak_mb", PeakRssMb());
  result->Set("nmi", nmi);
  // Every op of these workloads is a read.
  result->Set("read_p50_ms", op.p50);
  result->Set("read_tail_ms", op.tail);

  if (options.trace) {
    const double client_p50_us = Median(traced.latency_us);
    const std::string health_before = ScrapeMetricsz(port);
    const double healthz_us = HealthzP50Us(port, 2000);
    const std::string health_after = ScrapeMetricsz(port);
    RecordServerLayers(StagesFromScrapes(scrape_before, scrape_after),
                       client_p50_us, healthz_us,
                       StagesFromScrapes(health_before, health_after), result);
    result->Set("server.response_bytes", Median(traced.response_bytes));
    for (size_t t = 0; t < 4; ++t) {
      if (traced.per_type_us[t].empty()) continue;
      result->Set(std::string("server.client_") + kTypeNames[t] + "_p50_us",
                  Median(traced.per_type_us[t]));
    }
    std::vector<double> swap_ms;
    for (int i = 0; i < 5; ++i) {
      const double t0 = NowSeconds();
      CPD_CHECK(setup->stack.registry->LoadFrom(setup->artifact_path).ok());
      swap_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    result->Set("server.registry_swap_ms", Median(swap_ms));
    result->Set("serve.index_load_ms", Median(index_load_ms));
    result->Set("core.artifact_write_ms", setup->artifact_write_ms);
    result->Set("core.artifact_bytes", setup->artifact_bytes);
    const size_t replay = std::min<size_t>(setup->requests.size(), 1024);
    RecordInProcessLayers(
        *setup->reference,
        std::vector<cpd::serve::QueryRequest>(setup->requests.begin(),
                                              setup->requests.begin() + replay),
        3, result);
    const double traced_p50 = Median(traced.latency_us) / 1e3;
    result->Set("machine.calib_ms", Median(calib_ms));
    result->Set("trace.op_p50_ms", traced_p50);
    result->Set("trace.overhead_pct", (traced_p50 / op.p50 - 1.0) * 100.0);
  }

  cpd::Json detail = cpd::Json::MakeObject();
  detail.Set("connections", cpd::Json(kConnections));
  detail.Set("server_threads", cpd::Json(2));
  detail.Set("request_pool", cpd::Json(static_cast<uint64_t>(setup->requests.size())));
  detail.Set("load_mode", cpd::Json(setup->stack.registry->Snapshot()->index.is_mmap_backed()
                                        ? "mmap"
                                        : "heap"));
  detail.Set("op_samples", cpd::Json(static_cast<uint64_t>(op.count)));
  detail.Set("op_tail_percentile", cpd::Json(op.tail_percentile));
  detail.Set("op_tail_beyond", cpd::Json(static_cast<uint64_t>(op.beyond)));
  detail.Set("calib_ms", cpd::Json(Median(calib_ms)));
  result->SetDetail("workload", std::move(detail));
}

}  // namespace

void RunServeMixed(const Options& options, Result* result, OpCounter* ops) {
  RunServe(options, TwitterArtifact, result, ops);
}

void RunServeRankLarge(const Options& options, Result* result, OpCounter* ops) {
  RunServe(options, LargeArtifact, result, ops);
}

}  // namespace perfbench
