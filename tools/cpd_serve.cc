// HTTP serving front end: load a ".cpdb" artifact (bundled vocabulary;
// --vocab overrides) into a hot-swappable ModelRegistry and serve the four
// query types as JSON endpoints until SIGINT/SIGTERM.
//
// Usage:
//   cpd_serve --model model.cpdb [--vocab vocab.tsv] [--top_k 5]
//             [--load_mode mmap|heap]
//             [--port 8080] [--host 127.0.0.1] [--threads 4]
//             [--max_connections 1024]
//             [--coalesce_window_us 0] [--coalesce_max 16]
//             [--max_inflight 64] [--deadline_ms 0]
//             [--log_level info] [--metrics on|off] [--slow_request_ms 500]
//             [--users N --docs docs.tsv --friends friends.tsv
//              --diffusion diffusion.tsv]   (enables diffusion queries AND
//                                            streaming ingest)
//             [--warm_iters 2] [--ingest_threads 1] [--ingest_out base]
//
// Endpoints (see docs/HTTP_API.md for the wire format):
//   POST /v1/query              single {"type":...} or {"batch":[...]}
//   GET  /v1/membership/{user}  ?k=N&distribution=1
//   GET  /v1/models             loaded models (name, generation, ...)
//   POST /v1/models/{m}/query   query a named model
//   GET  /v1/models/{m}/membership/{user}
//   GET  /healthz | /statsz
//   POST /admin/reload          re-reads --model (or {"path":...} switch;
//                               {"model":...} addresses a named model)
//   POST /admin/ingest          UpdateBatch JSON -> warm-started model ->
//                               fresh artifact -> zero-downtime swap
//                               (needs the training-graph quartet above;
//                                every generation is one whole .cpdb at
//                                <--ingest_out>.gN.cpdb, default <--model>,
//                                written by an atomic rename)
//
// I/O: one event loop multiplexes up to --max_connections keep-alive
// connections and --threads workers run the handlers. A positive
// --coalesce_window_us micro-batches concurrent single queries through the
// batched scoring path.
//
// Overload returns 429 + Retry-After; requests over --deadline_ms return
// 504; SIGINT drains in-flight requests before exiting.

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "core/cpd_model.h"
#include "graph/graph_io.h"
#include "ingest/ingest_pipeline.h"
#include "server/http_server.h"
#include "server/json_api.h"
#include "server/model_registry.h"
#include "text/vocabulary.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/status.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --model model.cpdb [--vocab vocab.tsv] [--top_k 5]\n"
               "          [--load_mode mmap|heap]\n"
               "          [--port 8080] [--host 127.0.0.1] [--threads 4]\n"
               "          [--max_connections 1024]\n"
               "          [--coalesce_window_us 0] [--coalesce_max 16]\n"
               "          [--max_inflight 64] [--deadline_ms 0]\n"
               "          [--log_level debug|info|warning|error|off]\n"
               "          [--metrics on|off] [--slow_request_ms 500]\n"
               "          [--users N --docs docs.tsv --friends friends.tsv "
               "--diffusion diffusion.tsv]\n"
               "          [--warm_iters 2] [--ingest_threads 1] "
               "[--ingest_out base]\n",
               argv0);
}

const std::set<std::string> kKnownFlags = {
    "model", "vocab",   "top_k",        "port",        "host",
    "threads", "users", "docs",         "friends",     "diffusion",
    "max_inflight",     "deadline_ms",  "warm_iters",  "ingest_threads",
    "ingest_out",       "max_connections",
    "coalesce_window_us", "coalesce_max",
    "log_level", "metrics", "slow_request_ms",
    "load_mode"};

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

}  // namespace

int main(int argc, char** argv) {
  auto parsed = cpd::ParseFlags(argc, argv, kKnownFlags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    Usage(argv[0]);
    return 2;
  }
  cpd::FlagMap args = std::move(*parsed);
  if (!args.count("model")) {
    Usage(argv[0]);
    return 2;
  }
  // Typed flag parsing: a mistyped numeric flag is a usage error (exit 2),
  // identically to cpd_train / cpd_query.
  const auto usage = [argv] { Usage(argv[0]); };
  const auto int_flag = [&args, &usage](const std::string& name,
                                        int fallback) {
    return cpd::GetIntFlagOrExit(args, name, fallback, usage);
  };

  if (args.count("log_level")) {
    auto level = cpd::ParseLogLevel(args["log_level"]);
    if (!level.ok()) {
      std::fprintf(stderr, "%s\n", level.status().message().c_str());
      Usage(argv[0]);
      return 2;
    }
    cpd::SetLogLevel(*level);
  }
  bool metrics_enabled = true;
  if (args.count("metrics")) {
    if (args["metrics"] == "off") {
      metrics_enabled = false;
    } else if (args["metrics"] != "on") {
      std::fprintf(stderr, "--metrics must be on|off, got '%s'\n",
                   args["metrics"].c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  cpd::serve::ProfileIndexOptions index_options;
  index_options.membership_top_k =
      int_flag("top_k", index_options.membership_top_k);
  // --load_mode mmap (default) serves the artifact straight off the page
  // cache; heap copies it (the reference path, for network filesystems or
  // a self-contained RSS).
  if (args.count("load_mode")) {
    auto mode = cpd::serve::ParseArtifactLoadMode(args["load_mode"]);
    if (!mode.ok()) {
      std::fprintf(stderr, "%s\n", mode.status().message().c_str());
      Usage(argv[0]);
      return 2;
    }
    index_options.load_mode = *mode;
  }

  std::shared_ptr<const cpd::SocialGraph> graph;
  if (args.count("docs")) {
    if (!args.count("users") || !args.count("friends") ||
        !args.count("diffusion")) {
      std::fprintf(stderr,
                   "diffusion queries need --users, --docs, --friends and "
                   "--diffusion together\n");
      return 2;
    }
    const uint64_t users = cpd::GetUint64FlagOrExit(args, "users", 0, usage);
    auto loaded = cpd::LoadSocialGraph(users, args["docs"], args["friends"],
                                       args["diffusion"]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "graph load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::make_shared<const cpd::SocialGraph>(std::move(*loaded));
  }

  cpd::server::ModelRegistry registry(index_options, graph);
  if (args.count("vocab")) {
    auto vocab = cpd::Vocabulary::LoadFromFile(args["vocab"]);
    if (!vocab.ok()) {
      std::fprintf(stderr, "vocab load failed: %s\n",
                   vocab.status().ToString().c_str());
      return 1;
    }
    registry.SetVocabularyOverride(
        std::make_shared<const cpd::Vocabulary>(std::move(*vocab)));
  }
  const cpd::Status loaded = registry.LoadFrom(args["model"]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  {
    // Scoped: holding this snapshot for the process lifetime would pin
    // generation 1 in memory across every future hot reload.
    const auto model = registry.Snapshot();
    if (model->vocabulary == nullptr) {
      CPD_LOG(Warning)
          << "no vocabulary (artifact saved without one, no --vocab): "
             "textual rank queries disabled, send word ids";
    }
  }

  // Streaming ingest: with the training graph loaded, POST /admin/ingest
  // warm-starts the model and swaps fresh artifacts through the registry.
  std::unique_ptr<cpd::ingest::IngestPipeline> pipeline;
  if (graph != nullptr) {
    // Pipeline-setup failures only disable the ingest route (it answers
    // 409); read traffic keeps serving — e.g. a graph/model mismatch.
    auto trained = cpd::CpdModel::LoadBinary(args["model"]);
    if (!trained.ok()) {
      CPD_LOG(Warning) << "ingest disabled (model not loadable as .cpdb): "
                       << trained.status().ToString();
    } else {
      cpd::ingest::IngestOptions ingest_options;
      ingest_options.config = trained->config();
      ingest_options.config.num_communities = trained->num_communities();
      ingest_options.config.num_topics = trained->num_topics();
      ingest_options.config.num_threads = int_flag("ingest_threads", 1);
      ingest_options.warm_iterations = int_flag("warm_iters", 2);
      ingest_options.artifact_base =
          args.count("ingest_out") ? args["ingest_out"] : args["model"];
      ingest_options.base_generation =
          registry.Snapshot()->index.artifact_generation();
      auto created = cpd::ingest::IngestPipeline::Create(graph, *trained,
                                                         ingest_options);
      if (!created.ok()) {
        CPD_LOG(Warning) << "ingest disabled: "
                         << created.status().ToString();
      } else {
        pipeline = std::move(*created);
        std::printf("streaming ingest enabled (POST /admin/ingest, "
                    "artifacts at %s.gN.cpdb)\n",
                    ingest_options.artifact_base.c_str());
      }
    }
  }

  cpd::server::HttpServerOptions options;
  options.host = args.count("host") ? args["host"] : options.host;
  options.port = int_flag("port", 8080);
  options.threads = int_flag("threads", options.threads);
  options.max_connections =
      int_flag("max_connections", options.max_connections);
  options.max_inflight = int_flag("max_inflight", options.max_inflight);
  options.deadline_ms = int_flag("deadline_ms", options.deadline_ms);
  // Requests slower than this get a Warning line with the per-stage
  // breakdown (0 disables the slow log).
  options.slow_request_us =
      cpd::GetInt64FlagOrExit(args, "slow_request_ms", 500, usage) * 1000;

  cpd::server::CoalescerOptions coalescer_options;
  coalescer_options.window_us = int_flag("coalesce_window_us", 0);
  coalescer_options.max_batch = int_flag("coalesce_max", 16);
  cpd::server::Coalescer coalescer(coalescer_options);
  if (coalescer.enabled()) {
    std::printf("request coalescing enabled (window %d us, max batch %d)\n",
                coalescer_options.window_us, coalescer_options.max_batch);
  }

  cpd::server::HttpServer server(options);
  cpd::server::ServiceStats stats;
  stats.set_metrics_enabled(metrics_enabled);
  cpd::server::RegisterCpdRoutes(&server, &registry, &stats, pipeline.get(),
                                 &coalescer);
  const cpd::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("serving %s on http://%s:%d/ (Ctrl-C drains and exits)\n",
              args["model"].c_str(), options.host.c_str(), server.port());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down...\n");
  server.Stop();
  return 0;
}
