// Command-line front end: train CPD on TSV dumps and emit the profiles,
// without writing any C++. Input format (see graph/graph_io.h):
//   docs.tsv:      user_id <TAB> time_bin <TAB> raw text
//   friends.tsv:   u <TAB> v
//   diffusion.tsv: doc_row_i <TAB> doc_row_j <TAB> time_bin
//
// Usage:
//   cpd_train --users N --docs docs.tsv --friends friends.tsv
//             --diffusion diffusion.tsv [--communities 20] [--topics 20]
//             [--iterations 15] [--threads 1] [--seed 42]
//             [--sampler sparse|dense] [--mh_steps 4]
//             [--executor auto|serial|pooled] [--shards 0]
//             [--model_binary out.cpdb]
//             [--vocab out.vocab] [--dot diffusion.dot]
//             [--json profiles.json]
//             [--trace_out sweeps.json] [--log_level info]
//
// --trace_out writes a Chrome trace-event JSON timeline of the run (one
// span per sweep phase); load it in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Prints dataset statistics, training progress, community labels and the
// topic-aggregated diffusion matrix; optionally saves the model (a .cpdb
// artifact for cpd_query / cpd_serve), the vocabulary, and the Fig. 7-style
// visualization exports.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "apps/visualization.h"
#include "core/cpd_model.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --users N --docs docs.tsv --friends friends.tsv "
               "--diffusion diffusion.tsv\n"
               "          [--communities 20] [--topics 20] [--iterations 15]\n"
               "          [--threads 1] [--seed 42] [--sampler sparse|dense]\n"
               "          [--mh_steps 4]\n"
               "          [--executor auto|serial|pooled] [--shards 0]\n"
               "          [--model_binary out.cpdb]\n"
               "          [--vocab out.vocab]\n"
               "          [--dot out.dot] [--json out.json]\n"
               "          [--trace_out sweeps.json]\n"
               "          [--log_level debug|info|warning|error|off]\n",
               argv0);
}

const std::set<std::string> kKnownFlags = {
    "users",    "docs",       "friends",  "diffusion",    "communities",
    "topics",   "iterations", "threads",  "seed",         "sampler",
    "mh_steps", "executor",   "shards",   "model_binary", "vocab",
    "dot",      "json",       "trace_out", "log_level"};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = cpd::ParseFlags(argc, argv, kKnownFlags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    Usage(argv[0]);
    return 2;
  }
  cpd::FlagMap args = std::move(*parsed);
  auto get = [&args](const std::string& key, const std::string& fallback) {
    auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };
  // Typed flag parsing: a mistyped numeric flag is a usage error (exit 2),
  // identically to cpd_query / cpd_serve.
  const auto usage = [argv] { Usage(argv[0]); };
  const auto int_flag = [&args, &usage](const std::string& name,
                                        int fallback) {
    return cpd::GetIntFlagOrExit(args, name, fallback, usage);
  };
  if (!args.count("users") || !args.count("docs") || !args.count("friends") ||
      !args.count("diffusion")) {
    Usage(argv[0]);
    return 2;
  }

  const size_t num_users = cpd::GetUint64FlagOrExit(args, "users", 0, usage);
  std::printf("loading graph (%zu users)...\n", num_users);
  auto graph = cpd::LoadSocialGraph(num_users, args["docs"], args["friends"],
                                    args["diffusion"]);
  if (!graph.ok()) {
    std::fprintf(stderr, "load failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", cpd::GraphStatsToString(cpd::ComputeGraphStats(*graph)).c_str());

  cpd::CpdConfig config;
  config.num_communities = int_flag("communities", 20);
  config.num_topics = int_flag("topics", 20);
  config.em_iterations = int_flag("iterations", 15);
  config.num_threads = int_flag("threads", 1);
  config.seed = cpd::GetUint64FlagOrExit(args, "seed", 42, usage);
  const std::string sampler = get("sampler", "sparse");
  if (sampler == "dense") {
    config.sampler_mode = cpd::SamplerMode::kDense;
  } else if (sampler != "sparse") {
    std::fprintf(stderr, "unknown --sampler '%s' (sparse|dense)\n",
                 sampler.c_str());
    return 2;
  }
  config.mh_steps = int_flag("mh_steps", cpd::CpdConfig().mh_steps);
  const std::string executor = get("executor", "auto");
  if (executor == "serial") {
    config.executor_mode = cpd::ExecutorMode::kSerial;
  } else if (executor == "pooled") {
    config.executor_mode = cpd::ExecutorMode::kPooled;
  } else if (executor != "auto") {
    std::fprintf(stderr, "unknown --executor '%s' (auto|serial|pooled)\n",
                 executor.c_str());
    Usage(argv[0]);
    return 2;
  }
  config.num_shards = int_flag("shards", 0);
  config.verbose = true;
  config.trace_out = get("trace_out", "");
  if (args.count("log_level")) {
    auto level = cpd::ParseLogLevel(args["log_level"]);
    if (!level.ok()) {
      std::fprintf(stderr, "%s\n", level.status().message().c_str());
      Usage(argv[0]);
      return 2;
    }
    cpd::SetLogLevel(*level);
  }

  std::printf("training CPD: |C|=%d |Z|=%d T1=%d threads=%d...\n",
              config.num_communities, config.num_topics, config.em_iterations,
              config.num_threads);
  cpd::WallTimer timer;
  auto model = cpd::CpdModel::Train(*graph, config);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  const cpd::TrainStats& stats = model->stats();
  std::printf("trained in %.1fs (E-step %.1fs [snapshot %.2fs, merge %.2fs], "
              "M-step %.1fs)\n",
              timer.ElapsedSeconds(), stats.e_step_seconds,
              stats.snapshot_seconds, stats.merge_seconds,
              stats.m_step_seconds);
  const int64_t collapse_total =
      stats.eta_collapse_hits + stats.eta_collapse_misses;
  std::printf("delta E-step: %zu doc moves merged; eta-collapse cache hit "
              "rate %.2f (%lld lookups)\n\n",
              stats.delta_doc_moves,
              collapse_total > 0
                  ? static_cast<double>(stats.eta_collapse_hits) /
                        static_cast<double>(collapse_total)
                  : 0.0,
              static_cast<long long>(collapse_total));

  const cpd::Vocabulary& vocab = graph->corpus().vocabulary();
  std::printf("communities:\n");
  for (int c = 0; c < model->num_communities(); ++c) {
    std::printf("  c%02d: %s\n", c,
                cpd::CommunityLabel(*model, vocab, c, 5).c_str());
  }
  std::printf("\ntopic-aggregated diffusion profile (row diffuses column):\n");
  for (int c = 0; c < model->num_communities(); ++c) {
    std::printf("  c%02d:", c);
    for (int c2 = 0; c2 < model->num_communities(); ++c2) {
      std::printf(" %.3f", model->EtaAggregated(c, c2));
    }
    std::printf("\n");
  }

  if (args.count("model_binary")) {
    // The vocabulary is bundled into the artifact so cpd_query and
    // cpd_serve need no side --vocab file.
    const cpd::Status status = model->SaveBinary(args["model_binary"], &vocab);
    if (!status.ok()) {
      std::fprintf(stderr, "binary model save failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("binary model -> %s (vocabulary bundled; serve it with "
                "cpd_query or cpd_serve)\n",
                args["model_binary"].c_str());
  }
  if (args.count("vocab")) {
    const cpd::Status status = vocab.SaveToFile(args["vocab"]);
    if (!status.ok()) {
      std::fprintf(stderr, "vocab save failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("vocabulary -> %s\n", args["vocab"].c_str());
  }
  cpd::VisualizationOptions viz;
  if (args.count("dot")) {
    const cpd::Status status = cpd::WriteStringToFile(
        args["dot"], cpd::ExportDiffusionDot(*model, vocab, viz));
    if (!status.ok()) {
      std::fprintf(stderr, "dot export failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("visualization -> %s\n", args["dot"].c_str());
  }
  if (args.count("json")) {
    const cpd::Status status = cpd::WriteStringToFile(
        args["json"], cpd::ExportProfilesJson(*model, vocab, viz));
    if (!status.ok()) {
      std::fprintf(stderr, "json export failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("profiles -> %s\n", args["json"].c_str());
  }
  return 0;
}
