// Streaming-ingest benchmark -> BENCH_ingest.json.
//
// Measures the economics of warm-started incremental updates against the
// only alternative a static trainer has — a cold retrain on the merged
// corpus:
//   1. cold-train a base model on the Twitter-like preset;
//   2. synthesize an update batch (~10% new users replaying base-document
//      token distributions, plus novel words, friendships, diffusions);
//   3. warm path: IngestPipeline::Ingest — merged graph, bounded warm
//      sweeps over the touched shards, fresh .cpdb artifact;
//   4. cold path: full retrain on the same merged graph + artifact write.
// Reports time-to-fresh-artifact and effective tokens/sec for both paths
// plus quality parity (content perplexity and link log-likelihood of warm
// vs cold on the merged corpus). The warm path must win wall-clock by
// construction (it sweeps a fraction of the corpus a fraction of the
// iterations); the JSON keeps the ratio visible across PRs.
//
// Follows the BENCH_sampler.json conventions: argument-free,
// laptop-friendly, honors CPD_BENCH_JSON_DIR.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "eval/metrics.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_batch.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cpd::bench {
namespace {

struct Quality {
  double perplexity = 0.0;
  double link_log_likelihood = 0.0;
};

Quality Evaluate(const SocialGraph& graph, const CpdModel& model,
                 double link_ll) {
  std::vector<std::vector<double>> pi(model.num_users());
  for (size_t u = 0; u < model.num_users(); ++u) {
    const auto view = model.Membership(static_cast<UserId>(u));
    pi[u].assign(view.begin(), view.end());
  }
  std::vector<std::vector<double>> theta(
      static_cast<size_t>(model.num_communities()));
  for (int c = 0; c < model.num_communities(); ++c) {
    const auto view = model.ContentProfile(c);
    theta[static_cast<size_t>(c)].assign(view.begin(), view.end());
  }
  std::vector<std::vector<double>> phi(static_cast<size_t>(model.num_topics()));
  for (int z = 0; z < model.num_topics(); ++z) {
    const auto view = model.TopicWords(z);
    phi[static_cast<size_t>(z)].assign(view.begin(), view.end());
  }
  std::vector<DocId> all_docs(graph.num_documents());
  for (size_t d = 0; d < all_docs.size(); ++d) {
    all_docs[d] = static_cast<DocId>(d);
  }
  Quality quality;
  quality.perplexity = ContentPerplexity(graph, all_docs, pi, theta, phi);
  quality.link_log_likelihood = link_ll;
  return quality;
}

void Run() {
  const BenchScale scale = BenchScale::FromEnv();
  const BenchDataset& dataset = TwitterDataset(scale);
  CpdConfig config = BaseCpdConfig(scale);
  config.num_communities = 12;
  config.num_topics = 12;
  PrintBenchHeader("Streaming ingest: warm-started EM vs cold retrain",
                   scale, dataset);

  const SocialGraph& base = dataset.data.graph;
  std::printf("cold-training the base model (T1=%d)...\n",
              config.em_iterations);
  WallTimer base_timer;
  auto base_model = CpdModel::Train(base, config);
  CPD_CHECK(base_model.ok());
  const double base_train_seconds = base_timer.ElapsedSeconds();

  // ~10% new users, each replaying base token distributions.
  Rng rng(20260731);
  ingest::SampleUpdateOptions update_options;
  update_options.new_users = std::max<size_t>(2, base.num_users() / 10);
  update_options.docs_per_user = 4;
  update_options.novel_words_per_doc = 1;
  update_options.friends_per_user = 4;
  update_options.diffusions = update_options.new_users * 2;
  update_options.time = base.num_time_bins() - 1;
  const ingest::UpdateBatch batch =
      ingest::SampleUpdateBatch(base, update_options, &rng);
  std::printf("update batch: %zu docs, %zu friendships, %zu diffusions, "
              "+%zu users\n",
              batch.documents.size(), batch.friendships.size(),
              batch.diffusions.size(),
              batch.num_users - base.num_users());

  const std::string tmp =
      std::filesystem::temp_directory_path().string() + "/bench_ingest";

  // ----- warm path: pipeline end to end (time-to-fresh-artifact) -----
  ingest::IngestOptions pipeline_options;
  pipeline_options.config = config;
  pipeline_options.warm_iterations = 2;
  auto graph_alias = std::shared_ptr<const SocialGraph>(
      &base, [](const SocialGraph*) {});
  auto pipeline = ingest::IngestPipeline::Create(graph_alias, *base_model,
                                                 pipeline_options);
  CPD_CHECK(pipeline.ok());
  auto warm = (*pipeline)->Ingest(batch, tmp + ".warm.cpdb");
  CPD_CHECK(warm.ok());
  const auto warm_model = (*pipeline)->model();
  const auto merged = (*pipeline)->graph();
  std::printf("warm ingest: %.3f s to fresh artifact "
              "(apply %.3f, sweeps %.3f, save %.3f)\n",
              warm->total_seconds, warm->apply_seconds, warm->warm_seconds,
              warm->save_seconds);

  // ----- cold path: full retrain on the same merged graph -----
  WallTimer cold_timer;
  auto cold_model = CpdModel::Train(*merged, config);
  CPD_CHECK(cold_model.ok());
  const Status cold_saved = cold_model->SaveBinary(
      tmp + ".cold.cpdb", &merged->corpus().vocabulary());
  CPD_CHECK(cold_saved.ok());
  const double cold_seconds = cold_timer.ElapsedSeconds();
  std::printf("cold retrain on the merged corpus: %.3f s\n", cold_seconds);

  const double speedup =
      warm->total_seconds > 0.0 ? cold_seconds / warm->total_seconds : 0.0;
  std::printf("time-to-fresh-artifact: warm %.3f s vs cold %.3f s (%.1fx)\n",
              warm->total_seconds, cold_seconds, speedup);

  // Effective sampling throughput: tokens the E-steps actually swept per
  // second. Cold sweeps the whole merged corpus T1 times; warm sweeps only
  // its touched users warm_iterations times — count those tokens.
  const auto merged_tokens =
      static_cast<double>(merged->corpus().total_tokens());
  const int sweeps = config.gibbs_sweeps_per_em;
  const double cold_tokens_per_sec =
      merged_tokens * config.em_iterations * sweeps /
      cold_model->stats().e_step_seconds;
  const double touched_tokens = static_cast<double>(warm->touched_tokens);
  const double warm_estep_seconds = warm_model->stats().e_step_seconds;
  const double warm_tokens_per_sec =
      warm_estep_seconds > 0.0 ? touched_tokens * pipeline_options.warm_iterations *
                                     sweeps / warm_estep_seconds
                               : 0.0;
  std::printf("E-step throughput: warm %.0f tokens/s over %.0f touched "
              "tokens, cold %.0f tokens/s over the full corpus\n",
              warm_tokens_per_sec, touched_tokens, cold_tokens_per_sec);

  const Quality warm_quality =
      Evaluate(*merged, *warm_model, warm->link_log_likelihood);
  const Quality cold_quality =
      Evaluate(*merged, *cold_model,
               cold_model->stats().link_log_likelihood.empty()
                   ? 0.0
                   : cold_model->stats().link_log_likelihood.back());
  std::printf("quality on the merged corpus: perplexity warm %.1f vs cold "
              "%.1f, link LL warm %.1f vs cold %.1f\n",
              warm_quality.perplexity, cold_quality.perplexity,
              warm_quality.link_log_likelihood,
              cold_quality.link_log_likelihood);

  std::string json = "{\n  \"bench\": \"ingest\",\n";
  json += StrFormat(
      "  \"dataset\": {\"users\": %zu, \"documents\": %zu, "
      "\"communities\": %d, \"topics\": %d},\n",
      base.num_users(), base.num_documents(), config.num_communities,
      config.num_topics);
  json += StrFormat("  \"hardware_concurrency\": %u,\n",
                    std::thread::hardware_concurrency());
  json += StrFormat(
      "  \"batch\": {\"documents\": %zu, \"new_users\": %zu, "
      "\"friendships\": %zu, \"diffusions\": %zu, \"new_words\": %zu},\n",
      batch.documents.size(), batch.num_users - base.num_users(),
      batch.friendships.size(), batch.diffusions.size(),
      warm->counts.new_words);
  json += StrFormat("  \"base_train_seconds\": %.4f,\n", base_train_seconds);
  json += StrFormat(
      "  \"warm\": {\"time_to_fresh_artifact_seconds\": %.4f, "
      "\"apply_seconds\": %.4f, \"warm_sweep_seconds\": %.4f, "
      "\"save_seconds\": %.4f, \"warm_iterations\": %d, "
      "\"tokens_per_sec\": %.1f, \"touched_tokens\": %.0f},\n",
      warm->total_seconds, warm->apply_seconds, warm->warm_seconds,
      warm->save_seconds, pipeline_options.warm_iterations,
      warm_tokens_per_sec, touched_tokens);
  json += StrFormat(
      "  \"cold\": {\"time_to_fresh_artifact_seconds\": %.4f, "
      "\"em_iterations\": %d, \"tokens_per_sec\": %.1f},\n",
      cold_seconds, config.em_iterations, cold_tokens_per_sec);
  json += StrFormat("  \"speedup_time_to_fresh_artifact\": %.2f,\n", speedup);
  json += StrFormat(
      "  \"quality\": {\"warm_perplexity\": %.3f, \"cold_perplexity\": %.3f, "
      "\"warm_link_ll\": %.3f, \"cold_link_ll\": %.3f}\n",
      warm_quality.perplexity, cold_quality.perplexity,
      warm_quality.link_log_likelihood, cold_quality.link_log_likelihood);
  json += "}\n";

  const char* dir = std::getenv("CPD_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_ingest.json";
  const Status written = WriteStringToFile(path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 written.message().c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
  std::filesystem::remove(tmp + ".warm.cpdb");
  std::filesystem::remove(tmp + ".cold.cpdb");
}

}  // namespace
}  // namespace cpd::bench

int main() {
  cpd::bench::Run();
  return 0;
}
