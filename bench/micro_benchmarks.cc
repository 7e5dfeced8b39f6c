// Engineering micro-benchmarks (google-benchmark): throughput of the hot
// inference kernels — Polya-Gamma sampling, categorical draws, alias tables,
// Gibbs document sweeps (dense and sparse backends) and PG augmentation
// sweeps, LDA iterations. Not a paper figure; guards against performance
// regressions in the samplers that dominate Alg. 1's E-step.

#include <benchmark/benchmark.h>

#include "core/em_trainer.h"
#include "core/gibbs_sampler.h"
#include "sampling/alias_table.h"
#include "sampling/distributions.h"
#include "sampling/polya_gamma.h"
#include "synth/generator.h"
#include "synth/synth_config.h"
#include "topic/lda.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cpd {
namespace {

SynthConfig MicroConfig() {
  SynthConfig config;
  config.num_users = 200;
  config.num_communities = 8;
  config.num_topics = 10;
  config.background_vocab = 500;
  config.docs_per_user_mean = 5.0;
  config.seed = 7171;
  return config;
}

const SynthResult& MicroData() {
  static const SynthResult* kData = [] {
    auto result = GenerateSocialGraph(MicroConfig());
    CPD_CHECK(result.ok());
    return new SynthResult(std::move(*result));
  }();
  return *kData;
}

void BM_PolyaGammaSample(benchmark::State& state) {
  PolyaGammaSampler sampler;
  Rng rng(1);
  const double c = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(c, &rng));
  }
}
BENCHMARK(BM_PolyaGammaSample)->Arg(0)->Arg(10)->Arg(40)->Arg(160);

void BM_SampleCategoricalFromLog(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> log_weights(static_cast<size_t>(state.range(0)));
  for (double& w : log_weights) w = -5.0 * rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleCategoricalFromLog(log_weights, &rng));
  }
}
BENCHMARK(BM_SampleCategoricalFromLog)->Arg(8)->Arg(32)->Arg(128);

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = rng.NextDoubleOpen();
  AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(100)->Arg(10000);

// One document sweep at the given (sampler mode, K topics); items/sec is
// documents/sec. The dense-vs-sparse pairs at matched K are the regression
// guard for the sparse backend.
void GibbsDocumentSweepBenchmark(benchmark::State& state, SamplerMode mode) {
  const SynthResult& data = MicroData();
  CpdConfig config;
  config.num_communities = 8;
  config.num_topics = static_cast<int>(state.range(0));
  config.sampler_mode = mode;
  LinkCaches caches(data.graph);
  ModelState model_state(data.graph, config);
  Rng rng(4);
  model_state.InitializeRandom(data.graph, &rng);
  model_state.RebuildCounts(data.graph);
  model_state.popularity.Refresh(data.graph, model_state.doc_topic);
  GibbsSampler sampler(data.graph, config, caches, &model_state);
  for (auto _ : state) {
    sampler.SweepDocuments(&rng);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.graph.num_documents()));
}

void BM_GibbsDocumentSweepDense(benchmark::State& state) {
  GibbsDocumentSweepBenchmark(state, SamplerMode::kDense);
}
BENCHMARK(BM_GibbsDocumentSweepDense)->Arg(10)->Arg(50)->Arg(200);

void BM_GibbsDocumentSweepSparse(benchmark::State& state) {
  GibbsDocumentSweepBenchmark(state, SamplerMode::kSparse);
}
BENCHMARK(BM_GibbsDocumentSweepSparse)->Arg(10)->Arg(50)->Arg(200);

void BM_PolyaGammaAugmentationSweep(benchmark::State& state) {
  const SynthResult& data = MicroData();
  CpdConfig config;
  config.num_communities = 8;
  config.num_topics = 10;
  LinkCaches caches(data.graph);
  ModelState model_state(data.graph, config);
  Rng rng(5);
  model_state.InitializeRandom(data.graph, &rng);
  model_state.RebuildCounts(data.graph);
  model_state.popularity.Refresh(data.graph, model_state.doc_topic);
  GibbsSampler sampler(data.graph, config, caches, &model_state);
  for (auto _ : state) {
    sampler.SweepFriendshipAugmentation(&rng);
    sampler.SweepDiffusionAugmentation(&rng);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.graph.num_friendship_links() +
                           data.graph.num_diffusion_links()));
}
BENCHMARK(BM_PolyaGammaAugmentationSweep);

void BM_LdaIteration(benchmark::State& state) {
  const SynthResult& data = MicroData();
  for (auto _ : state) {
    LdaConfig config;
    config.num_topics = 10;
    config.iterations = 1;
    auto model = LdaModel::Train(data.graph.corpus(), config);
    benchmark::DoNotOptimize(model.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          data.graph.corpus().total_tokens());
}
BENCHMARK(BM_LdaIteration);

void BM_FullEmIteration(benchmark::State& state) {
  const SynthResult& data = MicroData();
  CpdConfig config;
  config.num_communities = 8;
  config.num_topics = 10;
  config.gibbs_sweeps_per_em = 1;
  config.nu_iterations = 20;
  config.num_threads = static_cast<int>(state.range(0));
  EmTrainer trainer(data.graph, config);
  CPD_CHECK(trainer.Initialize().ok());
  CPD_CHECK(trainer.EStep().ok());  // Warm-up (thread plan).
  for (auto _ : state) {
    CPD_CHECK(trainer.EStep().ok());
    trainer.MStep();
  }
}
BENCHMARK(BM_FullEmIteration)->Arg(1)->Arg(4);

}  // namespace
}  // namespace cpd

BENCHMARK_MAIN();
