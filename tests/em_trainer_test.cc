#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/em_trainer.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace cpd {
namespace {

CpdConfig TrainerConfig() {
  CpdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.em_iterations = 6;
  config.gibbs_sweeps_per_em = 1;
  config.nu_iterations = 30;
  config.seed = 9;
  return config;
}

TEST(EmTrainerTest, TrainRunsAndTracksLikelihood) {
  const SynthResult data = testing::MakeTinyGraph();
  EmTrainer trainer(data.graph, TrainerConfig());
  ASSERT_TRUE(trainer.Train().ok());
  const TrainStats& stats = trainer.stats();
  ASSERT_EQ(stats.link_log_likelihood.size(), 6u);
  for (double ll : stats.link_log_likelihood) {
    EXPECT_TRUE(std::isfinite(ll));
    EXPECT_LT(ll, 0.0);  // Log-likelihood of Bernoulli links.
  }
  EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(EmTrainerTest, LinkLikelihoodImprovesOverTraining) {
  const SynthResult data = testing::MakeTinyGraph();
  EmTrainer trainer(data.graph, TrainerConfig());
  ASSERT_TRUE(trainer.Train().ok());
  const auto& ll = trainer.stats().link_log_likelihood;
  // Sampled likelihood is noisy; require the last iterate to beat the first.
  EXPECT_GT(ll.back(), ll.front());
}

TEST(EmTrainerTest, EtaRowsAreNormalized) {
  const SynthResult data = testing::MakeTinyGraph();
  CpdConfig config = TrainerConfig();
  EmTrainer trainer(data.graph, config);
  ASSERT_TRUE(trainer.Train().ok());
  const ModelState& state = trainer.state();
  for (int c = 0; c < config.num_communities; ++c) {
    double total = 0.0;
    for (int c2 = 0; c2 < config.num_communities; ++c2) {
      for (int z = 0; z < config.num_topics; ++z) {
        const double value = state.EtaAt(c, c2, z);
        EXPECT_GE(value, 0.0);
        total += value;
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-6) << "community " << c;
  }
}

TEST(EmTrainerTest, DiffusionWeightsAreLearned) {
  const SynthResult data = testing::MakeTinyGraph();
  EmTrainer trainer(data.graph, TrainerConfig());
  ASSERT_TRUE(trainer.Train().ok());
  const auto& weights = trainer.state().weights;
  ASSERT_EQ(weights.size(), static_cast<size_t>(kNumDiffusionWeights));
  // The logistic regression must move the bias off its zero init (negatives
  // dominate the base rate).
  EXPECT_NE(weights[kWeightBias], 0.0);
  for (double w : weights) EXPECT_TRUE(std::isfinite(w));
}

TEST(EmTrainerTest, NoJointTwoPhaseFreezesCommunities) {
  const SynthResult data = testing::MakeTinyGraph();
  CpdConfig config = TrainerConfig();
  config.ablation.joint_profiling = false;
  EmTrainer trainer(data.graph, config);
  ASSERT_TRUE(trainer.Train().ok());
  // Phase B freezes communities: run one more E-step and verify they hold.
  const std::vector<int32_t> before = trainer.state().doc_community;
  ASSERT_TRUE(trainer.EStep().ok());
  EXPECT_EQ(trainer.state().doc_community, before);
}

TEST(EmTrainerTest, ParallelTrainingMatchesSerialQuality) {
  const SynthResult data = testing::MakeTinyGraph();

  CpdConfig serial_config = TrainerConfig();
  EmTrainer serial(data.graph, serial_config);
  ASSERT_TRUE(serial.Train().ok());

  CpdConfig parallel_config = TrainerConfig();
  parallel_config.num_threads = 4;
  EmTrainer parallel(data.graph, parallel_config);
  ASSERT_TRUE(parallel.Train().ok());

  // Parallel inference is approximate (stale reads) but must land in the
  // same quality regime: final link log-likelihoods within 20%.
  const double serial_ll = serial.stats().link_log_likelihood.back();
  const double parallel_ll = parallel.stats().link_log_likelihood.back();
  EXPECT_LT(std::fabs(parallel_ll - serial_ll) / std::fabs(serial_ll), 0.2);

  // Fig. 11 data recorded.
  EXPECT_EQ(parallel.stats().thread_estimated_workload.size(), 4u);
  EXPECT_EQ(parallel.stats().thread_actual_seconds.size(), 4u);
  EXPECT_GT(parallel.stats().num_segments, 0u);
}

TEST(EmTrainerTest, RecoversPlantedCommunitiesBetterThanChance) {
  // Slightly larger than the tiny fixture: 60-user/degree-6 graphs sit at
  // the detectability threshold and recovery is seed-dependent there.
  SynthConfig synth_config = testing::TinySynthConfig(123);
  synth_config.num_users = 150;
  synth_config.avg_friend_degree = 10.0;
  auto generated = GenerateSocialGraph(synth_config);
  ASSERT_TRUE(generated.ok());
  const SynthResult& data = *generated;
  CpdConfig config = TrainerConfig();
  config.em_iterations = 12;
  config.gibbs_sweeps_per_em = 4;
  EmTrainer trainer(data.graph, config);
  ASSERT_TRUE(trainer.Train().ok());

  // Hard per-user label = argmax community by doc counts.
  const ModelState& state = trainer.state();
  std::vector<int> predicted(data.graph.num_users());
  for (size_t u = 0; u < data.graph.num_users(); ++u) {
    int best = 0;
    for (int c = 1; c < config.num_communities; ++c) {
      if (state.n_uc[u * static_cast<size_t>(config.num_communities) +
                     static_cast<size_t>(c)] >
          state.n_uc[u * static_cast<size_t>(config.num_communities) +
                     static_cast<size_t>(best)]) {
        best = c;
      }
    }
    predicted[u] = best;
  }
  const double nmi =
      NormalizedMutualInformation(predicted, data.truth.user_community);
  EXPECT_GT(nmi, 0.25) << "planted community recovery too weak";
}

TEST(EmTrainerTest, InvalidConfigRejected) {
  const SynthResult data = testing::MakeTinyGraph();
  CpdConfig config = TrainerConfig();
  config.num_communities = 0;
  EmTrainer trainer(data.graph, config);
  EXPECT_FALSE(trainer.Train().ok());
}

TEST(EmTrainerTest, EmptyGraphRejected) {
  SocialGraph empty;
  EmTrainer trainer(empty, TrainerConfig());
  EXPECT_FALSE(trainer.Train().ok());
}

// The M-step splits its per-example work over the executor's Dispatch, one
// example range per shard. From one state, the serial and pooled executors
// (any thread and shard count) must fit bit-identical weights.
std::vector<double> MStepWeightsFrom(const SynthResult& data,
                                     const ModelState& from,
                                     const CpdConfig& config) {
  EmTrainer trainer(data.graph, config);
  EXPECT_TRUE(trainer.Initialize().ok());
  EXPECT_TRUE(trainer.EStep().ok());  // Builds the executor.
  *trainer.mutable_state() = from;
  trainer.MStep();
  return trainer.state().weights;
}

TEST(EmTrainerTest, MStepWeightsBitIdenticalAcrossExecutors) {
  const SynthResult data = testing::MakeTinyGraph(42);
  CpdConfig config = TrainerConfig();
  config.em_iterations = 2;
  config.gibbs_sweeps_per_em = 2;
  config.executor_mode = ExecutorMode::kSerial;
  config.num_shards = 1;
  EmTrainer reference(data.graph, config);
  ASSERT_TRUE(reference.Train().ok());
  const ModelState& from = reference.state();
  const std::vector<double> expected = MStepWeightsFrom(data, from, config);
  ASSERT_NE(expected, from.weights);  // The M-step moved the weights.

  CpdConfig serial_config = config;
  serial_config.num_shards = 4;
  EXPECT_EQ(MStepWeightsFrom(data, from, serial_config), expected);
  for (const int threads : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) {
      CpdConfig pooled_config = config;
      pooled_config.executor_mode = ExecutorMode::kPooled;
      pooled_config.num_threads = threads;
      pooled_config.num_shards = shards;
      EXPECT_EQ(MStepWeightsFrom(data, from, pooled_config), expected)
          << threads << " threads x " << shards << " shards";
    }
  }
}

// Golden chain: the exact values a small fixed-seed sparse run produced
// before the per-user friend evaluators, the |C|-array diffusion score and
// the pooled M-step replaced the per-document kernels. The executor-identity
// suites only show that the execution paths agree with one another; these
// constants pin every path to the previous kernels, bit for bit.
struct GoldenChain {
  size_t doc_moves;
  uint64_t link_ll_bits;
  std::vector<uint64_t> weight_bits;
  uint64_t assignment_hash;
};

uint64_t HashAssignments(const ModelState& state) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis.
  const auto mix = [&h](std::span<const int32_t> values) {
    for (const int32_t v : values) {
      const auto bits = static_cast<uint32_t>(v);
      for (int shift = 0; shift < 32; shift += 8) {
        h ^= (bits >> shift) & 0xffu;
        h *= 1099511628211ULL;
      }
    }
  };
  mix(state.doc_topic);
  mix(state.doc_community);
  return h;
}

void ExpectGoldenChain(int num_threads, int num_shards, ExecutorMode mode,
                       const GoldenChain& golden) {
  const SynthResult data = testing::MakeTinyGraph(42);
  CpdConfig config = TrainerConfig();
  config.sampler_mode = SamplerMode::kSparse;
  config.em_iterations = 4;
  config.gibbs_sweeps_per_em = 2;
  config.num_threads = num_threads;
  config.num_shards = num_shards;
  config.executor_mode = mode;
  EmTrainer trainer(data.graph, config);
  ASSERT_TRUE(trainer.Train().ok());

  EXPECT_EQ(trainer.stats().delta_doc_moves, golden.doc_moves);
  EXPECT_EQ(std::bit_cast<uint64_t>(trainer.sampler()->LinkLogLikelihood()),
            golden.link_ll_bits);
  std::vector<uint64_t> weight_bits;
  for (const double w : trainer.state().weights) {
    weight_bits.push_back(std::bit_cast<uint64_t>(w));
  }
  EXPECT_EQ(weight_bits, golden.weight_bits);
  EXPECT_EQ(HashAssignments(trainer.state()), golden.assignment_hash);
}

TEST(EmTrainerGoldenChainTest, SerialOneShardMatchesPreviousKernels) {
  ExpectGoldenChain(1, 1, ExecutorMode::kSerial,
                    {1596,
                     13865320278669797711ULL,
                     {4607191485121010369ULL, 4606706631294890122ULL,
                      4597330413180109655ULL, 13801485215013428174ULL,
                      4584969703320938478ULL, 4589378468023414115ULL,
                      13821418667801256218ULL},
                     8558689257035847127ULL});
}

TEST(EmTrainerGoldenChainTest, PooledTwoByTwoMatchesPreviousKernels) {
  ExpectGoldenChain(2, 2, ExecutorMode::kPooled,
                    {1731,
                     13865522000230813135ULL,
                     {4607175355353473050ULL, 4606583812131941117ULL,
                      4597606679958072243ULL, 13807015127925482494ULL,
                      4585189372767107574ULL, 4587239875838919316ULL,
                      13820764164717736888ULL},
                     18245820902203479986ULL});
}

}  // namespace
}  // namespace cpd
