#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/em_trainer.h"
#include "core/logistic_fit.h"
#include "eval/metrics.h"
#include "test_util.h"
#include "util/math_util.h"
#include "util/rng.h"

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

// With both nu factors ablated, only the bias is free. The fit must still be
// executor-independent, and every pinned coordinate, kWeightEta included,
// must keep the bits it was initialized with.
TEST(EmTrainerTest, MStepPinnedCoordinatesKeepTheirBitsAcrossExecutors) {
  const SynthResult data = testing::MakeTinyGraph(42);
  CpdConfig config = TrainerConfig();
  config.em_iterations = 2;
  config.gibbs_sweeps_per_em = 2;
  config.executor_mode = ExecutorMode::kSerial;
  config.num_shards = 1;
  config.ablation.topic_factor = false;
  config.ablation.individual_factor = false;
  EmTrainer reference(data.graph, config);
  ASSERT_TRUE(reference.Train().ok());
  const ModelState& from = reference.state();
  const std::vector<double> expected = MStepWeightsFrom(data, from, config);
  ASSERT_NE(expected[kWeightBias], from.weights[kWeightBias]);

  const ModelState initial(data.graph, config);
  for (int k = 0; k < kNumDiffusionWeights; ++k) {
    if (k == kWeightBias) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(expected[static_cast<size_t>(k)]),
              std::bit_cast<uint64_t>(initial.weights[static_cast<size_t>(k)]))
        << "pinned coordinate " << k;
  }
  for (const int shards : {1, 2, 3, 4}) {
    CpdConfig serial_config = config;
    serial_config.num_shards = shards;
    EXPECT_EQ(MStepWeightsFrom(data, from, serial_config), expected)
        << "serial x " << shards << " shards";
    for (const int threads : {2, 4}) {
      CpdConfig pooled_config = config;
      pooled_config.executor_mode = ExecutorMode::kPooled;
      pooled_config.num_threads = threads;
      pooled_config.num_shards = shards;
      EXPECT_EQ(MStepWeightsFrom(data, from, pooled_config), expected)
          << threads << " threads x " << shards << " shards";
    }
  }
}

// A fixed design matrix for FitDiffusionWeights: labels drawn from a known
// logistic model, with the production column scales (a ~1e-2 eta score, a
// popularity fraction, four log-ratio features and the bias).
struct Design {
  std::vector<double> x;  // Column-major, positives first.
  size_t n = 0;
  size_t num_pos = 0;
};

Design MakeDesign(uint64_t seed) {
  Rng rng(seed);
  const double truth[kNumDiffusionWeights] = {3.0, 1.5, 0.8, -0.6, 0.4, -0.9,
                                              -0.7};
  std::vector<std::array<double, kNumDiffusionWeights>> pos, neg;
  for (int i = 0; i < 800; ++i) {
    std::array<double, kNumDiffusionWeights> row{};
    row[kWeightEta] = 0.02 * rng.NextDouble();
    row[kWeightPopularity] = rng.NextDouble();
    for (int k = 0; k < kNumUserFeatures; ++k) {
      row[static_cast<size_t>(kWeightFeature0 + k)] =
          0.8 * rng.NextGaussian() - 0.3;
    }
    row[kWeightBias] = 1.0;
    double m = 0.0;
    for (int k = 0; k < kNumDiffusionWeights; ++k) {
      m += truth[k] * row[static_cast<size_t>(k)];
    }
    (rng.NextDouble() < Sigmoid(m) ? pos : neg).push_back(row);
  }
  Design d;
  d.num_pos = pos.size();
  d.n = pos.size() + neg.size();
  d.x.resize(static_cast<size_t>(kNumDiffusionWeights) * d.n);
  for (size_t i = 0; i < d.n; ++i) {
    const auto& row = i < d.num_pos ? pos[i] : neg[i - d.num_pos];
    for (int k = 0; k < kNumDiffusionWeights; ++k) {
      d.x[static_cast<size_t>(k) * d.n + i] = row[static_cast<size_t>(k)];
    }
  }
  return d;
}

using Weights = std::array<double, kNumDiffusionWeights>;

Weights InitialWeights() {
  Weights w{};
  w[kWeightEta] = 1.0;
  w[kWeightPopularity] = 1.0;
  return w;
}

// One full-batch gradient ascent step at `rate` over the coordinates in
// `free` (the M-step's algorithm before Newton); returns max |step|.
double GradientStep(const Design& d, const std::array<bool, kNumDiffusionWeights>& free,
                    double l2, double rate, Weights* w) {
  double grad[kNumDiffusionWeights] = {};
  for (size_t i = 0; i < d.n; ++i) {
    double m = 0.0;
    for (int k = 0; k < kNumDiffusionWeights; ++k) {
      m += (*w)[static_cast<size_t>(k)] * d.x[static_cast<size_t>(k) * d.n + i];
    }
    const double r = (i < d.num_pos ? 1.0 : 0.0) - Sigmoid(m);
    for (int k = 0; k < kNumDiffusionWeights; ++k) {
      grad[k] += r * d.x[static_cast<size_t>(k) * d.n + i];
    }
  }
  double max_step = 0.0;
  for (int k = 0; k < kNumDiffusionWeights; ++k) {
    if (!free[static_cast<size_t>(k)]) continue;
    double& wk = (*w)[static_cast<size_t>(k)];
    const double step =
        rate * (grad[k] / static_cast<double>(d.n) - l2 * wk);
    wk += step;
    max_step = std::max(max_step, std::fabs(step));
  }
  return max_step;
}

// The M-step objective: mean log-likelihood minus (l2/2) |w|^2.
double Objective(const Design& d, const Weights& w, double l2) {
  double ll = 0.0;
  for (size_t i = 0; i < d.n; ++i) {
    double m = 0.0;
    for (int k = 0; k < kNumDiffusionWeights; ++k) {
      m += w[static_cast<size_t>(k)] * d.x[static_cast<size_t>(k) * d.n + i];
    }
    ll -= i < d.num_pos ? Log1pExp(-m) : Log1pExp(m);
  }
  double norm = 0.0;
  for (const double wk : w) norm += wk * wk;
  return ll / static_cast<double>(d.n) - 0.5 * l2 * norm;
}

const ExampleRangeRunner kInline = [](size_t n,
                                      const std::function<void(size_t, size_t)>& fn) {
  fn(0, n);
};

std::array<bool, kNumDiffusionWeights> FreeWithEtaPinned() {
  std::array<bool, kNumDiffusionWeights> free;
  free.fill(true);
  free[kWeightEta] = false;
  return free;
}

TEST(DiffusionWeightFitTest, NewtonMatchesLongRunGradientOracle) {
  const Design d = MakeDesign(31);
  ASSERT_GT(d.num_pos, 100u);
  ASSERT_GT(d.n - d.num_pos, 100u);
  const double l2 = 1e-4;
  const auto free = FreeWithEtaPinned();

  Weights newton = InitialWeights();
  const int steps = FitDiffusionWeights(d.x, d.num_pos, free, l2, 60, newton,
                                        kInline);
  EXPECT_LT(steps, 15);

  Weights oracle = InitialWeights();
  int iterations = 0;
  while (GradientStep(d, free, l2, 0.5, &oracle) > 1e-14 &&
         ++iterations < 1000000) {
  }
  ASSERT_LT(iterations, 1000000) << "oracle did not converge";
  for (int k = 0; k < kNumDiffusionWeights; ++k) {
    EXPECT_NEAR(newton[static_cast<size_t>(k)], oracle[static_cast<size_t>(k)],
                1e-6)
        << "coordinate " << k;
  }
  EXPECT_EQ(newton[kWeightEta], 1.0);
}

TEST(DiffusionWeightFitTest, NewtonObjectiveBeatsSixtyGradientSteps) {
  const double l2 = 1e-4;
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const Design d = MakeDesign(seed);
    Weights newton = InitialWeights();
    FitDiffusionWeights(d.x, d.num_pos, FreeWithEtaPinned(), l2, 60, newton,
                        kInline);
    // The previous M-step: 60 steps at rate 0.1 with eta free as well.
    std::array<bool, kNumDiffusionWeights> all;
    all.fill(true);
    Weights gradient = InitialWeights();
    for (int iter = 0; iter < 60; ++iter) GradientStep(d, all, l2, 0.1, &gradient);
    EXPECT_GE(Objective(d, newton, l2), Objective(d, gradient, l2))
        << "seed " << seed;
  }
}

TEST(DiffusionWeightFitTest, SplitOfTheSigmoidPassDoesNotChangeBits) {
  const Design d = MakeDesign(34);
  const auto free = FreeWithEtaPinned();
  Weights inline_fit = InitialWeights();
  FitDiffusionWeights(d.x, d.num_pos, free, 1e-4, 60, inline_fit, kInline);
  // Three uneven ranges, run last to first.
  const ExampleRangeRunner reversed =
      [](size_t n, const std::function<void(size_t, size_t)>& fn) {
        fn(n / 2, n);
        fn(n / 7, n / 2);
        fn(0, n / 7);
      };
  Weights split_fit = InitialWeights();
  FitDiffusionWeights(d.x, d.num_pos, free, 1e-4, 60, split_fit, reversed);
  EXPECT_EQ(split_fit, inline_fit);
}

TEST(DiffusionWeightFitTest, ZeroStepCapAndNoFreeCoordinateLeaveWeights) {
  const Design d = MakeDesign(35);
  Weights w = InitialWeights();
  EXPECT_EQ(FitDiffusionWeights(d.x, d.num_pos, FreeWithEtaPinned(), 1e-4, 0,
                                w, kInline),
            0);
  EXPECT_EQ(w, InitialWeights());
  EXPECT_EQ(FitDiffusionWeights(d.x, d.num_pos, {}, 1e-4, 60, w, kInline), 0);
  EXPECT_EQ(w, InitialWeights());
}

// Golden chain: the exact values a small fixed-seed sparse run produces.
// They were first captured before the per-user friend evaluators, the
// |C|-array diffusion score and the pooled M-step replaced the per-document
// kernels, and re-captured when the Newton M-step replaced 60 gradient
// steps (a different maximizer of the same objective, so the chain moved;
// the sampler kernels did not). The executor-identity suites only show that
// the execution paths agree with one another; these constants pin every
// path to one chain, bit for bit.
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
                    {1516,
                     13865452310521990537ULL,
                     {4607182418800017408ULL, 4608930503911585873ULL,
                      4602033997133407891ULL, 13826214641239775109ULL,
                      4594343629069485808ULL, 13825284529797683048ULL,
                      13832819497707881261ULL},
                     14602338690434055268ULL});
}

TEST(EmTrainerGoldenChainTest, PooledTwoByTwoMatchesPreviousKernels) {
  ExpectGoldenChain(2, 2, ExecutorMode::kPooled,
                    {1772,
                     13865565471447473651ULL,
                     {4607182418800017408ULL, 4607645017371399425ULL,
                      4602273466472694167ULL, 13826166556736148145ULL,
                      4594166410797130617ULL, 13825321168786863694ULL,
                      13832236666033513300ULL},
                     12235402038789540432ULL});
}

}  // namespace
}  // namespace cpd
