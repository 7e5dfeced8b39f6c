#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/math_util.h"

namespace cpd::bench {

BenchScale BenchScale::FromEnv() {
  BenchScale scale;
  const char* scale_env = std::getenv("CPD_BENCH_SCALE");
  scale.paper = (scale_env != nullptr && std::string(scale_env) == "paper");
  if (scale.paper) {
    scale.community_sweep = {20, 50, 100, 150};
    scale.dataset_scale = 4.0;
    scale.em_iterations = 12;
  } else {
    scale.community_sweep = {5, 10, 15, 20};
    scale.dataset_scale = 1.0;
    scale.em_iterations = 10;
  }
  if (const char* folds_env = std::getenv("CPD_BENCH_FOLDS")) {
    scale.folds = std::max(1, std::atoi(folds_env));
  }
  scale.folds = std::min(scale.folds, 10);
  return scale;
}

namespace {
BenchDataset MakeDataset(const char* name, SynthConfig config,
                         const BenchScale& scale) {
  config = config.Scaled(scale.dataset_scale);
  auto result = GenerateSocialGraph(config);
  CPD_CHECK(result.ok());
  return BenchDataset{name, std::move(*result)};
}
}  // namespace

const BenchDataset& TwitterDataset(const BenchScale& scale) {
  static const BenchDataset* kDataset =
      new BenchDataset(MakeDataset("Twitter", SynthConfig::TwitterLike(), scale));
  return *kDataset;
}

const BenchDataset& DblpDataset(const BenchScale& scale) {
  static const BenchDataset* kDataset =
      new BenchDataset(MakeDataset("DBLP", SynthConfig::DBLPLike(), scale));
  return *kDataset;
}

CpdConfig BaseCpdConfig(const BenchScale& scale) {
  CpdConfig config;
  config.num_topics = 12;
  config.em_iterations = scale.em_iterations;
  config.gibbs_sweeps_per_em = 3;
  config.seed = 4242;
  return config;
}

double FoldResult::MeanFriendshipAuc() const { return Mean(friendship_auc); }
double FoldResult::MeanDiffusionAuc() const { return Mean(diffusion_auc); }

FoldResult RunLinkPredictionFolds(const SocialGraph& graph,
                                  const BenchScale& scale,
                                  const ScorerFactory& factory, uint64_t seed) {
  Rng rng(seed);
  const LinkFolds folds = AssignLinkFolds(graph, 10, &rng);
  FoldResult result;
  for (int fold = 0; fold < scale.folds; ++fold) {
    auto data = BuildFold(graph, folds, fold);
    CPD_CHECK(data.ok());
    const TrainedScorers scorers = factory(data->train_graph);
    if (scorers.friendship) {
      Rng eval_rng(seed + 1000 + static_cast<uint64_t>(fold));
      result.friendship_auc.push_back(EvaluateFriendshipAuc(
          graph, data->heldout_friendship, scorers.friendship, &eval_rng));
    }
    if (scorers.diffusion) {
      Rng eval_rng(seed + 2000 + static_cast<uint64_t>(fold));
      result.diffusion_auc.push_back(EvaluateDiffusionAuc(
          graph, data->heldout_diffusion, scorers.diffusion, &eval_rng));
    }
  }
  return result;
}

ScorerFactory MakeCpdScorerFactory(CpdConfig config) {
  return [config](const SocialGraph& train) -> TrainedScorers {
    auto model = CpdModel::Train(train, config);
    CPD_CHECK(model.ok());
    auto shared = std::make_shared<CpdModel>(std::move(*model));
    auto predictor = std::make_shared<DiffusionPredictor>(*shared, train);
    TrainedScorers scorers;
    scorers.friendship = [shared, predictor](UserId u, UserId v) {
      return predictor->FriendshipScore(u, v);
    };
    scorers.diffusion = [shared, predictor](DocId i, DocId j, int32_t t) {
      const auto scorer = predictor->AsDiffusionScorer();
      return scorer(i, j, t);
    };
    return scorers;
  };
}

void PrintBenchHeader(const std::string& title, const BenchScale& scale,
                      const BenchDataset& dataset) {
  std::printf("### %s | dataset=%s users=%zu docs=%zu F=%zu E=%zu | scale=%s "
              "folds=%d\n",
              title.c_str(), dataset.name.c_str(), dataset.data.graph.num_users(),
              dataset.data.graph.num_documents(),
              dataset.data.graph.num_friendship_links(),
              dataset.data.graph.num_diffusion_links(),
              scale.paper ? "paper" : "default", scale.folds);
}

}  // namespace cpd::bench
