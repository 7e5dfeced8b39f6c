#ifndef CPD_BENCH_BENCH_COMMON_H_
#define CPD_BENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// Shared harness for the per-table/per-figure benchmark binaries. Every
/// binary runs argument-free at a laptop-friendly scale and prints the rows /
/// series of the corresponding paper table or figure. Environment knobs:
///   CPD_BENCH_SCALE=paper  enlarge the |C| sweep to the paper's grid
///                          {20,50,100,150} and the datasets ~4x (slow);
///   CPD_BENCH_FOLDS=n      cross-validation folds to evaluate (default 2).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/diffusion_prediction.h"
#include "core/cpd_model.h"
#include "eval/cross_validation.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "graph/social_graph.h"
#include "synth/generator.h"
#include "synth/synth_config.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace cpd::bench {

/// Resolved benchmark scale.
struct BenchScale {
  bool paper = false;
  std::vector<int> community_sweep;  ///< x-axis of Figs. 3/4/8/9.
  double dataset_scale = 1.0;        ///< Multiplies preset user counts.
  int folds = 2;                     ///< Evaluated CV folds (of 10).
  int em_iterations = 10;

  static BenchScale FromEnv();
};

/// Generated dataset plus its name for table captions.
struct BenchDataset {
  std::string name;  ///< "Twitter" or "DBLP".
  SynthResult data;
};

/// Builds the Twitter-like dataset at the given scale (cached per process).
const BenchDataset& TwitterDataset(const BenchScale& scale);
/// Builds the DBLP-like dataset at the given scale (cached per process).
const BenchDataset& DblpDataset(const BenchScale& scale);

/// Base CPD config used across benches (|C|, |Z| filled by the caller).
CpdConfig BaseCpdConfig(const BenchScale& scale);

/// Scorers produced by one training run on a fold's training graph. They
/// must stay valid only while that graph is alive (the fold loop evaluates
/// them immediately); leave a scorer empty to skip that task.
struct TrainedScorers {
  FriendshipScorer friendship;
  DiffusionScorer diffusion;
};

/// Trains one model on the fold's training graph and exposes its scorers.
using ScorerFactory = std::function<TrainedScorers(const SocialGraph& train)>;

struct FoldResult {
  std::vector<double> friendship_auc;  ///< Per fold.
  std::vector<double> diffusion_auc;   ///< Per fold.
  double MeanFriendshipAuc() const;
  double MeanDiffusionAuc() const;
};

/// Runs the k-fold protocol of §6.1 (train on 90% of the links, score the
/// held-out 10% against sampled negatives).
FoldResult RunLinkPredictionFolds(const SocialGraph& graph,
                                  const BenchScale& scale,
                                  const ScorerFactory& factory, uint64_t seed);

/// Factory for full CPD (or any ablated variant via config.ablation).
ScorerFactory MakeCpdScorerFactory(CpdConfig config);

/// Pretty header line for a bench binary.
void PrintBenchHeader(const std::string& title, const BenchScale& scale,
                      const BenchDataset& dataset);

}  // namespace cpd::bench

#endif  // CPD_BENCH_BENCH_COMMON_H_
