#ifndef CPD_CORE_CPD_MODEL_H_
#define CPD_CORE_CPD_MODEL_H_

/// \file cpd_model.h
/// Public entry point of the library: train CPD on a social graph and read
/// out the paper's five outputs (§5): community memberships pi_u, content
/// profiles theta_c, topic-word distributions phi_z, diffusion profiles
/// eta_c, and the diffusion factor weights (nu and the per-factor
/// coefficients).
///
/// Storage is flat row-major (one contiguous allocation per matrix); the
/// row accessors hand out std::span views into it. Serving workloads should
/// build a serve::ProfileIndex (src/serve/profile_index.h) — it shares this
/// layout, adds the precomputed read-side indexes, and loads straight from
/// the binary artifact written by SaveBinary.
///
/// Quickstart:
///   CpdConfig config;
///   config.num_communities = 20;
///   config.num_topics = 20;
///   auto model = CpdModel::Train(graph, config);
///   if (!model.ok()) { ... }
///   std::span<const double> pi = model->Membership(user);

#include <span>
#include <string>
#include <vector>

#include "core/em_trainer.h"
#include "core/model_artifact.h"
#include "core/model_config.h"
#include "graph/social_graph.h"
#include "util/status.h"

namespace cpd {

/// Immutable trained CPD model.
class CpdModel {
 public:
  /// An empty model; populate via Train / FromState / LoadBinary.
  CpdModel() = default;

  /// Runs Alg. 1 on the graph and freezes the estimates.
  static StatusOr<CpdModel> Train(const SocialGraph& graph,
                                  const CpdConfig& config);

  /// Builds a model from an already-run trainer (used by benchmarks that
  /// need trainer internals too).
  static CpdModel FromState(const SocialGraph& graph, const CpdConfig& config,
                            const ModelState& state, TrainStats stats = {});

  int num_communities() const { return num_communities_; }
  int num_topics() const { return num_topics_; }
  size_t num_users() const { return num_users_; }
  size_t vocab_size() const { return vocab_size_; }
  int32_t num_time_bins() const { return num_time_bins_; }

  /// pi_u: membership distribution of user u over communities (Def. 3).
  std::span<const double> Membership(UserId u) const;

  /// theta_c: content profile of community c over topics (Def. 4).
  std::span<const double> ContentProfile(int c) const;

  /// phi_z: word distribution of topic z (Def. 2).
  std::span<const double> TopicWords(int z) const;

  /// eta_{c,c',z}: diffusion profile entry (Def. 5).
  double Eta(int c, int c2, int z) const;

  /// sum_z eta_{c,c',z}: topic-aggregated diffusion strength (§5).
  double EtaAggregated(int c, int c2) const;

  /// The raw |C|x|C|x|Z| row-major eta tensor (warm-start seeding path).
  std::span<const double> EtaTensor() const { return eta_; }

  /// Learned factor weights, indexed by kWeight* (model_state.h).
  const std::vector<double>& DiffusionWeights() const { return weights_; }

  /// n_tz under the trained representation.
  double TopicPopularity(int32_t t, int z) const;

  /// Top-k communities of user u by membership.
  std::vector<int> TopCommunities(UserId u, int k) const;

  /// Training diagnostics.
  const TrainStats& stats() const { return stats_; }
  const CpdConfig& config() const { return config_; }

  /// The ".cpdb" model artifact (core/model_artifact.h), the one file
  /// format: bit-exact doubles and directly mappable by serve::ProfileIndex.
  /// Pass the training vocabulary to bundle it into the artifact so
  /// cpd_query / cpd_serve need no side --vocab file. `options` picks the
  /// stored top-k and section alignment (default: page-aligned, top-5);
  /// `generation` stamps the artifact's lineage id (ingest batch N writes
  /// base + N). The write is atomic: a server mapping the old file at
  /// `path` keeps serving it until it reloads.
  Status SaveBinary(const std::string& path, const Vocabulary* vocab = nullptr,
                    const ArtifactWriteOptions& options = {},
                    uint64_t generation = 0) const;
  static StatusOr<CpdModel> LoadBinary(const std::string& path);

  /// Conversions to/from the artifact struct (used by the file APIs above
  /// and by ProfileIndex to ingest a model without re-encoding).
  ModelArtifact ToArtifact() const;
  static StatusOr<CpdModel> FromArtifact(ModelArtifact artifact);

 private:
  CpdConfig config_;
  int num_communities_ = 0;
  int num_topics_ = 0;
  size_t num_users_ = 0;
  size_t vocab_size_ = 0;
  int32_t num_time_bins_ = 1;

  std::vector<double> pi_;          // U x C, row-major.
  std::vector<double> theta_;       // C x Z, row-major.
  std::vector<double> phi_;         // Z x W, row-major.
  std::vector<double> eta_;         // C x C x Z
  std::vector<double> weights_;     // kNumDiffusionWeights
  std::vector<double> popularity_;  // T x Z
  TrainStats stats_;
};

}  // namespace cpd

#endif  // CPD_CORE_CPD_MODEL_H_
