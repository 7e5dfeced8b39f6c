#include "core/cpd_model.h"

#include <algorithm>
#include <cmath>

#include "core/model_artifact.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace cpd {

StatusOr<CpdModel> CpdModel::Train(const SocialGraph& graph,
                                   const CpdConfig& config) {
  EmTrainer trainer(graph, config);
  CPD_RETURN_IF_ERROR(trainer.Train());
  return FromState(graph, config, trainer.state(), trainer.stats());
}

CpdModel CpdModel::FromState(const SocialGraph& graph, const CpdConfig& config,
                             const ModelState& state, TrainStats stats) {
  CpdModel model;
  model.config_ = config;
  model.num_communities_ = state.num_communities;
  model.num_topics_ = state.num_topics;
  model.num_users_ = state.num_users;
  model.vocab_size_ = state.vocab_size;
  model.num_time_bins_ = graph.num_time_bins();
  model.stats_ = std::move(stats);

  const size_t kc = static_cast<size_t>(state.num_communities);
  const size_t kz = static_cast<size_t>(state.num_topics);
  model.pi_.resize(state.num_users * kc);
  for (size_t u = 0; u < state.num_users; ++u) {
    for (int c = 0; c < state.num_communities; ++c) {
      model.pi_[u * kc + static_cast<size_t>(c)] =
          state.PiHat(static_cast<UserId>(u), c);
    }
  }
  model.theta_.resize(kc * kz);
  for (int c = 0; c < state.num_communities; ++c) {
    for (int z = 0; z < state.num_topics; ++z) {
      model.theta_[static_cast<size_t>(c) * kz + static_cast<size_t>(z)] =
          state.ThetaHat(c, z);
    }
  }
  model.phi_.resize(kz * state.vocab_size);
  for (int z = 0; z < state.num_topics; ++z) {
    for (size_t w = 0; w < state.vocab_size; ++w) {
      model.phi_[static_cast<size_t>(z) * state.vocab_size + w] =
          state.PhiHat(z, static_cast<WordId>(w));
    }
  }
  model.eta_ = state.eta;
  model.weights_ = state.weights;

  model.popularity_.resize(static_cast<size_t>(graph.num_time_bins()) * kz);
  for (int32_t t = 0; t < graph.num_time_bins(); ++t) {
    for (int z = 0; z < state.num_topics; ++z) {
      model.popularity_[static_cast<size_t>(t) * kz + static_cast<size_t>(z)] =
          state.popularity.Value(t, z);
    }
  }
  return model;
}

std::span<const double> CpdModel::Membership(UserId u) const {
  CPD_CHECK(u >= 0 && static_cast<size_t>(u) < num_users_);
  const size_t kc = static_cast<size_t>(num_communities_);
  return {pi_.data() + static_cast<size_t>(u) * kc, kc};
}

std::span<const double> CpdModel::ContentProfile(int c) const {
  CPD_CHECK(c >= 0 && c < num_communities_);
  const size_t kz = static_cast<size_t>(num_topics_);
  return {theta_.data() + static_cast<size_t>(c) * kz, kz};
}

std::span<const double> CpdModel::TopicWords(int z) const {
  CPD_CHECK(z >= 0 && z < num_topics_);
  return {phi_.data() + static_cast<size_t>(z) * vocab_size_, vocab_size_};
}

double CpdModel::Eta(int c, int c2, int z) const {
  CPD_DCHECK(c >= 0 && c < num_communities_);
  CPD_DCHECK(c2 >= 0 && c2 < num_communities_);
  CPD_DCHECK(z >= 0 && z < num_topics_);
  return eta_[(static_cast<size_t>(c) * static_cast<size_t>(num_communities_) +
               static_cast<size_t>(c2)) *
                  static_cast<size_t>(num_topics_) +
              static_cast<size_t>(z)];
}

double CpdModel::EtaAggregated(int c, int c2) const {
  double total = 0.0;
  for (int z = 0; z < num_topics_; ++z) total += Eta(c, c2, z);
  return total;
}

double CpdModel::TopicPopularity(int32_t t, int z) const {
  CPD_DCHECK(z >= 0 && z < num_topics_);
  // Clamp: prediction-time timestamps may fall outside the training range
  // (e.g. the max-time link was held out by cross-validation).
  t = std::min(std::max(t, 0), num_time_bins_ - 1);
  return popularity_[static_cast<size_t>(t) * static_cast<size_t>(num_topics_) +
                     static_cast<size_t>(z)];
}

std::vector<int> CpdModel::TopCommunities(UserId u, int k) const {
  const auto pi = Membership(u);
  std::vector<int> result;
  for (size_t idx : TopKIndices(pi, static_cast<size_t>(k))) {
    result.push_back(static_cast<int>(idx));
  }
  return result;
}

ModelArtifact CpdModel::ToArtifact() const {
  ModelArtifact artifact;
  artifact.num_communities = num_communities_;
  artifact.num_topics = num_topics_;
  artifact.num_users = num_users_;
  artifact.vocab_size = vocab_size_;
  artifact.num_time_bins = num_time_bins_;
  artifact.pi = pi_;
  artifact.theta = theta_;
  artifact.phi = phi_;
  artifact.eta = eta_;
  artifact.weights = weights_;
  artifact.popularity = popularity_;
  return artifact;
}

StatusOr<CpdModel> CpdModel::FromArtifact(ModelArtifact artifact) {
  CPD_RETURN_IF_ERROR(artifact.Validate());
  CpdModel model;
  model.num_communities_ = artifact.num_communities;
  model.num_topics_ = artifact.num_topics;
  model.num_users_ = artifact.num_users;
  model.vocab_size_ = artifact.vocab_size;
  model.num_time_bins_ = artifact.num_time_bins;
  model.pi_ = std::move(artifact.pi);
  model.theta_ = std::move(artifact.theta);
  model.phi_ = std::move(artifact.phi);
  model.eta_ = std::move(artifact.eta);
  model.weights_ = std::move(artifact.weights);
  model.popularity_ = std::move(artifact.popularity);
  return model;
}

Status CpdModel::SaveBinary(const std::string& path, const Vocabulary* vocab,
                            const ArtifactWriteOptions& options,
                            uint64_t generation) const {
  ModelArtifact artifact = ToArtifact();
  artifact.generation = generation;
  if (vocab != nullptr) {
    if (vocab->size() != vocab_size_) {
      return Status::InvalidArgument(
          StrFormat("vocabulary has %zu words, model expects %zu",
                    vocab->size(), vocab_size_));
    }
    artifact.vocab_words.reserve(vocab->size());
    artifact.vocab_frequencies.reserve(vocab->size());
    for (size_t w = 0; w < vocab->size(); ++w) {
      artifact.vocab_words.push_back(vocab->WordOf(static_cast<WordId>(w)));
      artifact.vocab_frequencies.push_back(
          vocab->Frequency(static_cast<WordId>(w)));
    }
  }
  return WriteModelArtifact(path, artifact, options);
}

StatusOr<CpdModel> CpdModel::LoadBinary(const std::string& path) {
  auto artifact = ReadModelArtifact(path);
  if (!artifact.ok()) return artifact.status();
  return FromArtifact(std::move(*artifact));
}

}  // namespace cpd
