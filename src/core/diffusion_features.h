#ifndef CPD_CORE_DIFFUSION_FEATURES_H_
#define CPD_CORE_DIFFUSION_FEATURES_H_

/// \file diffusion_features.h
/// Precomputed per-link structures for the nonconformity factors of §3.1:
///  - individual-preference features f_uv (user popularity & activeness of
///    the diffusing and the diffused user, log-scaled for stability);
///  - the topic-popularity table n_tz, recomputed from the current topic
///    assignments each EM iteration;
///  - per-user incidence lists of directed friendship links (the sampler
///    needs the link index to address its Polya-Gamma variable).

#include <span>
#include <vector>

#include "core/model_config.h"
#include "graph/social_graph.h"

namespace cpd {

/// Number of individual-preference features (popularity/activeness for both
/// endpoints, §3.1).
inline constexpr int kNumUserFeatures = 4;

/// Immutable per-graph caches shared by the Gibbs sampler and the M-step.
class LinkCaches {
 public:
  explicit LinkCaches(const SocialGraph& graph);

  /// f_uv for diffusion link e: [log pop(u), log act(u), log pop(v), log act(v)].
  std::span<const double> Features(size_t e) const {
    return {features_.data() + e * kNumUserFeatures, kNumUserFeatures};
  }

  /// Same four features for an arbitrary (u, v) pair (used for negative
  /// samples and application-time scoring).
  /// \param exclude_diffusions_u Subtracted from u's diffusion count before
  ///        computing activeness. The per-link cache passes 1 (leave-one-out)
  ///        so a positive training link does not count itself in its own
  ///        feature — otherwise the M-step's logistic regression learns the
  ///        self-count and mis-generalizes to held-out links.
  static void ComputePairFeatures(const SocialGraph& graph, UserId u, UserId v,
                                  double* out4, int64_t exclude_diffusions_u = 0);

  /// Indices of directed friendship links incident to user u (as source or
  /// target).
  std::span<const int32_t> FriendLinksOf(UserId u) const {
    const auto begin = user_flink_offsets_[static_cast<size_t>(u)];
    const auto end = user_flink_offsets_[static_cast<size_t>(u) + 1];
    return {user_flink_ids_.data() + begin, static_cast<size_t>(end - begin)};
  }

 private:
  std::vector<double> features_;          // E x 4
  std::vector<int64_t> user_flink_offsets_;
  std::vector<int32_t> user_flink_ids_;
};

/// Time-binned topic popularity n_tz (§3.1). Mutable: refreshed from the
/// current topic assignments (the topic of the *diffusing* document defines
/// the link's topic).
class PopularityTable {
 public:
  PopularityTable(int32_t num_time_bins, int num_topics, PopularityMode mode);

  /// Recounts from scratch: for each diffusion link (i, j, t), increments
  /// bin (t, doc_topic[i]).
  void Refresh(const SocialGraph& graph, std::span<const int32_t> doc_topics);

  /// n_tz under the configured representation. Bins are derived from
  /// observed diffusion-link times, but callers also pass *document* times
  /// (the M-step's negative sampling); a document published outside every
  /// observed bin has no diffusion signal there — zero, never a wild read.
  double Value(int32_t t, int z) const {
    if (t < 0 || t >= num_time_bins_) return 0.0;
    return values_[static_cast<size_t>(t) * static_cast<size_t>(num_topics_) +
                   static_cast<size_t>(z)];
  }

  int32_t num_time_bins() const { return num_time_bins_; }
  int num_topics() const { return num_topics_; }

  /// Raw per-bin counts (for the Fig. 5(b) case study).
  int64_t RawCount(int32_t t, int z) const {
    return counts_[static_cast<size_t>(t) * static_cast<size_t>(num_topics_) +
                   static_cast<size_t>(z)];
  }

 private:
  int32_t num_time_bins_;
  int num_topics_;
  PopularityMode mode_;
  std::vector<int64_t> counts_;
  std::vector<double> values_;
};

}  // namespace cpd

#endif  // CPD_CORE_DIFFUSION_FEATURES_H_
