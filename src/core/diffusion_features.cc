#include "core/diffusion_features.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace cpd {

LinkCaches::LinkCaches(const SocialGraph& graph) {
  const auto& links = graph.diffusion_links();
  features_.resize(links.size() * kNumUserFeatures);
  for (size_t e = 0; e < links.size(); ++e) {
    const UserId u = graph.document(links[e].i).user;
    const UserId v = graph.document(links[e].j).user;
    ComputePairFeatures(graph, u, v, features_.data() + e * kNumUserFeatures,
                        /*exclude_diffusions_u=*/1);
  }

  const size_t n = graph.num_users();
  const auto& flinks = graph.friendship_links();
  std::vector<int32_t> degree(n, 0);
  for (const FriendshipLink& link : flinks) {
    ++degree[static_cast<size_t>(link.u)];
    ++degree[static_cast<size_t>(link.v)];
  }
  user_flink_offsets_.assign(n + 1, 0);
  for (size_t u = 0; u < n; ++u) {
    user_flink_offsets_[u + 1] = user_flink_offsets_[u] + degree[u];
  }
  user_flink_ids_.resize(static_cast<size_t>(user_flink_offsets_[n]));
  std::vector<int64_t> cursor(user_flink_offsets_.begin(),
                              user_flink_offsets_.end() - 1);
  for (size_t f = 0; f < flinks.size(); ++f) {
    user_flink_ids_[static_cast<size_t>(
        cursor[static_cast<size_t>(flinks[f].u)]++)] = static_cast<int32_t>(f);
    user_flink_ids_[static_cast<size_t>(
        cursor[static_cast<size_t>(flinks[f].v)]++)] = static_cast<int32_t>(f);
  }
}

void LinkCaches::ComputePairFeatures(const SocialGraph& graph, UserId u, UserId v,
                                     double* out4, int64_t exclude_diffusions_u) {
  UserActivity au = graph.activity(u);
  const UserActivity& av = graph.activity(v);
  au.diffusions = std::max<int64_t>(0, au.diffusions - exclude_diffusions_u);
  // Ratios are heavy-tailed; log keeps the logistic regression stable
  // (DESIGN.md §5).
  out4[0] = std::log(au.Popularity());
  out4[1] = std::log(au.Activeness());
  out4[2] = std::log(av.Popularity());
  out4[3] = std::log(av.Activeness());
}

PopularityTable::PopularityTable(int32_t num_time_bins, int num_topics,
                                 PopularityMode mode)
    : num_time_bins_(num_time_bins), num_topics_(num_topics), mode_(mode) {
  CPD_CHECK_GE(num_time_bins, 1);
  CPD_CHECK_GE(num_topics, 1);
  counts_.assign(static_cast<size_t>(num_time_bins) * static_cast<size_t>(num_topics),
                 0);
  values_.assign(counts_.size(), 0.0);
}

void PopularityTable::Refresh(const SocialGraph& graph,
                              std::span<const int32_t> doc_topics) {
  std::fill(counts_.begin(), counts_.end(), 0);
  for (const DiffusionLink& link : graph.diffusion_links()) {
    const int z = doc_topics[static_cast<size_t>(link.i)];
    CPD_DCHECK(z >= 0 && z < num_topics_);
    ++counts_[static_cast<size_t>(link.time) * static_cast<size_t>(num_topics_) +
              static_cast<size_t>(z)];
  }
  for (int32_t t = 0; t < num_time_bins_; ++t) {
    int64_t bin_total = 0;
    const size_t base = static_cast<size_t>(t) * static_cast<size_t>(num_topics_);
    for (int z = 0; z < num_topics_; ++z) bin_total += counts_[base + static_cast<size_t>(z)];
    for (int z = 0; z < num_topics_; ++z) {
      const int64_t count = counts_[base + static_cast<size_t>(z)];
      double value = 0.0;
      switch (mode_) {
        case PopularityMode::kRaw:
          value = static_cast<double>(count);
          break;
        case PopularityMode::kFraction:
          value = bin_total > 0
                      ? static_cast<double>(count) / static_cast<double>(bin_total)
                      : 0.0;
          break;
        case PopularityMode::kLog1p:
          value = std::log1p(static_cast<double>(count));
          break;
      }
      values_[base + static_cast<size_t>(z)] = value;
    }
  }
}

}  // namespace cpd
