#include "core/artifact_derived.h"

#include <algorithm>

namespace cpd {

ArtifactDerived BuildArtifactDerived(std::span<const double> pi,
                                     std::span<const double> eta,
                                     int num_communities, int num_topics,
                                     size_t num_users, int top_k) {
  const size_t c_count = static_cast<size_t>(num_communities);
  const size_t z_count = static_cast<size_t>(num_topics);
  ArtifactDerived derived;

  derived.eta_agg.assign(c_count * c_count, 0.0);
  for (size_t c = 0; c < c_count; ++c) {
    for (size_t c2 = 0; c2 < c_count; ++c2) {
      // Same accumulation order as CpdModel::EtaAggregated so every read
      // path agrees bitwise.
      double total = 0.0;
      const double* row = eta.data() + (c * c_count + c2) * z_count;
      for (size_t z = 0; z < z_count; ++z) total += row[z];
      derived.eta_agg[c * c_count + c2] = total;
    }
  }

  if (top_k < 1) return derived;
  derived.top_k = std::min(top_k, num_communities);
  const size_t k = static_cast<size_t>(derived.top_k);
  derived.topk_communities.assign(num_users * k, 0);
  derived.topk_weights.assign(num_users * k, 0.0);
  std::vector<int> order(c_count);
  for (size_t u = 0; u < num_users; ++u) {
    const double* row = pi.data() + u * c_count;
    for (size_t c = 0; c < c_count; ++c) order[c] = static_cast<int>(c);
    // Descending weight, ties by ascending community id (matches
    // TopKIndices' stable-sort convention used by CpdModel::TopCommunities).
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                      order.end(), [row](int a, int b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;
                      });
    for (size_t i = 0; i < k; ++i) {
      derived.topk_communities[u * k + i] = order[i];
      derived.topk_weights[u * k + i] = row[static_cast<size_t>(order[i])];
    }
  }

  // Invert the top-k lists into per-community postings, weight-sorted.
  std::vector<std::vector<int32_t>> postings(c_count);
  for (size_t u = 0; u < num_users; ++u) {
    for (size_t i = 0; i < k; ++i) {
      postings[static_cast<size_t>(derived.topk_communities[u * k + i])]
          .push_back(static_cast<int32_t>(u));
    }
  }
  derived.member_offsets.assign(c_count + 1, 0);
  derived.members.reserve(num_users * k);
  derived.member_weights.reserve(num_users * k);
  for (size_t c = 0; c < c_count; ++c) {
    auto& users = postings[c];
    const auto weight = [&pi, c_count, c](int32_t u) {
      return pi[static_cast<size_t>(u) * c_count + c];
    };
    std::sort(users.begin(), users.end(), [&weight](int32_t a, int32_t b) {
      const double wa = weight(a);
      const double wb = weight(b);
      if (wa != wb) return wa > wb;
      return a < b;
    });
    derived.members.insert(derived.members.end(), users.begin(), users.end());
    for (const int32_t u : users) derived.member_weights.push_back(weight(u));
    derived.member_offsets[c + 1] = derived.members.size();
  }
  return derived;
}

}  // namespace cpd
