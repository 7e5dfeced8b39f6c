#include "serve/query_engine.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "core/diffusion_features.h"
#include "core/model_state.h"
#include "parallel/thread_pool.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace cpd::serve {

QueryEngine::QueryEngine(const ProfileIndex& index, const SocialGraph* graph)
    : index_(index), graph_(graph) {}

StatusOr<MembershipResponse> QueryEngine::Membership(
    const MembershipRequest& request) const {
  CPD_RETURN_IF_ERROR(index_.CheckUser(request.user));
  if (request.top_k < 0) {
    return Status::InvalidArgument("membership top_k < 0");
  }
  if (!index_.has_membership_index()) {
    return Status::FailedPrecondition(
        "index built without the membership index "
        "(ProfileIndexOptions::build_membership_index)");
  }
  const auto top = index_.TopCommunities(request.user);
  MembershipResponse response;
  const size_t k = request.top_k == 0
                       ? top.size()
                       : std::min(top.size(), static_cast<size_t>(request.top_k));
  response.top.assign(top.begin(), top.begin() + static_cast<long>(k));
  if (request.include_distribution) {
    const auto pi = index_.Membership(request.user);
    response.distribution.assign(pi.begin(), pi.end());
  }
  return response;
}

StatusOr<RankCommunitiesResponse> QueryEngine::RankCommunities(
    const RankCommunitiesRequest& request) const {
  if (request.top_k < 0) return Status::InvalidArgument("rank top_k < 0");
  for (WordId w : request.words) CPD_RETURN_IF_ERROR(index_.CheckWord(w));
  const int kc = index_.num_communities();
  const int kz = index_.num_topics();

  // g_z = prod_{w in q} phi_{z,w}, computed in log space and rescaled by the
  // max to avoid underflow (a global per-z factor cancels in the ranking).
  // An empty query leaves g uniform: Eq. 19 degrades to the prior ranking.
  // Gathers |q| contiguous word-major rows of build-time log-phi,
  // accumulating per topic in word order.
  std::vector<double> log_g(static_cast<size_t>(kz), 0.0);
  for (WordId w : request.words) {
    const auto row = index_.WordLogPhi(w);
    for (int z = 0; z < kz; ++z) {
      log_g[static_cast<size_t>(z)] += row[static_cast<size_t>(z)];
    }
  }
  const double max_log = *std::max_element(log_g.begin(), log_g.end());
  std::vector<double> g(static_cast<size_t>(kz));
  for (int z = 0; z < kz; ++z) {
    g[static_cast<size_t>(z)] =
        std::exp(log_g[static_cast<size_t>(z)] - max_log);
  }

  // Eq. 19 scores into a flat scratch; entries are materialized only for
  // the returned communities. The precomputed link-content matrix makes the
  // per-community cost one length-|Z| dot instead of an O(|C| |Z|)
  // recomputation of sum_c2 eta(c,c2,z) theta_c2[z].
  std::vector<double> scores(static_cast<size_t>(kc), 0.0);
  for (int c = 0; c < kc; ++c) {
    const auto m = index_.LinkContentRow(c);
    double score = 0.0;
    for (int z = 0; z < kz; ++z) {
      score += m[static_cast<size_t>(z)] * g[static_cast<size_t>(z)];
    }
    scores[static_cast<size_t>(c)] = score;
  }

  // Rank by (score desc, community asc) — a total order, so the partial
  // nth_element + prefix sort returns exactly the full sort's first k,
  // ties included.
  std::vector<int> order(static_cast<size_t>(kc));
  for (int c = 0; c < kc; ++c) order[static_cast<size_t>(c)] = c;
  const auto better = [&scores](int a, int b) {
    const double sa = scores[static_cast<size_t>(a)];
    const double sb = scores[static_cast<size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  };
  const size_t k = request.top_k == 0
                       ? static_cast<size_t>(kc)
                       : std::min(static_cast<size_t>(kc),
                                  static_cast<size_t>(request.top_k));
  if (k < static_cast<size_t>(kc)) {
    std::nth_element(order.begin(), order.begin() + static_cast<long>(k),
                     order.end(), better);
    std::sort(order.begin(), order.begin() + static_cast<long>(k), better);
  } else {
    std::sort(order.begin(), order.end(), better);
  }

  RankCommunitiesResponse response;
  response.ranked.resize(k);
  for (size_t i = 0; i < k; ++i) {
    const int c = order[i];
    RankedCommunityEntry& entry = response.ranked[i];
    entry.community = c;
    entry.score = scores[static_cast<size_t>(c)];
    if (!request.include_topic_distribution) continue;
    // p(z | q, c), recomputed for returned entries only (identically to
    // the scoring loop above, so normalization sees the same terms).
    entry.topic_distribution.assign(static_cast<size_t>(kz), 0.0);
    const auto m = index_.LinkContentRow(c);
    for (int z = 0; z < kz; ++z) {
      entry.topic_distribution[static_cast<size_t>(z)] =
          m[static_cast<size_t>(z)] * g[static_cast<size_t>(z)];
    }
    NormalizeInPlace(&entry.topic_distribution);
  }
  return response;
}

StatusOr<std::vector<double>> QueryEngine::DocumentTopicPosterior(
    DocId document) const {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition(
        "document topic posterior needs a bound social graph");
  }
  if (document < 0 ||
      static_cast<size_t>(document) >= graph_->num_documents()) {
    return Status::OutOfRange(
        StrFormat("document %d outside [0, %zu)", document,
                  graph_->num_documents()));
  }
  const Document& doc = graph_->document(document);
  // The graph is bound independently of the model, so the author and word
  // ids must be validated against the index (a mismatched --users/--docs
  // load or a reloaded model must surface as a typed error, not an
  // out-of-bounds read).
  CPD_RETURN_IF_ERROR(index_.CheckUser(doc.user));
  for (WordId w : doc.words) CPD_RETURN_IF_ERROR(index_.CheckWord(w));
  const int kz = index_.num_topics();
  const int kc = index_.num_communities();
  const auto pi_v = index_.Membership(doc.user);

  std::vector<double> log_post(static_cast<size_t>(kz), 0.0);
  for (int z = 0; z < kz; ++z) {
    double prior = 0.0;
    for (int c = 0; c < kc; ++c) {
      prior += pi_v[static_cast<size_t>(c)] *
               index_.ContentProfile(c)[static_cast<size_t>(z)];
    }
    log_post[static_cast<size_t>(z)] = std::log(std::max(prior, 1e-300));
  }
  // Word term: gather |doc| contiguous word-major log-phi rows, added in
  // document order on top of the prior.
  for (WordId w : doc.words) {
    const auto row = index_.WordLogPhi(w);
    for (int z = 0; z < kz; ++z) {
      log_post[static_cast<size_t>(z)] += row[static_cast<size_t>(z)];
    }
  }
  SoftmaxInPlace(&log_post);
  return log_post;
}

double QueryEngine::CommunityScore(UserId u, UserId v, int z) const {
  const auto pi_u = index_.Membership(u);
  const auto pi_v = index_.Membership(v);
  const int kc = index_.num_communities();
  double score = 0.0;
  // Fused rows G[c][z][c2] = eta(c,c2,z)*theta_c2[z]: the inner loop is one
  // contiguous dot with pi_v, in ((eta*theta)*pi_v) grouping.
  for (int c = 0; c < kc; ++c) {
    const double left = pi_u[static_cast<size_t>(c)] *
                        index_.ContentProfile(c)[static_cast<size_t>(z)];
    if (left == 0.0) continue;
    const auto row = index_.EtaThetaRow(c, z);
    double inner = 0.0;
    for (int c2 = 0; c2 < kc; ++c2) {
      inner += row[static_cast<size_t>(c2)] * pi_v[static_cast<size_t>(c2)];
    }
    score += left * inner;
  }
  return score;
}

double QueryEngine::FriendshipScore(UserId u, UserId v) const {
  const auto pi_u = index_.Membership(u);
  const auto pi_v = index_.Membership(v);
  double dot = 0.0;
  for (size_t c = 0; c < pi_u.size(); ++c) dot += pi_u[c] * pi_v[c];
  return Sigmoid(dot);
}

StatusOr<DiffusionResponse> QueryEngine::Diffusion(
    const DiffusionRequest& request) const {
  CPD_RETURN_IF_ERROR(index_.CheckUser(request.source));
  CPD_RETURN_IF_ERROR(index_.CheckUser(request.target));
  if (graph_ == nullptr) {
    return Status::FailedPrecondition(
        "diffusion queries need a bound social graph (document words and "
        "degree features)");
  }
  // The degree features read the graph, which is bound independently of the
  // model: a user valid for the index may still lie outside the graph.
  for (const UserId u : {request.source, request.target}) {
    if (static_cast<size_t>(u) >= graph_->num_users()) {
      return Status::OutOfRange(StrFormat("user %d outside the graph [0, %zu)",
                                          u, graph_->num_users()));
    }
  }
  DiffusionResponse response;
  response.friendship_score = FriendshipScore(request.source, request.target);
  if (!index_.heterogeneous_links()) {
    // The "no heterogeneity" ablation models diffusion links exactly like
    // friendship links (Eq. 3), so it must predict with that model too.
    response.probability = response.friendship_score;
    return response;
  }
  auto posterior = DocumentTopicPosterior(request.document);
  if (!posterior.ok()) return posterior.status();
  const auto weights = index_.DiffusionWeights();
  double features[kNumUserFeatures];
  LinkCaches::ComputePairFeatures(*graph_, request.source, request.target,
                                  features);
  double feature_part = weights[kWeightBias];
  for (int k = 0; k < kNumUserFeatures; ++k) {
    feature_part += weights[kWeightFeature0 + k] * features[k];
  }
  double probability = 0.0;
  for (int z = 0; z < index_.num_topics(); ++z) {
    const double w =
        weights[kWeightEta] * CommunityScore(request.source, request.target, z) +
        weights[kWeightPopularity] * index_.TopicPopularity(request.time_bin, z) +
        feature_part;
    probability += Sigmoid(w) * (*posterior)[static_cast<size_t>(z)];
  }
  response.probability = probability;
  return response;
}

StatusOr<TopUsersResponse> QueryEngine::TopUsers(
    const TopUsersRequest& request) const {
  CPD_RETURN_IF_ERROR(index_.CheckCommunity(request.community));
  if (request.top_k < 0) return Status::InvalidArgument("top_users top_k < 0");
  if (!index_.has_membership_index()) {
    return Status::FailedPrecondition(
        "index built without the membership index "
        "(ProfileIndexOptions::build_membership_index)");
  }
  const auto members = index_.CommunityMembers(request.community);
  const auto weights = index_.CommunityMemberWeights(request.community);
  const size_t k = request.top_k == 0
                       ? members.size()
                       : std::min(members.size(),
                                  static_cast<size_t>(request.top_k));
  TopUsersResponse response;
  // Both answers come straight off the posting — the weights were stored
  // next to the user ids at build time, so no per-member pi row reads.
  response.users.assign(members.begin(), members.begin() + static_cast<long>(k));
  response.weights.assign(weights.begin(), weights.begin() + static_cast<long>(k));
  return response;
}

namespace {
template <typename T>
StatusOr<QueryResponse> ToQueryResponse(StatusOr<T> response) {
  if (!response.ok()) return response.status();
  return QueryResponse(std::move(*response));
}
}  // namespace

StatusOr<QueryResponse> QueryEngine::Query(const QueryRequest& request) const {
  return std::visit(
      [this](const auto& typed) -> StatusOr<QueryResponse> {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, MembershipRequest>) {
          return ToQueryResponse(Membership(typed));
        } else if constexpr (std::is_same_v<T, RankCommunitiesRequest>) {
          return ToQueryResponse(RankCommunities(typed));
        } else if constexpr (std::is_same_v<T, DiffusionRequest>) {
          return ToQueryResponse(Diffusion(typed));
        } else {
          return ToQueryResponse(TopUsers(typed));
        }
      },
      request);
}

std::vector<StatusOr<QueryResponse>> QueryEngine::QueryBatch(
    std::span<const QueryRequest> requests, ThreadPool* pool) const {
  std::vector<StatusOr<QueryResponse>> responses(
      requests.size(),
      StatusOr<QueryResponse>(Status::Internal("query not executed")));
  if (pool == nullptr || requests.size() <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i] = Query(requests[i]);
    }
    return responses;
  }
  // Contiguous chunks, a few per worker: one pool task per *chunk* keeps the
  // submit/dequeue overhead negligible against microsecond-scale queries
  // while still load-balancing mixed-cost batches.
  const size_t chunks =
      std::min(requests.size(), pool->num_threads() * size_t{4});
  const size_t per_chunk = (requests.size() + chunks - 1) / chunks;
  ParallelFor(pool, chunks, [this, requests, &responses, per_chunk](size_t chunk) {
    const size_t begin = chunk * per_chunk;
    const size_t end = std::min(requests.size(), begin + per_chunk);
    for (size_t i = begin; i < end; ++i) {
      responses[i] = Query(requests[i]);
    }
  });
  return responses;
}

}  // namespace cpd::serve
