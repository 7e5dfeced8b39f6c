// Scoring-kernel oracle: the QueryEngine scores through the ProfileIndex's
// precomputed tables (link-content M, word-major log-phi, fused eta*theta
// G). This file keeps the naive kernels that read the estimates directly —
// phi via TopicWords, eta via Eta, theta via ContentProfile — as file-local
// oracles, and pins every production kernel against them. The tables are
// built to mirror the naive accumulation orders exactly, so the pin is
// bitwise equality, not a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/cpd_model.h"
#include "core/diffusion_features.h"
#include "core/model_artifact.h"
#include "core/model_state.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "test_util.h"
#include "util/math_util.h"

namespace cpd {
namespace {

using serve::ProfileIndex;
using serve::ProfileIndexOptions;
using serve::QueryEngine;

// ----- naive oracle kernels (read the estimates, never the tables) -----

/// log(max(phi_{z,w}, 1e-300)), recomputed per (token, topic).
double OracleLogPhi(const ProfileIndex& index, int z, WordId w) {
  return std::log(std::max(index.TopicWords(z)[static_cast<size_t>(w)], 1e-300));
}

/// sum_c2 eta(c,c2,z) * theta_c2[z], recomputed per request.
double OracleLinkContent(const ProfileIndex& index, int c, int z) {
  double inner = 0.0;
  for (int c2 = 0; c2 < index.num_communities(); ++c2) {
    inner += index.Eta(c, c2, z) *
             index.ContentProfile(c2)[static_cast<size_t>(z)];
  }
  return inner;
}

/// Eq. 19 ranking: a full sort by (score desc, community asc), truncated
/// to top_k, with p(z | q, c) per returned entry when requested.
serve::RankCommunitiesResponse OracleRank(
    const ProfileIndex& index, const serve::RankCommunitiesRequest& request) {
  const int kc = index.num_communities();
  const int kz = index.num_topics();
  std::vector<double> log_g(static_cast<size_t>(kz), 0.0);
  for (int z = 0; z < kz; ++z) {
    double lg = 0.0;
    for (WordId w : request.words) lg += OracleLogPhi(index, z, w);
    log_g[static_cast<size_t>(z)] = lg;
  }
  const double max_log = *std::max_element(log_g.begin(), log_g.end());
  std::vector<double> g(static_cast<size_t>(kz));
  for (int z = 0; z < kz; ++z) {
    g[static_cast<size_t>(z)] = std::exp(log_g[static_cast<size_t>(z)] - max_log);
  }
  std::vector<double> scores(static_cast<size_t>(kc), 0.0);
  for (int c = 0; c < kc; ++c) {
    for (int z = 0; z < kz; ++z) {
      scores[static_cast<size_t>(c)] +=
          OracleLinkContent(index, c, z) * g[static_cast<size_t>(z)];
    }
  }
  std::vector<int> order(static_cast<size_t>(kc));
  for (int c = 0; c < kc; ++c) order[static_cast<size_t>(c)] = c;
  std::sort(order.begin(), order.end(), [&scores](int a, int b) {
    const double sa = scores[static_cast<size_t>(a)];
    const double sb = scores[static_cast<size_t>(b)];
    return sa != sb ? sa > sb : a < b;
  });
  const size_t k = request.top_k == 0
                       ? order.size()
                       : std::min(order.size(),
                                  static_cast<size_t>(request.top_k));
  serve::RankCommunitiesResponse response;
  for (size_t i = 0; i < k; ++i) {
    serve::RankedCommunityEntry entry;
    entry.community = order[i];
    entry.score = scores[static_cast<size_t>(entry.community)];
    if (request.include_topic_distribution) {
      for (int z = 0; z < kz; ++z) {
        entry.topic_distribution.push_back(
            OracleLinkContent(index, entry.community, z) *
            g[static_cast<size_t>(z)]);
      }
      NormalizeInPlace(&entry.topic_distribution);
    }
    response.ranked.push_back(std::move(entry));
  }
  return response;
}

/// p(z | d) ∝ (sum_c pi_{author,c} theta_{c,z}) prod_w phi_{z,w}.
std::vector<double> OraclePosterior(const ProfileIndex& index,
                                    const SocialGraph& graph, DocId document) {
  const Document& doc = graph.document(document);
  const auto pi_v = index.Membership(doc.user);
  std::vector<double> log_post(static_cast<size_t>(index.num_topics()));
  for (int z = 0; z < index.num_topics(); ++z) {
    double prior = 0.0;
    for (int c = 0; c < index.num_communities(); ++c) {
      prior += pi_v[static_cast<size_t>(c)] *
               index.ContentProfile(c)[static_cast<size_t>(z)];
    }
    double lp = std::log(std::max(prior, 1e-300));
    for (WordId w : doc.words) lp += OracleLogPhi(index, z, w);
    log_post[static_cast<size_t>(z)] = lp;
  }
  SoftmaxInPlace(&log_post);
  return log_post;
}

/// Eq. 4 community score S(u, v, z) in ((eta*theta)*pi_v) grouping.
double OracleCommunityScore(const ProfileIndex& index, UserId u, UserId v,
                            int z) {
  const auto pi_u = index.Membership(u);
  const auto pi_v = index.Membership(v);
  double score = 0.0;
  for (int c = 0; c < index.num_communities(); ++c) {
    const double left = pi_u[static_cast<size_t>(c)] *
                        index.ContentProfile(c)[static_cast<size_t>(z)];
    if (left == 0.0) continue;
    double inner = 0.0;
    for (int c2 = 0; c2 < index.num_communities(); ++c2) {
      inner += index.Eta(c, c2, z) *
               index.ContentProfile(c2)[static_cast<size_t>(z)] *
               pi_v[static_cast<size_t>(c2)];
    }
    score += left * inner;
  }
  return score;
}

/// Eq. 18: sum_z p(z | d) sigmoid(community + popularity + individual).
serve::DiffusionResponse OracleDiffusion(const ProfileIndex& index,
                                         const SocialGraph& graph,
                                         const serve::DiffusionRequest& request) {
  const auto pi_u = index.Membership(request.source);
  const auto pi_v = index.Membership(request.target);
  double dot = 0.0;
  for (size_t c = 0; c < pi_u.size(); ++c) dot += pi_u[c] * pi_v[c];
  serve::DiffusionResponse response;
  response.friendship_score = Sigmoid(dot);
  if (!index.heterogeneous_links()) {
    response.probability = response.friendship_score;
    return response;
  }
  const std::vector<double> posterior =
      OraclePosterior(index, graph, request.document);
  const auto weights = index.DiffusionWeights();
  double features[kNumUserFeatures];
  LinkCaches::ComputePairFeatures(graph, request.source, request.target,
                                  features);
  double feature_part = weights[kWeightBias];
  for (int k = 0; k < kNumUserFeatures; ++k) {
    feature_part += weights[kWeightFeature0 + k] * features[k];
  }
  for (int z = 0; z < index.num_topics(); ++z) {
    const double w =
        weights[kWeightEta] *
            OracleCommunityScore(index, request.source, request.target, z) +
        weights[kWeightPopularity] * index.TopicPopularity(request.time_bin, z) +
        feature_part;
    response.probability += Sigmoid(w) * posterior[static_cast<size_t>(z)];
  }
  return response;
}

// ----- fixture -----

class ScoringEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(211));
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 5;
    config.seed = 23;
    auto model = CpdModel::Train(data_->graph, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    index_ = new ProfileIndex(ProfileIndex::FromModel(*model));
    ProfileIndexOptions homogeneous;
    homogeneous.heterogeneous_links = false;
    homogeneous_ =
        new ProfileIndex(ProfileIndex::FromModel(*model, homogeneous));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete homogeneous_;
    delete data_;
    index_ = nullptr;
    homogeneous_ = nullptr;
    data_ = nullptr;
  }

  /// The engine answers `request` OK and bitwise-equal to the oracle.
  static void ExpectRankMatchesOracle(
      const QueryEngine& engine, const serve::RankCommunitiesRequest& request) {
    const auto actual = engine.RankCommunities(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    const auto expected = OracleRank(engine.index(), request);
    ASSERT_EQ(expected.ranked.size(), actual->ranked.size());
    for (size_t i = 0; i < expected.ranked.size(); ++i) {
      EXPECT_EQ(expected.ranked[i].community, actual->ranked[i].community)
          << "rank position " << i;
      EXPECT_EQ(expected.ranked[i].score, actual->ranked[i].score)
          << "rank position " << i;
      EXPECT_EQ(expected.ranked[i].topic_distribution,
                actual->ranked[i].topic_distribution)
          << "rank position " << i;
    }
  }

  static void ExpectDiffusionMatchesOracle(
      const QueryEngine& engine, const serve::DiffusionRequest& request) {
    const auto actual = engine.Diffusion(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    const auto expected = OracleDiffusion(engine.index(), data_->graph, request);
    EXPECT_EQ(expected.probability, actual->probability);
    EXPECT_EQ(expected.friendship_score, actual->friendship_score);
  }

  static SynthResult* data_;
  static ProfileIndex* index_;
  static ProfileIndex* homogeneous_;
};

SynthResult* ScoringEquivalenceTest::data_ = nullptr;
ProfileIndex* ScoringEquivalenceTest::index_ = nullptr;
ProfileIndex* ScoringEquivalenceTest::homogeneous_ = nullptr;

TEST_F(ScoringEquivalenceTest, ScoringTablesMatchTheirDefinitions) {
  // The tables really are what the kernels assume: M = sum_c2 G row,
  // G = eta * theta, log-phi rows = floored std::log of the phi columns.
  for (int c = 0; c < index_->num_communities(); ++c) {
    for (int z = 0; z < index_->num_topics(); ++z) {
      const auto row = index_->EtaThetaRow(c, z);
      double total = 0.0;
      for (int c2 = 0; c2 < index_->num_communities(); ++c2) {
        EXPECT_EQ(row[static_cast<size_t>(c2)],
                  index_->Eta(c, c2, z) *
                      index_->ContentProfile(c2)[static_cast<size_t>(z)]);
        total += row[static_cast<size_t>(c2)];
      }
      EXPECT_EQ(index_->LinkContentRow(c)[static_cast<size_t>(z)], total);
    }
  }
  for (WordId w = 0; w < static_cast<WordId>(index_->vocab_size()); w += 7) {
    const auto row = index_->WordLogPhi(w);
    for (int z = 0; z < index_->num_topics(); ++z) {
      EXPECT_EQ(row[static_cast<size_t>(z)], OracleLogPhi(*index_, z, w));
    }
  }
}

TEST_F(ScoringEquivalenceTest, RankCommunitiesMatchesOracle) {
  const QueryEngine engine(*index_);
  const WordId vocab = static_cast<WordId>(index_->vocab_size());
  for (const bool include_distribution : {true, false}) {
    for (const int top_k : {0, 1, 2, 3, 100}) {
      for (const std::vector<WordId>& words :
           {std::vector<WordId>{}, std::vector<WordId>{0},
            std::vector<WordId>{1, 2},
            std::vector<WordId>{static_cast<WordId>(vocab - 1), 3, 3, 5}}) {
        serve::RankCommunitiesRequest request;
        request.words = words;
        request.top_k = top_k;
        request.include_topic_distribution = include_distribution;
        ExpectRankMatchesOracle(engine, request);
      }
    }
  }
}

TEST_F(ScoringEquivalenceTest, RankSkipsTopicDistributionWhenNotRequested) {
  const QueryEngine engine(*index_);
  serve::RankCommunitiesRequest request;
  request.words = {0, 1};
  request.include_topic_distribution = false;
  const auto response = engine.RankCommunities(request);
  ASSERT_TRUE(response.ok());
  for (const auto& entry : response->ranked) {
    EXPECT_TRUE(entry.topic_distribution.empty());
    EXPECT_EQ(entry.topic_distribution.capacity(), 0u)
        << "distribution buffer was allocated despite not being requested";
  }
}

TEST_F(ScoringEquivalenceTest, RankTopKEqualsFullSortPrefix) {
  const QueryEngine engine(*index_);
  serve::RankCommunitiesRequest full;
  full.words = {2, 4};
  full.top_k = 0;
  const auto everything = engine.RankCommunities(full);
  ASSERT_TRUE(everything.ok());
  for (int top_k = 1; top_k <= index_->num_communities(); ++top_k) {
    serve::RankCommunitiesRequest partial = full;
    partial.top_k = top_k;
    const auto prefix = engine.RankCommunities(partial);
    ASSERT_TRUE(prefix.ok());
    ASSERT_EQ(prefix->ranked.size(), static_cast<size_t>(top_k));
    for (int i = 0; i < top_k; ++i) {
      EXPECT_EQ(prefix->ranked[static_cast<size_t>(i)].community,
                everything->ranked[static_cast<size_t>(i)].community);
      EXPECT_EQ(prefix->ranked[static_cast<size_t>(i)].score,
                everything->ranked[static_cast<size_t>(i)].score);
    }
  }
}

/// Uniform estimates tie every community's score; the partial top-k must
/// keep the full sort's stable tie order (ascending community id).
TEST_F(ScoringEquivalenceTest, TopKTieBreakingIsStable) {
  ModelArtifact artifact;
  artifact.num_communities = 5;
  artifact.num_topics = 3;
  artifact.num_users = 2;
  artifact.vocab_size = 4;
  artifact.num_time_bins = 1;
  artifact.pi.assign(2 * 5, 1.0 / 5);
  artifact.theta.assign(5 * 3, 1.0 / 3);
  artifact.phi.assign(3 * 4, 1.0 / 4);
  artifact.eta.assign(5 * 5 * 3, 0.5);
  artifact.weights.assign(kNumDiffusionWeights, 0.0);
  artifact.popularity.assign(1 * 3, 1.0 / 3);
  auto index = ProfileIndex::FromArtifact(std::move(artifact));
  ASSERT_TRUE(index.ok());
  const QueryEngine engine(*index);
  serve::RankCommunitiesRequest request;
  request.words = {0, 1};
  request.top_k = 3;
  const auto response = engine.RankCommunities(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->ranked.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(response->ranked[static_cast<size_t>(i)].community, i);
  }
}

TEST_F(ScoringEquivalenceTest, TopUsersWeightsComeFromThePosting) {
  // The posted weights must equal the pi rows they were copied from.
  for (int c = 0; c < index_->num_communities(); ++c) {
    const auto members = index_->CommunityMembers(c);
    const auto weights = index_->CommunityMemberWeights(c);
    ASSERT_EQ(members.size(), weights.size());
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(weights[i],
                index_->Membership(members[i])[static_cast<size_t>(c)]);
    }
  }
}

TEST_F(ScoringEquivalenceTest, DiffusionAndPosteriorMatchOracle) {
  const QueryEngine engine(*index_, &data_->graph);
  const QueryEngine homogeneous(*homogeneous_, &data_->graph);
  const auto& links = data_->graph.diffusion_links();
  ASSERT_FALSE(links.empty());
  for (size_t e = 0; e < std::min<size_t>(8, links.size()); ++e) {
    const DiffusionLink& link = links[e];
    serve::DiffusionRequest request;
    request.source = data_->graph.document(link.i).user;
    request.target = data_->graph.document(link.j).user;
    request.document = link.j;
    request.time_bin = link.time;
    ExpectDiffusionMatchesOracle(engine, request);
    ExpectDiffusionMatchesOracle(homogeneous, request);
  }
  for (DocId d = 0; d < static_cast<DocId>(data_->graph.num_documents());
       ++d) {
    const auto actual = engine.DocumentTopicPosterior(d);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(OraclePosterior(*index_, data_->graph, d), *actual)
        << "document " << d;
  }
  for (UserId u = 0; u < 6; ++u) {
    for (UserId v = 0; v < 6; ++v) {
      for (int z = 0; z < index_->num_topics(); ++z) {
        EXPECT_EQ(OracleCommunityScore(*index_, u, v, z),
                  engine.CommunityScore(u, v, z));
      }
    }
  }
}

TEST_F(ScoringEquivalenceTest, DegenerateRequests) {
  const QueryEngine engine(*index_);
  serve::RankCommunitiesRequest bad_word;
  bad_word.words = {static_cast<WordId>(index_->vocab_size())};
  EXPECT_EQ(engine.RankCommunities(bad_word).status().code(),
            StatusCode::kOutOfRange);
  serve::RankCommunitiesRequest negative_k;
  negative_k.top_k = -1;
  EXPECT_EQ(engine.RankCommunities(negative_k).status().code(),
            StatusCode::kInvalidArgument);
  // Empty query, no distribution, huge k: the prior ranking, full length.
  serve::RankCommunitiesRequest empty;
  empty.top_k = 10000;
  empty.include_topic_distribution = false;
  ExpectRankMatchesOracle(engine, empty);
}

}  // namespace
}  // namespace cpd
