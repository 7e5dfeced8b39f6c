#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/cpd_model.h"
#include "core/model_artifact.h"
#include "core/model_state.h"
#include "parallel/thread_pool.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "test_util.h"
#include "util/file_util.h"

namespace cpd {
namespace {

using serve::ProfileIndex;
using serve::QueryEngine;
using serve::QueryRequest;
using serve::QueryResponse;

class ProfileIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph(131));
    CpdConfig config;
    config.num_communities = 4;
    config.num_topics = 6;
    config.em_iterations = 5;
    config.seed = 17;
    auto model = CpdModel::Train(data_->graph, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new CpdModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  static std::string TempPath(const char* name) {
    return ::testing::TempDir() + "/" + name;
  }

  static SynthResult* data_;
  static CpdModel* model_;
};

SynthResult* ProfileIndexTest::data_ = nullptr;
CpdModel* ProfileIndexTest::model_ = nullptr;

// ----- binary persistence -----

TEST_F(ProfileIndexTest, BinaryRoundTripIsBitExact) {
  const std::string binary_path = TempPath("round_trip.cpdb");
  ASSERT_TRUE(model_->SaveBinary(binary_path).ok());
  auto from_binary = CpdModel::LoadBinary(binary_path);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();

  // The load must reproduce every matrix of the trained model bit-for-bit
  // (the artifact stores raw doubles).
  const CpdModel* loaded = &*from_binary;
  ASSERT_EQ(loaded->num_communities(), model_->num_communities());
  ASSERT_EQ(loaded->num_topics(), model_->num_topics());
  ASSERT_EQ(loaded->num_users(), model_->num_users());
  ASSERT_EQ(loaded->vocab_size(), model_->vocab_size());
  ASSERT_EQ(loaded->num_time_bins(), model_->num_time_bins());
  for (size_t u = 0; u < model_->num_users(); ++u) {
    const auto expected = model_->Membership(static_cast<UserId>(u));
    const auto actual = loaded->Membership(static_cast<UserId>(u));
    for (size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(expected[c], actual[c]) << "pi[" << u << "][" << c << "]";
    }
  }
  for (int c = 0; c < model_->num_communities(); ++c) {
    const auto expected = model_->ContentProfile(c);
    const auto actual = loaded->ContentProfile(c);
    for (size_t z = 0; z < expected.size(); ++z) {
      EXPECT_EQ(expected[z], actual[z]) << "theta[" << c << "][" << z << "]";
    }
  }
  for (int z = 0; z < model_->num_topics(); ++z) {
    const auto expected = model_->TopicWords(z);
    const auto actual = loaded->TopicWords(z);
    for (size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(expected[w], actual[w]) << "phi[" << z << "][" << w << "]";
    }
  }
  for (int c = 0; c < model_->num_communities(); ++c) {
    for (int c2 = 0; c2 < model_->num_communities(); ++c2) {
      for (int z = 0; z < model_->num_topics(); ++z) {
        EXPECT_EQ(loaded->Eta(c, c2, z), model_->Eta(c, c2, z));
      }
    }
  }
  ASSERT_EQ(loaded->DiffusionWeights().size(),
            model_->DiffusionWeights().size());
  for (size_t k = 0; k < model_->DiffusionWeights().size(); ++k) {
    EXPECT_EQ(loaded->DiffusionWeights()[k], model_->DiffusionWeights()[k]);
  }
  for (int32_t t = 0; t < model_->num_time_bins(); ++t) {
    for (int z = 0; z < model_->num_topics(); ++z) {
      EXPECT_EQ(loaded->TopicPopularity(t, z), model_->TopicPopularity(t, z));
    }
  }
  std::filesystem::remove(binary_path);
}

TEST_F(ProfileIndexTest, LoadBinaryRejectsBadMagic) {
  const std::string path = TempPath("bad_magic.cpdb");
  ASSERT_TRUE(WriteStringToFile(path, "NOTCPDBthis is junk data").ok());
  const auto loaded = CpdModel::LoadBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST_F(ProfileIndexTest, LoadBinaryRejectsUnknownVersion) {
  const std::string path = TempPath("bad_version.cpdb");
  ASSERT_TRUE(model_->SaveBinary(path).ok());
  // Bump the version field (bytes 8..11, little-endian u32) to 99.
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[8] = 99;
  ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
  const auto loaded = CpdModel::LoadBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnimplemented);
  std::filesystem::remove(path);
}

TEST_F(ProfileIndexTest, LoadBinaryRejectsForeignEndianness) {
  const std::string path = TempPath("bad_endian.cpdb");
  ASSERT_TRUE(model_->SaveBinary(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  // Reverse the endian tag (bytes 12..15).
  std::swap(mutated[12], mutated[15]);
  std::swap(mutated[13], mutated[14]);
  ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
  EXPECT_FALSE(CpdModel::LoadBinary(path).ok());
  std::filesystem::remove(path);
}

TEST_F(ProfileIndexTest, LoadBinaryRejectsTruncatedFile) {
  const std::string path = TempPath("truncated.cpdb");
  ASSERT_TRUE(model_->SaveBinary(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  // Cut at several depths: inside the header and inside the matrix body.
  for (const size_t keep : {size_t{10}, size_t{40}, bytes->size() / 2,
                            bytes->size() - 8}) {
    ASSERT_TRUE(WriteStringToFile(path, bytes->substr(0, keep)).ok());
    const auto loaded = CpdModel::LoadBinary(path);
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange)
        << "kept " << keep << " bytes";
    // A cut inside the body must name the section whose bytes went
    // missing, so a torture-test failure is diagnosable from the message.
    if (keep > 76) {
      EXPECT_NE(loaded.status().message().find("section"), std::string::npos)
          << "kept " << keep << " bytes: " << loaded.status().ToString();
    }
  }
  // The in-memory decoder names the truncated section too.
  {
    const auto loaded =
        DecodeModelArtifact(bytes->substr(0, bytes->size() / 3));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(loaded.status().message().find("section"), std::string::npos)
        << loaded.status().ToString();
  }
  // Trailing garbage is rejected too (a truncated *next* artifact would
  // otherwise hide there).
  ASSERT_TRUE(WriteStringToFile(path, *bytes + "garbage").ok());
  EXPECT_FALSE(CpdModel::LoadBinary(path).ok());
  std::filesystem::remove(path);
}

// ----- index construction equivalence -----

TEST_F(ProfileIndexTest, IndexMatchesModelAccessors) {
  const ProfileIndex index = ProfileIndex::FromModel(*model_);
  ASSERT_EQ(index.num_communities(), model_->num_communities());
  ASSERT_EQ(index.num_topics(), model_->num_topics());
  ASSERT_EQ(index.num_users(), model_->num_users());
  ASSERT_EQ(index.vocab_size(), model_->vocab_size());

  for (size_t u = 0; u < model_->num_users(); ++u) {
    const auto expected = model_->Membership(static_cast<UserId>(u));
    const auto actual = index.Membership(static_cast<UserId>(u));
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(expected[c], actual[c]);
    }
  }
  for (int c = 0; c < model_->num_communities(); ++c) {
    const auto expected = model_->ContentProfile(c);
    const auto actual = index.ContentProfile(c);
    for (size_t z = 0; z < expected.size(); ++z) {
      EXPECT_EQ(expected[z], actual[z]);
    }
    for (int c2 = 0; c2 < model_->num_communities(); ++c2) {
      EXPECT_EQ(index.EtaAggregated(c, c2), model_->EtaAggregated(c, c2));
      for (int z = 0; z < model_->num_topics(); ++z) {
        EXPECT_EQ(index.Eta(c, c2, z), model_->Eta(c, c2, z));
      }
    }
  }
  for (int z = 0; z < model_->num_topics(); ++z) {
    const auto expected = model_->TopicWords(z);
    const auto actual = index.TopicWords(z);
    for (size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(expected[w], actual[w]);
    }
  }
}

TEST_F(ProfileIndexTest, TopCommunitiesMatchModel) {
  serve::ProfileIndexOptions options;
  options.membership_top_k = 3;
  const ProfileIndex index = ProfileIndex::FromModel(*model_, options);
  for (size_t u = 0; u < model_->num_users(); ++u) {
    const auto expected = model_->TopCommunities(static_cast<UserId>(u), 3);
    const auto actual = index.TopCommunities(static_cast<UserId>(u));
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].community, expected[i]);
      EXPECT_EQ(actual[i].weight,
                model_->Membership(static_cast<UserId>(u))
                    [static_cast<size_t>(expected[i])]);
    }
  }
}

TEST_F(ProfileIndexTest, CommunityMembersAreWeightSortedAndComplete) {
  const ProfileIndex index = ProfileIndex::FromModel(*model_);
  size_t total = 0;
  for (int c = 0; c < index.num_communities(); ++c) {
    const auto members = index.CommunityMembers(c);
    total += members.size();
    for (size_t i = 1; i < members.size(); ++i) {
      const double prev =
          index.Membership(members[i - 1])[static_cast<size_t>(c)];
      const double cur = index.Membership(members[i])[static_cast<size_t>(c)];
      EXPECT_GE(prev, cur);
    }
  }
  // Every user appears in exactly top_k postings (top_k clamped to |C|).
  const size_t k = static_cast<size_t>(
      std::min(index.membership_top_k(), index.num_communities()));
  EXPECT_EQ(total, index.num_users() * k);
}

// ----- serving equivalence: in-memory model vs .cpdb artifact -----

/// All four query types must answer bit-identically whether the index came
/// from the in-memory model or from the binary artifact on disk.
TEST_F(ProfileIndexTest, CpdbIndexAnswersBitIdenticallyToModelIndex) {
  const std::string path = TempPath("serving.cpdb");
  ASSERT_TRUE(model_->SaveBinary(path).ok());
  const ProfileIndex from_model = ProfileIndex::FromModel(*model_);
  auto from_file = ProfileIndex::LoadFromFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();

  const QueryEngine model_engine(from_model, &data_->graph);
  const QueryEngine file_engine(*from_file, &data_->graph);

  std::vector<QueryRequest> requests;
  for (UserId u = 0; u < 10; ++u) {
    serve::MembershipRequest membership;
    membership.user = u;
    membership.include_distribution = true;
    requests.push_back(membership);
  }
  serve::RankCommunitiesRequest rank;
  rank.words = {0, 1};
  requests.push_back(rank);
  serve::TopUsersRequest top_users;
  top_users.community = 1;
  top_users.top_k = 7;
  requests.push_back(top_users);
  for (size_t e = 0; e < std::min<size_t>(5, data_->graph.num_diffusion_links());
       ++e) {
    const DiffusionLink& link = data_->graph.diffusion_links()[e];
    serve::DiffusionRequest diffusion;
    diffusion.source = data_->graph.document(link.i).user;
    diffusion.target = data_->graph.document(link.j).user;
    diffusion.document = link.j;
    diffusion.time_bin = link.time;
    requests.push_back(diffusion);
  }

  for (const QueryRequest& request : requests) {
    const auto expected = model_engine.Query(request);
    const auto actual = file_engine.Query(request);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(expected->index(), actual->index());
    if (const auto* m = std::get_if<serve::MembershipResponse>(&*expected)) {
      const auto& f = std::get<serve::MembershipResponse>(*actual);
      ASSERT_EQ(m->top.size(), f.top.size());
      for (size_t i = 0; i < m->top.size(); ++i) {
        EXPECT_EQ(m->top[i].community, f.top[i].community);
        EXPECT_EQ(m->top[i].weight, f.top[i].weight);
      }
      EXPECT_EQ(m->distribution, f.distribution);
    } else if (const auto* r =
                   std::get_if<serve::RankCommunitiesResponse>(&*expected)) {
      const auto& f = std::get<serve::RankCommunitiesResponse>(*actual);
      ASSERT_EQ(r->ranked.size(), f.ranked.size());
      for (size_t i = 0; i < r->ranked.size(); ++i) {
        EXPECT_EQ(r->ranked[i].community, f.ranked[i].community);
        EXPECT_EQ(r->ranked[i].score, f.ranked[i].score);
        EXPECT_EQ(r->ranked[i].topic_distribution,
                  f.ranked[i].topic_distribution);
      }
    } else if (const auto* d =
                   std::get_if<serve::DiffusionResponse>(&*expected)) {
      const auto& f = std::get<serve::DiffusionResponse>(*actual);
      EXPECT_EQ(d->probability, f.probability);
      EXPECT_EQ(d->friendship_score, f.friendship_score);
    } else {
      const auto& m = std::get<serve::TopUsersResponse>(*expected);
      const auto& f = std::get<serve::TopUsersResponse>(*actual);
      EXPECT_EQ(m.users, f.users);
      EXPECT_EQ(m.weights, f.weights);
    }
  }
  std::filesystem::remove(path);
}

// ----- query engine behavior -----

TEST_F(ProfileIndexTest, ScoringOnlyIndexSkipsMembershipStructures) {
  serve::ProfileIndexOptions options;
  options.build_membership_index = false;
  const ProfileIndex index = ProfileIndex::FromModel(*model_, options);
  EXPECT_FALSE(index.has_membership_index());
  EXPECT_TRUE(index.TopCommunities(0).empty());
  EXPECT_TRUE(index.CommunityMembers(0).empty());

  const QueryEngine engine(index, &data_->graph);
  // Scoring queries still serve...
  serve::RankCommunitiesRequest rank;
  rank.words = {0};
  EXPECT_TRUE(engine.RankCommunities(rank).ok());
  // ...while membership/top-users report the missing structure as a typed
  // precondition failure instead of returning empty results.
  serve::MembershipRequest membership;
  membership.user = 0;
  EXPECT_EQ(engine.Membership(membership).status().code(),
            StatusCode::kFailedPrecondition);
  serve::TopUsersRequest top_users;
  top_users.community = 0;
  EXPECT_EQ(engine.TopUsers(top_users).status().code(),
            StatusCode::kFailedPrecondition);
}

/// A valid uniform-estimate artifact (2 communities, 2 topics, 1 time bin)
/// of the given user and vocabulary sizes.
ModelArtifact UniformArtifact(size_t num_users, size_t vocab_size) {
  ModelArtifact artifact;
  artifact.num_communities = 2;
  artifact.num_topics = 2;
  artifact.num_users = num_users;
  artifact.vocab_size = vocab_size;
  artifact.num_time_bins = 1;
  artifact.pi.assign(num_users * 2, 0.5);
  artifact.theta.assign(2 * 2, 0.5);
  artifact.phi.assign(2 * vocab_size, 1.0 / static_cast<double>(vocab_size));
  artifact.eta.assign(2 * 2 * 2, 0.5);
  artifact.weights.assign(kNumDiffusionWeights, 0.0);
  artifact.popularity.assign(2, 0.5);
  return artifact;
}

TEST_F(ProfileIndexTest, QueriesValidateRequests) {
  const ProfileIndex index = ProfileIndex::FromModel(*model_);
  const QueryEngine engine(index);  // No graph bound.

  serve::MembershipRequest bad_user;
  bad_user.user = static_cast<UserId>(index.num_users());
  EXPECT_EQ(engine.Membership(bad_user).status().code(),
            StatusCode::kOutOfRange);

  serve::RankCommunitiesRequest bad_word;
  bad_word.words = {static_cast<WordId>(index.vocab_size())};
  EXPECT_EQ(engine.RankCommunities(bad_word).status().code(),
            StatusCode::kOutOfRange);

  serve::TopUsersRequest bad_community;
  bad_community.community = -1;
  EXPECT_EQ(engine.TopUsers(bad_community).status().code(),
            StatusCode::kOutOfRange);

  // Diffusion without a bound graph is a precondition failure, not a crash.
  serve::DiffusionRequest diffusion;
  diffusion.source = 0;
  diffusion.target = 1;
  diffusion.document = 0;
  EXPECT_EQ(engine.Diffusion(diffusion).status().code(),
            StatusCode::kFailedPrecondition);

  // The graph is bound independently of the model (cpd_serve loads --docs
  // and --model separately; /admin/reload swaps in any model), so ids that
  // are valid for one may be out of range for the other. The hand graph
  // has 4 users and a 3-word vocabulary; document 2 uses word 2.
  const SocialGraph graph = testing::MakeHandGraph();
  const auto narrow_vocab = ProfileIndex::FromArtifact(UniformArtifact(4, 2));
  ASSERT_TRUE(narrow_vocab.ok()) << narrow_vocab.status().ToString();
  const QueryEngine narrow_engine(*narrow_vocab, &graph);
  EXPECT_EQ(narrow_engine.DocumentTopicPosterior(2).status().code(),
            StatusCode::kOutOfRange);
  const auto wide_users = ProfileIndex::FromArtifact(UniformArtifact(8, 3));
  ASSERT_TRUE(wide_users.ok()) << wide_users.status().ToString();
  const QueryEngine wide_engine(*wide_users, &graph);
  serve::DiffusionRequest outside_graph;
  outside_graph.source = 4;  // Valid for the index, past the graph.
  outside_graph.target = 0;
  outside_graph.document = 0;
  EXPECT_EQ(wide_engine.Diffusion(outside_graph).status().code(),
            StatusCode::kOutOfRange);
  std::swap(outside_graph.source, outside_graph.target);
  EXPECT_EQ(wide_engine.Diffusion(outside_graph).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(ProfileIndexTest, BatchMatchesSequentialAndIsolatesErrors) {
  const ProfileIndex index = ProfileIndex::FromModel(*model_);
  const QueryEngine engine(index, &data_->graph);

  std::vector<QueryRequest> requests;
  for (UserId u = 0; u < 20; ++u) {
    serve::MembershipRequest membership;
    membership.user = u;
    membership.include_distribution = true;
    requests.push_back(membership);
  }
  serve::MembershipRequest bad;
  bad.user = -5;
  requests.insert(requests.begin() + 7, bad);
  serve::RankCommunitiesRequest rank;
  rank.words = {2};
  requests.push_back(rank);

  ThreadPool pool(4);
  const auto pooled = engine.QueryBatch(requests, &pool);
  const auto inline_run = engine.QueryBatch(requests, nullptr);
  ASSERT_EQ(pooled.size(), requests.size());
  ASSERT_EQ(inline_run.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(pooled[i].ok(), inline_run[i].ok()) << "slot " << i;
    if (!pooled[i].ok()) {
      EXPECT_EQ(pooled[i].status().code(), inline_run[i].status().code());
      continue;
    }
    if (const auto* m = std::get_if<serve::MembershipResponse>(&*pooled[i])) {
      const auto& s = std::get<serve::MembershipResponse>(*inline_run[i]);
      EXPECT_EQ(m->distribution, s.distribution);
    }
  }
  // The bad slot failed; its neighbors did not.
  EXPECT_FALSE(pooled[7].ok());
  EXPECT_TRUE(pooled[6].ok());
  EXPECT_TRUE(pooled[8].ok());
}

// ----- bundled vocabulary -----

TEST_F(ProfileIndexTest, BundledVocabularyRoundTrips) {
  const Vocabulary& vocab = data_->graph.corpus().vocabulary();
  ASSERT_EQ(vocab.size(), model_->vocab_size());
  const std::string path = TempPath("vocab_bundle.cpdb");
  ASSERT_TRUE(model_->SaveBinary(path, &vocab).ok());

  auto bundle = serve::LoadModelBundle(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_NE(bundle->vocabulary, nullptr);
  ASSERT_EQ(bundle->vocabulary->size(), vocab.size());
  for (size_t w = 0; w < vocab.size(); ++w) {
    const auto id = static_cast<WordId>(w);
    EXPECT_EQ(bundle->vocabulary->WordOf(id), vocab.WordOf(id));
    EXPECT_EQ(bundle->vocabulary->Frequency(id), vocab.Frequency(id));
  }
  // The matrices are untouched by the extra section.
  EXPECT_EQ(bundle->index.num_users(), model_->num_users());
  EXPECT_EQ(bundle->index.Membership(0)[0], model_->Membership(0)[0]);
  std::filesystem::remove(path);
}

TEST_F(ProfileIndexTest, SaveBinaryRejectsMismatchedVocabulary) {
  Vocabulary wrong;
  wrong.GetOrAdd("one_word_only");
  const std::string path = TempPath("vocab_mismatch.cpdb");
  const Status saved = model_->SaveBinary(path, &wrong);
  EXPECT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
}

TEST_F(ProfileIndexTest, ArtifactWithoutVocabularyLoadsWithNullVocab) {
  const std::string path = TempPath("no_vocab.cpdb");
  ASSERT_TRUE(model_->SaveBinary(path).ok());
  auto bundle = serve::LoadModelBundle(path);
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->vocabulary, nullptr);
  std::filesystem::remove(path);
}

TEST_F(ProfileIndexTest, LoadModeSpellingsAndDefault) {
  for (const auto mode :
       {serve::ArtifactLoadMode::kHeap, serve::ArtifactLoadMode::kMmap}) {
    auto parsed =
        serve::ParseArtifactLoadMode(serve::ArtifactLoadModeName(mode));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_EQ(serve::ParseArtifactLoadMode("auto").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::ProfileIndexOptions{}.load_mode,
            serve::ArtifactLoadMode::kMmap);
}

}  // namespace
}  // namespace cpd
