#include <gtest/gtest.h>

#include <filesystem>

#include "core/cpd_model.h"
#include "test_util.h"
#include "util/file_util.h"

namespace cpd {
namespace {

CpdConfig ModelConfig() {
  CpdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.em_iterations = 4;
  config.seed = 11;
  return config;
}

class CpdModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SynthResult(testing::MakeTinyGraph());
    auto model = CpdModel::Train(data_->graph, ModelConfig());
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new CpdModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  static SynthResult* data_;
  static CpdModel* model_;
};

SynthResult* CpdModelTest::data_ = nullptr;
CpdModel* CpdModelTest::model_ = nullptr;

TEST_F(CpdModelTest, OutputDimensions) {
  EXPECT_EQ(model_->num_communities(), 4);
  EXPECT_EQ(model_->num_topics(), 6);
  EXPECT_EQ(model_->num_users(), data_->graph.num_users());
  EXPECT_EQ(model_->vocab_size(), data_->graph.vocabulary_size());
}

TEST_F(CpdModelTest, MembershipsAreDistributions) {
  for (size_t u = 0; u < model_->num_users(); ++u) {
    const auto& pi = model_->Membership(static_cast<UserId>(u));
    double total = 0.0;
    for (double p : pi) {
      EXPECT_GT(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(CpdModelTest, ProfilesAreDistributions) {
  for (int c = 0; c < model_->num_communities(); ++c) {
    double total = 0.0;
    for (double p : model_->ContentProfile(c)) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  for (int z = 0; z < model_->num_topics(); ++z) {
    double total = 0.0;
    for (double p : model_->TopicWords(z)) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(CpdModelTest, EtaAggregationConsistent) {
  for (int c = 0; c < model_->num_communities(); ++c) {
    for (int c2 = 0; c2 < model_->num_communities(); ++c2) {
      double total = 0.0;
      for (int z = 0; z < model_->num_topics(); ++z) total += model_->Eta(c, c2, z);
      EXPECT_NEAR(model_->EtaAggregated(c, c2), total, 1e-12);
    }
  }
}

TEST_F(CpdModelTest, TopCommunitiesSortedByMembership) {
  const auto top = model_->TopCommunities(0, 2);
  ASSERT_EQ(top.size(), 2u);
  const auto& pi = model_->Membership(0);
  EXPECT_GE(pi[static_cast<size_t>(top[0])], pi[static_cast<size_t>(top[1])]);
}

TEST_F(CpdModelTest, PopularityClampsOutOfRangeTime) {
  const double last = model_->TopicPopularity(model_->num_time_bins() - 1, 0);
  EXPECT_DOUBLE_EQ(model_->TopicPopularity(model_->num_time_bins() + 50, 0), last);
  EXPECT_DOUBLE_EQ(model_->TopicPopularity(-5, 0), model_->TopicPopularity(0, 0));
}

TEST_F(CpdModelTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/cpd_model_garbage.txt";
  ASSERT_TRUE(WriteStringToFile(path, "not a model\n1 2 3\n").ok());
  EXPECT_FALSE(CpdModel::LoadBinary(path).ok());
  std::filesystem::remove(path);
}

TEST_F(CpdModelTest, BinarySaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cpd_model_test.cpdb";
  ASSERT_TRUE(model_->SaveBinary(path).ok());
  auto loaded = CpdModel::LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_communities(), model_->num_communities());
  EXPECT_EQ(loaded->num_topics(), model_->num_topics());
  EXPECT_EQ(loaded->num_users(), model_->num_users());
  EXPECT_EQ(loaded->num_time_bins(), model_->num_time_bins());
  // Binary round trips are bit-exact, not just close.
  for (size_t u = 0; u < model_->num_users(); u += 5) {
    const auto original = model_->Membership(static_cast<UserId>(u));
    const auto reloaded = loaded->Membership(static_cast<UserId>(u));
    for (size_t c = 0; c < original.size(); ++c) {
      EXPECT_EQ(original[c], reloaded[c]);
    }
  }
  EXPECT_EQ(loaded->Eta(1, 2, 3), model_->Eta(1, 2, 3));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cpd
