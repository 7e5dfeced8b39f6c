#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "core/cpd_model.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/file_util.h"

namespace cpd {
namespace {

// Degenerate-input robustness: the trainer must handle graphs missing whole
// observation types (the generative model factorizes, so each part can be
// absent) and extreme configuration corners without crashing.

SocialGraph ContentOnlyGraph() {
  GraphBuilder builder;
  builder.SetNumUsers(20);
  Vocabulary vocab;
  std::vector<WordId> words;
  for (int w = 0; w < 30; ++w) {
    words.push_back(vocab.GetOrAdd("word" + std::to_string(w)));
  }
  builder.SetVocabulary(vocab);
  Rng rng(17);
  for (UserId u = 0; u < 20; ++u) {
    for (int d = 0; d < 3; ++d) {
      std::vector<WordId> doc;
      for (int k = 0; k < 5; ++k) {
        doc.push_back(words[rng.NextUint64(words.size())]);
      }
      builder.AddTokenizedDocument(u, 0, doc);
    }
  }
  auto graph = builder.Build();
  CPD_CHECK(graph.ok());
  return std::move(*graph);
}

TEST(RobustnessTest, TrainsWithoutAnyLinks) {
  const SocialGraph graph = ContentOnlyGraph();
  ASSERT_EQ(graph.num_friendship_links(), 0u);
  ASSERT_EQ(graph.num_diffusion_links(), 0u);
  CpdConfig config;
  config.num_communities = 3;
  config.num_topics = 4;
  config.em_iterations = 3;
  auto model = CpdModel::Train(graph, config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Profiles still well-formed.
  for (int c = 0; c < 3; ++c) {
    double total = 0.0;
    for (double p : model->ContentProfile(c)) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RobustnessTest, TrainsWithSingleCommunityAndTopic) {
  const SynthResult data = testing::MakeTinyGraph(19);
  CpdConfig config;
  config.num_communities = 1;
  config.num_topics = 1;
  config.em_iterations = 2;
  auto model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->Membership(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(model->ContentProfile(0)[0], 1.0);
}

TEST(RobustnessTest, MoreCommunitiesThanUsers) {
  const SocialGraph graph = ContentOnlyGraph();  // 20 users.
  CpdConfig config;
  config.num_communities = 40;
  config.num_topics = 4;
  config.em_iterations = 2;
  auto model = CpdModel::Train(graph, config);
  ASSERT_TRUE(model.ok());
  // Memberships remain valid distributions.
  double total = 0.0;
  for (double p : model->Membership(0)) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RobustnessTest, ParallelTrainingWithMoreThreadsThanSegments) {
  const SynthResult data = testing::MakeTinyGraph(23);
  CpdConfig config;
  config.num_communities = 3;
  config.num_topics = 2;  // Few segments...
  config.em_iterations = 2;
  config.num_threads = 8;  // ...many threads.
  auto model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(model.ok());
}

TEST(RobustnessTest, AllAblationsOffStillTrains) {
  const SynthResult data = testing::MakeTinyGraph(29);
  CpdConfig config;
  config.num_communities = 3;
  config.num_topics = 4;
  config.em_iterations = 2;
  config.ablation.model_friendship = false;
  config.ablation.model_diffusion = false;
  config.ablation.individual_factor = false;
  config.ablation.topic_factor = false;
  auto model = CpdModel::Train(data.graph, config);
  ASSERT_TRUE(model.ok());  // Reduces to a content-only mixture model.
}

TEST(RobustnessTest, PopularityModesAllTrain) {
  const SynthResult data = testing::MakeTinyGraph(31);
  for (PopularityMode mode : {PopularityMode::kRaw, PopularityMode::kFraction,
                              PopularityMode::kLog1p}) {
    CpdConfig config;
    config.num_communities = 3;
    config.num_topics = 4;
    config.em_iterations = 2;
    config.popularity_mode = mode;
    auto model = CpdModel::Train(data.graph, config);
    ASSERT_TRUE(model.ok()) << "mode " << static_cast<int>(mode);
    for (double w : model->DiffusionWeights()) EXPECT_TRUE(std::isfinite(w));
  }
}

TEST(RobustnessTest, RejectsOversizedPriors) {
  const SynthResult data = testing::MakeTinyGraph(37);
  CpdConfig config;
  config.num_communities = 3;
  config.num_topics = 4;
  config.beta = 0.0;  // Invalid.
  EXPECT_FALSE(CpdModel::Train(data.graph, config).ok());
}

// ----- cpd_train flag validation: a bad invocation is a usage error (exit
// 2) before any training starts -----

class CpdTrainFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    binary_ = CurrentExecutableDir() + "/cpd_train";
    if (::access(binary_.c_str(), X_OK) != 0) {
      GTEST_SKIP() << "cpd_train binary not built next to the test binary";
    }
    const std::string dir = ::testing::TempDir();
    docs_ = dir + "/train_flags_docs.tsv";
    friends_ = dir + "/train_flags_friends.tsv";
    diffusion_ = dir + "/train_flags_diffusion.tsv";
    stderr_path_ = dir + "/train_flags_stderr.txt";
    std::ofstream(docs_) << "0\t0\talpha beta gamma delta\n"
                         << "1\t1\tbeta gamma delta epsilon\n";
    std::ofstream(friends_) << "0\t1\n";
    std::ofstream(diffusion_) << "";
  }

  // Runs cpd_train with `extra_flags` and returns its exit code; its stderr
  // lands in stderr_.
  int Run(const std::string& extra_flags) {
    const std::string cmd = binary_ + " --users 2 --docs " + docs_ +
                            " --friends " + friends_ + " --diffusion " +
                            diffusion_ + " " + extra_flags +
                            " >/dev/null 2>" + stderr_path_;
    const int rc = std::system(cmd.c_str());
    std::ifstream in(stderr_path_);
    stderr_.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  bool StderrHas(const std::string& text) const {
    return stderr_.find(text) != std::string::npos;
  }

  std::string binary_, docs_, friends_, diffusion_, stderr_path_, stderr_;
};

TEST_F(CpdTrainFlagsTest, UnknownExecutorNameIsUsageError) {
  EXPECT_EQ(Run("--executor bogus"), 2);
  EXPECT_TRUE(StderrHas("unknown --executor 'bogus' (auto|serial|pooled)\n"))
      << stderr_;
}

TEST_F(CpdTrainFlagsTest, DistributedExecutorIsUnknown) {
  EXPECT_EQ(Run("--executor distributed"), 2);
  EXPECT_TRUE(StderrHas("unknown --executor 'distributed'")) << stderr_;
}

TEST_F(CpdTrainFlagsTest, WorkersFlagIsUnknown) {
  EXPECT_EQ(Run("--workers 2"), 2);
  EXPECT_TRUE(StderrHas("unknown flag --workers")) << stderr_;
}

// 4294967298 = 2^32 + 2 would narrow to 2 communities if the flag were cast
// to int unchecked.
TEST_F(CpdTrainFlagsTest, OutOfRangeCommunitiesIsUsageError) {
  EXPECT_EQ(Run("--communities 4294967298"), 2);
  EXPECT_TRUE(StderrHas("--communities is out of range")) << stderr_;
}

// cpd_serve has one I/O path, so the flag that chose between two is gone:
// naming it is a usage error, not a silently ignored setting.
TEST(CpdServeFlagsTest, IoModeFlagIsUnknown) {
  const std::string binary = CurrentExecutableDir() + "/cpd_serve";
  if (::access(binary.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "cpd_serve binary not built next to the test binary";
  }
  const std::string stderr_path =
      ::testing::TempDir() + "/serve_flags_stderr.txt";
  const int rc = std::system((binary + " --model m.cpdb --io_mode epoll" +
                              " >/dev/null 2>" + stderr_path)
                                 .c_str());
  std::ifstream in(stderr_path);
  const std::string err((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, 2);
  EXPECT_NE(err.find("unknown flag --io_mode"), std::string::npos) << err;
}

}  // namespace
}  // namespace cpd
