#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/model_state.h"
#include "test_util.h"

namespace cpd {
namespace {

CpdConfig SmallConfig() {
  CpdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  return config;
}

TEST(ModelStateTest, CountsConsistentAfterRebuild) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  const CpdConfig config = SmallConfig();
  ModelState state(graph, config);
  Rng rng(1);
  state.InitializeRandom(graph, &rng);
  state.RebuildCounts(graph);

  // Totals must match document/word counts.
  int64_t total_docs_by_uc = 0;
  for (int32_t c : state.n_uc) total_docs_by_uc += c;
  EXPECT_EQ(total_docs_by_uc, static_cast<int64_t>(graph.num_documents()));

  int64_t total_docs_by_cz = 0;
  for (int32_t c : state.n_cz) total_docs_by_cz += c;
  EXPECT_EQ(total_docs_by_cz, static_cast<int64_t>(graph.num_documents()));

  int64_t total_docs_by_c = 0;
  for (int32_t c : state.n_c) total_docs_by_c += c;
  EXPECT_EQ(total_docs_by_c, static_cast<int64_t>(graph.num_documents()));

  int64_t total_words = 0;
  for (int64_t c : state.n_z) total_words += c;
  EXPECT_EQ(total_words, graph.corpus().total_tokens());

  // Per-user totals match.
  for (size_t u = 0; u < graph.num_users(); ++u) {
    EXPECT_EQ(state.n_u[u],
              static_cast<int32_t>(graph.DocumentsOf(static_cast<UserId>(u)).size()));
  }
}

TEST(ModelStateTest, PiHatIsDistribution) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  const CpdConfig config = SmallConfig();
  ModelState state(graph, config);
  Rng rng(2);
  state.InitializeRandom(graph, &rng);
  state.RebuildCounts(graph);
  for (size_t u = 0; u < graph.num_users(); ++u) {
    double total = 0.0;
    for (int c = 0; c < config.num_communities; ++c) {
      const double p = state.PiHat(static_cast<UserId>(u), c);
      EXPECT_GT(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ModelStateTest, ThetaPhiAreDistributions) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  const CpdConfig config = SmallConfig();
  ModelState state(graph, config);
  Rng rng(3);
  state.InitializeRandom(graph, &rng);
  state.RebuildCounts(graph);
  for (int c = 0; c < config.num_communities; ++c) {
    double total = 0.0;
    for (int z = 0; z < config.num_topics; ++z) total += state.ThetaHat(c, z);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  for (int z = 0; z < config.num_topics; ++z) {
    double total = 0.0;
    for (size_t w = 0; w < state.vocab_size; ++w) {
      total += state.PhiHat(z, static_cast<WordId>(w));
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ModelStateTest, MembershipDotBounded) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  ModelState state(graph, SmallConfig());
  Rng rng(4);
  state.InitializeRandom(graph, &rng);
  state.RebuildCounts(graph);
  const double dot = state.MembershipDot(0, 1);
  EXPECT_GT(dot, 0.0);
  EXPECT_LE(dot, 1.0);
}

TEST(ModelStateTest, EtaInitializedUniform) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  const CpdConfig config = SmallConfig();
  ModelState state(graph, config);
  double row_total = 0.0;
  for (int c2 = 0; c2 < config.num_communities; ++c2) {
    for (int z = 0; z < config.num_topics; ++z) row_total += state.EtaAt(0, c2, z);
  }
  EXPECT_NEAR(row_total, 1.0, 1e-9);
}

TEST(ModelStateTest, AblatedPopularityWeightZero) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  CpdConfig config = SmallConfig();
  config.ablation.topic_factor = false;
  ModelState state(graph, config);
  EXPECT_DOUBLE_EQ(state.weights[kWeightPopularity], 0.0);
  CpdConfig full = SmallConfig();
  ModelState full_state(graph, full);
  EXPECT_DOUBLE_EQ(full_state.weights[kWeightPopularity], 1.0);
}

TEST(PopularityTableTest, FractionModeSumsToOnePerBin) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  PopularityTable table(graph.num_time_bins(), 6, PopularityMode::kFraction);
  std::vector<int32_t> topics(graph.num_documents(), 0);
  for (size_t d = 0; d < topics.size(); ++d) topics[d] = static_cast<int32_t>(d % 6);
  table.Refresh(graph, topics);
  for (int32_t t = 0; t < graph.num_time_bins(); ++t) {
    double total = 0.0;
    int64_t raw = 0;
    for (int z = 0; z < 6; ++z) {
      total += table.Value(t, z);
      raw += table.RawCount(t, z);
    }
    if (raw > 0) {
      EXPECT_NEAR(total, 1.0, 1e-9) << "bin " << t;
    } else {
      EXPECT_DOUBLE_EQ(total, 0.0);
    }
  }
}

TEST(ModelStateTest, DocWordViewMatchesDocuments) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  ModelState state(graph, SmallConfig());
  ASSERT_EQ(state.doc_words.offsets.size(), graph.num_documents() + 1);
  for (size_t d = 0; d < graph.num_documents(); ++d) {
    const Document& doc = graph.document(static_cast<DocId>(d));
    const auto row = state.doc_words.Row(static_cast<DocId>(d));
    // Multiplicities must sum to the document length, and every (word,
    // count) pair must match a brute-force recount.
    int64_t total = 0;
    for (const SparseCount& entry : row) {
      EXPECT_GT(entry.count, 0);
      int64_t expected = 0;
      for (WordId w : doc.words) {
        if (static_cast<int32_t>(w) == entry.index) ++expected;
      }
      EXPECT_EQ(entry.count, expected) << "doc " << d << " word " << entry.index;
      total += entry.count;
    }
    EXPECT_EQ(total, static_cast<int64_t>(doc.words.size()));
  }
}

// Fresh scan of user u's nonzero community counts, in community order.
std::vector<SparseCount> ScanUserCommunities(const ModelState& state, UserId u) {
  std::vector<SparseCount> out;
  const size_t base =
      static_cast<size_t>(u) * static_cast<size_t>(state.num_communities);
  for (int c = 0; c < state.num_communities; ++c) {
    const int32_t count = state.n_uc[base + static_cast<size_t>(c)];
    if (count != 0) out.push_back({c, count});
  }
  return out;
}

TEST(ModelStateTest, UserCommunityRowMatchesDenseRow) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  ModelState state(graph, SmallConfig());
  Rng rng(3);
  state.InitializeRandom(graph, &rng);
  state.RebuildCounts(graph);
  for (size_t u = 0; u < graph.num_users(); ++u) {
    int64_t total = 0;
    for (const SparseCount& entry :
         state.UserCommunityRow(static_cast<UserId>(u))) {
      EXPECT_EQ(entry.count,
                state.n_uc[u * static_cast<size_t>(state.num_communities) +
                           static_cast<size_t>(entry.index)]);
      EXPECT_NE(entry.count, 0);
      total += entry.count;
    }
    EXPECT_EQ(total, state.n_u[u]);
  }
}

// The cached row view must agree with the fresh scan entry-for-entry
// (modulo ordering) after any sequence of write-through updates.
void ExpectRowMatchesScan(ModelState* state, UserId u) {
  const std::vector<SparseCount> scan = ScanUserCommunities(*state, u);
  const auto cached = state->UserCommunityRow(u);
  ASSERT_EQ(cached.size(), scan.size()) << "user " << u;
  std::vector<SparseCount> sorted_cached(cached.begin(), cached.end());
  std::sort(sorted_cached.begin(), sorted_cached.end(),
            [](const SparseCount& a, const SparseCount& b) {
              return a.index < b.index;
            });
  for (size_t i = 0; i < scan.size(); ++i) {
    EXPECT_EQ(sorted_cached[i], scan[i]) << "user " << u << " entry " << i;
  }
}

TEST(ModelStateTest, UserCommunityRowCacheTracksBumps) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  ModelState state(graph, SmallConfig());
  Rng rng(5);
  state.InitializeRandom(graph, &rng);
  state.RebuildCounts(graph);

  // Build every row, then shuffle documents between communities through the
  // write-through path and re-verify against fresh scans: entries must
  // adjust in place, vanish at zero, and reappear on re-entry.
  for (size_t u = 0; u < graph.num_users(); ++u) {
    ExpectRowMatchesScan(&state, static_cast<UserId>(u));
  }
  Rng moves(7);
  for (int step = 0; step < 200; ++step) {
    const UserId u = static_cast<UserId>(moves.NextUint64(graph.num_users()));
    if (state.n_u[static_cast<size_t>(u)] == 0) continue;
    // Move one document of u from a currently occupied community to a
    // random one (possibly re-entering an empty community).
    const auto row = state.UserCommunityRow(u);
    const SparseCount from = row[moves.NextUint64(row.size())];
    const int to = static_cast<int>(
        moves.NextUint64(static_cast<uint64_t>(state.num_communities)));
    state.BumpUserCommunity(u, from.index, -1);
    state.BumpUserCommunity(u, to, 1);
    ExpectRowMatchesScan(&state, u);
  }
}

TEST(ModelStateTest, UserCommunityRowCacheInvalidation) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  ModelState state(graph, SmallConfig());
  Rng rng(9);
  state.InitializeRandom(graph, &rng);
  state.RebuildCounts(graph);
  const UserId u = 0;
  ASSERT_GT(state.n_u[0], 0);
  (void)state.UserCommunityRow(u);

  // A bulk rewrite behind the cache's back followed by invalidation must
  // rebuild the row from the new counters.
  ModelState other(graph, SmallConfig());
  Rng other_rng(11);
  other.InitializeRandom(graph, &other_rng);
  other.RebuildCounts(graph);
  state.n_uc = other.n_uc;
  state.n_u = other.n_u;
  state.InvalidateUserCommunityRows();
  ExpectRowMatchesScan(&state, u);

  // Per-user invalidation only drops the named rows.
  (void)state.UserCommunityRow(1);
  const std::vector<UserId> users = {u};
  state.InvalidateUserCommunityRows(users);
  ExpectRowMatchesScan(&state, u);
  ExpectRowMatchesScan(&state, 1);

  // RebuildCounts invalidates implicitly.
  state.RebuildCounts(graph);
  ExpectRowMatchesScan(&state, u);
}

TEST(LinkCachesTest, FriendLinkIncidence) {
  const SocialGraph graph = testing::MakeHandGraph();
  LinkCaches caches(graph);
  // User 1 touches links (0,1),(1,0),(1,2) -> 3 incident links.
  EXPECT_EQ(caches.FriendLinksOf(1).size(), 3u);
  EXPECT_EQ(caches.FriendLinksOf(0).size(), 2u);
}

TEST(LinkCachesTest, FeaturesAreFinite) {
  const SocialGraph graph = testing::MakeTinyGraph().graph;
  LinkCaches caches(graph);
  for (size_t e = 0; e < graph.num_diffusion_links(); ++e) {
    for (double f : caches.Features(e)) {
      EXPECT_TRUE(std::isfinite(f));
    }
  }
}

}  // namespace
}  // namespace cpd
