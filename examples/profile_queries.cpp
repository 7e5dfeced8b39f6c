// Serving a trained model: train once, save the binary ".cpdb" artifact,
// load it back into a ProfileIndex (no trainer state involved), and answer
// the four §5 query types through the QueryEngine — one at a time and as a
// thread-pooled batch. This is the read-side path a query front end
// (tools/cpd_query.cc) or an RPC server builds on.
//
//   ./build/example_profile_queries

#include <cstdio>
#include <string>
#include <vector>

#include "core/cpd_model.h"
#include "parallel/thread_pool.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "synth/generator.h"

using namespace cpd;

int main() {
  // 1. Train a small model (see quickstart.cpp for this part).
  SynthConfig synth;
  synth.num_users = 150;
  synth.num_communities = 5;
  synth.num_topics = 8;
  synth.seed = 42;
  auto generated = GenerateSocialGraph(synth);
  if (!generated.ok()) return 1;
  const SocialGraph& graph = generated->graph;
  CpdConfig config;
  config.num_communities = 5;
  config.num_topics = 8;
  config.em_iterations = 12;
  auto model = CpdModel::Train(graph, config);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  // 2. Persist the binary artifact and serve from it (zero-copy mmap by
  //    default).
  const std::string artifact_path = "profile_queries_model.cpdb";
  if (!model->SaveBinary(artifact_path).ok()) return 1;
  auto index = serve::ProfileIndex::LoadFromFile(artifact_path);
  if (!index.ok()) {
    std::fprintf(stderr, "load failed: %s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("serving %s: |C|=%d |Z|=%d users=%zu\n\n", artifact_path.c_str(),
              index->num_communities(), index->num_topics(),
              index->num_users());

  // Binding the graph enables diffusion queries (document words + degree
  // features); the other three query types only need the index.
  serve::QueryEngine engine(*index, &graph);

  // 3. MembershipRequest: who is user 0?
  serve::MembershipRequest membership;
  membership.user = 0;
  membership.top_k = 3;
  if (auto response = engine.Membership(membership); response.ok()) {
    std::printf("user 0 top communities:");
    for (const auto& entry : response->top) {
      std::printf("  c%d (%.3f)", entry.community, entry.weight);
    }
    std::printf("\n");
  }

  // 4. RankCommunitiesRequest (Eq. 19): which communities diffuse word 0?
  serve::RankCommunitiesRequest rank;
  rank.words = {0};
  rank.top_k = 3;
  if (auto response = engine.RankCommunities(rank); response.ok()) {
    std::printf("communities ranked for word 0:");
    for (const auto& entry : response->ranked) {
      std::printf("  c%d (%.4g)", entry.community, entry.score);
    }
    std::printf("\n");
  }

  // 5. TopUsersRequest: the strongest members of community 0.
  serve::TopUsersRequest top_users;
  top_users.community = 0;
  top_users.top_k = 5;
  if (auto response = engine.TopUsers(top_users); response.ok()) {
    std::printf("community 0 top users:");
    for (size_t i = 0; i < response->users.size(); ++i) {
      std::printf("  u%d (%.3f)", response->users[i], response->weights[i]);
    }
    std::printf("\n");
  }

  // 6. DiffusionRequest (Eq. 18): will user 1 diffuse user 2's document?
  if (graph.num_documents() > 0) {
    serve::DiffusionRequest diffusion;
    diffusion.source = 1;
    diffusion.target = graph.document(0).user;
    diffusion.document = 0;
    diffusion.time_bin = 0;
    if (auto response = engine.Diffusion(diffusion); response.ok()) {
      std::printf("p(user 1 diffuses doc 0) = %.4f\n", response->probability);
    }
  }

  // 7. Batched serving: a vector of mixed requests fanned out over a pool.
  //    Responses are positionally aligned; errors stay per-slot.
  std::vector<serve::QueryRequest> batch;
  for (UserId u = 0; u < 8; ++u) {
    serve::MembershipRequest request;
    request.user = u;
    batch.push_back(request);
  }
  batch.push_back(rank);
  ThreadPool pool(4);
  const auto responses = engine.QueryBatch(batch, &pool);
  size_t ok = 0;
  for (const auto& response : responses) ok += response.ok() ? 1 : 0;
  std::printf("\nbatch of %zu mixed queries over 4 threads: %zu ok\n",
              batch.size(), ok);

  // 8. Typed errors instead of crashes: out-of-range ids, unbound graph...
  serve::MembershipRequest bad;
  bad.user = static_cast<UserId>(index->num_users()) + 100;
  std::printf("out-of-range user -> %s\n",
              engine.Membership(bad).status().ToString().c_str());
  return 0;
}
