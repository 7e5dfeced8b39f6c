// Quickstart: build a small social graph by hand, train CPD, and read out
// the three things the paper defines (§3): community memberships pi_u,
// content profiles theta_c, and diffusion profiles eta_{c,c',z}.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "core/cpd_model.h"
#include "graph/graph_builder.h"
#include "synth/generator.h"
#include "util/math_util.h"

using namespace cpd;

int main() {
  // 1. Get a social graph G = (U, D, F, E). Here we use the built-in
  //    generator; GraphBuilder::AddDocument / AddFriendship / AddDiffusion
  //    or LoadSocialGraph (graph/graph_io.h) ingest real data.
  SynthConfig synth;
  synth.num_users = 150;
  synth.num_communities = 5;
  synth.num_topics = 8;
  synth.seed = 42;
  auto generated = GenerateSocialGraph(synth);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const SocialGraph& graph = generated->graph;
  std::printf("graph: %zu users, %zu docs, %zu friendship links, %zu diffusion "
              "links\n\n",
              graph.num_users(), graph.num_documents(),
              graph.num_friendship_links(), graph.num_diffusion_links());

  // 2. Train the joint community profiling + detection model (Alg. 1).
  CpdConfig config;
  config.num_communities = 5;
  config.num_topics = 8;
  config.em_iterations = 12;
  config.verbose = false;
  auto model = CpdModel::Train(graph, config);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n", model.status().ToString().c_str());
    return 1;
  }

  // 3. Community membership of a user (Definition 3).
  const UserId user = 0;
  std::printf("pi_%d (community membership of user %d):\n  ", user, user);
  for (double p : model->Membership(user)) std::printf("%.3f ", p);
  std::printf("\n\n");

  // 4. Content profile of each community (Definition 4) with top words.
  const Vocabulary& vocab = graph.corpus().vocabulary();
  for (int c = 0; c < model->num_communities(); ++c) {
    const auto& theta = model->ContentProfile(c);
    const int top_topic = static_cast<int>(ArgMax(theta));
    const auto& phi = model->TopicWords(top_topic);
    std::printf("community c%d: top topic T%d (theta=%.2f), words:", c, top_topic,
                theta[static_cast<size_t>(top_topic)]);
    for (size_t w : TopKIndices(phi, 4)) {
      std::printf(" %s", vocab.WordOf(static_cast<WordId>(w)).c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");

  // 5. Diffusion profile (Definition 5): who diffuses whom, on what.
  std::printf("topic-aggregated diffusion strengths (eta, row = diffusing "
              "community):\n");
  for (int c = 0; c < model->num_communities(); ++c) {
    std::printf("  c%d:", c);
    for (int c2 = 0; c2 < model->num_communities(); ++c2) {
      std::printf(" %.3f", model->EtaAggregated(c, c2));
    }
    std::printf("\n");
  }

  // 6. Persist for later application use.
  if (model->SaveBinary("quickstart_model.cpdb").ok()) {
    std::printf("\nmodel saved to quickstart_model.cpdb\n");
  }
  return 0;
}
