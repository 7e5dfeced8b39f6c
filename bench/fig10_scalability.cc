// Reproduces Figure 10 (scalability, §6.4):
//   (a) per-E-step training time vs dataset fraction p in {0.1..1.0} for the
//       serial and the parallel implementation — the paper's claim is
//       *linearity* in data size, which we verify with an R^2 fit;
//   (b) parallel speedup over serial vs number of CPU cores {2,4,6,8}.
// DBLP's speedup exceeds Twitter's because its users have lower topic
// diversity, giving cleaner LDA segments (§6.4) — the presets plant that.

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/em_trainer.h"
#include "graph/graph_builder.h"
#include "util/math_util.h"
#include "util/timer.h"

namespace cpd::bench {
namespace {

// Subsamples p of the documents (with their diffusion links) and p of the
// friendship links.
SocialGraph Subsample(const SocialGraph& graph, double p, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder;
  builder.SetNumUsers(graph.num_users());
  builder.SetVocabulary(graph.corpus().vocabulary());
  std::vector<DocId> remap(graph.num_documents(), Corpus::kInvalidDoc);
  for (size_t d = 0; d < graph.num_documents(); ++d) {
    if (!rng.NextBernoulli(p)) continue;
    const Document& doc = graph.document(static_cast<DocId>(d));
    remap[d] = builder.AddTokenizedDocument(doc.user, doc.time, doc.words);
  }
  for (const FriendshipLink& link : graph.friendship_links()) {
    if (rng.NextBernoulli(p)) builder.AddFriendship(link.u, link.v);
  }
  for (const DiffusionLink& link : graph.diffusion_links()) {
    const DocId i = remap[static_cast<size_t>(link.i)];
    const DocId j = remap[static_cast<size_t>(link.j)];
    if (i == Corpus::kInvalidDoc || j == Corpus::kInvalidDoc) continue;
    builder.AddDiffusion(i, j, link.time);
  }
  auto built = builder.Build(/*drop_isolated_users=*/true);
  CPD_CHECK(built.ok());
  return std::move(*built);
}

// Seconds for one E-step at the given thread count and sampler backend
// (default = the library default, the sparse alias+MH path).
double TimeEStep(const SocialGraph& graph, const BenchScale& scale,
                 int num_threads,
                 SamplerMode sampler_mode = SamplerMode::kSparse) {
  CpdConfig config = BaseCpdConfig(scale);
  config.num_communities = scale.community_sweep[1];
  config.gibbs_sweeps_per_em = 1;
  config.num_threads = num_threads;
  config.sampler_mode = sampler_mode;
  EmTrainer trainer(graph, config);
  CPD_CHECK(trainer.Initialize().ok());
  CPD_CHECK(trainer.EStep().ok());  // Warm-up (builds the thread plan).
  WallTimer timer;
  CPD_CHECK(trainer.EStep().ok());
  CPD_CHECK(trainer.EStep().ok());
  return timer.ElapsedSeconds() / 2.0;
}

void PanelA(const BenchDataset& dataset, const BenchScale& scale) {
  // The per-fraction dense column was retired with the kSparse default:
  // dense is the exact-reference mode and is timed once per dataset in
  // PanelSamplerMode, not re-run at every subsample fraction.
  TableWriter table("Fig 10(a): E-step seconds vs dataset fraction - " +
                    dataset.name);
  table.SetHeader({"fraction", "serial (s)", "parallel (s)"});
  std::vector<double> fractions, serial_times;
  const int cores =
      std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
  for (double p = 0.2; p <= 1.0001; p += 0.2) {
    const SocialGraph sub = Subsample(dataset.data.graph, p, 1010);
    const double serial = TimeEStep(sub, scale, 1);
    const double parallel = TimeEStep(sub, scale, cores);
    table.AddRow(FormatDouble(p, 1), {serial, parallel}, 4);
    fractions.push_back(p);
    serial_times.push_back(serial);
  }
  table.Print();
  const LinearFit fit = FitLine(fractions, serial_times);
  std::printf("Linearity check (paper: time is linear in data size): "
              "serial time = %.4f * p + %.4f, R^2 = %.4f\n\n",
              fit.slope, fit.intercept, fit.r_squared);
}

// Not in the paper: E-step seconds for the dense vs the sparse (alias + MH)
// backend as the community count grows — the axis on which the sparse
// sampler is designed to win (amortized O(k_d + nnz) per document).
void PanelSamplerMode(const BenchDataset& dataset, const BenchScale& scale) {
  TableWriter table("Fig 10(+): E-step seconds, dense vs sparse backend - " +
                    dataset.name);
  table.SetHeader({"|C|", "dense (s)", "sparse (s)", "speedup"});
  for (int communities : scale.community_sweep) {
    BenchScale point = scale;
    point.community_sweep = {communities, communities};
    const double dense =
        TimeEStep(dataset.data.graph, point, 1, SamplerMode::kDense);
    const double sparse =
        TimeEStep(dataset.data.graph, point, 1, SamplerMode::kSparse);
    table.AddRow(std::to_string(communities), {dense, sparse, dense / sparse},
                 4);
  }
  table.Print();
  std::printf("Sparse backend target: >= 2x dense throughput at large "
              "|C|/|Z|.\n\n");
}

void PanelB(const BenchDataset& dataset, const BenchScale& scale) {
  TableWriter table("Fig 10(b): parallel speedup vs #cores - " + dataset.name);
  table.SetHeader({"#cores", "speedup over serial"});
  const double serial = TimeEStep(dataset.data.graph, scale, 1);
  const unsigned hardware = std::max(2u, std::thread::hardware_concurrency());
  for (int cores = 2; cores <= 8 && cores <= static_cast<int>(hardware);
       cores += 2) {
    const double parallel = TimeEStep(dataset.data.graph, scale, cores);
    table.AddRow(std::to_string(cores), {serial / parallel}, 2);
  }
  table.Print();
  std::printf("Paper shape: speedup grows with cores; DBLP > Twitter (lower "
              "per-user topic diversity -> cleaner segments, §6.4).\n\n");
}

void Run() {
  const BenchScale scale = BenchScale::FromEnv();
  for (const BenchDataset* dataset :
       {&TwitterDataset(scale), &DblpDataset(scale)}) {
    PrintBenchHeader("Figure 10: scalability", scale, *dataset);
    PanelA(*dataset, scale);
    PanelB(*dataset, scale);
    PanelSamplerMode(*dataset, scale);
  }
}

}  // namespace
}  // namespace cpd::bench

int main() {
  cpd::bench::Run();
  return 0;
}
