// ingest_publish: writes beside reads on the cpd_serve stack. An admin
// connection POSTs a fixed stream of SampleUpdateBatch batches (~5% new
// users each) to /admin/ingest one after another with cpd_serve's ingest
// defaults (warm_iters 2, ingest_threads 1, full-artifact swap) while one
// reader connection runs the serve_mixed request mix. One op is one batch,
// from submit until the new generation answers GET /v1/membership for the
// batch's newest user with 200: time to a fresh serving generation.
//
// A cycle streams kBatches batches; each cycle starts from the same cold
// model on a fresh stack, so the graph does not grow with the window length,
// and draws its own stream (seeded by the run seed and the cycle index), so
// the op median averages over many batches. After each cycle:
//   - every read must be byte-equal to the in-process answer of a
//     generation that was live while it was in flight;
//   - the last generation must answer membership for the newest users the
//     way the pipeline's own model does.

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_batch.h"
#include "server/http.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kBatches = 8;
// Untraced runs keep going past --seconds until the p90 tail has at least
// 10 samples beyond it with margin (see Summary).
constexpr size_t kMinTimedOps = 120;

struct Read {
  size_t request = 0;
  uint64_t gen_lo = 0;  ///< Generations acknowledged when sent ...
  uint64_t gen_hi = 0;  ///< ... and (+1, a swap may precede its ack) when answered.
  double us = 0.0;
  bool transport_ok = false;
  std::string body;
};

/// Inputs shared by every cycle.
struct Inputs {
  std::shared_ptr<const cpd::SynthResult> data;
  std::shared_ptr<const cpd::SocialGraph> graph;
  std::unique_ptr<cpd::CpdModel> cold_model;
  std::string cold_path;
  double cold_nmi = 0.0;  // Of the cold model over the base users.
  std::vector<cpd::serve::QueryRequest> reads;
  std::vector<std::string> read_bodies;
  std::vector<int> read_types;
};

cpd::ingest::IngestOptions PipelineOptions(const cpd::CpdModel& model,
                                           const std::string& artifact_base,
                                           uint64_t base_generation) {
  cpd::ingest::IngestOptions options;  // cpd_serve's ingest defaults.
  options.config = model.config();
  options.config.num_communities = model.num_communities();
  options.config.num_topics = model.num_topics();
  options.config.num_threads = 1;
  options.warm_iterations = 2;
  options.artifact_base = artifact_base;
  options.base_generation = base_generation;
  return options;
}

/// One cycle's batch stream, each batch drawn against the graph the
/// previous one produced (so new user ids chain).
struct Stream {
  std::vector<cpd::ingest::UpdateBatch> batches;
  std::vector<std::string> bodies;
};

Stream MakeStream(const cpd::SocialGraph& graph, int batches, uint64_t seed) {
  Stream stream;
  cpd::Rng rng(seed);
  cpd::SocialGraph base = graph;
  for (int k = 0; k < batches; ++k) {
    cpd::ingest::SampleUpdateOptions sample;
    sample.new_users = std::max<size_t>(2, graph.num_users() / 20);
    sample.docs_per_user = 4;
    sample.novel_words_per_doc = 1;
    sample.friends_per_user = 4;
    sample.diffusions = sample.new_users * 2;
    sample.time = base.num_time_bins() - 1;
    cpd::ingest::UpdateBatch batch = cpd::ingest::SampleUpdateBatch(base, sample, &rng);
    auto applied = cpd::ingest::ApplyUpdate(base, batch);
    CPD_CHECK(applied.ok());
    base = std::move(applied->graph);
    stream.bodies.push_back(cpd::ingest::UpdateBatchToJson(batch).Dump());
    stream.batches.push_back(std::move(batch));
  }
  return stream;
}

/// One cycle's stack: registry on the cold artifact, a fresh pipeline, and
/// the HTTP front end wired to both.
struct Cycle {
  std::string artifact_base;
  Stream stream;
  std::unique_ptr<cpd::ingest::IngestPipeline> pipeline;
  ServeStack stack;
};

std::unique_ptr<Cycle> StartCycle(const Inputs& inputs,
                                  const std::string& artifact_base, Stream stream) {
  auto cycle = std::make_unique<Cycle>();
  cycle->artifact_base = artifact_base;
  cycle->stream = std::move(stream);
  cycle->stack.registry = std::make_unique<cpd::server::ModelRegistry>(
      cpd::serve::ProfileIndexOptions{}, inputs.graph);
  CPD_CHECK(cycle->stack.registry->LoadFrom(inputs.cold_path).ok());
  auto pipeline = cpd::ingest::IngestPipeline::Create(
      inputs.graph, *inputs.cold_model,
      PipelineOptions(*inputs.cold_model, artifact_base,
                      cycle->stack.registry->Snapshot()->index.artifact_generation()));
  CPD_CHECK(pipeline.ok());
  cycle->pipeline = std::move(*pipeline);
  cycle->stack.Start(cycle->pipeline.get());
  return cycle;
}

/// Set-up `instance`'s inputs: each instance draws its own dataset and cold
/// model from the run seed, so the nmi averaged over them spans independent
/// datasets and chains.
Inputs MakeInputs(const Options& options, uint64_t instance) {
  Inputs inputs;
  const uint64_t seed = SubSeed(options.seed, 10 + instance);
  const int users = options.smoke ? 120 : 400;
  auto data = std::make_shared<const cpd::SynthResult>(MakeTwitterData(seed, users));
  inputs.data = data;
  inputs.graph = std::shared_ptr<const cpd::SocialGraph>(data, &data->graph);
  cpd::CpdConfig config;
  config.num_communities = 10;
  config.num_topics = 12;
  config.em_iterations = options.smoke ? 3 : 30;
  config.seed = SubSeed(seed, 7);
  auto model = cpd::CpdModel::Train(*inputs.graph, config);
  CPD_CHECK(model.ok());
  inputs.cold_model = std::make_unique<cpd::CpdModel>(std::move(*model));
  inputs.cold_path = options.run_dir + "/ingest_cold.cpdb";
  inputs.cold_nmi = ArgmaxNmi(cpd::serve::ProfileIndex::FromModel(*inputs.cold_model),
                              data->truth.user_community, inputs.graph->num_users());
  CPD_CHECK(inputs.cold_model
                ->SaveBinary(inputs.cold_path, &inputs.graph->corpus().vocabulary())
                .ok());

  // Reads touch only base users, words and documents: valid on every
  // generation of the stream.
  inputs.reads = MixedRequests(*inputs.graph, inputs.graph->num_users(),
                               inputs.graph->vocabulary_size(),
                               config.num_communities, 2048, SubSeed(seed, 9));
  for (const cpd::serve::QueryRequest& request : inputs.reads) {
    inputs.read_bodies.push_back(cpd::server::QueryRequestToJson(request).Dump());
    inputs.read_types.push_back(TypeOf(request));
  }
  return inputs;
}

/// In-process reference of one served generation.
struct Generation {
  std::shared_ptr<const cpd::SocialGraph> graph;
  std::unique_ptr<cpd::serve::ProfileIndex> index;
  std::unique_ptr<cpd::serve::QueryEngine> engine;
  std::map<size_t, std::string> answers;  // Request index -> reference body.

  Generation(std::shared_ptr<const cpd::SocialGraph> g, const std::string& path)
      : graph(std::move(g)) {
    auto loaded = cpd::serve::ProfileIndex::LoadFromFile(path);
    CPD_CHECK(loaded.ok());
    index = std::make_unique<cpd::serve::ProfileIndex>(std::move(*loaded));
    engine = std::make_unique<cpd::serve::QueryEngine>(*index, graph.get());
  }
  const std::string& Answer(size_t i, const cpd::serve::QueryRequest& request) {
    auto it = answers.find(i);
    if (it == answers.end()) it = answers.emplace(i, ReferenceBody(*engine, request)).first;
    return it->second;
  }
};

struct CycleOutcome {
  std::vector<double> op_ms;
  std::vector<double> read_us;
  std::array<std::vector<double>, 4> read_type_us;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double nmi = 0.0;
};

CycleOutcome RunCycle(const Inputs& inputs, Cycle* cycle, OpCounter* ops) {
  const int port = cycle->stack.port();
  std::atomic<uint64_t> acknowledged{0};
  std::atomic<bool> stop{false};
  std::vector<Read> reads;
  std::thread reader([&] {
    auto client = cpd::server::HttpClient::Connect("127.0.0.1", port);
    size_t i = 0;
    while (client.ok() && !stop.load(std::memory_order_relaxed)) {
      Read read;
      read.request = i++ % inputs.reads.size();
      read.gen_lo = acknowledged.load();
      const double t0 = NowSeconds();
      auto response = client->RoundTrip("POST", "/v1/query",
                                        inputs.read_bodies[read.request]);
      read.us = (NowSeconds() - t0) * 1e6;
      read.gen_hi = acknowledged.load() + 1;
      read.transport_ok = response.ok() && response->status == 200;
      if (response.ok()) read.body = std::move(response->body);
      reads.push_back(std::move(read));
    }
  });

  CycleOutcome outcome;
  std::vector<std::shared_ptr<const cpd::SocialGraph>> graphs = {inputs.graph};
  std::vector<std::string> membership_bodies;
  auto admin = cpd::server::HttpClient::Connect("127.0.0.1", port);
  CPD_CHECK(admin.ok());
  const double cpu0 = ProcessCpuSeconds();
  const double start = NowSeconds();
  for (size_t k = 0; k < cycle->stream.batches.size(); ++k) {
    const std::string newest =
        "/v1/membership/" + std::to_string(cycle->stream.batches[k].num_users - 1);
    const double t0 = NowSeconds();
    auto ingested = admin->RoundTrip("POST", "/admin/ingest", cycle->stream.bodies[k]);
    bool ok = ingested.ok() && ingested->status == 200;
    auto fresh = admin->RoundTrip("GET", newest);
    ok = ok && fresh.ok() && fresh->status == 200;
    outcome.op_ms.push_back((NowSeconds() - t0) * 1e3);
    acknowledged.store(k + 1);
    graphs.push_back(cycle->pipeline->graph());
    membership_bodies.push_back(fresh.ok() ? fresh->body : "");
    ops->Record(ok);
  }
  outcome.wall_s = NowSeconds() - start;
  outcome.cpu_s = ProcessCpuSeconds() - cpu0;
  stop.store(true);
  reader.join();

  // Reference engines per generation: 0 is the cold artifact.
  std::vector<std::unique_ptr<Generation>> generations;
  generations.push_back(std::make_unique<Generation>(graphs[0], inputs.cold_path));
  for (size_t g = 1; g < graphs.size(); ++g) {
    generations.push_back(std::make_unique<Generation>(
        graphs[g], cycle->artifact_base + ".g" + std::to_string(g) + ".cpdb"));
  }
  for (const Read& read : reads) {
    bool ok = read.transport_ok;
    if (ok) {
      ok = false;
      const uint64_t hi = std::min<uint64_t>(read.gen_hi, generations.size() - 1);
      for (uint64_t g = read.gen_lo; g <= hi && !ok; ++g) {
        ok = read.body ==
             generations[g]->Answer(read.request, inputs.reads[read.request]);
      }
    }
    ops->Record(ok);
    if (!ok) continue;
    outcome.read_us.push_back(read.us);
    outcome.read_type_us[static_cast<size_t>(inputs.read_types[read.request])]
        .push_back(read.us);
  }
  // Each op's membership answer came from the generation it published.
  for (size_t k = 0; k < membership_bodies.size(); ++k) {
    cpd::serve::MembershipRequest newest;
    newest.user = static_cast<cpd::UserId>(cycle->stream.batches[k].num_users - 1);
    if (membership_bodies[k] != ReferenceBody(*generations[k + 1]->engine, newest)) {
      ops->FailCheck();
    }
  }
  // The last generation answers for every new user of the last batch the
  // way the pipeline's model does.
  const auto model = cycle->pipeline->model();
  const cpd::serve::ProfileIndex live = cpd::serve::ProfileIndex::FromModel(*model);
  const cpd::serve::QueryEngine live_engine(live);
  const std::vector<cpd::ingest::UpdateBatch>& batches = cycle->stream.batches;
  const cpd::ingest::UpdateBatch& last = batches.back();
  const size_t first_new = batches.size() > 1 ? batches[batches.size() - 2].num_users
                                              : inputs.graph->num_users();
  for (size_t u = first_new; u < last.num_users; ++u) {
    auto served = admin->RoundTrip("GET", "/v1/membership/" + std::to_string(u));
    cpd::serve::MembershipRequest request;
    request.user = static_cast<cpd::UserId>(u);
    if (!served.ok() || served->status != 200 ||
        served->body != ReferenceBody(live_engine, request)) {
      ops->FailCheck();
    }
  }
  outcome.nmi = ArgmaxNmi(live, inputs.data->truth.user_community,
                          inputs.graph->num_users());
  return outcome;
}

/// Traced-run replay of the batch stream through an in-process pipeline:
/// the per-stage split of IngestResult and the registry swap per batch.
struct ReplayLayers {
  std::vector<double> apply_ms, warm_ms, save_ms, swap_ms, touched_tokens,
      artifact_bytes;
};

void Replay(const Inputs& inputs, const Stream& stream,
            const std::string& artifact_base, ReplayLayers* layers) {
  cpd::server::ModelRegistry registry(cpd::serve::ProfileIndexOptions{}, inputs.graph);
  CPD_CHECK(registry.LoadFrom(inputs.cold_path).ok());
  auto pipeline = cpd::ingest::IngestPipeline::Create(
      inputs.graph, *inputs.cold_model,
      PipelineOptions(*inputs.cold_model, artifact_base,
                      registry.Snapshot()->index.artifact_generation()));
  CPD_CHECK(pipeline.ok());
  for (const cpd::ingest::UpdateBatch& batch : stream.batches) {
    auto result = (*pipeline)->Ingest(batch);
    CPD_CHECK(result.ok());
    registry.SetGraph((*pipeline)->graph());
    const double t0 = NowSeconds();
    CPD_CHECK(registry.LoadFrom(result->artifact_path).ok());
    layers->swap_ms.push_back((NowSeconds() - t0) * 1e3);
    layers->apply_ms.push_back(result->apply_seconds * 1e3);
    layers->warm_ms.push_back(result->warm_seconds * 1e3);
    layers->save_ms.push_back(result->save_seconds * 1e3);
    layers->touched_tokens.push_back(static_cast<double>(result->touched_tokens));
    layers->artifact_bytes.push_back(static_cast<double>(result->artifact_bytes));
  }
}

void RemoveArtifacts(const std::string& artifact_base, size_t batches) {
  for (size_t g = 1; g <= batches; ++g) {
    std::filesystem::remove(artifact_base + ".g" + std::to_string(g) + ".cpdb");
  }
}

}  // namespace

void RunIngestPublish(const Options& options, Result* result, OpCounter* ops) {
  const int setups = options.smoke ? 1 : 3;
  std::vector<double> setup_s;
  double nmi = 0.0;  // Mean over the set-up instances' cold models.
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Cycle> cycle;
  int cycles = 0;
  const int batches = options.smoke ? 2 : kBatches;
  const auto cycle_base = [&] {
    return options.run_dir + "/ingest_c" + std::to_string(cycles);
  };
  const auto next_cycle = [&] {
    return StartCycle(*inputs, cycle_base(),
                      MakeStream(*inputs->graph, batches,
                                 SubSeed(options.seed, 100 + static_cast<uint64_t>(cycles))));
  };
  for (int s = 0; s < setups; ++s) {
    cycle.reset();
    const double t0 = NowSeconds();
    inputs = std::make_unique<Inputs>(MakeInputs(options, static_cast<uint64_t>(s)));
    nmi += inputs->cold_nmi / setups;
    cycle = next_cycle();
    // Warm-up reads: connections, page cache, allocator.
    std::vector<std::string> expected;
    for (const auto& request : inputs->reads) {
      expected.push_back(
          ReferenceBody(*cycle->stack.registry->Snapshot()->engine, request));
    }
    RunClosedLoop(cycle->stack.port(), inputs->read_bodies, expected,
                  inputs->read_types, 1, options.smoke ? 0.1 : 0.2);
    setup_s.push_back(NowSeconds() - t0);
  }

  std::vector<double> op_ms, traced_op_ms, read_us, calib_ms;
  // Warm starts must keep the base users' communities: the first cycle's
  // last generation may lose at most this much NMI against the cold model.
  constexpr double kMaxNmiLoss = 0.1;
  std::array<std::vector<double>, 4> read_type_us;
  double wall_s = 0.0, cpu_s = 0.0;
  ReplayLayers replay;
  std::string scrape_before, scrape_after;
  StageP50s stages;
  const double window_start = NowSeconds();
  const size_t min_ops = options.smoke || options.trace ? 0 : kMinTimedOps;
  while (cycles == 0 || NowSeconds() - window_start < options.seconds ||
         op_ms.size() < min_ops) {
    // Traced runs alternate untraced and traced cycles (overhead).
    const bool traced = options.trace && cycles % 2 == 1;
    if (cycles > 0) cycle = next_cycle();
    if (traced) scrape_before = ScrapeMetricsz(cycle->stack.port());
    CycleOutcome outcome = RunCycle(*inputs, cycle.get(), ops);
    if (traced) {
      scrape_after = ScrapeMetricsz(cycle->stack.port());
      stages = StagesFromScrapes(scrape_before, scrape_after);
      traced_op_ms.insert(traced_op_ms.end(), outcome.op_ms.begin(),
                          outcome.op_ms.end());
      for (size_t t = 0; t < 4; ++t) {
        read_type_us[t].insert(read_type_us[t].end(), outcome.read_type_us[t].begin(),
                               outcome.read_type_us[t].end());
      }
    } else {
      op_ms.insert(op_ms.end(), outcome.op_ms.begin(), outcome.op_ms.end());
      read_us.insert(read_us.end(), outcome.read_us.begin(), outcome.read_us.end());
      wall_s += outcome.wall_s;
      cpu_s += outcome.cpu_s;
    }
    if (cycles == 0 && outcome.nmi < inputs->cold_nmi - kMaxNmiLoss) ops->FailCheck();
    const std::string base = cycle->artifact_base;
    const Stream stream = std::move(cycle->stream);
    cycle.reset();
    RemoveArtifacts(base, stream.batches.size());
    if (traced) {
      Replay(*inputs, stream, base + "_replay", &replay);
      RemoveArtifacts(base + "_replay", stream.batches.size());
    }
    calib_ms.push_back(CalibrateMs(3));
    ++cycles;
  }

  std::vector<double> read_ms;
  for (const double us : read_us) read_ms.push_back(us / 1e3);
  const Summary op = Summarize(op_ms, kTailPercentile);
  const Summary read = Summarize(read_ms, kTailPercentile);
  result->Set("setup_s", Median(setup_s));
  result->Set("op_p50_ms", op.p50);
  result->Set("op_tail_ms", op.tail);
  result->Set("ops_per_s", static_cast<double>(op.count) / wall_s);
  result->Set("cpu_ms_per_op", cpu_s * 1e3 / static_cast<double>(op.count));
  result->Set("rss_peak_mb", PeakRssMb());
  result->Set("nmi", nmi);
  result->Set("read_p50_ms", read.p50);
  result->Set("read_tail_ms", read.tail);

  if (options.trace) {
    // Reads through the server during the traced cycles.
    std::vector<double> traced_reads;
    for (size_t t = 0; t < 4; ++t) {
      traced_reads.insert(traced_reads.end(), read_type_us[t].begin(),
                          read_type_us[t].end());
      if (read_type_us[t].empty()) continue;
      result->Set(std::string("server.client_") + kTypeNames[t] + "_p50_us",
                  Median(read_type_us[t]));
    }
    cycle = StartCycle(*inputs, cycle_base(), Stream{});
    const int port = cycle->stack.port();
    const std::string health_before = ScrapeMetricsz(port);
    const double healthz_us = HealthzP50Us(port, 2000);
    const std::string health_after = ScrapeMetricsz(port);
    RecordServerLayers(stages, Median(traced_reads), healthz_us,
                       StagesFromScrapes(health_before, health_after), result);
    RecordInProcessLayers(*cycle->stack.registry->Snapshot()->engine,
                          std::vector<cpd::serve::QueryRequest>(
                              inputs->reads.begin(), inputs->reads.begin() + 512),
                          3, result);
    cycle.reset();
    result->Set("ingest.apply_ms", Median(replay.apply_ms));
    result->Set("ingest.warm_ms", Median(replay.warm_ms));
    result->Set("ingest.save_ms", Median(replay.save_ms));
    result->Set("ingest.touched_tokens", Median(replay.touched_tokens));
    result->Set("core.artifact_write_ms", Median(replay.save_ms));
    result->Set("core.artifact_bytes", Median(replay.artifact_bytes));
    result->Set("server.registry_swap_ms", Median(replay.swap_ms));
    result->Set("machine.calib_ms", Median(calib_ms));
    const double traced_p50 = Median(traced_op_ms);
    result->Set("trace.op_p50_ms", traced_p50);
    result->Set("trace.overhead_pct", (traced_p50 / op.p50 - 1.0) * 100.0);
  }

  cpd::Json detail = cpd::Json::MakeObject();
  detail.Set("batches_per_cycle", cpd::Json(batches));
  detail.Set("new_users_per_batch",
             cpd::Json(static_cast<uint64_t>(std::max<size_t>(2, inputs->graph->num_users() / 20))));
  detail.Set("cycles", cpd::Json(cycles));
  detail.Set("ingest_threads", cpd::Json(1));
  detail.Set("server_threads", cpd::Json(2));
  detail.Set("op_samples", cpd::Json(static_cast<uint64_t>(op.count)));
  detail.Set("op_tail_percentile", cpd::Json(op.tail_percentile));
  detail.Set("op_tail_beyond", cpd::Json(static_cast<uint64_t>(op.beyond)));
  detail.Set("read_samples", cpd::Json(static_cast<uint64_t>(read.count)));
  detail.Set("read_tail_percentile", cpd::Json(read.tail_percentile));
  detail.Set("read_tail_beyond", cpd::Json(static_cast<uint64_t>(read.beyond)));
  detail.Set("calib_ms", cpd::Json(Median(calib_ms)));
  result->SetDetail("workload", std::move(detail));
}

}  // namespace perfbench
