// train_cold: cold EmTrainer chains on the Twitter-like preset at ~1,600
// users, sparse sampler, pooled executor with 2 threads and 2 shards. One op
// is one timed EStep + MStep. A chain is Initialize, one untimed warm-up
// iteration (it builds the shard plan and executor), then a fixed number of
// timed iterations. Chains repeat until the window closes, rotating over
// three sampler seeds, and each must reproduce the earlier chain with its
// seed exactly (doc moves and final link log-likelihood; same shard count).
// After every iteration a read makes the current state queryable and
// answers the serving request mix in process (read_p50_ms / read_tail_ms).

#include <algorithm>
#include <memory>
#include <span>

#include "common.h"
#include "core/em_trainer.h"
#include "util/file_util.h"
#include "util/logging.h"

namespace perfbench {
namespace {

// Chains rotate over kChainSeeds sampler seeds, so the reported nmi averages
// that many independent chains; chain c must repeat chain c - kChainSeeds.
constexpr int kChainSeeds = 3;
// Recovery floor of the planted communities (the 40-sweep chains of the
// full-size run reach 0.35-0.55; a broken sampler stays near 0). Toy-size
// smoke chains are too short to recover much.
constexpr double kNmiFloor = 0.25;
constexpr double kSmokeNmiFloor = 0.05;
// A read turns the trainer's current state into a queryable index and
// answers one period of the request mix (inline QueryBatch), once after
// every timed iteration. Sub-microsecond queries timed alone read 10 or
// 16 us per period depending on the process (same seed, same binary), so a
// read covers the whole hand-off instead.
constexpr size_t kReadBatch = kMixPeriod;
// Untraced runs keep going past --seconds until they have timed six chains
// (two per sampler seed, so every seed's determinism is checked). The p90
// tail is the first few iterations of each chain; with three chains it
// spread by up to 24% across ten runs of the same code, so six are timed.
constexpr size_t kMinTimedOps = 240;

struct IterationTiming {
  double op_ms = 0.0;
  double e_ms = 0.0;
  double m_ms = 0.0;
  double cpu_ms = 0.0;
  double e_cpu_per_wall = 0.0;
  double shard_imbalance = 0.0;
};

/// Per-E-step sums of the trainer's own spans, in recording order.
struct EStepSpans {
  double capture_ms = 0.0, snapshot_ms = 0.0, sample_ms = 0.0, merge_ms = 0.0,
         augment_ms = 0.0;
  double Sum() const {
    return capture_ms + snapshot_ms + sample_ms + merge_ms + augment_ms;
  }
};

std::vector<EStepSpans> ParseTrainerSpans(const cpd::obs::TraceRecorder& trace) {
  auto json = cpd::Json::Parse(trace.ToJson());
  CPD_CHECK(json.ok());
  std::vector<EStepSpans> steps;
  const cpd::Json* events = json->Find("traceEvents");
  CPD_CHECK(events != nullptr);
  for (const cpd::Json& event : events->items()) {
    const cpd::Json* name = event.Find("name");
    const cpd::Json* dur = event.Find("dur");
    const cpd::Json* ph = event.Find("ph");
    if (name == nullptr || dur == nullptr || ph == nullptr ||
        ph->string_value() != "X") {
      continue;
    }
    const std::string& n = name->string_value();
    const double ms = dur->number() / 1e3;
    if (n == "capture_parameters") steps.emplace_back();  // E-step opens.
    if (steps.empty()) continue;
    EStepSpans& step = steps.back();
    if (n == "capture_parameters") step.capture_ms += ms;
    if (n == "snapshot") step.snapshot_ms += ms;
    if (n == "sample_shards") step.sample_ms += ms;
    if (n == "merge") step.merge_ms += ms;
    if (n == "augment") step.augment_ms += ms;
  }
  return steps;
}

}  // namespace

void RunTrainCold(const Options& options, Result* result, OpCounter* ops) {
  const int users = options.smoke ? 200 : 1600;
  const int chain_iterations = options.smoke ? 3 : 41;  // 1 warm-up + timed.
  // Five set-ups: at ~0.3 s each, a median of three still drifted by ~19%
  // between two sets of runs of the same code.
  const int setups = options.smoke ? 1 : 5;

  cpd::CpdConfig config;
  config.num_communities = 10;  // The preset's planted C*.
  config.num_topics = 12;
  config.em_iterations = chain_iterations;
  config.gibbs_sweeps_per_em = 1;
  config.sampler_mode = cpd::SamplerMode::kSparse;
  config.executor_mode = cpd::ExecutorMode::kPooled;
  config.num_threads = 2;
  config.num_shards = 2;
  const auto chain_config = [&](int chain, bool traced) {
    cpd::CpdConfig c = config;
    c.seed = SubSeed(options.seed, 2 + 1000 * static_cast<uint64_t>(chain % kChainSeeds));
    // A non-empty trace_out makes the trainer record its spans; chains run
    // EStep/MStep directly, so the file itself is never written.
    if (traced) c.trace_out = options.run_dir + "/train_trace.json";
    return c;
  };

  std::vector<double> setup_s;
  std::vector<double> initialize_ms;
  std::unique_ptr<cpd::SynthResult> data;
  std::unique_ptr<cpd::EmTrainer> trainer;
  const auto new_chain = [&](const cpd::CpdConfig& c) {
    trainer = std::make_unique<cpd::EmTrainer>(data->graph, c);
    const double t0 = NowSeconds();
    CPD_CHECK(trainer->Initialize().ok());
    initialize_ms.push_back((NowSeconds() - t0) * 1e3);
    CPD_CHECK(trainer->EStep().ok());  // Warm-up: builds plan + executor.
    trainer->MStep();
  };
  for (int s = 0; s < setups; ++s) {
    const double t0 = NowSeconds();
    trainer.reset();
    data = std::make_unique<cpd::SynthResult>(MakeTwitterData(options.seed, users));
    new_chain(chain_config(0, false));
    setup_s.push_back(NowSeconds() - t0);
  }
  const cpd::SocialGraph& graph = data->graph;
  const auto tokens = static_cast<double>(graph.corpus().total_tokens());

  const std::vector<cpd::serve::QueryRequest> reads =
      MixedRequests(graph, graph.num_users(), graph.vocabulary_size(),
                    config.num_communities, options.smoke ? 100 : 1000,
                    SubSeed(options.seed, 3));

  std::vector<IterationTiming> untraced;
  std::vector<IterationTiming> traced;
  std::vector<double> read_ms;
  std::vector<double> calib_ms;
  std::vector<double> span_gap_pct;
  std::vector<EStepSpans> spans;
  std::vector<double> artifact_write_ms;
  double artifact_bytes = 0.0;
  std::vector<size_t> chain_doc_moves;
  std::vector<double> chain_link_ll;
  std::vector<double> chain_nmi;  // Of the first kChainSeeds chains.
  double hit_ratio = 0.0;
  cpd::MhStats mh;
  int chains = 0;

  const double window_start = NowSeconds();
  const size_t min_ops = options.smoke || options.trace ? 0 : kMinTimedOps;
  while (chains == 0 || NowSeconds() - window_start < options.seconds ||
         untraced.size() < min_ops) {
    // Traced runs alternate untraced and traced chains so the overhead
    // comparison sees the same machine periods.
    const bool trace_chain = options.trace && chains % 2 == 1;
    if (chains > 0) new_chain(chain_config(chains, trace_chain));
    std::vector<IterationTiming>& timings = trace_chain ? traced : untraced;
    for (int iter = 1; iter < chain_iterations; ++iter) {
      IterationTiming t;
      // e_ms / m_ms are the trainer's own timers (TrainStats), so they
      // reconcile against the op time measured out here.
      const double e0 = trainer->stats().e_step_seconds;
      const double m0 = trainer->stats().m_step_seconds;
      const double cpu0 = ProcessCpuSeconds();
      const double t0 = NowSeconds();
      const bool ok = trainer->EStep().ok();
      const double t1 = NowSeconds();
      const double cpu1 = ProcessCpuSeconds();
      trainer->MStep();
      const double t2 = NowSeconds();
      t.cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
      t.op_ms = (t2 - t0) * 1e3;
      t.e_ms = (trainer->stats().e_step_seconds - e0) * 1e3;
      t.m_ms = (trainer->stats().m_step_seconds - m0) * 1e3;
      t.e_cpu_per_wall = (cpu1 - cpu0) / (t1 - t0);
      const auto& shard_s = trainer->stats().thread_actual_seconds;
      if (!shard_s.empty()) {
        double sum = 0.0;
        for (const double v : shard_s) sum += v;
        t.shard_imbalance = *std::max_element(shard_s.begin(), shard_s.end()) /
                            (sum / static_cast<double>(shard_s.size()));
      }
      ops->Record(ok);
      timings.push_back(t);

      // A read: the current state becomes queryable (model estimates, index
      // with its precomputed tables) and answers one period of the request
      // mix. Timed apart from the op, and spread over the whole window.
      const size_t begin =
          (static_cast<size_t>(iter) * kReadBatch) % reads.size();
      const double r0 = NowSeconds();
      const cpd::CpdModel snapshot =
          cpd::CpdModel::FromState(graph, config, trainer->state());
      const cpd::serve::ProfileIndex snapshot_index =
          cpd::serve::ProfileIndex::FromModel(snapshot);
      const cpd::serve::QueryEngine snapshot_engine(snapshot_index, &graph);
      const auto responses = snapshot_engine.QueryBatch(
          std::span<const cpd::serve::QueryRequest>(reads.data() + begin, kReadBatch));
      read_ms.push_back((NowSeconds() - r0) * 1e3);
      ops->Record(std::all_of(responses.begin(), responses.end(),
                              [](const auto& response) { return response.ok(); }));
    }

    // Determinism check: a chain repeats the earlier chain with its seed
    // exactly (doc moves and final link log-likelihood).
    const size_t doc_moves = trainer->stats().delta_doc_moves;
    const double link_ll = trainer->sampler()->LinkLogLikelihood();
    if (chains >= kChainSeeds) {
      const size_t earlier = static_cast<size_t>(chains - kChainSeeds);
      if (doc_moves != chain_doc_moves[earlier] || link_ll != chain_link_ll[earlier]) {
        ops->FailCheck();
      }
    }
    chain_doc_moves.push_back(doc_moves);
    chain_link_ll.push_back(link_ll);
    if (chains == 0) {
      const auto& s = trainer->stats();
      hit_ratio = static_cast<double>(s.eta_collapse_hits) /
                  std::max<double>(1.0, static_cast<double>(
                                            s.eta_collapse_hits + s.eta_collapse_misses));
      mh = trainer->sampler()->mh_stats();
    }

    if (trace_chain) {
      const std::vector<EStepSpans> chain_spans =
          ParseTrainerSpans(*trainer->trace_recorder());
      // Span group 0 is the warm-up E-step; groups 1.. match the timed ops.
      const size_t timed = static_cast<size_t>(chain_iterations - 1);
      CPD_CHECK(chain_spans.size() == timed + 1);
      for (size_t i = 0; i < timed; ++i) {
        const EStepSpans& step = chain_spans[i + 1];
        spans.push_back(step);
        span_gap_pct.push_back(
            GapPct(step.Sum(), traced[traced.size() - timed + i].e_ms));
      }
    }

    const cpd::CpdModel model =
        cpd::CpdModel::FromState(graph, config, trainer->state());
    const cpd::serve::ProfileIndex index = cpd::serve::ProfileIndex::FromModel(model);
    const cpd::serve::QueryEngine engine(index, &graph);
    if (chains < kChainSeeds) {
      chain_nmi.push_back(ArgmaxNmi(index, data->truth.user_community, graph.num_users()));
    }
    if (chains == 0 && options.trace) RecordInProcessLayers(engine, reads, 2, result);
    if (trace_chain) {
      const std::string path = options.run_dir + "/train_cold.cpdb";
      const double t0 = NowSeconds();
      CPD_CHECK(model.SaveBinary(path, &graph.corpus().vocabulary()).ok());
      artifact_write_ms.push_back((NowSeconds() - t0) * 1e3);
      auto bytes = cpd::ReadFileToString(path);
      CPD_CHECK(bytes.ok());
      artifact_bytes = static_cast<double>(bytes->size());
    }
    calib_ms.push_back(CalibrateMs(3));
    ++chains;
  }
  double nmi = 0.0;
  for (const double v : chain_nmi) nmi += v / static_cast<double>(chain_nmi.size());
  const double nmi_floor = options.smoke ? kSmokeNmiFloor : kNmiFloor;
  if (nmi < nmi_floor) ops->FailCheck();

  const auto column = [](const std::vector<IterationTiming>& rows,
                         double IterationTiming::*field) {
    std::vector<double> out;
    for (const IterationTiming& row : rows) out.push_back(row.*field);
    return out;
  };
  const int sweeps_per_chain = chain_iterations * config.gibbs_sweeps_per_em;
  const Summary op = Summarize(column(untraced, &IterationTiming::op_ms), kTailPercentile);
  const Summary read = Summarize(read_ms, kTailPercentile);
  double op_wall_ms = 0.0;
  double op_cpu_ms = 0.0;
  for (const IterationTiming& t : untraced) {
    op_wall_ms += t.op_ms;
    op_cpu_ms += t.cpu_ms;
  }

  result->Set("setup_s", Median(setup_s));
  result->Set("op_p50_ms", op.p50);
  result->Set("op_tail_ms", op.tail);
  result->Set("ops_per_s", static_cast<double>(untraced.size()) / (op_wall_ms / 1e3));
  result->Set("cpu_ms_per_op", op_cpu_ms / static_cast<double>(untraced.size()));
  result->Set("rss_peak_mb", PeakRssMb());
  result->Set("nmi", nmi);
  result->Set("read_p50_ms", read.p50);
  result->Set("read_tail_ms", read.tail);

  if (options.trace) {
    const std::vector<double> e_ms = column(traced, &IterationTiming::e_ms);
    std::vector<double> iteration_gap;
    for (const IterationTiming& t : traced) {
      iteration_gap.push_back(GapPct(t.e_ms + t.m_ms, t.op_ms));
    }
    const auto span_median = [&](double EStepSpans::*field) {
      std::vector<double> out;
      for (const EStepSpans& s : spans) out.push_back(s.*field);
      return Median(out);
    };
    const double traced_p50 = Median(column(traced, &IterationTiming::op_ms));
    result->Set("core.initialize_ms", Median(initialize_ms));
    result->Set("core.e_step_ms", Median(e_ms));
    result->Set("core.m_step_ms", Median(column(traced, &IterationTiming::m_ms)));
    result->Set("core.capture_parameters_ms", span_median(&EStepSpans::capture_ms));
    result->Set("core.snapshot_ms", span_median(&EStepSpans::snapshot_ms));
    result->Set("core.merge_ms", span_median(&EStepSpans::merge_ms));
    result->Set("core.doc_moves_per_sweep",
                static_cast<double>(chain_doc_moves[0]) / sweeps_per_chain);
    result->Set("core.tokens_per_s",
                tokens * config.gibbs_sweeps_per_em / (Median(e_ms) / 1e3));
    result->Set("core.eta_collapse_hit_ratio", hit_ratio);
    result->Set("core.artifact_write_ms", Median(artifact_write_ms));
    result->Set("core.artifact_bytes", artifact_bytes);
    result->Set("parallel.sample_shards_ms", span_median(&EStepSpans::sample_ms));
    result->Set("parallel.shard_imbalance",
                Median(column(traced, &IterationTiming::shard_imbalance)));
    result->Set("parallel.cpu_per_wall",
                Median(column(traced, &IterationTiming::e_cpu_per_wall)));
    result->Set("sampling.augment_ms", span_median(&EStepSpans::augment_ms));
    result->Set("sampling.mh_accept_topic", mh.TopicAcceptRate());
    result->Set("sampling.mh_accept_community", mh.CommunityAcceptRate());
    result->Set("machine.calib_ms", Median(calib_ms));
    result->Set("trace.op_p50_ms", traced_p50);
    result->Set("trace.overhead_pct", (traced_p50 / op.p50 - 1.0) * 100.0);
    result->Set("reconcile.iteration_gap_pct", Median(iteration_gap));
    result->Set("reconcile.e_step_spans_gap_pct", Median(span_gap_pct));
  }

  cpd::Json detail = cpd::Json::MakeObject();
  detail.Set("users", cpd::Json(static_cast<uint64_t>(graph.num_users())));
  detail.Set("tokens", cpd::Json(tokens));
  detail.Set("threads", cpd::Json(config.num_threads));
  detail.Set("shards", cpd::Json(config.num_shards));
  detail.Set("chains", cpd::Json(chains));
  detail.Set("timed_iterations_per_chain", cpd::Json(chain_iterations - 1));
  detail.Set("doc_moves_per_chain", cpd::Json(static_cast<uint64_t>(chain_doc_moves[0])));
  detail.Set("final_link_ll", cpd::Json(chain_link_ll[0]));
  detail.Set("nmi_chains", cpd::Json(static_cast<uint64_t>(chain_nmi.size())));
  detail.Set("nmi_floor", cpd::Json(nmi_floor));
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
