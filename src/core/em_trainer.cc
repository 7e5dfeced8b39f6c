#include "core/em_trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/logistic_fit.h"
#include "sampling/distributions.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cpd {

namespace {

/// Logical trace row of the trainer's spans.
constexpr int kTrainerTid = 0;

}  // namespace

EmTrainer::EmTrainer(const SocialGraph& graph, const CpdConfig& config)
    : graph_(graph), config_(config), rng_(config.seed) {
  if (!config_.trace_out.empty()) {
    trace_ = std::make_unique<obs::TraceRecorder>();
    trace_->SetThreadName(kTrainerTid, "trainer");
  }
}

void EmTrainer::FlushTrace() {
  if (trace_ == nullptr) return;
  const Status written = trace_->WriteFile(config_.trace_out);
  if (!written.ok()) {
    CPD_LOG(Warning) << "trace_out not written: " << written.message();
  } else {
    CPD_LOG(Info) << "wrote " << trace_->num_events() << " trace events to "
                  << config_.trace_out;
  }
}

Status EmTrainer::Initialize() {
  CPD_RETURN_IF_ERROR(config_.Validate());
  if (graph_.num_documents() == 0) {
    return Status::FailedPrecondition("CPD: graph has no documents");
  }
  caches_ = std::make_unique<LinkCaches>(graph_);
  state_ = std::make_unique<ModelState>(graph_, config_);
  state_->InitializeRandom(graph_, &rng_,
                           /*per_user_communities=*/!config_.ablation.joint_profiling);
  state_->RebuildCounts(graph_);
  state_->popularity.Refresh(graph_, state_->doc_topic);
  sampler_ = std::make_unique<GibbsSampler>(graph_, config_, *caches_, state_.get());
  initialized_ = true;
  return Status::OK();
}

StatusOr<ThreadPlan> EmTrainer::BuildPlan() {
  WorkloadCostModel cost;
  const int num_shards = config_.ResolvedNumShards();
  if (num_shards == 1) {
    // One shard reproduces sequential collapsed Gibbs (exactly, when the
    // collapse memo is off or the backend is dense); skip the LDA
    // segmentation pre-pass entirely.
    return TrivialThreadPlan(graph_, cost);
  }
  // Segment count = |Z| as in §4.3 (at least one segment per shard).
  const int num_segments = std::max(config_.num_topics, num_shards);
  return PlanThreads(graph_, num_segments, num_shards, cost,
                     /*lda_iterations=*/15, config_.seed + 101);
}

Status EmTrainer::EnsureExecutor() {
  if (executor_ != nullptr) return Status::OK();
  auto plan = BuildPlan();
  if (!plan.ok()) return plan.status();
  stats_.num_segments = plan->num_segments;
  stats_.thread_estimated_workload = plan->allocation.thread_workload;
  executor_ = MakeShardExecutor(graph_, config_, *caches_, std::move(*plan));
  return Status::OK();
}

Status EmTrainer::WarmStart(const WarmStartOptions& options) {
  WallTimer total_timer;
  CPD_RETURN_IF_ERROR(config_.Validate());
  if (graph_.num_documents() == 0) {
    return Status::FailedPrecondition("CPD: graph has no documents");
  }
  const size_t num_docs = graph_.num_documents();
  const size_t num_prev = options.prev_doc_topic.size();
  if (options.prev_doc_community.size() != num_prev) {
    return Status::InvalidArgument(
        "warm start: prev_doc_topic and prev_doc_community sizes differ");
  }
  if (num_prev > num_docs) {
    return Status::InvalidArgument(
        "warm start: more previous assignments than documents (base DocIds "
        "must be append-stable)");
  }
  if (options.warm_iterations < 1) {
    return Status::InvalidArgument("warm start: warm_iterations < 1");
  }
  for (size_t d = 0; d < num_prev; ++d) {
    if (options.prev_doc_topic[d] < 0 ||
        options.prev_doc_topic[d] >= config_.num_topics ||
        options.prev_doc_community[d] < 0 ||
        options.prev_doc_community[d] >= config_.num_communities) {
      return Status::InvalidArgument(
          "warm start: previous assignment out of range (did |C| or |Z| "
          "change between runs?)");
    }
  }
  for (const UserId u : options.touched_users) {
    if (u < 0 || static_cast<size_t>(u) >= graph_.num_users()) {
      return Status::OutOfRange("warm start: touched user out of range");
    }
  }

  caches_ = std::make_unique<LinkCaches>(graph_);
  state_ = std::make_unique<ModelState>(graph_, config_);
  ModelState& s = *state_;
  if (!options.prev_eta.empty()) {
    if (options.prev_eta.size() != s.eta.size()) {
      return Status::InvalidArgument("warm start: prev_eta shape mismatch");
    }
    std::copy(options.prev_eta.begin(), options.prev_eta.end(),
              s.eta.begin());
  }
  if (!options.prev_weights.empty()) {
    if (options.prev_weights.size() != s.weights.size()) {
      return Status::InvalidArgument(
          "warm start: prev_weights shape mismatch");
    }
    std::copy(options.prev_weights.begin(), options.prev_weights.end(),
              s.weights.begin());
  }

  // Restore previous assignments and their counter contributions; the
  // counters advance document by document so the prior-proposal draws for
  // new rows below condition on everything already placed.
  const auto add_doc_counts = [&](size_t d) {
    const Document& doc = graph_.document(static_cast<DocId>(d));
    const auto z = static_cast<size_t>(s.doc_topic[d]);
    const auto c = static_cast<size_t>(s.doc_community[d]);
    ++s.n_uc[static_cast<size_t>(doc.user) *
                 static_cast<size_t>(s.num_communities) +
             c];
    ++s.n_u[static_cast<size_t>(doc.user)];
    ++s.n_cz[c * static_cast<size_t>(s.num_topics) + z];
    ++s.n_c[c];
    for (const WordId w : doc.words) {
      ++s.n_zw[z * s.vocab_size + static_cast<size_t>(w)];
    }
    s.n_z[z] += static_cast<int64_t>(doc.words.size());
  };
  for (size_t d = 0; d < num_prev; ++d) {
    s.doc_topic[d] = options.prev_doc_topic[d];
    s.doc_community[d] = options.prev_doc_community[d];
    add_doc_counts(d);
  }

  // Sparse-sampler initialization for the new rows: draw the community from
  // the user's prior proposal (n_uc row + rho — the same distribution the
  // sparse kernel's prior proposal uses), then the topic from that
  // community's proposal (n_cz row + alpha). A brand-new user has an
  // all-zero row, so the +rho/+alpha mass makes the draw uniform.
  std::vector<double> community_weights(static_cast<size_t>(s.num_communities));
  std::vector<double> topic_weights(static_cast<size_t>(s.num_topics));
  for (size_t d = num_prev; d < num_docs; ++d) {
    const Document& doc = graph_.document(static_cast<DocId>(d));
    const size_t row = static_cast<size_t>(doc.user) *
                       static_cast<size_t>(s.num_communities);
    for (int c = 0; c < s.num_communities; ++c) {
      community_weights[static_cast<size_t>(c)] =
          static_cast<double>(s.n_uc[row + static_cast<size_t>(c)]) + s.rho;
    }
    const auto c = static_cast<int32_t>(
        SampleCategorical(community_weights, &rng_));
    for (int z = 0; z < s.num_topics; ++z) {
      topic_weights[static_cast<size_t>(z)] =
          static_cast<double>(
              s.n_cz[static_cast<size_t>(c) * static_cast<size_t>(s.num_topics) +
                     static_cast<size_t>(z)]) +
          s.alpha;
    }
    s.doc_community[d] = c;
    s.doc_topic[d] = static_cast<int32_t>(SampleCategorical(topic_weights, &rng_));
    add_doc_counts(d);
  }

  state_->popularity.Refresh(graph_, state_->doc_topic);
  sampler_ = std::make_unique<GibbsSampler>(graph_, config_, *caches_,
                                            state_.get());
  initialized_ = true;

  // Touched-shard plan: the regular plan (same segmentation, same per-shard
  // RNG stream mapping, so serial and pooled dispatch stay bit-identical)
  // with every untouched user filtered out of its shard. Shards left empty
  // are dispatched but sample nothing; an empty touched set empties every
  // shard (the sweeps then only refresh augmentation + the M-step).
  auto plan = BuildPlan();
  if (!plan.ok()) return plan.status();
  const std::unordered_set<UserId> touched(options.touched_users.begin(),
                                           options.touched_users.end());
  for (std::vector<UserId>& users : plan->users_per_thread) {
    std::erase_if(users,
                  [&](UserId u) { return touched.find(u) == touched.end(); });
  }
  stats_.num_segments = plan->num_segments;
  stats_.thread_estimated_workload = plan->allocation.thread_workload;
  executor_ = MakeShardExecutor(graph_, config_, *caches_, std::move(*plan));

  for (int iter = 0; iter < options.warm_iterations; ++iter) {
    CPD_RETURN_IF_ERROR(EStep());
    MStep();
    const double loglik = sampler_->LinkLogLikelihood();
    stats_.link_log_likelihood.push_back(loglik);
    if (config_.verbose) {
      CPD_LOG(Info) << "warm EM iter " << iter << " link log-likelihood "
                    << loglik;
    }
  }
  stats_.total_seconds += total_timer.ElapsedSeconds();
  FlushTrace();
  return Status::OK();
}

Status EmTrainer::EStep() {
  CPD_CHECK(initialized_);
  WallTimer timer;
  CPD_RETURN_IF_ERROR(EnsureExecutor());

  // Mirror the master sampler's two-phase-schedule switches into the shard
  // kernels for this E-step.
  KernelFlags flags;
  flags.freeze_communities = sampler_->freeze_communities();
  flags.community_uses_content = sampler_->community_uses_content();
  flags.community_uses_diffusion = sampler_->community_uses_diffusion();

  executor_->ResetTimings();
  const int64_t e_step_index = trace_e_step_++;
  // The M-step-owned parameters (eta, weights, popularity) cannot change
  // inside an E-step: capture them once and let executor slots skip the
  // re-restore via the snapshot's parameter version.
  {
    obs::TraceSpan span(trace_.get(), "capture_parameters", kTrainerTid);
    WallTimer params_timer;
    snapshot_.CaptureParameters(*state_);
    stats_.snapshot_seconds += params_timer.ElapsedSeconds();
  }
  for (int sweep = 0; sweep < config_.gibbs_sweeps_per_em; ++sweep) {
    const int64_t sweep_index = trace_sweep_++;
    // Plan -> snapshot -> shard-local sample -> delta-merge -> swap: the
    // master state is frozen while shards sample against the snapshot, then
    // advanced only by the merged deltas. Single-shard runs pay the same
    // two sweep-state copies per sweep (capture + restore) to keep every
    // execution mode on one protocol — memcpy cost, amortized against the
    // O(tokens) sweep, and reported as snapshot_seconds.
    {
      obs::TraceSpan span(trace_.get(), "snapshot", kTrainerTid);
      span.AddArg("sweep", Json(sweep_index));
      WallTimer snapshot_timer;
      snapshot_.CaptureSweepState(*state_);
      stats_.snapshot_seconds += snapshot_timer.ElapsedSeconds();
    }

    {
      obs::TraceSpan span(trace_.get(), "sample_shards", kTrainerTid);
      span.AddArg("sweep", Json(sweep_index));
      span.AddArg("e_step", Json(e_step_index));
      executor_->SampleShards(snapshot_, flags, &deltas_);
      span.AddArg("shards", Json(static_cast<int64_t>(deltas_.size())));
    }

    // Applying the per-shard deltas in shard order IS the fold — ApplyTo is
    // the same commutative integer addition Merge() performs, without
    // materializing an intermediate merged delta (which would double the
    // merge cost in the default single-shard path).
    {
      obs::TraceSpan span(trace_.get(), "merge", kTrainerTid);
      span.AddArg("sweep", Json(sweep_index));
      WallTimer merge_timer;
      size_t doc_moves = 0;
      for (const CounterDelta& delta : deltas_) {
        delta.ApplyTo(state_.get());
        doc_moves += delta.NumDocMoves();
        stats_.delta_entries += delta.NonzeroEntries();
      }
      stats_.delta_doc_moves += doc_moves;
      stats_.merge_seconds += merge_timer.ElapsedSeconds();
      span.AddArg("doc_moves", Json(static_cast<int64_t>(doc_moves)));
    }

    // Phase 2: Polya-Gamma augmentation against the merged state.
    {
      obs::TraceSpan span(trace_.get(), "augment", kTrainerTid);
      span.AddArg("sweep", Json(sweep_index));
      executor_->SweepAugmentation(sampler_.get());
    }
  }

  const CollapseCacheStats collapse = executor_->ConsumeCollapseCacheStats();
  stats_.eta_collapse_hits += collapse.hits;
  stats_.eta_collapse_misses += collapse.misses;
  // Fold shard-sampler MH counters into the master so mh_stats() keeps
  // reporting sparse-backend acceptance health for the whole run.
  sampler_->AccumulateMhStats(executor_->ConsumeMhStats());
  stats_.thread_actual_seconds = executor_->shard_seconds();
  stats_.e_step_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

void EmTrainer::UpdateEta() {
  ModelState& s = *state_;
  std::fill(s.eta.begin(), s.eta.end(), 0.0);
  for (const DiffusionLink& link : graph_.diffusion_links()) {
    const int32_t ci = s.doc_community[static_cast<size_t>(link.i)];
    const int32_t cj = s.doc_community[static_cast<size_t>(link.j)];
    const int32_t zi = s.doc_topic[static_cast<size_t>(link.i)];
    s.EtaAt(ci, cj, zi) += 1.0;
  }
  // Normalize per source community over the (c', z) simplex (Definition 5),
  // with additive smoothing.
  const size_t block = static_cast<size_t>(s.num_communities) *
                       static_cast<size_t>(s.num_topics);
  const double eps = config_.eta_smoothing;
  for (int c = 0; c < s.num_communities; ++c) {
    double total = 0.0;
    const size_t base = static_cast<size_t>(c) * block;
    for (size_t k = 0; k < block; ++k) total += s.eta[base + k];
    const double denom = total + eps * static_cast<double>(block);
    for (size_t k = 0; k < block; ++k) {
      s.eta[base + k] = (s.eta[base + k] + eps) / denom;
    }
  }
}

void EmTrainer::ForEachExampleRange(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (executor_ == nullptr) {
    fn(0, n);
    return;
  }
  const size_t shards = static_cast<size_t>(executor_->num_shards());
  executor_->Dispatch([&](int shard) {
    const size_t t = static_cast<size_t>(shard);
    fn(n * t / shards, n * (t + 1) / shards);
  });
}

void EmTrainer::TrainDiffusionWeights(Rng* rng) {
  // Fitting Eq. 6's diffusion term is logistic regression over the observed
  // links plus an equal number of sampled negatives (§4.2 M-step).
  ModelState& s = *state_;
  const auto& links = graph_.diffusion_links();
  const size_t num_pos = links.size();
  if (num_pos == 0 || config_.nu_iterations == 0) return;

  // Example endpoints: the observed links (label 1), then the negatives
  // (label 0) in draw order. `e` indexes the link's cached features.
  struct Endpoints {
    UserId u;
    UserId v;
    int z;
    int32_t time;
    size_t e;
  };
  std::vector<Endpoints> pairs;
  pairs.reserve(num_pos * 2);
  for (size_t e = 0; e < num_pos; ++e) {
    const DiffusionLink& link = links[e];
    pairs.push_back({graph_.document(link.i).user, graph_.document(link.j).user,
                     s.doc_topic[static_cast<size_t>(link.i)], link.time, e});
  }

  // Negative sampling: uniform random document pairs that are not linked
  // ("we randomly sample the same amount of non-observed diffusion links").
  // Drawn sequentially, so the trainer's RNG stream does not depend on the
  // shard count.
  const size_t num_docs = graph_.num_documents();
  size_t drawn = 0;
  size_t attempts = 0;
  while (drawn < num_pos && attempts < num_pos * 20) {
    ++attempts;
    const DocId i = static_cast<DocId>(rng->NextUint64(num_docs));
    const DocId j = static_cast<DocId>(rng->NextUint64(num_docs));
    if (i == j || graph_.HasDiffusion(i, j)) continue;
    const Document& di = graph_.document(i);
    const Document& dj = graph_.document(j);
    if (di.user == dj.user) continue;
    pairs.push_back({di.user, dj.user, s.doc_topic[static_cast<size_t>(i)],
                     di.time, static_cast<size_t>(-1)});
    ++drawn;
  }

  // Column-major design matrix, x[k * n + i] = feature k of example i. Every
  // example depends only on its own endpoints, so the fill and each Newton
  // step's sigmoid pass split over the executor's shards without changing
  // a bit; the gradient and Hessian are then summed in example order.
  const size_t n = pairs.size();
  std::vector<double> x(static_cast<size_t>(kNumDiffusionWeights) * n);
  const auto column = [&x, n](int k) {
    return x.data() + static_cast<size_t>(k) * n;
  };
  ForEachExampleRange(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Endpoints& p = pairs[i];
      column(kWeightEta)[i] = s.CommunityDiffusionScore(p.u, p.v, p.z);
      column(kWeightPopularity)[i] =
          config_.ablation.topic_factor ? s.popularity.Value(p.time, p.z)
                                        : 0.0;
      double feats[kNumUserFeatures];
      if (config_.ablation.individual_factor) {
        if (p.e != static_cast<size_t>(-1)) {
          const auto cached = caches_->Features(p.e);
          std::copy(cached.begin(), cached.end(), feats);
        } else {
          LinkCaches::ComputePairFeatures(graph_, p.u, p.v, feats);
        }
      } else {
        std::fill(feats, feats + kNumUserFeatures, 0.0);
      }
      for (int k = 0; k < kNumUserFeatures; ++k) {
        column(kWeightFeature0 + k)[i] = feats[k];
      }
      column(kWeightBias)[i] = 1.0;
    }
  });

  // Newton's method on the regularized log-likelihood (logistic_fit.h).
  // Ablated factors keep their weight pinned at initialization. So does the
  // eta-score weight: its feature, CommunityDiffusionScore, is ~1e-2, so
  // gradient steps never moved it by more than 1%, while solving for it
  // drives it far from the Eq. 5 unit coefficient (1.0 -> 7.3 on the tiny
  // test graph) and costs held-out friendship AUC.
  std::array<bool, kNumDiffusionWeights> is_free{};
  is_free[kWeightPopularity] = config_.ablation.topic_factor;
  for (int k = 0; k < kNumUserFeatures; ++k) {
    is_free[static_cast<size_t>(kWeightFeature0 + k)] =
        config_.ablation.individual_factor;
  }
  is_free[kWeightBias] = true;
  FitDiffusionWeights(
      x, num_pos, is_free, config_.nu_l2, config_.nu_iterations,
      std::span<double, kNumDiffusionWeights>(s.weights),
      [this](size_t count, const std::function<void(size_t, size_t)>& fn) {
        ForEachExampleRange(count, fn);
      });
}

void EmTrainer::MStep() {
  CPD_CHECK(initialized_);
  obs::TraceSpan span(trace_.get(), "m_step", kTrainerTid);
  WallTimer timer;
  state_->popularity.Refresh(graph_, state_->doc_topic);
  if (config_.ablation.model_diffusion) {
    UpdateEta();
    if (config_.ablation.heterogeneous_links) {
      TrainDiffusionWeights(&rng_);
    }
  }
  stats_.m_step_seconds += timer.ElapsedSeconds();
}

Status EmTrainer::Train() {
  WallTimer total_timer;
  CPD_RETURN_IF_ERROR(Initialize());

  int joint_iterations = config_.em_iterations;
  if (!config_.ablation.joint_profiling) {
    // "No joint modeling": phase A detects communities from friendship links
    // only (content and diffusion excluded from the community conditional),
    // phase B freezes the communities and fits topics + profiles.
    const int phase_a = std::max(1, config_.em_iterations / 2);
    sampler_->set_community_uses_content(false);
    sampler_->set_community_uses_diffusion(false);
    for (int iter = 0; iter < phase_a; ++iter) {
      CPD_RETURN_IF_ERROR(EStep());
    }
    sampler_->set_freeze_communities(true);
    sampler_->set_community_uses_content(true);
    sampler_->set_community_uses_diffusion(true);
    joint_iterations = std::max(1, config_.em_iterations - phase_a);
  }

  for (int iter = 0; iter < joint_iterations; ++iter) {
    CPD_RETURN_IF_ERROR(EStep());
    MStep();
    const double loglik = sampler_->LinkLogLikelihood();
    stats_.link_log_likelihood.push_back(loglik);
    if (config_.verbose) {
      CPD_LOG(Info) << "EM iter " << iter << " link log-likelihood " << loglik;
    }
  }
  stats_.total_seconds = total_timer.ElapsedSeconds();
  FlushTrace();
  return Status::OK();
}

}  // namespace cpd
