#ifndef CPD_INGEST_INGEST_PIPELINE_H_
#define CPD_INGEST_INGEST_PIPELINE_H_

/// \file ingest_pipeline.h
/// End-to-end streaming ingest: UpdateBatch -> merged SocialGraph ->
/// warm-started EM sweeps over the touched shards -> fresh versioned .cpdb
/// artifact. The pipeline is the stateful trainer-side twin of
/// server::ModelRegistry: it owns the *live* training state (current graph,
/// current model, and the Gibbs assignments that make warm starts possible)
/// and advances it one batch at a time; the caller pushes each produced
/// artifact through the registry for a zero-downtime swap.
///
///   cold train (cpd_train) ──► model .cpdb ──► ModelRegistry (serving)
///            │                                     ▲
///            ▼                                     │ LoadFrom(fresh)
///   IngestPipeline::Create ◄── UpdateBatch ──► Ingest(): ApplyUpdate
///            (reconstructs      (cpd_ingest        + EmTrainer::WarmStart
///             assignments)       or HTTP)          + SaveBinary
///
/// Ingest() is serialized by an internal mutex (concurrent POST
/// /admin/ingest calls queue); graph()/model() return shared_ptr snapshots
/// so readers never see a half-committed generation.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cpd_model.h"
#include "core/model_config.h"
#include "graph/social_graph.h"
#include "ingest/update_batch.h"
#include "util/status.h"

namespace cpd::ingest {

struct IngestOptions {
  /// Training configuration for the warm sweeps. num_communities/num_topics
  /// must match the model the pipeline was created from; seed, sampler,
  /// executor, threads and shards are honored like a cold train.
  CpdConfig config;

  /// Bounded EM iterations per batch (each = gibbs_sweeps_per_em sweeps).
  int warm_iterations = 2;

  /// Tokenizer for raw-text batch documents.
  TokenizerOptions tokenizer;

  /// When non-empty, Ingest(batch) writes its artifact to
  /// "<artifact_base>.g<sequence>.cpdb"; the two-argument overload with an
  /// explicit path ignores this.
  std::string artifact_base;

  /// Lineage stamp of the artifact the pipeline was created from; batch N
  /// writes its artifact with generation base_generation + N, so every
  /// published generation is numbered after the cold artifact a server
  /// already maps.
  uint64_t base_generation = 0;
};

/// Outcome of one applied batch.
struct IngestResult {
  std::string artifact_path;
  uint64_t sequence = 0;  ///< 1 for the first batch, monotonically rising.
  /// Lineage stamp written into the artifact (base_generation + sequence).
  uint64_t generation = 0;
  size_t artifact_bytes = 0;
  IngestCounts counts;
  size_t num_users = 0;      ///< Merged graph totals after the batch.
  size_t num_documents = 0;
  size_t vocab_size = 0;
  /// Warm-sweep scope: users whose evidence changed and the token mass of
  /// their documents on the merged graph (what the warm E-steps resampled).
  size_t touched_users = 0;
  size_t touched_tokens = 0;
  double apply_seconds = 0.0;  ///< Graph merge + validation.
  double warm_seconds = 0.0;   ///< Warm-started EM sweeps.
  double save_seconds = 0.0;   ///< Artifact serialization.
  double total_seconds = 0.0;  ///< Time to fresh artifact.
  double link_log_likelihood = 0.0;  ///< After the last warm iteration.
};

/// Reconstructed Gibbs assignments for every document of `graph` under the
/// estimates of `model`: (c, z) sampled jointly from
///   p(c, z | d, u) ∝ pi_u(c) theta_c(z) prod_{w in d} phi_z(w)
/// with a deterministic seed. This is how a pipeline created from a cold
/// artifact (which stores estimates, not assignments) re-enters the
/// assignment space; a few warm sweeps re-mix the chain afterwards.
struct ReconstructedAssignments {
  std::vector<int32_t> doc_topic;
  std::vector<int32_t> doc_community;
};
ReconstructedAssignments ReconstructAssignments(const SocialGraph& graph,
                                                const CpdModel& model,
                                                uint64_t seed);

class IngestPipeline {
 public:
  /// Validates that `model` matches `graph` (user count, vocabulary) and
  /// `options.config` (|C|, |Z|), then reconstructs the live assignments.
  /// The graph must be the one the model was trained on.
  static StatusOr<std::unique_ptr<IngestPipeline>> Create(
      std::shared_ptr<const SocialGraph> graph, const CpdModel& model,
      IngestOptions options);

  /// Applies one batch: merged graph, warm-started sweeps over the touched
  /// shards, artifact written to `artifact_path` (vocabulary bundled).
  /// On success the pipeline's live state advances; on failure it is
  /// untouched (apply-then-commit). Serialized: concurrent calls queue.
  StatusOr<IngestResult> Ingest(const UpdateBatch& batch,
                                const std::string& artifact_path);

  /// Same, writing to "<options.artifact_base>.g<sequence>.cpdb".
  StatusOr<IngestResult> Ingest(const UpdateBatch& batch);

  /// Snapshots of the live state (safe to hold across later ingests).
  std::shared_ptr<const SocialGraph> graph() const;
  std::shared_ptr<const CpdModel> model() const;

  /// Batches successfully applied so far.
  uint64_t sequence() const;

 private:
  IngestPipeline(std::shared_ptr<const SocialGraph> graph,
                 std::shared_ptr<const CpdModel> model, IngestOptions options,
                 ReconstructedAssignments assignments);

  /// The ingest body; mutex_ must be held (both public overloads take it,
  /// the one-argument form also derives the .gN path under the same hold so
  /// concurrent callers can never compute the same name).
  StatusOr<IngestResult> IngestLocked(const UpdateBatch& batch,
                                      const std::string& artifact_path);

  const IngestOptions options_;

  mutable std::mutex mutex_;  ///< Guards every live-state member below.
  std::shared_ptr<const SocialGraph> graph_;
  std::shared_ptr<const CpdModel> model_;
  std::vector<int32_t> doc_topic_;      ///< Live Gibbs assignments.
  std::vector<int32_t> doc_community_;
  uint64_t sequence_ = 0;
};

}  // namespace cpd::ingest

#endif  // CPD_INGEST_INGEST_PIPELINE_H_
