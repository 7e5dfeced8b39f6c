#include "ingest/ingest_pipeline.h"

#include <cmath>
#include <filesystem>
#include <utility>

#include "core/em_trainer.h"
#include "sampling/distributions.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace cpd::ingest {

ReconstructedAssignments ReconstructAssignments(const SocialGraph& graph,
                                                const CpdModel& model,
                                                uint64_t seed) {
  const int kc = model.num_communities();
  const int kz = model.num_topics();
  const size_t num_docs = graph.num_documents();
  ReconstructedAssignments out;
  out.doc_topic.resize(num_docs);
  out.doc_community.resize(num_docs);
  Rng rng(seed);
  std::vector<double> word_ll(static_cast<size_t>(kz));
  std::vector<double> log_weights(static_cast<size_t>(kc) *
                                  static_cast<size_t>(kz));
  for (size_t d = 0; d < num_docs; ++d) {
    const Document& doc = graph.document(static_cast<DocId>(d));
    for (int z = 0; z < kz; ++z) {
      const std::span<const double> phi = model.TopicWords(z);
      double ll = 0.0;
      for (const WordId w : doc.words) {
        ll += std::log(phi[static_cast<size_t>(w)]);
      }
      word_ll[static_cast<size_t>(z)] = ll;
    }
    const std::span<const double> pi = model.Membership(doc.user);
    for (int c = 0; c < kc; ++c) {
      const std::span<const double> theta = model.ContentProfile(c);
      const double log_pi = std::log(pi[static_cast<size_t>(c)]);
      for (int z = 0; z < kz; ++z) {
        log_weights[static_cast<size_t>(c) * static_cast<size_t>(kz) +
                    static_cast<size_t>(z)] =
            log_pi + std::log(theta[static_cast<size_t>(z)]) +
            word_ll[static_cast<size_t>(z)];
      }
    }
    const size_t pick = SampleCategoricalFromLog(log_weights, &rng);
    out.doc_community[d] = static_cast<int32_t>(pick / static_cast<size_t>(kz));
    out.doc_topic[d] = static_cast<int32_t>(pick % static_cast<size_t>(kz));
  }
  return out;
}

IngestPipeline::IngestPipeline(std::shared_ptr<const SocialGraph> graph,
                               std::shared_ptr<const CpdModel> model,
                               IngestOptions options,
                               ReconstructedAssignments assignments)
    : options_(std::move(options)),
      graph_(std::move(graph)),
      model_(std::move(model)),
      doc_topic_(std::move(assignments.doc_topic)),
      doc_community_(std::move(assignments.doc_community)) {}

StatusOr<std::unique_ptr<IngestPipeline>> IngestPipeline::Create(
    std::shared_ptr<const SocialGraph> graph, const CpdModel& model,
    IngestOptions options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("ingest pipeline needs a graph");
  }
  CPD_RETURN_IF_ERROR(options.config.Validate());
  if (model.num_users() != graph->num_users()) {
    return Status::FailedPrecondition(StrFormat(
        "model/graph mismatch: model has %zu users, graph %zu (the pipeline "
        "needs the graph the model was trained on)",
        model.num_users(), graph->num_users()));
  }
  if (model.vocab_size() != graph->vocabulary_size()) {
    return Status::FailedPrecondition(StrFormat(
        "model/graph mismatch: model has %zu words, graph %zu",
        model.vocab_size(), graph->vocabulary_size()));
  }
  if (model.num_communities() != options.config.num_communities ||
      model.num_topics() != options.config.num_topics) {
    return Status::FailedPrecondition(StrFormat(
        "config mismatch: model is |C|=%d |Z|=%d but the ingest config says "
        "|C|=%d |Z|=%d",
        model.num_communities(), model.num_topics(),
        options.config.num_communities, options.config.num_topics));
  }
  if (options.warm_iterations < 1) {
    return Status::InvalidArgument("warm_iterations < 1");
  }
  ReconstructedAssignments assignments =
      ReconstructAssignments(*graph, model, options.config.seed + 977);
  auto model_copy = std::make_shared<const CpdModel>(model);
  return std::unique_ptr<IngestPipeline>(
      new IngestPipeline(std::move(graph), std::move(model_copy),
                         std::move(options), std::move(assignments)));
}

StatusOr<IngestResult> IngestPipeline::Ingest(const UpdateBatch& batch) {
  if (options_.artifact_base.empty()) {
    return Status::FailedPrecondition(
        "no artifact_base configured; pass an explicit artifact path");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return IngestLocked(batch, options_.artifact_base + ".g" +
                                 std::to_string(sequence_ + 1) + ".cpdb");
}

StatusOr<IngestResult> IngestPipeline::Ingest(
    const UpdateBatch& batch, const std::string& artifact_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return IngestLocked(batch, artifact_path);
}

StatusOr<IngestResult> IngestPipeline::IngestLocked(
    const UpdateBatch& batch, const std::string& artifact_path) {
  WallTimer total_timer;
  IngestResult result;

  WallTimer apply_timer;
  auto applied = ApplyUpdate(*graph_, batch, options_.tokenizer);
  if (!applied.ok()) return applied.status();
  result.apply_seconds = apply_timer.ElapsedSeconds();
  result.counts = applied->counts;
  result.touched_users = applied->touched_users.size();
  for (const UserId u : applied->touched_users) {
    for (const DocId d : applied->graph.DocumentsOf(u)) {
      result.touched_tokens += applied->graph.document(d).words.size();
    }
  }

  WallTimer warm_timer;
  EmTrainer trainer(applied->graph, options_.config);
  WarmStartOptions warm;
  warm.prev_doc_topic = doc_topic_;
  warm.prev_doc_community = doc_community_;
  warm.touched_users = applied->touched_users;
  warm.prev_eta = model_->EtaTensor();
  warm.prev_weights = model_->DiffusionWeights();
  warm.warm_iterations = options_.warm_iterations;
  CPD_RETURN_IF_ERROR(trainer.WarmStart(warm));
  result.warm_seconds = warm_timer.ElapsedSeconds();

  CpdModel model = CpdModel::FromState(applied->graph, options_.config,
                                       trainer.state(), trainer.stats());
  const uint64_t generation = options_.base_generation + sequence_ + 1;
  WallTimer save_timer;
  CPD_RETURN_IF_ERROR(model.SaveBinary(
      artifact_path, &applied->graph.corpus().vocabulary(), {}, generation));
  std::error_code size_error;
  result.artifact_bytes = std::filesystem::file_size(artifact_path, size_error);
  if (size_error) {
    return Status::IOError("cannot stat " + artifact_path + ": " +
                           size_error.message());
  }
  result.save_seconds = save_timer.ElapsedSeconds();

  // Commit: only now does the live state advance (a failed apply, warm
  // start, or save leaves the pipeline exactly as before).
  doc_topic_ = trainer.state().doc_topic;
  doc_community_ = trainer.state().doc_community;
  graph_ = std::make_shared<const SocialGraph>(std::move(applied->graph));
  model_ = std::make_shared<const CpdModel>(std::move(model));
  ++sequence_;

  result.artifact_path = artifact_path;
  result.sequence = sequence_;
  result.generation = generation;
  result.num_users = graph_->num_users();
  result.num_documents = graph_->num_documents();
  result.vocab_size = graph_->vocabulary_size();
  if (!trainer.stats().link_log_likelihood.empty()) {
    result.link_log_likelihood = trainer.stats().link_log_likelihood.back();
  }
  result.total_seconds = total_timer.ElapsedSeconds();
  CPD_LOG(Info) << "ingest #" << sequence_ << ": +"
                << result.counts.new_documents << " docs, +"
                << result.counts.new_users << " users, +"
                << result.counts.new_friendships << " friendships, +"
                << result.counts.new_diffusions << " diffusions, +"
                << result.counts.new_words << " words -> " << artifact_path
                << " (" << StrFormat("%.2f", result.total_seconds) << " s)";
  return result;
}

std::shared_ptr<const SocialGraph> IngestPipeline::graph() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graph_;
}

std::shared_ptr<const CpdModel> IngestPipeline::model() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_;
}

uint64_t IngestPipeline::sequence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sequence_;
}

}  // namespace cpd::ingest
