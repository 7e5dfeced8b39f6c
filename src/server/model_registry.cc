#include "server/model_registry.h"

#include <chrono>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace cpd::server {

namespace {
int64_t SystemClockMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ModelRegistry::ModelRegistry(serve::ProfileIndexOptions options,
                             std::shared_ptr<const SocialGraph> graph)
    : options_(options), graph_(std::move(graph)), clock_(SystemClockMillis) {}

void ModelRegistry::SetVocabularyOverride(
    std::shared_ptr<const Vocabulary> vocab) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  vocab_override_ = std::move(vocab);
}

void ModelRegistry::SetGraph(std::shared_ptr<const SocialGraph> graph) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  graph_ = std::move(graph);
}

std::shared_ptr<const SocialGraph> ModelRegistry::graph() const {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  return graph_;
}

void ModelRegistry::SetClock(Clock clock) {
  std::lock_guard<std::mutex> lock(reload_mutex_);
  clock_ = std::move(clock);
}

std::shared_ptr<const ServingModel> ModelRegistry::Snapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(current_mutex_);
  const auto it = current_.find(name);
  return it == current_.end() ? nullptr : it->second;
}

uint64_t ModelRegistry::generation(const std::string& name) const {
  const auto snapshot = Snapshot(name);
  return snapshot == nullptr ? 0 : snapshot->generation;
}

std::string ModelRegistry::path(const std::string& name) const {
  const auto snapshot = Snapshot(name);
  return snapshot == nullptr ? std::string() : snapshot->source_path;
}

std::vector<ModelInfo> ModelRegistry::ListModels() const {
  std::vector<ModelInfo> models;
  std::lock_guard<std::mutex> lock(current_mutex_);
  models.reserve(current_.size());
  for (const auto& [name, model] : current_) {  // std::map: name-sorted.
    models.push_back(ModelInfo{name, model->generation, model->loaded_unix_ms,
                               model->source_path});
  }
  return models;
}

Status ModelRegistry::LoadFrom(const std::string& name,
                               const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  std::lock_guard<std::mutex> lock(reload_mutex_);
  WallTimer timer;
  auto bundle = serve::LoadModelBundle(path, options_);
  if (!bundle.ok()) {
    reload_failures_.fetch_add(1, std::memory_order_acq_rel);
    CPD_LOG(Error) << "model load from " << path << " into '" << name
                   << "' failed: " << bundle.status().ToString()
                   << (Snapshot(name) != nullptr
                           ? " (previous model keeps serving)"
                           : "");
    return bundle.status();
  }
  auto model = std::make_shared<ServingModel>(std::move(bundle->index));
  model->vocabulary =
      vocab_override_ != nullptr ? vocab_override_ : bundle->vocabulary;
  model->graph = graph_;  // Pinned: this generation owns a reference.
  // The engine binds references into this very ServingModel, so it is
  // created only after the index has reached its final address.
  model->engine = std::make_unique<const serve::QueryEngine>(
      model->index, model->graph.get());
  model->name = name;
  model->source_path = path;
  model->loaded_unix_ms = clock_();
  {
    std::lock_guard<std::mutex> swap_lock(current_mutex_);
    auto& cell = current_[name];
    model->generation = (cell == nullptr ? 0 : cell->generation) + 1;
    cell = std::move(model);
  }
  reload_count_.fetch_add(1, std::memory_order_acq_rel);
  const auto loaded = Snapshot(name);
  CPD_LOG(Info) << "serving model '" << name << "' generation "
                << loaded->generation << " from " << path << " ("
                << StrFormat("%.0f", timer.ElapsedMillis())
                << " ms: |C|=" << loaded->index.num_communities()
                << " |Z|=" << loaded->index.num_topics()
                << " users=" << loaded->index.num_users() << " vocab "
                << (loaded->vocabulary != nullptr ? "bundled" : "absent")
                << ")";
  return Status::OK();
}

Status ModelRegistry::Reload(const std::string& name) {
  const std::string current_path = path(name);
  if (current_path.empty()) {
    return Status::FailedPrecondition("no model named '" + name +
                                      "' loaded yet");
  }
  return LoadFrom(name, current_path);
}

}  // namespace cpd::server
