#ifndef CPD_SERVER_MODEL_REGISTRY_H_
#define CPD_SERVER_MODEL_REGISTRY_H_

/// \file model_registry.h
/// Zero-downtime hot-swap for a *named set* of serving models. The registry
/// maps model names to generations of ServingModel (ProfileIndex + bundled
/// vocabulary + a QueryEngine over them), each behind an atomically-
/// swappable shared_ptr:
///
///   - request handlers call Snapshot(name) (one shared_ptr copy under a
///     pointer-sized critical section) and hold the snapshot for the
///     request's lifetime, so a concurrent Reload() can never free
///     estimates a request is still reading — an old generation dies when
///     its last in-flight request drops the reference;
///   - LoadFrom(name, path) re-reads the artifact from disk off to the
///     side, builds the whole new ServingModel, then publishes it with one
///     pointer swap. A failed load leaves the serving model untouched
///     (load-then-swap, never swap-then-load). Loading into a new name
///     registers it — that is how a second artifact gets A/B'd behind one
///     server (`/v1/models/{name}/...`).
///
/// The name "default" (kDefaultModel) is what the bare `/v1/query` and
/// `/v1/membership/{user}` aliases resolve to; the single-model overloads
/// below operate on it so single-model callers read exactly as before.
///
/// The swap cell is a mutex-guarded shared_ptr rather than
/// std::atomic<std::shared_ptr>: libstdc++ implements the latter with a
/// hand-rolled lock bit TSan cannot see through (gcc PR101761), and the
/// hot-swap path is exactly what CI's TSan job must be able to prove
/// race-free. The critical section is a refcount bump — tens of ns against
/// microsecond-scale queries. Loads are serialized by a separate mutex
/// that readers never touch. The optional SocialGraph (diffusion queries)
/// is shared_ptr state pinned per generation: streaming ingest replaces the
/// graph for *future* generations via SetGraph(), while every in-flight
/// generation keeps the graph it was built over alive.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/profile_index.h"
#include "serve/query_engine.h"

namespace cpd {
class SocialGraph;
}  // namespace cpd

namespace cpd::server {

/// The model every unqualified route alias resolves to.
inline constexpr const char* kDefaultModel = "default";

/// One immutable generation of everything a request handler needs. The
/// engine references the index and (optionally) the graph; both outlive it
/// (the index lives in this struct, the graph is pinned by this struct's
/// shared_ptr).
struct ServingModel {
  /// ProfileIndex has no public default constructor, so a ServingModel is
  /// born around a fully-built index (the engine is attached afterwards,
  /// once the index has its final address).
  explicit ServingModel(serve::ProfileIndex built_index)
      : index(std::move(built_index)) {}

  serve::ProfileIndex index;
  std::shared_ptr<const Vocabulary> vocabulary;  ///< Null when not bundled.
  std::shared_ptr<const SocialGraph> graph;      ///< Null = no diffusion.
  std::unique_ptr<const serve::QueryEngine> engine;
  std::string name;            ///< Registry name this generation serves as.
  uint64_t generation = 0;     ///< Per-name load counter (first load = 1).
  std::string source_path;
  int64_t loaded_unix_ms = 0;  ///< Registry clock at load time (statsz).
};

/// One row of GET /v1/models (name-sorted).
struct ModelInfo {
  std::string name;
  uint64_t generation = 0;
  int64_t loaded_unix_ms = 0;
  std::string path;
};

class ModelRegistry {
 public:
  /// Milliseconds since the Unix epoch; injectable so tests (and replays)
  /// control the loaded_unix_ms stamped on each generation.
  using Clock = std::function<int64_t()>;

  /// `graph` may be null (diffusion queries then FailedPrecondition); each
  /// generation pins the graph it was loaded with.
  explicit ModelRegistry(serve::ProfileIndexOptions options,
                         std::shared_ptr<const SocialGraph> graph = nullptr);

  /// Loads `path` into `name` and makes it that name's serving model
  /// (initial load, an admin-driven artifact switch, or the registration
  /// of a brand-new name). On failure the previous model (if any) keeps
  /// serving.
  Status LoadFrom(const std::string& name, const std::string& path);
  Status LoadFrom(const std::string& path) {
    return LoadFrom(kDefaultModel, path);
  }

  /// Re-reads `name`'s current path (a newer artifact published there).
  Status Reload(const std::string& name);
  Status Reload() { return Reload(kDefaultModel); }

  /// Snapshot for one request; null when the name has never loaded.
  std::shared_ptr<const ServingModel> Snapshot(const std::string& name) const;
  std::shared_ptr<const ServingModel> Snapshot() const {
    return Snapshot(kDefaultModel);
  }

  /// Every registered model, name-sorted (GET /v1/models).
  std::vector<ModelInfo> ListModels() const;

  /// Overrides the vocabulary used by future generations (a --vocab side
  /// file beats the bundled one). Takes effect on the next LoadFrom/Reload.
  void SetVocabularyOverride(std::shared_ptr<const Vocabulary> vocab);

  /// Replaces the graph bound into *future* generations (streaming ingest
  /// publishes the merged graph before swapping in the fresh artifact).
  /// Generations already serving keep their original graph alive.
  void SetGraph(std::shared_ptr<const SocialGraph> graph);

  /// The graph future generations will bind (rollback support: a caller
  /// that publishes a new graph and then fails its LoadFrom restores this).
  std::shared_ptr<const SocialGraph> graph() const;

  /// Replaces the wall clock used for loaded_unix_ms (tests).
  void SetClock(Clock clock);

  /// Generation of the default model (0 before its first load).
  uint64_t generation() const { return generation(kDefaultModel); }
  uint64_t generation(const std::string& name) const;

  uint64_t reload_count() const {
    return reload_count_.load(std::memory_order_acquire);
  }
  uint64_t reload_failures() const {
    return reload_failures_.load(std::memory_order_acquire);
  }

  /// Artifact path of the default model ("" before its first load).
  std::string path() const { return path(kDefaultModel); }
  std::string path(const std::string& name) const;

 private:
  serve::ProfileIndexOptions options_;

  mutable std::mutex reload_mutex_;  ///< Serializes loads; readers skip it.
  std::shared_ptr<const Vocabulary> vocab_override_;  ///< Guarded by it.
  std::shared_ptr<const SocialGraph> graph_;          ///< Guarded too.
  Clock clock_;                                       ///< Guarded too.

  std::atomic<uint64_t> reload_count_{0};
  std::atomic<uint64_t> reload_failures_{0};

  /// Guards the name map and every entry's pointer swap. Readers hold it
  /// for one map lookup + refcount bump.
  mutable std::mutex current_mutex_;
  std::map<std::string, std::shared_ptr<const ServingModel>> current_;
};

}  // namespace cpd::server

#endif  // CPD_SERVER_MODEL_REGISTRY_H_
