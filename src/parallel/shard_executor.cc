#include "parallel/shard_executor.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <utility>

#include "parallel/thread_pool.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cpd {

namespace {

/// Shared machinery of both executors. A "slot" is one reusable working set
/// (private ModelState + sampler bound to it); a shard checks one out for
/// the duration of its sweep and fully restores it from the snapshot first,
/// so slot identity never affects results. The serial executor keeps a
/// single slot; the pooled executor keeps one per pool *worker* (at most
/// num_threads shards run concurrently, so memory scales with threads, not
/// shards). RNG streams attach to *shards* (split in shard order from the
/// config seed), which is what makes serial and pooled dispatch
/// bit-identical.
class ShardExecutorBase : public ShardExecutor {
 public:
  ShardExecutorBase(const SocialGraph& graph, const CpdConfig& config,
                    const LinkCaches& caches, ThreadPlan plan,
                    size_t max_concurrency)
      : graph_(graph), config_(config), plan_(std::move(plan)) {
    const size_t shards = plan_.users_per_thread.size();
    CPD_CHECK_GE(shards, 1u);
    Rng seeder(config_.seed + 7919);
    rngs_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) rngs_.push_back(seeder.Split());
    shard_seconds_.assign(shards, 0.0);
    const size_t num_slots = std::max<size_t>(
        1, std::min(shards, max_concurrency));
    slots_.reserve(num_slots);
    for (size_t i = 0; i < num_slots; ++i) {
      slots_.push_back(std::make_unique<Slot>(graph, config_, caches));
      slots_.back()->sampler.UseExternalSparseTables(&shared_tables_);
    }
  }

  int num_shards() const override {
    return static_cast<int>(plan_.users_per_thread.size());
  }

  void SampleShards(const StateSnapshot& snapshot, const KernelFlags& flags,
                    std::vector<CounterDelta>* deltas) override {
    CPD_CHECK(snapshot.captured());
    deltas->resize(static_cast<size_t>(num_shards()));
    if (config_.sampler_mode == SamplerMode::kSparse) {
      RebuildSharedTables(snapshot);
    }
    Dispatch([&](int shard) {
      WallTimer timer;
      RunShard(shard, snapshot, flags, &(*deltas)[static_cast<size_t>(shard)]);
      shard_seconds_[static_cast<size_t>(shard)] += timer.ElapsedSeconds();
    });
  }

  void SweepAugmentation(GibbsSampler* master_sampler) override {
    const size_t nf = graph_.num_friendship_links();
    const size_t ne = graph_.num_diffusion_links();
    const size_t shards = static_cast<size_t>(num_shards());
    Dispatch([&](int shard) {
      WallTimer timer;
      const size_t t = static_cast<size_t>(shard);
      master_sampler->SweepFriendshipAugmentation(
          nf * t / shards, nf * (t + 1) / shards, &rngs_[t]);
      master_sampler->SweepDiffusionAugmentation(
          ne * t / shards, ne * (t + 1) / shards, &rngs_[t]);
      shard_seconds_[t] += timer.ElapsedSeconds();
    });
  }

  const std::vector<double>& shard_seconds() const override {
    return shard_seconds_;
  }
  void ResetTimings() override {
    shard_seconds_.assign(shard_seconds_.size(), 0.0);
  }

  CollapseCacheStats ConsumeCollapseCacheStats() override {
    CollapseCacheStats total;
    for (const auto& slot : slots_) {
      const CollapseCacheStats s = slot->sampler.collapse_cache_stats();
      total.hits += s.hits;
      total.misses += s.misses;
      slot->sampler.ResetCollapseCacheStats();
    }
    return total;
  }

  MhStats ConsumeMhStats() override {
    MhStats total;
    for (const auto& slot : slots_) {
      const MhStats s = slot->sampler.mh_stats();
      total.topic_proposals += s.topic_proposals;
      total.topic_accepts += s.topic_accepts;
      total.community_proposals += s.community_proposals;
      total.community_accepts += s.community_accepts;
      slot->sampler.ResetMhStats();
    }
    return total;
  }

 protected:
  struct Slot {
    Slot(const SocialGraph& graph, const CpdConfig& config,
         const LinkCaches& caches)
        : working(graph, config), sampler(graph, config, caches, &working) {}
    ModelState working;
    GibbsSampler sampler;
    /// Last StateSnapshot::parameters_version() restored into `working`;
    /// lets RunShard skip the O(|C|^2 |Z|) parameter copy within an E-step
    /// (eta/weights/popularity only change in the M-step).
    uint64_t params_version = 0;
  };

  /// Exclusive checkout of a working set for one shard's sweep. Acquire
  /// never blocks: the dispatch concurrency bound guarantees a free slot.
  virtual Slot* AcquireSlot() = 0;
  virtual void ReleaseSlot(Slot* slot) = 0;

  /// Rebuilds the shared stale proposal tables straight from the snapshot
  /// counts (no working state needs to be materialized for this).
  virtual void RebuildSharedTables(const StateSnapshot& snapshot) {
    shared_tables_.Rebuild(snapshot, nullptr);
  }

  void RunShard(int shard, const StateSnapshot& snapshot,
                const KernelFlags& flags, CounterDelta* delta) {
    delta->Clear();
    const std::vector<UserId>& users =
        plan_.users_per_thread[static_cast<size_t>(shard)];
    if (users.empty()) return;
    Slot* slot = AcquireSlot();
    snapshot.RestoreSweepStateTo(&slot->working);
    if (slot->params_version != snapshot.parameters_version()) {
      snapshot.RestoreParametersTo(&slot->working);
      slot->params_version = snapshot.parameters_version();
    }
    slot->sampler.set_freeze_communities(flags.freeze_communities);
    slot->sampler.set_community_uses_content(flags.community_uses_content);
    slot->sampler.set_community_uses_diffusion(flags.community_uses_diffusion);
    slot->sampler.SweepUsers(users, &rngs_[static_cast<size_t>(shard)]);
    for (UserId u : users) {
      for (DocId d : graph_.DocumentsOf(u)) {
        const size_t di = static_cast<size_t>(d);
        delta->RecordMove(graph_.document(d), d, snapshot.CommunityOf(d),
                          snapshot.TopicOf(d), slot->working.doc_community[di],
                          slot->working.doc_topic[di], config_.num_communities,
                          config_.num_topics, slot->working.vocab_size);
      }
    }
    ReleaseSlot(slot);
  }

  const SocialGraph& graph_;
  const CpdConfig config_;  ///< By value: slot samplers keep references.
  const ThreadPlan plan_;
  SparseSamplerTables shared_tables_;
  std::vector<Rng> rngs_;             ///< One stream per shard.
  std::vector<double> shard_seconds_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

class SerialExecutor final : public ShardExecutorBase {
 public:
  SerialExecutor(const SocialGraph& graph, const CpdConfig& config,
                 const LinkCaches& caches, ThreadPlan plan)
      : ShardExecutorBase(graph, config, caches, std::move(plan),
                          /*max_concurrency=*/1) {}

 protected:
  Slot* AcquireSlot() override { return slots_[0].get(); }
  void ReleaseSlot(Slot* /*slot*/) override {}
};

class PooledExecutor final : public ShardExecutorBase {
 public:
  PooledExecutor(const SocialGraph& graph, const CpdConfig& config,
                 const LinkCaches& caches, ThreadPlan plan)
      : ShardExecutorBase(
            graph, config, caches, std::move(plan),
            /*max_concurrency=*/static_cast<size_t>(
                std::max(1, config.num_threads))),
        pool_(static_cast<size_t>(std::max(1, config.num_threads))) {
    free_slots_.reserve(slots_.size());
    for (const auto& slot : slots_) free_slots_.push_back(slot.get());
  }

  // At most num_threads shards run at once, which bounds the slot pool.
  void Dispatch(const std::function<void(int)>& fn) override {
    for (int s = 0; s < num_shards(); ++s) {
      pool_.Submit([&fn, s] { fn(s); });
    }
    pool_.WaitAll();
  }

 protected:
  // The pool runs at most num_threads tasks at once, so the free list can
  // never be empty at acquire time.
  Slot* AcquireSlot() override {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    CPD_CHECK(!free_slots_.empty());
    Slot* slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  void ReleaseSlot(Slot* slot) override {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    free_slots_.push_back(slot);
  }
  void RebuildSharedTables(const StateSnapshot& snapshot) override {
    shared_tables_.Rebuild(snapshot, &pool_);
  }

 private:
  ThreadPool pool_;
  std::mutex slot_mutex_;
  std::vector<Slot*> free_slots_;
};

}  // namespace

std::unique_ptr<ShardExecutor> MakeShardExecutor(const SocialGraph& graph,
                                                 const CpdConfig& config,
                                                 const LinkCaches& caches,
                                                 ThreadPlan plan) {
  switch (config.ResolvedExecutorMode()) {
    case ExecutorMode::kPooled:
      return std::make_unique<PooledExecutor>(graph, config, caches,
                                              std::move(plan));
    case ExecutorMode::kAuto:
    case ExecutorMode::kSerial:
      break;
  }
  return std::make_unique<SerialExecutor>(graph, config, caches,
                                          std::move(plan));
}

}  // namespace cpd
