#ifndef CPD_PARALLEL_SHARD_EXECUTOR_H_
#define CPD_PARALLEL_SHARD_EXECUTOR_H_

/// \file shard_executor.h
/// Dispatch seam of the snapshot/delta E-step (§4.3 refactored): the trainer
/// freezes the master ModelState into a StateSnapshot, hands the executor
/// the snapshot plus kernel flags, and gets back one CounterDelta per shard
/// to merge. Implementations own everything a shard needs — private working
/// ModelStates, per-shard GibbsSamplers and RNG streams, and (in sparse
/// mode) one shared alias-proposal table set rebuilt per sweep — so the
/// kernels never see cross-shard mutation and run without atomics.
///
/// Shards are the ThreadPlan's user lists (LDA segmentation + knapsack
/// allocation, Eq. 17). Because RNG streams attach to shards, not threads,
/// SerialExecutor and PooledExecutor produce bit-identical post-merge
/// counters for the same seed and shard count; a later process or
/// parameter-server executor only has to ship StateSnapshot out and
/// CounterDeltas back — the kernels stay untouched.

#include <functional>
#include <memory>
#include <vector>

#include "core/diffusion_features.h"
#include "core/gibbs_sampler.h"
#include "core/model_config.h"
#include "core/state_snapshot.h"
#include "graph/social_graph.h"
#include "parallel/segmenter.h"
#include "util/status.h"

namespace cpd::obs {
class TraceRecorder;
}  // namespace cpd::obs

namespace cpd {

/// Kernel switches mirrored from the master sampler into every shard
/// sampler before a sweep (the "no joint modeling" two-phase schedule flips
/// them between EM iterations).
struct KernelFlags {
  bool freeze_communities = false;
  bool community_uses_content = true;
  bool community_uses_diffusion = true;
};

/// Cumulative transport counters of a distributed executor (src/dist), null
/// for in-process executors. Folded into TrainStats after every E-step.
struct DistTransportStats {
  int workers_connected = 0;  ///< Sessions established at startup.
  int workers_lost = 0;       ///< Disconnects + deadline kills since startup.
  int64_t shards_redispatched = 0;
  int64_t sweeps = 0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  /// Coordinator-side encode + decode time (snapshot out, deltas in).
  double serialize_seconds = 0.0;
  /// Time the coordinator spent blocked waiting for shard results.
  double wait_seconds = 0.0;
};

class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  virtual int num_shards() const = 0;
  virtual const char* name() const = 0;

  /// Phase 1 of a sweep: every shard restores its private working state
  /// from `snapshot`, sweeps its users with the plain (non-atomic) kernels,
  /// and emits the sparse diff of its moves. `deltas` is resized to
  /// num_shards(); the master state is never touched.
  virtual Status SampleShards(const StateSnapshot& snapshot,
                              const KernelFlags& flags,
                              std::vector<CounterDelta>* deltas) = 0;

  /// Phase 2 of a sweep: Polya-Gamma augmentation, each shard resampling a
  /// disjoint contiguous range of friendship/diffusion links directly on
  /// the master sampler's (already merged) state. Disjoint per-link writes,
  /// so this is race-free without atomics.
  virtual Status SweepAugmentation(GibbsSampler* master_sampler) = 0;

  /// Runs fn(shard) for every shard in [0, num_shards()) and returns once
  /// all calls have finished. The pooled executor fans the calls out over
  /// its workers (at most num_threads at once); the serial and distributed
  /// executors run them inline in shard order. Besides the E-step phases,
  /// the trainer's M-step splits its per-example work this way, so fn must
  /// not depend on which calls run concurrently.
  virtual void Dispatch(const std::function<void(int)>& fn) {
    for (int s = 0; s < num_shards(); ++s) fn(s);
  }

  /// Per-shard wall-clock accumulated since ResetTimings() (Fig. 11 data).
  virtual const std::vector<double>& shard_seconds() const = 0;
  virtual void ResetTimings() = 0;

  /// Sums and clears the collapse-memo counters of every shard sampler.
  virtual CollapseCacheStats ConsumeCollapseCacheStats() = 0;

  /// Sums and clears the MH acceptance counters of every shard sampler (the
  /// trainer folds them into the master sampler so sparse-backend health
  /// stays observable via GibbsSampler::mh_stats()).
  virtual MhStats ConsumeMhStats() = 0;

  /// Cumulative transport counters; non-null only for the distributed
  /// executor.
  virtual const DistTransportStats* transport_stats() const { return nullptr; }

  /// Installs the trainer's trace recorder (null = tracing off, the
  /// default). Executors with per-worker structure (src/dist) emit their
  /// own rows into it; the in-process executors rely on the trainer's
  /// per-sweep spans and ignore it.
  virtual void SetTraceRecorder(obs::TraceRecorder* /*recorder*/) {}
};

/// Builds the executor selected by `config` (ResolvedExecutorMode) over the
/// given shard plan: kSerial loops shards in order on the calling thread,
/// kPooled fans them out over `config.num_threads` workers.
std::unique_ptr<ShardExecutor> MakeShardExecutor(const SocialGraph& graph,
                                                 const CpdConfig& config,
                                                 const LinkCaches& caches,
                                                 ThreadPlan plan);

}  // namespace cpd

#endif  // CPD_PARALLEL_SHARD_EXECUTOR_H_
