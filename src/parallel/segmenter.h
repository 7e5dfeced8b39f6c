#ifndef CPD_PARALLEL_SEGMENTER_H_
#define CPD_PARALLEL_SEGMENTER_H_

/// \file segmenter.h
/// Data segmentation of §4.3: run LDA over all user documents with |Z|
/// topics, then partition users into |Z| segments by each user's most
/// frequent topic. A user's documents (and the links they touch) stay in one
/// segment, reducing conflicting cross-thread updates.

#include <vector>

#include "graph/social_graph.h"
#include "parallel/knapsack.h"
#include "util/status.h"

namespace cpd {

/// One user segment with its estimated workload.
struct DataSegment {
  std::vector<UserId> users;
  double estimated_workload = 0.0;
};

/// Per-item processing-cost estimates (relative units). The trainer measures
/// a serial sweep to calibrate the absolute scale; only ratios matter for
/// allocation.
///
/// The sparse community kernel builds a user's friend pihat rows once per
/// user; per document it pays one dot per friend plus the MH candidate
/// terms. per_friend_link nevertheless stays a per-document charge: the
/// shard plan decides which users share an RNG stream, so new constants
/// would change every multi-shard chain. Keep them until a change is
/// allowed to move the chains.
struct WorkloadCostModel {
  double per_document = 1.0;
  double per_word = 0.1;
  double per_friend_link = 0.5;     ///< Cost per incident friendship link per doc.
  double per_diffusion_link = 2.0;  ///< Cost per incident diffusion link per doc.
};

/// Estimated processing workload of one user under the cost model: her
/// documents, their words, and the links her sampling sweep touches.
double EstimateUserWorkload(const SocialGraph& graph, UserId u,
                            const WorkloadCostModel& cost);

/// Segments users by dominant LDA topic into `num_segments` groups.
/// \param lda_iterations LDA pre-pass Gibbs iterations.
StatusOr<std::vector<DataSegment>> SegmentUsersByTopic(
    const SocialGraph& graph, int num_segments, const WorkloadCostModel& cost,
    int lda_iterations = 20, uint64_t seed = 11);

/// Convenience: segment, then allocate to threads via the knapsack
/// allocator (Eq. 17). Returns per-thread user lists plus the allocation.
struct ThreadPlan {
  std::vector<std::vector<UserId>> users_per_thread;
  SegmentAllocation allocation;
  size_t num_segments = 0;
};

StatusOr<ThreadPlan> PlanThreads(const SocialGraph& graph, int num_segments,
                                 int num_threads, const WorkloadCostModel& cost,
                                 int lda_iterations = 20, uint64_t seed = 11);

/// Degenerate one-shard plan: every user in graph order, no LDA pre-pass.
/// Used for single-shard (serial-equivalent) E-steps, which reproduce
/// sequential collapsed Gibbs exactly and should not pay segmentation cost.
ThreadPlan TrivialThreadPlan(const SocialGraph& graph,
                             const WorkloadCostModel& cost);

}  // namespace cpd

#endif  // CPD_PARALLEL_SEGMENTER_H_
