#ifndef CPD_CORE_ARTIFACT_DERIVED_H_
#define CPD_CORE_ARTIFACT_DERIVED_H_

/// \file artifact_derived.h
/// The canonical builder of the read-side structures derived from a trained
/// model's estimates: the topic-aggregated diffusion matrix sum_z eta, the
/// per-user top-k membership lists, and the per-community member postings.
/// Exactly one implementation exists so the two consumers can never
/// diverge bitwise:
///   - serve::ProfileIndex builds them at load time (the reference path);
///   - the .cpdb encoder precomputes and *stores* them, so an mmap load
///     skips the O(U |C| log k) build entirely.
/// The orderings are load-bearing: top-k lists are (weight descending, id
/// ascending) partial sorts and postings are weight-sorted with ascending-id
/// ties, matching CpdModel::TopCommunities' convention, so a stored and a
/// rebuilt structure are bit-identical for the same estimates.

#include <cstdint>
#include <span>
#include <vector>

namespace cpd {

/// Parallel-array form of the derived structures (padding-free, so the .cpdb
/// sections are raw dumps of these vectors).
struct ArtifactDerived {
  /// min(requested top_k, |C|); 0 when only eta_agg was requested.
  int32_t top_k = 0;

  std::vector<double> eta_agg;  ///< C x C, sum over topics.

  // Per-user top-k membership lists, U x top_k, weight-descending.
  std::vector<int32_t> topk_communities;
  std::vector<double> topk_weights;

  // Per-community postings: users assigned by the top-k convention, sorted
  // by descending pi_{u,c} (ties ascending id), with CSR offsets.
  std::vector<uint64_t> member_offsets;  ///< |C| + 1.
  std::vector<int32_t> members;          ///< U x top_k total entries.
  std::vector<double> member_weights;    ///< pi_{u,c} per posting entry.
};

/// Builds the derived structures from a flat row-major pi (U x C) and the
/// flat eta tensor. top_k < 1 skips the membership/posting build (eta_agg
/// only).
ArtifactDerived BuildArtifactDerived(std::span<const double> pi,
                                     std::span<const double> eta,
                                     int num_communities, int num_topics,
                                     size_t num_users, int top_k);

}  // namespace cpd

#endif  // CPD_CORE_ARTIFACT_DERIVED_H_
