#ifndef CPD_CORE_STATE_SNAPSHOT_H_
#define CPD_CORE_STATE_SNAPSHOT_H_

/// \file state_snapshot.h
/// The read/merge sides of the shard-local delta E-step (§4.3 refactor):
///
///  - StateSnapshot: an immutable copy of the sweep-mutable part of a
///    ModelState (assignments, collapsed counters, augmentation variables,
///    model parameters), captured once per sweep while the master state is
///    frozen. Shards restore a private working ModelState from it and run
///    the unmodified dense/sparse kernels against that copy — no atomics,
///    no cross-shard writes.
///  - CounterDelta: the sparse count diffs one shard's sweep produced
///    (topic/word, user/community, community/topic rows plus the document
///    assignment moves themselves), with an associative and commutative
///    Merge(). The trainer folds the per-shard deltas together and applies
///    the result to the master state.
///
/// A single shard restored from the snapshot and swept in order reproduces
/// sequential collapsed Gibbs bit-for-bit (modulo the optional per-sweep
/// collapse memo, CpdConfig::cache_eta_collapse); N shards are the
/// AD-LDA-style stale-read approximation, made reproducible by per-shard
/// RNG streams.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/model_state.h"
#include "graph/social_graph.h"

namespace cpd {

class StateSnapshot {
 public:
  StateSnapshot() = default;

  /// Deep-copies the mutable arrays of `state` (CaptureParameters +
  /// CaptureSweepState). Buffers are reused across captures, so repeated
  /// captures settle into pure memcpy cost.
  void CaptureFrom(const ModelState& state);

  /// Captures only what a sweep mutates: assignments, collapsed counters,
  /// and the Polya-Gamma variables. Called once per sweep.
  void CaptureSweepState(const ModelState& state);

  /// Captures the M-step-owned parameters (eta, weights, popularity), which
  /// cannot change inside an E-step — called once per E-step, and slots
  /// skip re-restoring them via parameters_version().
  void CaptureParameters(const ModelState& state);

  /// Overwrites the mutable arrays of `working` with the snapshot content
  /// (both halves). `working` must be built over the same graph and config
  /// shape.
  void RestoreTo(ModelState* working) const;

  /// The split restores matching the split captures.
  void RestoreSweepStateTo(ModelState* working) const;
  void RestoreParametersTo(ModelState* working) const;

  /// Refreshed by every CaptureParameters with a process-unique value; lets
  /// a working-state owner skip the O(|C|^2 |Z|) parameter copy when it
  /// already holds this version, even across distinct snapshot instances.
  uint64_t parameters_version() const { return parameters_version_; }

  bool captured() const { return captured_ && parameters_version_ > 0; }

  /// Assignments at capture time (the "old" side of a shard's delta).
  int32_t TopicOf(DocId d) const { return doc_topic_[static_cast<size_t>(d)]; }
  int32_t CommunityOf(DocId d) const {
    return doc_community_[static_cast<size_t>(d)];
  }

  /// Count/prior views for readers that consume the snapshot directly
  /// without materializing a working state (e.g. the per-sweep alias-table
  /// rebuild of the sparse backend).
  const std::vector<int32_t>& n_cz() const { return n_cz_; }
  const std::vector<int32_t>& n_zw() const { return n_zw_; }
  int num_communities() const { return num_communities_; }
  int num_topics() const { return num_topics_; }
  size_t vocab_size() const { return vocab_size_; }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

 private:
  bool captured_ = false;
  uint64_t parameters_version_ = 0;
  int num_communities_ = 0;
  int num_topics_ = 0;
  size_t vocab_size_ = 0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  std::vector<int32_t> doc_topic_, doc_community_;
  std::vector<int32_t> n_uc_, n_u_, n_cz_, n_c_, n_zw_;
  std::vector<int64_t> n_z_;
  std::vector<double> lambda_, delta_, eta_, weights_;
  /// Placeholder shape until the first capture overwrites it.
  PopularityTable popularity_{1, 1, PopularityMode::kFraction};
};

/// Sparse diff of the collapsed counters plus the assignment moves that
/// produced it. One instance per shard per sweep; Merge() is associative and
/// commutative (count diffs add exactly; shards own disjoint document sets,
/// so assignment moves concatenate).
class CounterDelta {
 public:
  struct DocMove {
    DocId doc = 0;
    int32_t topic = 0;
    int32_t community = 0;
  };

  void Clear();
  bool Empty() const { return doc_moves_.empty(); }

  /// Number of nonzero sparse counter entries (merge-cost proxy reported by
  /// the bench suite).
  size_t NonzeroEntries() const;
  size_t NumDocMoves() const { return doc_moves_.size(); }

  /// Records document d (owned by `doc.user`, words `doc.words`) moving from
  /// (c_old, z_old) to (c_new, z_new). A no-op when nothing changed; net
  /// round trips cancel at apply time regardless.
  void RecordMove(const Document& doc, DocId d, int32_t c_old, int32_t z_old,
                  int32_t c_new, int32_t z_new, int num_communities,
                  int num_topics, size_t vocab_size);

  /// Accumulates `other` into this delta.
  void Merge(const CounterDelta& other);

  /// Adds the count diffs into the master counters and applies the
  /// assignment moves. Apply order is irrelevant (exact integer adds over
  /// disjoint or commuting entries).
  void ApplyTo(ModelState* state) const;

 private:
  std::vector<DocMove> doc_moves_;
  /// Flat-index -> diff maps mirroring the ModelState count layouts. n_u is
  /// absent by construction: a document never changes its user.
  std::unordered_map<int64_t, int32_t> user_community_;   // n_uc
  std::unordered_map<int64_t, int32_t> community_topic_;  // n_cz
  std::unordered_map<int64_t, int32_t> topic_word_;       // n_zw
  std::unordered_map<int32_t, int32_t> community_docs_;   // n_c
  std::unordered_map<int32_t, int64_t> topic_tokens_;     // n_z
};

}  // namespace cpd

#endif  // CPD_CORE_STATE_SNAPSHOT_H_
