#ifndef CPD_CORE_GIBBS_SAMPLER_H_
#define CPD_CORE_GIBBS_SAMPLER_H_

/// \file gibbs_sampler.h
/// Collapsed Gibbs sampler with Polya-Gamma augmentation for CPD
/// (paper §4.1, Eqs. 13-16). The same kernels serve the serial E-step and
/// the shard-local snapshot/delta E-step of §4.3: each shard executor binds
/// one sampler to a private working ModelState and sweeps it on one thread,
/// so no counter update needs an atomic. A sampler and its state are never
/// shared between threads during a sweep.
///
/// Two interchangeable E-step backends (CpdConfig::sampler_mode):
///  - kDense: exact conditional scan over every candidate topic/community in
///    log space. O(|Z|) resp. O(|C|) heavy log/exp evaluations per document.
///    Reference implementation; bit-for-bit the seed behavior.
///  - kSparse: the conditional is decomposed into a dense prior term served
///    by stale Walker alias tables (SparseSamplerTables, rebuilt once per
///    sweep) and sparse count terms iterated over nonzero entries only, with
///    a Metropolis-Hastings acceptance step correcting for proposal
///    staleness (LightLDA-style cycle proposals). Amortized cost per
///    document is O(len + links) per MH step instead of O(|Z| * len) /
///    O(|C| * links); the stationary distribution is identical.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/diffusion_features.h"
#include "core/model_config.h"
#include "core/model_state.h"
#include "graph/social_graph.h"
#include "sampling/alias_table.h"
#include "sampling/polya_gamma.h"
#include "util/rng.h"

namespace cpd {

class StateSnapshot;
class ThreadPool;

/// Stale alias proposal tables for the sparse E-step. Rebuilt once per sweep
/// from the current counts and read-only until the next rebuild; the MH
/// correction in the sparse kernels uses AliasTable::Probability() (the
/// build-time distribution) so staleness costs acceptance rate, never
/// correctness.
struct SparseSamplerTables {
  /// community_topic[c] draws z with q_c(z) proportional to n_cz[c][z] +
  /// alpha — the community-prior proposal of the topic conditional (Eq. 13).
  std::vector<AliasTable> community_topic;

  /// word_topic[w] draws z with q_w(z) proportional to n_zw[z][w] + beta —
  /// the word proposal (cycled with the prior proposal, as in LightLDA).
  std::vector<AliasTable> word_topic;

  bool ready() const { return !community_topic.empty(); }

  /// Rebuilds every table from the state's current counts; with a pool the
  /// per-community / per-word rebuilds are sharded across the workers, with
  /// nullptr the rebuild runs serially. Used by serial SweepDocuments
  /// callers and direct embedders of the sampler.
  void Rebuild(const ModelState& state, ThreadPool* pool);

  /// Same rebuild, reading the frozen counts of a StateSnapshot directly —
  /// the shard executors use this once per sweep so no working state has to
  /// be materialized just to source the tables.
  void Rebuild(const StateSnapshot& snapshot, ThreadPool* pool);
};

/// Metropolis-Hastings diagnostics of the sparse sampler. Self-proposals
/// count as accepted (they are); rates near zero indicate pathologically
/// stale tables, rates near one a near-exact proposal.
struct MhStats {
  int64_t topic_proposals = 0;
  int64_t topic_accepts = 0;
  int64_t community_proposals = 0;
  int64_t community_accepts = 0;

  double TopicAcceptRate() const {
    return topic_proposals > 0
               ? static_cast<double>(topic_accepts) /
                     static_cast<double>(topic_proposals)
               : 0.0;
  }
  double CommunityAcceptRate() const {
    return community_proposals > 0
               ? static_cast<double>(community_accepts) /
                     static_cast<double>(community_proposals)
               : 0.0;
  }
};

/// Hit/miss counters of the per-sweep eta/theta endpoint-collapse memo (the
/// diffusion-link community term; see CpdConfig::cache_eta_collapse).
struct CollapseCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  double HitRate() const {
    const int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class GibbsSampler {
 public:
  /// The sampler keeps references; graph/caches must outlive it and state is
  /// mutated in place.
  GibbsSampler(const SocialGraph& graph, const CpdConfig& config,
               const LinkCaches& caches, ModelState* state);

  /// One full sweep: resamples z_ui and c_ui for every document (Alg. 1
  /// steps 4-6). In sparse mode the alias tables are rebuilt at sweep start.
  void SweepDocuments(Rng* rng);

  /// Sweeps only the documents of the given users (one shard's segment).
  /// With external sparse tables the owner must rebuild them before the
  /// sweep; the internal tables are built lazily on first use.
  void SweepUsers(std::span<const UserId> users, Rng* rng);

  /// Resamples every lambda_uv ~ PG(1, pihat_u . pihat_v) (Eq. 15),
  /// optionally restricted to a range of link indices [begin, end).
  void SweepFriendshipAugmentation(Rng* rng);
  void SweepFriendshipAugmentation(size_t begin, size_t end, Rng* rng);

  /// Resamples every delta_ij ~ PG(1, w_ij) (Eq. 16), optionally restricted
  /// to a range of link indices.
  void SweepDiffusionAugmentation(Rng* rng);
  void SweepDiffusionAugmentation(size_t begin, size_t end, Rng* rng);

  /// Sparse mode: rebuilds the stale alias proposal tables from the current
  /// counts (no-op work but cheap in dense mode — tables are simply unused).
  /// Serial callers may rely on SweepDocuments doing this; the parallel
  /// trainer calls it explicitly (optionally sharded over its pool) once per
  /// sweep before submitting segments.
  void RebuildSparseTables(ThreadPool* pool = nullptr);

  /// Points the sparse kernels at an externally owned, already-rebuilt table
  /// set. The shard executors rebuild one table set per sweep from the
  /// snapshot counts and share it read-only across every shard sampler
  /// (staleness is MH-corrected, exactly like the single-sampler case).
  /// Pass nullptr to fall back to the internally owned tables.
  void UseExternalSparseTables(const SparseSamplerTables* tables) {
    external_tables_ = tables;
  }

  /// Per-sweep collapse-memo counters (aggregated into TrainStats).
  CollapseCacheStats collapse_cache_stats() const {
    return {collapse_hits_, collapse_misses_};
  }
  void ResetCollapseCacheStats() {
    collapse_hits_ = 0;
    collapse_misses_ = 0;
  }

  /// Snapshot / reset of the MH acceptance counters (sparse mode only).
  MhStats mh_stats() const { return mh_; }
  void ResetMhStats() { mh_ = MhStats(); }

  /// Adds externally accumulated counters into this sampler's totals. The
  /// trainer folds its shard samplers' MH stats into the master sampler
  /// after every E-step, so mh_stats() on the master keeps reporting
  /// acceptance health for the whole training run.
  void AccumulateMhStats(const MhStats& stats);

  /// w_ij of Eq. 5 (or the Eq. 3 energy under the no-heterogeneity
  /// ablation) for diffusion link index e under the current state.
  double DiffusionEnergy(size_t e) const;

  /// pihat_u . pihat_v for friendship link index f.
  double FriendshipEnergy(size_t f) const;

  /// Sum over observed links of log sigmoid(energy) — a training diagnostic
  /// (increases as the model fits the links).
  double LinkLogLikelihood() const;

  /// "No joint modeling" support: phase A detects communities from
  /// friendship links only (content and diffusion excluded from the
  /// community weights), phase B freezes communities.
  void set_freeze_communities(bool freeze) { freeze_communities_ = freeze; }
  void set_community_uses_content(bool use) { community_uses_content_ = use; }
  void set_community_uses_diffusion(bool use) { community_uses_diffusion_ = use; }
  bool freeze_communities() const { return freeze_communities_; }
  bool community_uses_content() const { return community_uses_content_; }
  bool community_uses_diffusion() const { return community_uses_diffusion_; }

 private:
  /// Resamples z then c for every document of user u. In sparse mode it
  /// first builds u's friendship evaluators (BuildFriendEvaluators).
  void SweepUser(UserId u, Rng* rng);

  /// Per-document kernels, dispatching on config.sampler_mode. Only
  /// SweepUser calls them: the sparse community kernel reads the friendship
  /// evaluators SweepUser built for the document's user.
  void ResampleTopic(DocId d, Rng* rng);
  void ResampleCommunity(DocId d, Rng* rng);
  void ResampleTopicDense(DocId d, Rng* rng);
  void ResampleCommunityDense(DocId d, Rng* rng);
  void ResampleTopicSparse(DocId d, Rng* rng);
  void ResampleCommunitySparse(DocId d, Rng* rng);

  /// log psi(w, x) = w/2 - x w^2 / 2 (the PG mixture kernel, Eq. 7).
  static double LogPsi(double w, double x) { return 0.5 * w - 0.5 * x * w * w; }

  /// Energy of a diffusion link given explicit endpoint users/topic; used by
  /// both DiffusionEnergy and candidate evaluation.
  double LinkEnergyParts(UserId u, UserId v, int z, int32_t time, size_t e,
                         double community_score) const;

  /// Shared counter bookkeeping: removes/adds one document's contribution to
  /// the topic-side (n_cz, n_c, n_zw, n_z) or community-side (n_uc, n_u,
  /// n_cz, n_c) counters.
  void RemoveDocTopicCounts(const Document& doc, int32_t c, int32_t z);
  void AddDocTopicCounts(const Document& doc, int32_t c, int32_t z);
  void RemoveDocCommunityCounts(UserId u, int32_t c, int32_t z);
  void AddDocCommunityCounts(UserId u, int32_t c, int32_t z);

  /// Exact (current-counts) unnormalized log conditional of topic z for
  /// document d in community c — the MH target of the sparse topic kernel.
  /// Reads its integer-count logs from the memo tables below.
  double TopicLogWeight(DocId d, const Document& doc, int32_t c, int z);

  /// std::log(double(k) + offset) for integer counts k, filled on demand.
  /// Entry k is std::log of the same double the direct call computes, so a
  /// lookup returns the direct call's bits. Grows to the largest count seen
  /// (up to kMaxEntries); larger or negative counts are computed directly.
  class LogCountTable {
   public:
    explicit LogCountTable(double offset = 0.0) : offset_(offset) {}
    double Log(int64_t count) {
      const auto k = static_cast<uint64_t>(count);
      return k < values_.size() ? values_[k] : Miss(count);
    }

   private:
    static constexpr size_t kMaxEntries = size_t{1} << 16;
    double Miss(int64_t count);
    double offset_;
    std::vector<double> values_;
  };

  /// The Dirichlet-multinomial denominator terms of topic z,
  /// log(n_z + |W| beta + j) for j < len, memoized per topic while n_z[z]
  /// keeps the value they were computed at.
  const double* TopicDenominatorTerms(int z, size_t len);

  /// Shared candidate-vector math of the community conditional (Eq. 14),
  /// used identically by the dense scan and the sparse MH evaluator so the
  /// two backends cannot diverge. Both fill out[0..|C|) with the
  /// candidate-indexed term of one link and return base = sum_c q[c]*out[c],
  /// the candidate-independent part of the shifted-membership dot.
  ///
  /// Membership-dot links (friendship, or diffusion under the
  /// no-heterogeneity ablation): out[c] = pihat_{other,c}.
  double FillMembershipVector(UserId other, const double* q,
                              double* out) const;

  /// out[c] = pihat_{other,c} at the current counts.
  void FillPiHatRow(UserId other, double* out) const;

  /// Sparse mode, once per user before the user's documents are swept:
  /// fills friend_rows_/friend_lambda_ with every incident friendship
  /// link's neighbor pihat row and lambda. Valid for all of u's documents
  /// because the sweep over them changes only n_uc[u]/n_u[u] among the
  /// membership counts, friendship links are never self-loops (the graph
  /// builder drops them), and lambda changes only in the augmentation
  /// phase between sweeps.
  void BuildFriendEvaluators(UserId u);

  /// Heterogeneous diffusion links: computes the eta endpoint collapse
  ///   source side: out[c]  = th[c]  sum_c' eta[c][c'][z_e] th[c'] pio[c']
  ///   target side: out[c'] = th[c'] sum_c  eta[c][c'][z_e] th[c]  pio[c]
  /// where th[.] = ThetaHat(., z_e) and pio is the fixed endpoint's
  /// membership — O(|C|^2) per call.
  void ComputeEtaCollapse(UserId other, int z_e, bool is_source,
                          double* out) const;

  /// Cached front end of ComputeEtaCollapse: within a sweep the collapse is
  /// keyed by (other, z_e, is_source), so repeated links sharing the key
  /// cost an O(|C|) lookup instead of the O(|C|^2) recompute. The returned
  /// pointer (|C| doubles) is valid until the next call. Cached values go
  /// stale as the sweep moves counts and the staleness is NOT MH-corrected
  /// (it enters the MH target) — an AD-LDA-class approximation, so the
  /// memo is only active inside *sparse* sweeps with
  /// config.cache_eta_collapse set; dense kernels and direct calls always
  /// get a fresh exact computation.
  const double* CollapsedEtaVector(UserId other, int z_e, bool is_source);

  /// The table set the sparse kernels read (external when shared by an
  /// executor, internal otherwise).
  const SparseSamplerTables& active_tables() const {
    return external_tables_ != nullptr ? *external_tables_ : tables_;
  }

  /// Activates (sparse mode + config flag) and clears the collapse memo for
  /// one single-threaded sweep; callers reset collapse_cache_active_ when
  /// the sweep ends.
  void BeginCollapseMemoSweep();

  const SocialGraph& graph_;
  const CpdConfig& config_;
  const LinkCaches& caches_;
  ModelState* state_;
  PolyaGammaSampler pg_;

  SparseSamplerTables tables_;
  const SparseSamplerTables* external_tables_ = nullptr;

  // Per-sweep eta/theta collapse memo (key -> offset of a |C|-vector in
  // collapse_vectors_). Cleared at sweep start; the owning sweep is
  // single-threaded (shard-local), so plain counters suffice.
  std::unordered_map<uint64_t, size_t> collapse_index_;
  std::vector<double> collapse_vectors_;
  bool collapse_cache_active_ = false;
  int64_t collapse_hits_ = 0;
  int64_t collapse_misses_ = 0;

  // Friendship evaluators of the user being swept (BuildFriendEvaluators):
  // one |C|-row per incident link, row-major, plus the link's lambda, and
  // the per-document dots of those rows with the user's current q.
  UserId friend_evals_user_ = -1;
  std::vector<double> friend_rows_;
  std::vector<double> friend_lambda_;
  std::vector<double> friend_base_;

  // Integer-count log memos of the sparse kernels (the priors are read once,
  // at construction). Each sampler owns its own, and a sampler is driven by
  // one thread at a time, so they need no lock.
  LogCountTable log_n_plus_alpha_;    // log(n_cz + alpha)
  LogCountTable log_n_plus_z_alpha_;  // log(n_c + |Z| alpha)
  LogCountTable log_n_plus_beta_;     // log(n_zw + beta)
  struct DenominatorMemo {
    int64_t n_z = -1;  // n_z[z] the terms were computed at.
    std::vector<double> terms;
  };
  std::vector<DenominatorMemo> denominator_memo_;

  MhStats mh_;

  bool freeze_communities_ = false;
  bool community_uses_content_ = true;
  bool community_uses_diffusion_ = true;
};

}  // namespace cpd

#endif  // CPD_CORE_GIBBS_SAMPLER_H_
