#ifndef CPD_SERVE_PROFILE_INDEX_H_
#define CPD_SERVE_PROFILE_INDEX_H_

/// \file profile_index.h
/// Read-side index over a trained CPD model (the §5 applications are all
/// read workloads over pi/theta/phi/eta). A ProfileIndex is immutable once
/// built and safe to share across serving threads: flat row-major matrices
/// handed out as std::span rows, plus the precomputed structures every
/// query type needs —
///   - per-user top-k membership lists (the paper's top-5 assignment
///     convention, Table 6 / §6.3),
///   - per-community member postings (users assigned by top-k membership,
///     sorted by descending membership weight),
///   - the topic-aggregated diffusion matrix sum_z eta_{c,c',z}.
/// Two construction paths produce bit-identical query answers for the
/// same trained estimates:
///   - FromModel / FromArtifact copy the matrices onto the heap (the
///     reference path);
///   - FromMapped serves the spans straight out of an mmap'd artifact —
///     zero rows copied, the kernel pages the file in on demand, reload is
///     O(1) in the model size, and N live generations share clean pages.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/model_artifact.h"
#include "graph/social_graph.h"
#include "util/status.h"

namespace cpd {

class CpdModel;
struct ArtifactDerived;

namespace serve {

/// How LoadModelBundle materializes a ".cpdb" artifact.
enum class ArtifactLoadMode {
  /// Copy onto the heap — the reference path. Use when the artifact lives
  /// on storage too slow to page from (network FS), or to keep RSS
  /// self-contained.
  kHeap,
  /// Zero-copy mmap: serve the spans straight off the page cache.
  kMmap,
};

/// "heap" | "mmap" (the --load_mode flag spelling); InvalidArgument
/// otherwise.
StatusOr<ArtifactLoadMode> ParseArtifactLoadMode(const std::string& text);
/// The inverse spelling, for logs and benchmark records.
const char* ArtifactLoadModeName(ArtifactLoadMode mode);

struct ProfileIndexOptions {
  /// k of the per-user top-k membership lists and community postings. The
  /// paper assigns users to their top-5 communities for ranking and
  /// conductance evaluation.
  int membership_top_k = 5;

  /// Precompute the per-user top-k lists and per-community member postings
  /// (O(U·|C| log k) + a weight sort). Serving front ends want this;
  /// adapters that only score (ranking, diffusion, attribute aggregation)
  /// skip it — Membership/TopUsers queries then fail with
  /// FailedPrecondition instead of paying the build. An mmap load adopts
  /// the artifact's stored postings when its derived_top_k matches, making
  /// this free.
  bool build_membership_index = true;

  /// Mirrors CpdConfig::ablation.heterogeneous_links for diffusion queries;
  /// artifacts do not carry the training config, so loaders default to the
  /// full model.
  bool heterogeneous_links = true;

  /// How LoadModelBundle / LoadFromFile materialize binary artifacts.
  ArtifactLoadMode load_mode = ArtifactLoadMode::kMmap;
};

/// One (community, weight) membership entry of a user's top-k list.
struct TopMembership {
  int community = -1;
  double weight = 0.0;
};

class ProfileIndex {
 public:
  /// Copies the model's estimates and precomputes the read-side structures.
  static ProfileIndex FromModel(const CpdModel& model,
                                const ProfileIndexOptions& options = {});

  /// Ingests a decoded artifact (moves the matrices; no re-encode). The
  /// heap reference path: stored derived sections of the artifact are
  /// ignored and rebuilt from the estimates.
  static StatusOr<ProfileIndex> FromArtifact(ModelArtifact artifact,
                                             const ProfileIndexOptions& options = {});

  /// Serves straight off a mapped artifact: every matrix accessor is a
  /// span into the page cache. Adopts the artifact's stored derived
  /// sections when min(stored k, |C|) == min(options.membership_top_k,
  /// |C|), else rebuilds them on the heap (the estimates stay zero-copy
  /// either way). The index holds a reference on the mapping.
  static StatusOr<ProfileIndex> FromMapped(
      std::shared_ptr<const MappedModelArtifact> mapped,
      const ProfileIndexOptions& options = {});

  /// Loads a ".cpdb" artifact, mapped or copied per options.load_mode.
  static StatusOr<ProfileIndex> LoadFromFile(const std::string& path,
                                             const ProfileIndexOptions& options = {});

  ProfileIndex(ProfileIndex&&) = default;
  ProfileIndex& operator=(ProfileIndex&&) = default;
  // The span members alias the owned stores (or the mapping), so a copy
  // would dangle into its source; the index is shared, not copied.
  ProfileIndex(const ProfileIndex&) = delete;
  ProfileIndex& operator=(const ProfileIndex&) = delete;

  // ----- dimensions -----
  int num_communities() const { return num_communities_; }
  int num_topics() const { return num_topics_; }
  size_t num_users() const { return num_users_; }
  size_t vocab_size() const { return vocab_size_; }
  int32_t num_time_bins() const { return num_time_bins_; }
  int membership_top_k() const { return options_.membership_top_k; }
  bool heterogeneous_links() const { return options_.heterogeneous_links; }

  /// Lineage stamp of the backing artifact (0 for cold trains).
  uint64_t artifact_generation() const { return generation_; }

  /// True when the index serves off an mmap'd artifact.
  bool is_mmap_backed() const { return mapped_ != nullptr; }

  // ----- row views (valid for the life of the index) -----
  /// pi_u over communities.
  std::span<const double> Membership(UserId u) const {
    return pi_.subspan(static_cast<size_t>(u) * kc(), kc());
  }
  /// theta_c over topics.
  std::span<const double> ContentProfile(int c) const {
    return theta_.subspan(static_cast<size_t>(c) * kz(), kz());
  }
  /// phi_z over words.
  std::span<const double> TopicWords(int z) const {
    return phi_.subspan(static_cast<size_t>(z) * vocab_size_, vocab_size_);
  }
  /// eta_{c,c',.} over topics.
  std::span<const double> EtaRow(int c, int c2) const {
    return eta_.subspan(
        (static_cast<size_t>(c) * kc() + static_cast<size_t>(c2)) * kz(),
        kz());
  }
  double Eta(int c, int c2, int z) const {
    return EtaRow(c, c2)[static_cast<size_t>(z)];
  }
  /// Precomputed sum_z eta_{c,c',z} (§5 aggregated diffusion strength).
  double EtaAggregated(int c, int c2) const {
    return eta_agg_[static_cast<size_t>(c) * kc() + static_cast<size_t>(c2)];
  }
  std::span<const double> EtaAggregatedRow(int c) const {
    return eta_agg_.subspan(static_cast<size_t>(c) * kc(), kc());
  }
  std::span<const double> DiffusionWeights() const { return weights_; }
  /// n_tz with out-of-range time bins clamped (prediction-time timestamps
  /// may fall outside the training range).
  double TopicPopularity(int32_t t, int z) const;

  // ----- precomputed scoring tables -----
  // The query-invariant factors of the §5 kernels, built once per index
  // (always on the heap, never stored in the artifact, in both load modes):
  //   - LinkContentRow turns Eq. 19 community ranking from O(|C|^2 |Z|) per
  //     request into O(|C| |Z|);
  //   - WordLogPhi lets per-query word products gather |q| contiguous rows
  //     of length |Z| instead of striding |q| full-vocab rows and calling
  //     std::log per (token, topic);
  //   - EtaThetaRow makes the Eq. 4 diffusion inner loop one contiguous dot
  //     with pi_v.
  // Memory cost: (|C| + |V| + |C|^2) * |Z| doubles on top of the estimates
  // (the G tensor is exactly eta-sized).

  /// M[c][.] = sum_c2 eta(c,c2,.) * theta_c2[.] over topics (the
  /// query-invariant factor of Eq. 19, accumulated in ascending c2).
  std::span<const double> LinkContentRow(int c) const {
    return {link_content_.data() + static_cast<size_t>(c) * kz(), kz()};
  }

  /// log(max(phi_{.,w}, 1e-300)) over topics — one contiguous word-major
  /// row per vocabulary word.
  std::span<const double> WordLogPhi(WordId w) const {
    return {word_log_phi_.data() + static_cast<size_t>(w) * kz(), kz()};
  }

  /// G[c][z][.] = eta(c,.,z) * theta_.[z] over c2 — the fused diffusion row
  /// dotted with pi_v by the Eq. 4 community-score kernel.
  std::span<const double> EtaThetaRow(int c, int z) const {
    return {eta_theta_.data() +
                (static_cast<size_t>(c) * kz() + static_cast<size_t>(z)) * kc(),
            kc()};
  }

  // ----- precomputed read-side structures -----
  /// False when built with build_membership_index = false; TopCommunities /
  /// CommunityMembers are then empty and the membership/top-users queries
  /// report FailedPrecondition.
  bool has_membership_index() const { return top_k_per_user_ > 0; }

  /// Top-k communities of u by membership weight, descending (k =
  /// options.membership_top_k; exactly min(k, |C|) entries).
  std::span<const TopMembership> TopCommunities(UserId u) const {
    const size_t k = static_cast<size_t>(top_k_per_user_);
    return {top_memberships_.data() + static_cast<size_t>(u) * k, k};
  }

  /// Users assigned to community c by the top-k convention, sorted by
  /// descending pi_{u,c} (ties by ascending user id).
  std::span<const UserId> CommunityMembers(int c) const {
    return members_.subspan(
        static_cast<size_t>(member_offsets_[static_cast<size_t>(c)]),
        static_cast<size_t>(member_offsets_[static_cast<size_t>(c) + 1] -
                            member_offsets_[static_cast<size_t>(c)]));
  }

  /// pi_{u,c} for each posted member, parallel to CommunityMembers(c) —
  /// TopUsers answers straight off the posting instead of re-reading one
  /// pi row per member.
  std::span<const double> CommunityMemberWeights(int c) const {
    return member_weights_.subspan(
        static_cast<size_t>(member_offsets_[static_cast<size_t>(c)]),
        static_cast<size_t>(member_offsets_[static_cast<size_t>(c) + 1] -
                            member_offsets_[static_cast<size_t>(c)]));
  }

  /// Bounds checks as typed errors (serving front ends reply with these
  /// instead of crashing).
  Status CheckUser(UserId u) const;
  Status CheckCommunity(int c) const;
  Status CheckWord(WordId w) const;
  Status CheckTopic(int z) const;

 private:
  ProfileIndex() = default;

  size_t kc() const { return static_cast<size_t>(num_communities_); }
  size_t kz() const { return static_cast<size_t>(num_topics_); }

  /// Builds link_content_ / word_log_phi_ / eta_theta_ from the estimate
  /// spans.
  void BuildScoringTables();
  /// Rebuilds eta_agg + membership structures on the heap via
  /// core/artifact_derived and adopts them.
  void RebuildDerived();
  /// Takes ownership of built derived structures (membership part only
  /// when options_.build_membership_index).
  void AdoptDerived(ArtifactDerived&& derived);
  /// Materializes the TopMembership structs from parallel arrays.
  void MaterializeTopMemberships(std::span<const int32_t> communities,
                                 std::span<const double> weights);

  ProfileIndexOptions options_;
  int num_communities_ = 0;
  int num_topics_ = 0;
  size_t num_users_ = 0;
  size_t vocab_size_ = 0;
  int32_t num_time_bins_ = 1;
  uint64_t generation_ = 0;

  /// Keepalive for every span that aliases the mapping (null = pure heap).
  std::shared_ptr<const MappedModelArtifact> mapped_;

  // Owned backing stores; empty whenever the matching span aliases the
  // mapping instead. Spans stay valid across moves because vector buffers
  // are heap-stable.
  std::vector<double> pi_store_;
  std::vector<double> theta_store_;
  std::vector<double> phi_store_;
  std::vector<double> eta_store_;
  std::vector<double> eta_agg_store_;
  std::vector<double> weights_store_;
  std::vector<double> popularity_store_;

  std::span<const double> pi_;          // U x C
  std::span<const double> theta_;       // C x Z
  std::span<const double> phi_;         // Z x W
  std::span<const double> eta_;         // C x C x Z
  std::span<const double> eta_agg_;     // C x C
  std::span<const double> weights_;     // kNumDiffusionWeights
  std::span<const double> popularity_;  // T x Z

  // Query-invariant scoring tables (always heap-owned).
  std::vector<double> link_content_;  // C x Z
  std::vector<double> word_log_phi_;  // W x Z (word-major)
  std::vector<double> eta_theta_;     // C x Z x C ((c,z)-major rows over c2)

  int top_k_per_user_ = 0;                      // min(top_k, |C|)
  std::vector<TopMembership> top_memberships_;  // U x top_k_per_user_
  std::span<const uint64_t> member_offsets_;    // |C| + 1
  std::span<const UserId> members_;             // postings, weight-sorted
  std::span<const double> member_weights_;      // pi_{u,c} per posting entry
  std::vector<uint64_t> member_offsets_store_;
  std::vector<int32_t> members_store_;
  std::vector<double> member_weights_store_;
};

/// A loaded index together with the vocabulary bundled in its ".cpdb"
/// artifact (null for artifacts saved without one). Serving front ends
/// (cpd_query, cpd_serve) load through this so textual rank queries work
/// without a side --vocab file.
struct ModelBundle {
  ProfileIndex index;
  std::shared_ptr<const Vocabulary> vocabulary;
};

/// Loads a model file like ProfileIndex::LoadFromFile but also surfaces the
/// bundled vocabulary when the artifact carries one. options.load_mode
/// picks the materialization; both modes reject a malformed file with the
/// same ParseV3Layout status, and a missing file with the same NotFound.
StatusOr<ModelBundle> LoadModelBundle(const std::string& path,
                                      const ProfileIndexOptions& options = {});

}  // namespace serve
}  // namespace cpd

#endif  // CPD_SERVE_PROFILE_INDEX_H_
