#ifndef CPD_CORE_MODEL_ARTIFACT_H_
#define CPD_CORE_MODEL_ARTIFACT_H_

/// \file model_artifact.h
/// The binary model artifact (".cpdb"), the one file format a trained CPD
/// model is stored in. A fixed header carrying the dims plus a section
/// table, then page-aligned sections, so a reader can map the file and
/// serve std::span rows straight off the page cache with zero
/// deserialization:
///
///   magic "CPDBMODL" | u32 version=3 | u32 endian tag 0x01020304 |
///   i32 |C| | i32 |Z| | u64 |U| | u64 |W| | i32 T | u64 #weights |
///   u32 section_alignment | u32 section_count | u32 derived_top_k |
///   u32 header_checksum (FNV-1a over header+table, field zeroed) |
///   u64 model_generation |
///   section_count x { u32 section id | u32 reserved=0 | u64 offset |
///                     u64 byte length } |
///   zero padding | sections, each at an offset multiple of
///   section_alignment, in ascending-id order, zero-padded between
///
/// The file also stores the *derived* read-side structures (eta_agg,
/// per-user top-k membership lists, per-community postings as padding-free
/// parallel arrays) computed by core/artifact_derived.h, so an mmap load
/// skips the O(U |C| log k) build entirely and a reload is O(1) in the
/// model size. The encoder is deterministic (fixed section order, zero
/// fill), so encode -> decode -> encode round-trips byte-identically.
///
/// One validator, ParseV3Layout, decides what a valid file is: it rejects
/// wrong magic, any version but 3, foreign byte order, truncated or
/// oversized payloads, any corrupt header/table bit, and misaligned,
/// overlapping, or out-of-bounds sections with typed Status errors that
/// name the offending section. Two materializations sit on top of it:
/// DecodeModelArtifact copies the sections onto the heap, and
/// MappedModelArtifact serves them zero-copy from an mmap.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "text/vocabulary.h"
#include "util/status.h"

namespace cpd {

inline constexpr char kModelArtifactMagic[8] = {'C', 'P', 'D', 'B',
                                                'M', 'O', 'D', 'L'};
inline constexpr uint32_t kModelArtifactVersion = 3;
inline constexpr uint32_t kModelArtifactEndianTag = 0x01020304u;

/// Section identifiers, in file order. 1..8 are mandatory; 9..13 (the
/// derived read-side structures) are present iff derived_top_k > 0.
enum class ArtifactSection : uint32_t {
  kPi = 1,
  kTheta = 2,
  kPhi = 3,
  kEta = 4,
  kWeights = 5,
  kPopularity = 6,
  kVocab = 7,
  kEtaAgg = 8,
  kTopkCommunities = 9,
  kTopkWeights = 10,
  kMemberOffsets = 11,
  kMembers = 12,
  kMemberWeights = 13,
};
inline constexpr uint32_t kArtifactSectionMax = 13;

/// Human-readable section name for error messages ("pi", "member_offsets",
/// ...); "unknown" for an id outside the enum.
const char* ArtifactSectionName(uint32_t id);

/// Decoded (or to-be-encoded) contents of one .cpdb artifact. Plain data;
/// dimension/consistency checks happen in the codec.
struct ModelArtifact {
  int32_t num_communities = 0;
  int32_t num_topics = 0;
  uint64_t num_users = 0;
  uint64_t vocab_size = 0;
  int32_t num_time_bins = 1;
  /// Lineage stamp (header field; 0 for cold trains, N for the artifact
  /// of ingest batch N).
  uint64_t generation = 0;

  std::vector<double> pi;          ///< U x C, row-major.
  std::vector<double> theta;       ///< C x Z, row-major.
  std::vector<double> phi;         ///< Z x W, row-major.
  std::vector<double> eta;         ///< C x C x Z.
  std::vector<double> weights;     ///< kNumDiffusionWeights.
  std::vector<double> popularity;  ///< T x Z.

  /// Bundled vocabulary (vocab section): empty, or exactly vocab_size words
  /// with parallel occurrence counts. Word id == position.
  std::vector<std::string> vocab_words;
  std::vector<int64_t> vocab_frequencies;

  bool has_vocabulary() const { return !vocab_words.empty(); }

  /// Reconstructs a Vocabulary from the bundled section into `out`.
  /// FailedPrecondition when none is bundled; InvalidArgument on duplicate
  /// words (ids would not be dense).
  Status BuildVocabulary(Vocabulary* out) const;

  /// InvalidArgument when any matrix size disagrees with the header dims.
  Status Validate() const;
};

/// Encoder knobs. The defaults produce the canonical serving artifact.
struct ArtifactWriteOptions {
  /// k of the stored top-k membership/posting sections (the paper's top-5
  /// convention matches ProfileIndexOptions' default). 0 omits the
  /// membership sections (eta_agg is always stored).
  uint32_t derived_top_k = 5;
  /// Section alignment in bytes (power of two >= 8; 4096 = page size).
  uint32_t section_alignment = 4096;
};

/// Serializes the artifact into a byte string.
StatusOr<std::string> EncodeModelArtifact(
    const ModelArtifact& artifact, const ArtifactWriteOptions& options = {});

/// Parses a byte string produced by EncodeModelArtifact onto the heap.
/// Typed failures (ParseV3Layout's taxonomy): InvalidArgument for bad
/// magic/endianness/dims/corrupt section table, Unimplemented for any
/// version but 3, OutOfRange for truncated, out-of-bounds, or trailing
/// bytes. Errors name the offending section.
StatusOr<ModelArtifact> DecodeModelArtifact(const std::string& bytes);

/// Whole-file convenience wrappers around the codec. Writes publish
/// atomically (temp file + rename; see WriteStringToFile), so a live
/// mapping of the previous file at `path` stays valid.
Status WriteModelArtifact(const std::string& path,
                          const ModelArtifact& artifact,
                          const ArtifactWriteOptions& options = {});
StatusOr<ModelArtifact> ReadModelArtifact(const std::string& path);

/// Parsed geometry: where every section lives inside the raw bytes.
/// Produced by ParseV3Layout after full validation (alignment, bounds,
/// overlap, checksum, size-vs-dims), shared by the heap decoder and the
/// mmap reader so the two cannot disagree on what a valid file is.
struct ArtifactV3Layout {
  int32_t num_communities = 0;
  int32_t num_topics = 0;
  uint64_t num_users = 0;
  uint64_t vocab_size = 0;
  int32_t num_time_bins = 1;
  uint64_t num_weights = 0;
  uint32_t section_alignment = 0;
  uint32_t derived_top_k = 0;  ///< As written; effective k = min(k, |C|).
  uint64_t generation = 0;
  uint64_t vocab_count = 0;  ///< Bundled words (0 or vocab_size).

  struct Extent {
    uint64_t offset = 0;  ///< 0 = section absent.
    uint64_t length = 0;
  };
  /// Indexed by ArtifactSection id (entry 0 unused).
  Extent sections[kArtifactSectionMax + 1];

  int32_t effective_top_k() const;
  bool has_derived() const { return derived_top_k > 0; }
};

/// Validates `data[0..size)` as a .cpdb artifact and fills `layout`: magic,
/// version (Unimplemented, naming it, for anything but 3), byte order,
/// checksum, table, section geometry and vocab/posting internals, with
/// section-named typed errors.
Status ParseV3Layout(const char* data, size_t size, ArtifactV3Layout* layout);

/// A .cpdb artifact mapped read-only into the address space: the zero-copy
/// counterpart of DecodeModelArtifact. Open() validates the whole layout
/// up front (same checks as the heap decoder), then the accessors are raw
/// spans into the mapping — no rows are copied, the kernel pages the file
/// in on demand and N concurrent generations share clean pages. Immutable
/// and safe to share across threads; the mapping lives until the last
/// shared_ptr drops.
class MappedModelArtifact {
 public:
  /// mmaps and validates `path`. NotFound when the file cannot be opened;
  /// otherwise the ParseV3Layout taxonomy.
  static StatusOr<std::shared_ptr<const MappedModelArtifact>> Open(
      const std::string& path);

  ~MappedModelArtifact();
  MappedModelArtifact(const MappedModelArtifact&) = delete;
  MappedModelArtifact& operator=(const MappedModelArtifact&) = delete;

  // ----- header -----
  int32_t num_communities() const { return layout_.num_communities; }
  int32_t num_topics() const { return layout_.num_topics; }
  uint64_t num_users() const { return layout_.num_users; }
  uint64_t vocab_size() const { return layout_.vocab_size; }
  int32_t num_time_bins() const { return layout_.num_time_bins; }
  uint64_t generation() const { return layout_.generation; }
  /// Effective stored k (min(derived_top_k, |C|)); 0 = no stored
  /// membership/posting sections.
  int32_t stored_top_k() const { return layout_.effective_top_k(); }

  // ----- zero-copy section views (valid for the mapping's lifetime) -----
  std::span<const double> pi() const { return Doubles(ArtifactSection::kPi); }
  std::span<const double> theta() const {
    return Doubles(ArtifactSection::kTheta);
  }
  std::span<const double> phi() const {
    return Doubles(ArtifactSection::kPhi);
  }
  std::span<const double> eta() const {
    return Doubles(ArtifactSection::kEta);
  }
  std::span<const double> weights() const {
    return Doubles(ArtifactSection::kWeights);
  }
  std::span<const double> popularity() const {
    return Doubles(ArtifactSection::kPopularity);
  }
  std::span<const double> eta_agg() const {
    return Doubles(ArtifactSection::kEtaAgg);
  }
  std::span<const int32_t> topk_communities() const;
  std::span<const double> topk_weights() const {
    return Doubles(ArtifactSection::kTopkWeights);
  }
  std::span<const uint64_t> member_offsets() const;
  std::span<const int32_t> members() const;
  std::span<const double> member_weights() const {
    return Doubles(ArtifactSection::kMemberWeights);
  }

  // ----- vocabulary (strings are decoded, not zero-copy) -----
  bool has_vocabulary() const { return layout_.vocab_count != 0; }
  /// FailedPrecondition when the file bundles no vocabulary.
  Status BuildVocabulary(Vocabulary* out) const;

  /// Heap copy of the core estimates + vocabulary (generation preserved) —
  /// the bridge back to the vector-based world (re-encode, delta builds).
  ModelArtifact Materialize() const;

  const std::string& path() const { return path_; }
  size_t mapped_bytes() const { return size_; }

 private:
  MappedModelArtifact() = default;

  const char* SectionData(ArtifactSection id) const {
    return data_ + layout_.sections[static_cast<uint32_t>(id)].offset;
  }
  uint64_t SectionLength(ArtifactSection id) const {
    return layout_.sections[static_cast<uint32_t>(id)].length;
  }
  std::span<const double> Doubles(ArtifactSection id) const {
    return {reinterpret_cast<const double*>(SectionData(id)),
            static_cast<size_t>(SectionLength(id) / sizeof(double))};
  }

  std::string path_;
  const char* data_ = nullptr;  ///< mmap base (page-aligned).
  size_t size_ = 0;
  ArtifactV3Layout layout_;
};

}  // namespace cpd

#endif  // CPD_CORE_MODEL_ARTIFACT_H_
