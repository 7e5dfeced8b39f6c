#include "core/model_artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "core/artifact_derived.h"
#include "core/model_state.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace cpd {

namespace {

/// Overflow-proof arithmetic for size checks against attacker-controlled
/// headers: every dimension fits in 64 bits, so no product of two (plus a
/// sum of a handful) can wrap 128.
using uint128_t = unsigned __int128;

// Little-endian fixed-width append/read helpers. The encoder always writes
// host byte order and stamps kModelArtifactEndianTag; the decoder rejects a
// foreign tag instead of byte-swapping (every deployment target of this
// library is little-endian; a swap path would be untested dead code).
template <typename T>
void AppendRaw(std::string* out, const T& value) {
  const char* bytes = reinterpret_cast<const char*>(&value);
  out->append(bytes, sizeof(T));
}

template <typename T>
T ReadAt(const char* data, size_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(char* data, size_t offset, const T& value) {
  std::memcpy(data + offset, &value, sizeof(T));
}

// ----- fixed geometry -----
// 0  magic[8]           40 i32 T
// 8  u32 version        44 u64 #weights
// 12 u32 endian tag     52 u32 section_alignment
// 16 i32 |C|            56 u32 section_count
// 20 i32 |Z|            60 u32 derived_top_k
// 24 u64 |U|            64 u32 header_checksum
// 32 u64 |W|            68 u64 model_generation
// 76 section table (24 bytes per entry), then aligned sections.
constexpr size_t kV3FixedHeaderBytes = 76;
constexpr size_t kV3TableEntryBytes = 24;
constexpr size_t kV3ChecksumOffset = 64;
constexpr uint32_t kV3MaxSections = 64;
constexpr uint32_t kV3MaxAlignment = 1u << 24;

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

/// FNV-1a 32 over the header + section table, with the stored checksum
/// field read as zero — so *any* flipped bit in the fixed header or the
/// offset table is a typed error, not a silently different layout.
uint32_t HeaderChecksum(const char* data, size_t header_end) {
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < header_end; ++i) {
    const unsigned char byte =
        (i >= kV3ChecksumOffset && i < kV3ChecksumOffset + sizeof(uint32_t))
            ? 0u
            : static_cast<unsigned char>(data[i]);
    hash = (hash ^ byte) * 16777619u;
  }
  return hash;
}

uint128_t SectionExpectedBytes(ArtifactSection id,
                               const ArtifactV3Layout& layout);

/// Parses one bundled-vocabulary section body (count already validated by
/// ParseV3Layout; the bounds checks stay defensively).
Status ParseVocabSection(const char* section, uint64_t length,
                         std::vector<std::string>* words,
                         std::vector<int64_t>* frequencies) {
  if (length < sizeof(uint64_t)) {
    return Status::OutOfRange("model artifact: truncated vocabulary section");
  }
  const uint64_t count = ReadAt<uint64_t>(section, 0);
  // A word entry is at least 12 bytes; a crafted count cannot force a huge
  // reserve ahead of the bounded walk below.
  words->reserve(static_cast<size_t>(
      std::min<uint64_t>(count, length / 12 + 1)));
  frequencies->reserve(words->capacity());
  uint64_t cursor = sizeof(uint64_t);
  for (uint64_t i = 0; i < count; ++i) {
    if (cursor + sizeof(uint32_t) > length) {
      return Status::OutOfRange("model artifact: truncated vocabulary section");
    }
    const uint32_t word_length = ReadAt<uint32_t>(section, cursor);
    cursor += sizeof(uint32_t);
    if (word_length > length || cursor + word_length > length ||
        cursor + word_length + sizeof(int64_t) > length) {
      return Status::OutOfRange("model artifact: truncated vocabulary section");
    }
    words->emplace_back(section + cursor, word_length);
    cursor += word_length;
    frequencies->push_back(ReadAt<int64_t>(section, cursor));
    cursor += sizeof(int64_t);
  }
  if (cursor != length) {
    return Status::InvalidArgument(StrFormat(
        "model artifact: %llu trailing bytes in the vocabulary section",
        static_cast<unsigned long long>(length - cursor)));
  }
  return Status::OK();
}

Status VocabularyFromWords(const std::vector<std::string>& words,
                           const std::vector<int64_t>& frequencies,
                           Vocabulary* out) {
  Vocabulary vocab;
  for (size_t i = 0; i < words.size(); ++i) {
    if (vocab.GetOrAdd(words[i]) != static_cast<WordId>(i)) {
      return Status::InvalidArgument(
          "model artifact: duplicate vocabulary word '" + words[i] + "'");
    }
    vocab.CountOccurrence(static_cast<WordId>(i), frequencies[i]);
  }
  *out = std::move(vocab);
  return Status::OK();
}

}  // namespace

const char* ArtifactSectionName(uint32_t id) {
  switch (static_cast<ArtifactSection>(id)) {
    case ArtifactSection::kPi:
      return "pi";
    case ArtifactSection::kTheta:
      return "theta";
    case ArtifactSection::kPhi:
      return "phi";
    case ArtifactSection::kEta:
      return "eta";
    case ArtifactSection::kWeights:
      return "weights";
    case ArtifactSection::kPopularity:
      return "popularity";
    case ArtifactSection::kVocab:
      return "vocab";
    case ArtifactSection::kEtaAgg:
      return "eta_agg";
    case ArtifactSection::kTopkCommunities:
      return "topk_communities";
    case ArtifactSection::kTopkWeights:
      return "topk_weights";
    case ArtifactSection::kMemberOffsets:
      return "member_offsets";
    case ArtifactSection::kMembers:
      return "members";
    case ArtifactSection::kMemberWeights:
      return "member_weights";
  }
  return "unknown";
}

int32_t ArtifactV3Layout::effective_top_k() const {
  if (derived_top_k == 0) return 0;
  return static_cast<int32_t>(std::min<uint64_t>(
      derived_top_k, static_cast<uint64_t>(num_communities)));
}

Status ModelArtifact::Validate() const {
  if (num_communities < 1 || num_topics < 1 || num_time_bins < 1) {
    return Status::InvalidArgument("model artifact: non-positive dimensions");
  }
  if (weights.size() != static_cast<size_t>(kNumDiffusionWeights)) {
    return Status::InvalidArgument(
        StrFormat("model artifact: %zu diffusion weights, expected %d",
                  weights.size(), kNumDiffusionWeights));
  }
  const size_t kc = static_cast<size_t>(num_communities);
  const size_t kz = static_cast<size_t>(num_topics);
  const size_t kt = static_cast<size_t>(num_time_bins);
  const auto check = [](size_t actual, size_t expected, const char* name) {
    if (actual != expected) {
      return Status::InvalidArgument(
          StrFormat("model artifact: %s has %zu entries, header implies %zu",
                    name, actual, expected));
    }
    return Status::OK();
  };
  CPD_RETURN_IF_ERROR(check(pi.size(), num_users * kc, "pi"));
  CPD_RETURN_IF_ERROR(check(theta.size(), kc * kz, "theta"));
  CPD_RETURN_IF_ERROR(check(phi.size(), kz * vocab_size, "phi"));
  CPD_RETURN_IF_ERROR(check(eta.size(), kc * kc * kz, "eta"));
  CPD_RETURN_IF_ERROR(check(popularity.size(), kt * kz, "popularity"));
  if (!vocab_words.empty()) {
    CPD_RETURN_IF_ERROR(check(vocab_words.size(), vocab_size, "vocabulary"));
    CPD_RETURN_IF_ERROR(check(vocab_frequencies.size(), vocab_words.size(),
                              "vocabulary frequencies"));
  } else if (!vocab_frequencies.empty()) {
    return Status::InvalidArgument(
        "model artifact: vocabulary frequencies without words");
  }
  return Status::OK();
}

Status ModelArtifact::BuildVocabulary(Vocabulary* out) const {
  if (!has_vocabulary()) {
    return Status::FailedPrecondition(
        "model artifact carries no bundled vocabulary (saved without one)");
  }
  CPD_RETURN_IF_ERROR(Validate());
  return VocabularyFromWords(vocab_words, vocab_frequencies, out);
}

namespace {

std::string EncodeVocabSection(const ModelArtifact& artifact) {
  std::string out;
  AppendRaw(&out, static_cast<uint64_t>(artifact.vocab_words.size()));
  for (size_t i = 0; i < artifact.vocab_words.size(); ++i) {
    const std::string& word = artifact.vocab_words[i];
    AppendRaw(&out, static_cast<uint32_t>(word.size()));
    out.append(word);
    AppendRaw(&out, artifact.vocab_frequencies[i]);
  }
  return out;
}

}  // namespace

StatusOr<std::string> EncodeModelArtifact(const ModelArtifact& artifact,
                                          const ArtifactWriteOptions& options) {
  CPD_RETURN_IF_ERROR(artifact.Validate());
  const uint32_t alignment = options.section_alignment;
  if (alignment < 8 || alignment > kV3MaxAlignment ||
      (alignment & (alignment - 1)) != 0) {
    return Status::InvalidArgument(StrFormat(
        "model artifact: section alignment %u is not a power of two in "
        "[8, %u]",
        alignment, kV3MaxAlignment));
  }
  const ArtifactDerived derived = BuildArtifactDerived(
      std::span<const double>(artifact.pi),
      std::span<const double>(artifact.eta), artifact.num_communities,
      artifact.num_topics, static_cast<size_t>(artifact.num_users),
      static_cast<int>(std::min<uint32_t>(options.derived_top_k, 1u << 20)));
  const std::string vocab_section = EncodeVocabSection(artifact);

  struct Payload {
    ArtifactSection id;
    const char* data;
    size_t bytes;
  };
  const auto doubles = [](const std::vector<double>& v, ArtifactSection id) {
    return Payload{id, reinterpret_cast<const char*>(v.data()),
                   v.size() * sizeof(double)};
  };
  std::vector<Payload> payloads = {
      doubles(artifact.pi, ArtifactSection::kPi),
      doubles(artifact.theta, ArtifactSection::kTheta),
      doubles(artifact.phi, ArtifactSection::kPhi),
      doubles(artifact.eta, ArtifactSection::kEta),
      doubles(artifact.weights, ArtifactSection::kWeights),
      doubles(artifact.popularity, ArtifactSection::kPopularity),
      Payload{ArtifactSection::kVocab, vocab_section.data(),
              vocab_section.size()},
      doubles(derived.eta_agg, ArtifactSection::kEtaAgg),
  };
  if (options.derived_top_k > 0) {
    payloads.push_back(Payload{
        ArtifactSection::kTopkCommunities,
        reinterpret_cast<const char*>(derived.topk_communities.data()),
        derived.topk_communities.size() * sizeof(int32_t)});
    payloads.push_back(doubles(derived.topk_weights,
                               ArtifactSection::kTopkWeights));
    payloads.push_back(Payload{
        ArtifactSection::kMemberOffsets,
        reinterpret_cast<const char*>(derived.member_offsets.data()),
        derived.member_offsets.size() * sizeof(uint64_t)});
    payloads.push_back(
        Payload{ArtifactSection::kMembers,
                reinterpret_cast<const char*>(derived.members.data()),
                derived.members.size() * sizeof(int32_t)});
    payloads.push_back(doubles(derived.member_weights,
                               ArtifactSection::kMemberWeights));
  }

  const size_t table_end =
      kV3FixedHeaderBytes + payloads.size() * kV3TableEntryBytes;
  std::vector<size_t> offsets(payloads.size());
  size_t cursor = table_end;
  for (size_t i = 0; i < payloads.size(); ++i) {
    cursor = AlignUp(cursor, alignment);
    offsets[i] = cursor;
    cursor += payloads[i].bytes;
  }
  std::string out(cursor, '\0');
  char* data = out.data();
  std::memcpy(data, kModelArtifactMagic, sizeof(kModelArtifactMagic));
  WriteAt<uint32_t>(data, 8, kModelArtifactVersion);
  WriteAt<uint32_t>(data, 12, kModelArtifactEndianTag);
  WriteAt<int32_t>(data, 16, artifact.num_communities);
  WriteAt<int32_t>(data, 20, artifact.num_topics);
  WriteAt<uint64_t>(data, 24, artifact.num_users);
  WriteAt<uint64_t>(data, 32, artifact.vocab_size);
  WriteAt<int32_t>(data, 40, artifact.num_time_bins);
  WriteAt<uint64_t>(data, 44, static_cast<uint64_t>(artifact.weights.size()));
  WriteAt<uint32_t>(data, 52, alignment);
  WriteAt<uint32_t>(data, 56, static_cast<uint32_t>(payloads.size()));
  WriteAt<uint32_t>(data, 60, options.derived_top_k);
  WriteAt<uint32_t>(data, kV3ChecksumOffset, 0u);
  WriteAt<uint64_t>(data, 68, artifact.generation);
  for (size_t i = 0; i < payloads.size(); ++i) {
    const size_t entry = kV3FixedHeaderBytes + i * kV3TableEntryBytes;
    WriteAt<uint32_t>(data, entry, static_cast<uint32_t>(payloads[i].id));
    WriteAt<uint32_t>(data, entry + 4, 0u);
    WriteAt<uint64_t>(data, entry + 8, offsets[i]);
    WriteAt<uint64_t>(data, entry + 16, payloads[i].bytes);
    if (payloads[i].bytes != 0) {
      std::memcpy(data + offsets[i], payloads[i].data, payloads[i].bytes);
    }
  }
  WriteAt<uint32_t>(data, kV3ChecksumOffset, HeaderChecksum(data, table_end));
  return out;
}

Status ParseV3Layout(const char* data, size_t size,
                     ArtifactV3Layout* layout) {
  if (size < sizeof(kModelArtifactMagic) ||
      std::memcmp(data, kModelArtifactMagic, sizeof(kModelArtifactMagic)) !=
          0) {
    return Status::InvalidArgument("not a CPD binary model artifact");
  }
  if (size < 16) {
    return Status::OutOfRange("model artifact: truncated header");
  }
  const uint32_t version = ReadAt<uint32_t>(data, 8);
  if (version != kModelArtifactVersion) {
    return Status::Unimplemented(
        StrFormat("model artifact: version %u not supported (reader "
                  "understands version %u only)",
                  version, kModelArtifactVersion));
  }
  if (ReadAt<uint32_t>(data, 12) != kModelArtifactEndianTag) {
    return Status::InvalidArgument(
        "model artifact: foreign byte order (written on an incompatible "
        "host)");
  }
  if (size < kV3FixedHeaderBytes) {
    return Status::OutOfRange(StrFormat(
        "model artifact: truncated header (%zu bytes, need %zu)", size,
        kV3FixedHeaderBytes));
  }
  layout->num_communities = ReadAt<int32_t>(data, 16);
  layout->num_topics = ReadAt<int32_t>(data, 20);
  layout->num_users = ReadAt<uint64_t>(data, 24);
  layout->vocab_size = ReadAt<uint64_t>(data, 32);
  layout->num_time_bins = ReadAt<int32_t>(data, 40);
  layout->num_weights = ReadAt<uint64_t>(data, 44);
  layout->section_alignment = ReadAt<uint32_t>(data, 52);
  const uint32_t section_count = ReadAt<uint32_t>(data, 56);
  layout->derived_top_k = ReadAt<uint32_t>(data, 60);
  const uint32_t stored_checksum = ReadAt<uint32_t>(data, kV3ChecksumOffset);
  layout->generation = ReadAt<uint64_t>(data, 68);

  if (layout->num_communities < 1 || layout->num_topics < 1 ||
      layout->num_time_bins < 1) {
    return Status::InvalidArgument(
        "model artifact: corrupt header (non-positive dimensions)");
  }
  if (layout->num_weights != static_cast<uint64_t>(kNumDiffusionWeights)) {
    return Status::InvalidArgument(
        StrFormat("model artifact: %llu diffusion weights, expected %d",
                  static_cast<unsigned long long>(layout->num_weights),
                  kNumDiffusionWeights));
  }
  const uint32_t alignment = layout->section_alignment;
  if (alignment < 8 || alignment > kV3MaxAlignment ||
      (alignment & (alignment - 1)) != 0) {
    return Status::InvalidArgument(StrFormat(
        "model artifact: section alignment %u is not a power of two in "
        "[8, %u]",
        alignment, kV3MaxAlignment));
  }
  if (section_count < 1 || section_count > kV3MaxSections) {
    return Status::InvalidArgument(
        StrFormat("model artifact: implausible section count %u",
                  section_count));
  }
  const size_t table_end =
      kV3FixedHeaderBytes + section_count * kV3TableEntryBytes;
  if (table_end > size) {
    return Status::OutOfRange(StrFormat(
        "model artifact: truncated section table (%u sections need %zu "
        "bytes, file has %zu)",
        section_count, table_end, size));
  }
  if (HeaderChecksum(data, table_end) != stored_checksum) {
    return Status::InvalidArgument(
        "model artifact: header checksum mismatch (corrupt header or "
        "section table)");
  }

  for (uint32_t i = 0; i <= kArtifactSectionMax; ++i) {
    layout->sections[i] = ArtifactV3Layout::Extent{};
  }
  struct Placed {
    uint64_t offset;
    uint64_t end;
    uint32_t id;
  };
  std::vector<Placed> placed;
  placed.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t entry = kV3FixedHeaderBytes + i * kV3TableEntryBytes;
    const uint32_t id = ReadAt<uint32_t>(data, entry);
    const uint32_t reserved = ReadAt<uint32_t>(data, entry + 4);
    const uint64_t offset = ReadAt<uint64_t>(data, entry + 8);
    const uint64_t length = ReadAt<uint64_t>(data, entry + 16);
    if (id < 1 || id > kArtifactSectionMax) {
      return Status::InvalidArgument(
          StrFormat("model artifact: unknown section id %u", id));
    }
    const char* name = ArtifactSectionName(id);
    if (reserved != 0) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s has a nonzero reserved field", name));
    }
    if (layout->sections[id].offset != 0) {
      return Status::InvalidArgument(
          StrFormat("model artifact: duplicate section %s", name));
    }
    if (offset % alignment != 0) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s misaligned (offset %llu, alignment "
          "%u)",
          name, static_cast<unsigned long long>(offset), alignment));
    }
    if (offset < table_end) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s overlaps the header/section table "
          "(offset %llu)",
          name, static_cast<unsigned long long>(offset)));
    }
    if (offset > size || length > size - offset) {
      return Status::OutOfRange(StrFormat(
          "model artifact: section %s out of bounds (offset %llu + %llu "
          "bytes > file size %zu)",
          name, static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(length), size));
    }
    layout->sections[id] = ArtifactV3Layout::Extent{offset, length};
    placed.push_back(Placed{offset, offset + length, id});
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) {
              return a.offset < b.offset;
            });
  for (size_t i = 1; i < placed.size(); ++i) {
    if (placed[i - 1].end > placed[i].offset) {
      return Status::InvalidArgument(
          StrFormat("model artifact: sections %s and %s overlap",
                    ArtifactSectionName(placed[i - 1].id),
                    ArtifactSectionName(placed[i].id)));
    }
  }
  const uint64_t last_end = placed.empty() ? table_end : placed.back().end;
  if (last_end != size) {
    return Status::OutOfRange(StrFormat(
        "model artifact: %llu trailing bytes after the last section",
        static_cast<unsigned long long>(size - last_end)));
  }

  for (uint32_t id = 1; id <= kArtifactSectionMax; ++id) {
    const bool required =
        id <= static_cast<uint32_t>(ArtifactSection::kEtaAgg) ||
        layout->has_derived();
    const bool present = layout->sections[id].offset != 0;
    if (required && !present) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: missing section %s", ArtifactSectionName(id)));
    }
    if (!required && present) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s present but derived_top_k is 0",
          ArtifactSectionName(id)));
    }
  }

  for (uint32_t id = 1; id <= kArtifactSectionMax; ++id) {
    if (layout->sections[id].offset == 0) continue;
    if (id == static_cast<uint32_t>(ArtifactSection::kVocab)) continue;
    const uint128_t expected =
        SectionExpectedBytes(static_cast<ArtifactSection>(id), *layout);
    if (static_cast<uint128_t>(layout->sections[id].length) != expected) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s has %llu bytes, dims imply %llu",
          ArtifactSectionName(id),
          static_cast<unsigned long long>(layout->sections[id].length),
          static_cast<unsigned long long>(
              expected > ~0ull ? ~0ull : static_cast<uint64_t>(expected))));
    }
  }

  // Vocabulary internals: count must be 0 or |W| and the entries must pack
  // the section exactly.
  {
    const auto& vocab = layout->sections[static_cast<uint32_t>(
        ArtifactSection::kVocab)];
    if (vocab.length < sizeof(uint64_t)) {
      return Status::OutOfRange(
          "model artifact: truncated vocabulary section");
    }
    const uint64_t count = ReadAt<uint64_t>(data + vocab.offset, 0);
    if (count != 0 && count != layout->vocab_size) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: vocabulary section has %llu words, header says "
          "|W|=%llu",
          static_cast<unsigned long long>(count),
          static_cast<unsigned long long>(layout->vocab_size)));
    }
    uint64_t cursor = sizeof(uint64_t);
    for (uint64_t i = 0; i < count; ++i) {
      if (cursor + sizeof(uint32_t) > vocab.length) {
        return Status::OutOfRange(
            "model artifact: truncated vocabulary section");
      }
      const uint32_t word_length =
          ReadAt<uint32_t>(data + vocab.offset, cursor);
      cursor += sizeof(uint32_t);
      if (word_length > vocab.length || cursor + word_length > vocab.length ||
          cursor + word_length + sizeof(int64_t) > vocab.length) {
        return Status::OutOfRange(
            "model artifact: truncated vocabulary section");
      }
      cursor += word_length + sizeof(int64_t);
    }
    if (cursor != vocab.length) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: %llu trailing bytes in the vocabulary section",
          static_cast<unsigned long long>(vocab.length - cursor)));
    }
    layout->vocab_count = count;
  }

  // Derived-structure internals: every id a query would chase must resolve,
  // so a corrupt stored structure is a load error, not an out-of-bounds
  // read at serve time.
  if (layout->has_derived()) {
    const uint64_t k = static_cast<uint64_t>(layout->effective_top_k());
    const uint64_t total = layout->num_users * k;
    const uint64_t* offsets = reinterpret_cast<const uint64_t*>(
        data +
        layout->sections[static_cast<uint32_t>(ArtifactSection::kMemberOffsets)]
            .offset);
    const size_t c_count = static_cast<size_t>(layout->num_communities);
    if (offsets[0] != 0 || offsets[c_count] != total) {
      return Status::InvalidArgument(
          "model artifact: section member_offsets corrupt (does not span "
          "the postings)");
    }
    for (size_t c = 0; c < c_count; ++c) {
      if (offsets[c] > offsets[c + 1]) {
        return Status::InvalidArgument(StrFormat(
            "model artifact: section member_offsets corrupt (offset %zu "
            "decreases)",
            c));
      }
    }
    const int32_t* topk = reinterpret_cast<const int32_t*>(
        data + layout->sections[static_cast<uint32_t>(
                                    ArtifactSection::kTopkCommunities)]
                   .offset);
    for (uint64_t i = 0; i < total; ++i) {
      if (topk[i] < 0 || topk[i] >= layout->num_communities) {
        return Status::InvalidArgument(StrFormat(
            "model artifact: section topk_communities corrupt (entry %llu "
            "is community %d, |C|=%d)",
            static_cast<unsigned long long>(i), topk[i],
            layout->num_communities));
      }
    }
    const int32_t* members = reinterpret_cast<const int32_t*>(
        data +
        layout->sections[static_cast<uint32_t>(ArtifactSection::kMembers)]
            .offset);
    for (uint64_t i = 0; i < total; ++i) {
      if (members[i] < 0 ||
          static_cast<uint64_t>(members[i]) >= layout->num_users) {
        return Status::InvalidArgument(StrFormat(
            "model artifact: section members corrupt (entry %llu is user "
            "%d, |U|=%llu)",
            static_cast<unsigned long long>(i), members[i],
            static_cast<unsigned long long>(layout->num_users)));
      }
    }
  }
  return Status::OK();
}

namespace {

uint128_t SectionExpectedBytes(ArtifactSection id,
                               const ArtifactV3Layout& layout) {
  const uint128_t kc = static_cast<uint128_t>(layout.num_communities);
  const uint128_t kz = static_cast<uint128_t>(layout.num_topics);
  const uint128_t kt = static_cast<uint128_t>(layout.num_time_bins);
  const uint128_t ku = static_cast<uint128_t>(layout.num_users);
  const uint128_t kw = static_cast<uint128_t>(layout.vocab_size);
  const uint128_t k = static_cast<uint128_t>(layout.effective_top_k());
  switch (id) {
    case ArtifactSection::kPi:
      return ku * kc * sizeof(double);
    case ArtifactSection::kTheta:
      return kc * kz * sizeof(double);
    case ArtifactSection::kPhi:
      return kz * kw * sizeof(double);
    case ArtifactSection::kEta:
      return kc * kc * kz * sizeof(double);
    case ArtifactSection::kWeights:
      return static_cast<uint128_t>(layout.num_weights) * sizeof(double);
    case ArtifactSection::kPopularity:
      return kt * kz * sizeof(double);
    case ArtifactSection::kVocab:
      return 0;  // Validated by the internal walk instead.
    case ArtifactSection::kEtaAgg:
      return kc * kc * sizeof(double);
    case ArtifactSection::kTopkCommunities:
      return ku * k * sizeof(int32_t);
    case ArtifactSection::kTopkWeights:
      return ku * k * sizeof(double);
    case ArtifactSection::kMemberOffsets:
      return (kc + 1) * sizeof(uint64_t);
    case ArtifactSection::kMembers:
      return ku * k * sizeof(int32_t);
    case ArtifactSection::kMemberWeights:
      return ku * k * sizeof(double);
  }
  return 0;
}

/// Heap copy of the core estimates + vocabulary of a validated layout —
/// the one materialization both DecodeModelArtifact and
/// MappedModelArtifact::Materialize use. The derived sections (eta_agg,
/// top-k, postings) are intentionally not surfaced: heap consumers rebuild
/// them from the estimates, which is the reference the stored ones are
/// differentially tested against.
ModelArtifact CopyArtifact(const char* data, const ArtifactV3Layout& layout) {
  ModelArtifact artifact;
  artifact.num_communities = layout.num_communities;
  artifact.num_topics = layout.num_topics;
  artifact.num_users = layout.num_users;
  artifact.vocab_size = layout.vocab_size;
  artifact.num_time_bins = layout.num_time_bins;
  artifact.generation = layout.generation;
  const auto copy = [&](ArtifactSection id) {
    const auto& extent = layout.sections[static_cast<uint32_t>(id)];
    // A range copy, not memcpy into data(): an empty section (|U| = 0 or
    // |W| = 0) leaves the destination vector's data() null.
    const double* begin =
        reinterpret_cast<const double*>(data + extent.offset);
    return std::vector<double>(begin, begin + extent.length / sizeof(double));
  };
  artifact.pi = copy(ArtifactSection::kPi);
  artifact.theta = copy(ArtifactSection::kTheta);
  artifact.phi = copy(ArtifactSection::kPhi);
  artifact.eta = copy(ArtifactSection::kEta);
  artifact.weights = copy(ArtifactSection::kWeights);
  artifact.popularity = copy(ArtifactSection::kPopularity);
  if (layout.vocab_count != 0) {
    const auto& vocab =
        layout.sections[static_cast<uint32_t>(ArtifactSection::kVocab)];
    // ParseV3Layout walked the section, so the parse cannot fail.
    (void)ParseVocabSection(data + vocab.offset, vocab.length,
                            &artifact.vocab_words,
                            &artifact.vocab_frequencies);
  }
  return artifact;
}

}  // namespace

StatusOr<ModelArtifact> DecodeModelArtifact(const std::string& bytes) {
  ArtifactV3Layout layout;
  CPD_RETURN_IF_ERROR(ParseV3Layout(bytes.data(), bytes.size(), &layout));
  return CopyArtifact(bytes.data(), layout);
}

Status WriteModelArtifact(const std::string& path,
                          const ModelArtifact& artifact,
                          const ArtifactWriteOptions& options) {
  auto encoded = EncodeModelArtifact(artifact, options);
  if (!encoded.ok()) return encoded.status();
  return WriteStringToFile(path, *encoded);
}

StatusOr<ModelArtifact> ReadModelArtifact(const std::string& path) {
  // Same status as MappedModelArtifact::Open, so both load modes answer a
  // missing file alike.
  if (!FileExists(path)) {
    return Status::NotFound("cannot open model artifact: " + path);
  }
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  auto decoded = DecodeModelArtifact(*contents);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

// ----- MappedModelArtifact -----

StatusOr<std::shared_ptr<const MappedModelArtifact>> MappedModelArtifact::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open model artifact: " + path);
  }
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat model artifact: " + path);
  }
  const size_t size = static_cast<size_t>(info.st_size);
  if (size == 0) {  // mmap rejects an empty mapping.
    ::close(fd);
    return Status::InvalidArgument("not a CPD binary model artifact: " + path);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed for model artifact: " + path);
  }
  auto mapped = std::shared_ptr<MappedModelArtifact>(new MappedModelArtifact());
  mapped->path_ = path;
  mapped->data_ = static_cast<const char*>(base);
  mapped->size_ = size;
  const Status parsed = ParseV3Layout(mapped->data_, size, &mapped->layout_);
  if (!parsed.ok()) {
    // The shared_ptr destructor unmaps.
    return Status(parsed.code(), parsed.message() + ": " + path);
  }
  return std::shared_ptr<const MappedModelArtifact>(std::move(mapped));
}

MappedModelArtifact::~MappedModelArtifact() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

std::span<const int32_t> MappedModelArtifact::topk_communities() const {
  return {reinterpret_cast<const int32_t*>(
              SectionData(ArtifactSection::kTopkCommunities)),
          static_cast<size_t>(
              SectionLength(ArtifactSection::kTopkCommunities) /
              sizeof(int32_t))};
}

std::span<const uint64_t> MappedModelArtifact::member_offsets() const {
  return {reinterpret_cast<const uint64_t*>(
              SectionData(ArtifactSection::kMemberOffsets)),
          static_cast<size_t>(SectionLength(ArtifactSection::kMemberOffsets) /
                              sizeof(uint64_t))};
}

std::span<const int32_t> MappedModelArtifact::members() const {
  return {
      reinterpret_cast<const int32_t*>(SectionData(ArtifactSection::kMembers)),
      static_cast<size_t>(SectionLength(ArtifactSection::kMembers) /
                          sizeof(int32_t))};
}

Status MappedModelArtifact::BuildVocabulary(Vocabulary* out) const {
  if (!has_vocabulary()) {
    return Status::FailedPrecondition(
        "model artifact carries no bundled vocabulary (saved without one)");
  }
  std::vector<std::string> words;
  std::vector<int64_t> frequencies;
  CPD_RETURN_IF_ERROR(ParseVocabSection(
      SectionData(ArtifactSection::kVocab),
      SectionLength(ArtifactSection::kVocab), &words, &frequencies));
  return VocabularyFromWords(words, frequencies, out);
}

ModelArtifact MappedModelArtifact::Materialize() const {
  return CopyArtifact(data_, layout_);
}

}  // namespace cpd
