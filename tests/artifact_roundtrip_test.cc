// Round-trip properties of the artifact codec, over seeded
// random models instead of one trained fixture, plus models with an empty
// section (|U| = 0 or |W| = 0, which the encoder writes and Validate()
// accepts):
//   - encode -> decode -> encode is byte-stable, for every
//     vocab/top-k/alignment combination the writer accepts;
//   - encode -> mmap -> Materialize -> encode reproduces the original
//     file bitwise (the SaveBinary -> mmap load -> SaveBinary property);
//   - the encoder's bytes for two fixed artifacts match golden hashes, so
//     files already on disk keep loading;
//   - republishing over a path is atomic: a live mapping of the old file
//     keeps its bytes, and a failed write leaves no temp file behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/model_artifact.h"
#include "core/model_state.h"
#include "util/file_util.h"
#include "util/logging.h"

namespace cpd {
namespace {

double RandomValue(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> dist(0.001, 1.0);
  return dist(*rng);
}

void FillRandom(std::mt19937_64* rng, std::vector<double>* values,
                size_t count) {
  values->resize(count);
  for (double& value : *values) value = RandomValue(rng);
}

/// A random but internally consistent artifact: dims drawn small, every
/// estimate positive, vocabulary (when bundled) dense and unique.
ModelArtifact MakeRandomArtifact(std::mt19937_64* rng, bool with_vocab) {
  std::uniform_int_distribution<int> c_dist(1, 6);
  std::uniform_int_distribution<int> z_dist(1, 5);
  std::uniform_int_distribution<int> t_dist(1, 4);
  std::uniform_int_distribution<int> u_dist(1, 40);
  std::uniform_int_distribution<int> w_dist(1, 30);

  ModelArtifact artifact;
  artifact.num_communities = c_dist(*rng);
  artifact.num_topics = z_dist(*rng);
  artifact.num_time_bins = t_dist(*rng);
  artifact.num_users = static_cast<uint64_t>(u_dist(*rng));
  artifact.vocab_size = static_cast<uint64_t>(w_dist(*rng));
  artifact.generation = (*rng)() % 100;

  const size_t c = static_cast<size_t>(artifact.num_communities);
  const size_t z = static_cast<size_t>(artifact.num_topics);
  const size_t t = static_cast<size_t>(artifact.num_time_bins);
  FillRandom(rng, &artifact.pi, artifact.num_users * c);
  FillRandom(rng, &artifact.theta, c * z);
  FillRandom(rng, &artifact.phi, z * artifact.vocab_size);
  FillRandom(rng, &artifact.eta, c * c * z);
  FillRandom(rng, &artifact.weights, static_cast<size_t>(kNumDiffusionWeights));
  FillRandom(rng, &artifact.popularity, t * z);

  if (with_vocab) {
    for (uint64_t w = 0; w < artifact.vocab_size; ++w) {
      artifact.vocab_words.push_back("w" + std::to_string(w));
      artifact.vocab_frequencies.push_back(
          static_cast<int64_t>((*rng)() % 1000));
    }
  }
  CPD_CHECK(artifact.Validate().ok());
  return artifact;
}

/// Random artifacts whose pi (|U| = 0) or phi (|W| = 0) section is empty:
/// a decoder that memcpy()s into an empty vector's null data() trips the
/// sanitizers on these.
std::vector<ModelArtifact> EmptySectionArtifacts() {
  std::vector<ModelArtifact> artifacts;
  for (const bool no_users : {true, false}) {
    std::mt19937_64 rng(no_users ? 51 : 52);
    ModelArtifact artifact = MakeRandomArtifact(&rng, /*with_vocab=*/false);
    if (no_users) {
      artifact.num_users = 0;
      artifact.pi.clear();
    } else {
      artifact.vocab_size = 0;
      artifact.phi.clear();
    }
    CPD_CHECK(artifact.Validate().ok());
    artifacts.push_back(std::move(artifact));
  }
  return artifacts;
}

/// Six seeded random artifacts (even seeds bundle a vocabulary), then the
/// empty-section ones.
std::vector<ModelArtifact> RoundTripInputs(uint64_t first_seed) {
  std::vector<ModelArtifact> inputs;
  for (uint64_t seed = first_seed; seed < first_seed + 6; ++seed) {
    std::mt19937_64 rng(seed);
    inputs.push_back(MakeRandomArtifact(&rng, seed % 2 == 0));
  }
  for (ModelArtifact& artifact : EmptySectionArtifacts()) {
    inputs.push_back(std::move(artifact));
  }
  return inputs;
}

std::string MustEncode(const ModelArtifact& artifact,
                       const ArtifactWriteOptions& options = {}) {
  auto encoded = EncodeModelArtifact(artifact, options);
  CPD_CHECK(encoded.ok());
  return std::move(*encoded);
}

TEST(ArtifactRoundtripTest, V3EncodeDecodeEncodeIsByteStable) {
  const uint32_t top_ks[] = {0, 3, 64};
  const uint32_t alignments[] = {8, 64, 4096};
  const std::vector<ModelArtifact> inputs = RoundTripInputs(1);
  for (size_t input = 0; input < inputs.size(); ++input) {
    const ModelArtifact& artifact = inputs[input];
    for (const uint32_t top_k : top_ks) {
      for (const uint32_t alignment : alignments) {
        ArtifactWriteOptions options;
        options.derived_top_k = top_k;
        options.section_alignment = alignment;
        const std::string first = MustEncode(artifact, options);
        auto decoded = DecodeModelArtifact(first);
        ASSERT_TRUE(decoded.ok())
            << decoded.status().ToString() << " input=" << input
            << " top_k=" << top_k << " align=" << alignment;
        EXPECT_EQ(decoded->pi, artifact.pi);
        EXPECT_EQ(decoded->phi, artifact.phi);
        EXPECT_EQ(decoded->vocab_words, artifact.vocab_words);
        EXPECT_EQ(decoded->generation, artifact.generation);
        // Same knobs, same bytes: the derived sections are a pure function
        // of the estimates, the padding is all zero.
        EXPECT_EQ(MustEncode(*decoded, options), first)
            << "input=" << input << " top_k=" << top_k
            << " align=" << alignment;
      }
    }
  }
}

TEST(ArtifactRoundtripTest, MmapMaterializeReencodeReproducesTheFile) {
  const std::vector<ModelArtifact> inputs = RoundTripInputs(11);
  for (size_t input = 0; input < inputs.size(); ++input) {
    const ModelArtifact& artifact = inputs[input];
    const std::string bytes = MustEncode(artifact);
    const std::string path = ::testing::TempDir() + "/roundtrip_" +
                             std::to_string(input) + ".cpdb";
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());

    auto mapped = MappedModelArtifact::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    // The zero-copy spans are the decoded vectors, bit for bit.
    EXPECT_TRUE(std::equal((*mapped)->pi().begin(), (*mapped)->pi().end(),
                           artifact.pi.begin(), artifact.pi.end()));
    EXPECT_TRUE(std::equal((*mapped)->phi().begin(), (*mapped)->phi().end(),
                           artifact.phi.begin(), artifact.phi.end()));
    EXPECT_EQ((*mapped)->generation(), artifact.generation);

    // Save -> mmap load -> save: the re-encoded file is the original file.
    const ModelArtifact materialized = (*mapped)->Materialize();
    EXPECT_EQ(MustEncode(materialized), bytes) << "input=" << input;
  }
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char byte : bytes) {
    hash = (hash ^ static_cast<unsigned char>(byte)) * 1099511628211ull;
  }
  return hash;
}

/// A fixed artifact with deterministic values, for the golden-bytes test.
ModelArtifact GoldenArtifact(bool with_vocab) {
  ModelArtifact artifact;
  artifact.num_communities = 3;
  artifact.num_topics = 2;
  artifact.num_users = 5;
  artifact.vocab_size = 4;
  artifact.num_time_bins = 2;
  artifact.generation = 7;
  const auto fill = [](std::vector<double>* values, size_t count,
                       double scale) {
    values->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*values)[i] = scale / (1.0 + static_cast<double>(i));
    }
  };
  fill(&artifact.pi, 5 * 3, 1.0);
  fill(&artifact.theta, 3 * 2, 2.0);
  fill(&artifact.phi, 2 * 4, 3.0);
  fill(&artifact.eta, 3 * 3 * 2, 4.0);
  fill(&artifact.weights, static_cast<size_t>(kNumDiffusionWeights), 5.0);
  fill(&artifact.popularity, 2 * 2, 6.0);
  if (with_vocab) {
    artifact.vocab_words = {"apple", "code", "kernel", "fruit"};
    artifact.vocab_frequencies = {4, 3, 2, 1};
  }
  return artifact;
}

// Files already on disk were written by this encoder: if these bytes change,
// old files may no longer load, so bump kModelArtifactVersion rather than
// the constants.
TEST(ArtifactRoundtripTest, EncoderBytesMatchGoldenHashes) {
  const std::string with_vocab = MustEncode(GoldenArtifact(true));
  EXPECT_EQ(with_vocab.size(), 53368u);
  EXPECT_EQ(Fnv1a64(with_vocab), 0x6c73138df947ed20ull);

  ArtifactWriteOptions no_derived;
  no_derived.derived_top_k = 0;
  const std::string bare = MustEncode(GoldenArtifact(false), no_derived);
  EXPECT_EQ(bare.size(), 32840u);
  EXPECT_EQ(Fnv1a64(bare), 0x28f44f7a2a902d47ull);

  // And the golden files decode back to the artifacts they encode.
  for (const auto& [bytes, vocab] :
       {std::pair{&with_vocab, true}, std::pair{&bare, false}}) {
    auto decoded = DecodeModelArtifact(*bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const ModelArtifact expected = GoldenArtifact(vocab);
    EXPECT_EQ(decoded->pi, expected.pi);
    EXPECT_EQ(decoded->eta, expected.eta);
    EXPECT_EQ(decoded->vocab_words, expected.vocab_words);
    EXPECT_EQ(decoded->generation, expected.generation);
  }
}

// An artifact rewritten while a server maps it: the rewrite must land in a
// new file renamed over the path, never in the mapped pages. An in-place
// truncate-and-rewrite would make the old mapping read the new bytes (or
// fault past the new end of file).
TEST(ArtifactRoundtripTest, RewriteKeepsTheLiveMappingOnTheOldFile) {
  std::mt19937_64 rng(61);
  ModelArtifact large = MakeRandomArtifact(&rng, /*with_vocab=*/true);
  const size_t c = static_cast<size_t>(large.num_communities);
  large.num_users = 400;
  FillRandom(&rng, &large.pi, large.num_users * c);
  ModelArtifact small = large;
  small.num_users = 40;
  small.pi.resize(small.num_users * c);
  small.generation = large.generation + 1;
  ASSERT_TRUE(small.Validate().ok());

  const std::string path = ::testing::TempDir() + "/roundtrip_rewrite.cpdb";
  ASSERT_TRUE(WriteModelArtifact(path, large).ok());
  auto old_mapping = MappedModelArtifact::Open(path);
  ASSERT_TRUE(old_mapping.ok()) << old_mapping.status().ToString();
  ASSERT_TRUE(WriteModelArtifact(path, small).ok());

  const std::span<const double> old_pi = (*old_mapping)->pi();
  ASSERT_EQ(old_pi.size(), large.pi.size());
  EXPECT_EQ(std::memcmp(old_pi.data(), large.pi.data(),
                        large.pi.size() * sizeof(double)),
            0);
  EXPECT_TRUE(MustEncode((*old_mapping)->Materialize()) == MustEncode(large));

  auto new_mapping = MappedModelArtifact::Open(path);
  ASSERT_TRUE(new_mapping.ok()) << new_mapping.status().ToString();
  EXPECT_EQ((*new_mapping)->num_users(), small.num_users);
  EXPECT_TRUE(MustEncode((*new_mapping)->Materialize()) == MustEncode(small));
}

TEST(ArtifactRoundtripTest, FailedWriteLeavesNoTempFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "roundtrip_failed";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directory(dir));
  std::mt19937_64 rng(62);
  const ModelArtifact artifact = MakeRandomArtifact(&rng, false);

  // The parent directory does not exist: nothing can be created.
  const Status missing =
      WriteModelArtifact((dir / "absent" / "model.cpdb").string(), artifact);
  EXPECT_EQ(missing.code(), StatusCode::kIOError) << missing.ToString();
  EXPECT_TRUE(fs::is_empty(dir));

  // The path is a directory: the temp file is written, the rename fails,
  // and the temp file is removed again.
  const fs::path occupied = dir / "occupied.cpdb";
  ASSERT_TRUE(fs::create_directory(occupied));
  const Status blocked = WriteModelArtifact(occupied.string(), artifact);
  EXPECT_EQ(blocked.code(), StatusCode::kIOError) << blocked.ToString();
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"occupied.cpdb"});
  EXPECT_TRUE(fs::is_empty(occupied));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cpd
