#include "core/state_snapshot.h"

#include <atomic>

#include "util/logging.h"

namespace cpd {

namespace {

// Parameter versions are process-unique, not per-instance: a slot that
// cached "version N restored" can never be fooled by a different (or
// reconstructed) snapshot whose own counter happens to match.
uint64_t NextParametersVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void StateSnapshot::CaptureFrom(const ModelState& state) {
  CaptureParameters(state);
  CaptureSweepState(state);
}

void StateSnapshot::CaptureSweepState(const ModelState& state) {
  num_communities_ = state.num_communities;
  num_topics_ = state.num_topics;
  vocab_size_ = state.vocab_size;
  alpha_ = state.alpha;
  beta_ = state.beta;
  doc_topic_ = state.doc_topic;
  doc_community_ = state.doc_community;
  n_uc_ = state.n_uc;
  n_u_ = state.n_u;
  n_cz_ = state.n_cz;
  n_c_ = state.n_c;
  n_zw_ = state.n_zw;
  n_z_ = state.n_z;
  lambda_ = state.lambda;
  delta_ = state.delta;
  captured_ = true;
}

void StateSnapshot::CaptureParameters(const ModelState& state) {
  eta_ = state.eta;
  weights_ = state.weights;
  popularity_ = state.popularity;
  parameters_version_ = NextParametersVersion();
}

void StateSnapshot::RestoreTo(ModelState* working) const {
  RestoreSweepStateTo(working);
  RestoreParametersTo(working);
}

void StateSnapshot::RestoreSweepStateTo(ModelState* working) const {
  CPD_CHECK(captured_);
  CPD_CHECK_EQ(working->doc_topic.size(), doc_topic_.size());
  CPD_CHECK_EQ(working->n_zw.size(), n_zw_.size());
  working->InvalidateUserCommunityRows();
  working->doc_topic = doc_topic_;
  working->doc_community = doc_community_;
  working->n_uc = n_uc_;
  working->n_u = n_u_;
  working->n_cz = n_cz_;
  working->n_c = n_c_;
  working->n_zw = n_zw_;
  working->n_z = n_z_;
  working->lambda = lambda_;
  working->delta = delta_;
}

void StateSnapshot::RestoreParametersTo(ModelState* working) const {
  CPD_CHECK_GT(parameters_version_, 0u);
  working->eta = eta_;
  working->weights = weights_;
  working->popularity = popularity_;
}

void CounterDelta::Clear() {
  doc_moves_.clear();
  user_community_.clear();
  community_topic_.clear();
  topic_word_.clear();
  community_docs_.clear();
  topic_tokens_.clear();
}

size_t CounterDelta::NonzeroEntries() const {
  size_t n = 0;
  for (const auto& kv : user_community_) n += (kv.second != 0);
  for (const auto& kv : community_topic_) n += (kv.second != 0);
  for (const auto& kv : topic_word_) n += (kv.second != 0);
  for (const auto& kv : community_docs_) n += (kv.second != 0);
  for (const auto& kv : topic_tokens_) n += (kv.second != 0);
  return n;
}

void CounterDelta::RecordMove(const Document& doc, DocId d, int32_t c_old,
                              int32_t z_old, int32_t c_new, int32_t z_new,
                              int num_communities, int num_topics,
                              size_t vocab_size) {
  if (c_old == c_new && z_old == z_new) return;
  doc_moves_.push_back({d, z_new, c_new});

  const int64_t kc = num_communities;
  const int64_t kz = num_topics;
  if (c_old != c_new) {
    const int64_t u = static_cast<int64_t>(doc.user);
    --user_community_[u * kc + c_old];
    ++user_community_[u * kc + c_new];
    --community_docs_[c_old];
    ++community_docs_[c_new];
  }
  --community_topic_[static_cast<int64_t>(c_old) * kz + z_old];
  ++community_topic_[static_cast<int64_t>(c_new) * kz + z_new];
  if (z_old != z_new) {
    const int64_t vocab = static_cast<int64_t>(vocab_size);
    for (WordId w : doc.words) {
      --topic_word_[static_cast<int64_t>(z_old) * vocab + w];
      ++topic_word_[static_cast<int64_t>(z_new) * vocab + w];
    }
    topic_tokens_[z_old] -= static_cast<int64_t>(doc.words.size());
    topic_tokens_[z_new] += static_cast<int64_t>(doc.words.size());
  }
}

void CounterDelta::Merge(const CounterDelta& other) {
  doc_moves_.insert(doc_moves_.end(), other.doc_moves_.begin(),
                    other.doc_moves_.end());
  for (const auto& [k, v] : other.user_community_) user_community_[k] += v;
  for (const auto& [k, v] : other.community_topic_) community_topic_[k] += v;
  for (const auto& [k, v] : other.topic_word_) topic_word_[k] += v;
  for (const auto& [k, v] : other.community_docs_) community_docs_[k] += v;
  for (const auto& [k, v] : other.topic_tokens_) topic_tokens_[k] += v;
}

void CounterDelta::ApplyTo(ModelState* state) const {
  state->InvalidateUserCommunityRows();
  for (const DocMove& move : doc_moves_) {
    state->doc_topic[static_cast<size_t>(move.doc)] = move.topic;
    state->doc_community[static_cast<size_t>(move.doc)] = move.community;
  }
  for (const auto& [k, v] : user_community_) {
    state->n_uc[static_cast<size_t>(k)] += v;
  }
  for (const auto& [k, v] : community_topic_) {
    state->n_cz[static_cast<size_t>(k)] += v;
  }
  for (const auto& [k, v] : topic_word_) {
    state->n_zw[static_cast<size_t>(k)] += v;
  }
  for (const auto& [k, v] : community_docs_) {
    state->n_c[static_cast<size_t>(k)] += v;
  }
  for (const auto& [k, v] : topic_tokens_) {
    state->n_z[static_cast<size_t>(k)] += v;
  }
}

}  // namespace cpd
