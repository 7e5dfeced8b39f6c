#ifndef CPD_SERVER_COALESCER_H_
#define CPD_SERVER_COALESCER_H_

/// \file coalescer.h
/// Request-level micro-batching for single /v1/query requests. Concurrent
/// single queries accumulate in a bounded window and are fanned through the
/// existing QueryEngine::QueryBatch path, amortizing index walks and
/// heap-based top-k across requests; per-slot responses are handed back to
/// their waiting handler threads.
///
/// Protocol: the first request to arrive opens a batch and becomes its
/// *leader*; it sleeps up to `window_us` while followers join. The batch
/// seals when it reaches `max_batch` slots, when the window expires, or
/// when a request arrives holding a different model generation (a hot swap
/// mid-window: batches never mix generations, so the newcomer opens a
/// fresh batch and the old one flushes). The leader then runs QueryBatch
/// over the sealed slots and wakes the followers, each of which takes its
/// own positionally-aligned StatusOr — QueryBatch executes exactly
/// `Query(request)` per slot, so a coalesced response is byte-identical to
/// an uncoalesced one (the server determinism suite pins this).
///
/// Handler threads block at most ~window_us + batch execution; the leader
/// executes inline on its own worker thread (never re-entering the server
/// pool, which could deadlock when every worker is a waiting follower).
/// window_us == 0 disables coalescing: Execute() degenerates to a direct
/// engine->Query() call with zero locking.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/query_engine.h"
#include "server/model_registry.h"
#include "util/status.h"

namespace cpd::server {

struct CoalescerOptions {
  int window_us = 0;   ///< Micro-batch window; 0 disables coalescing.
  int max_batch = 16;  ///< Slots per batch; full batches flush early.
};

/// Monotonic counters (statsz "coalescer" section).
struct CoalescerStats {
  uint64_t requests = 0;        ///< Requests routed through Execute().
  uint64_t batches = 0;         ///< Batches flushed.
  uint64_t coalesced = 0;       ///< Requests sharing a batch of size >= 2.
  uint64_t flush_full = 0;      ///< Batches sealed by max_batch.
  uint64_t flush_timeout = 0;   ///< Batches sealed by the window expiring.
  uint64_t flush_mismatch = 0;  ///< Batches sealed by a generation change.
};

class Coalescer {
 public:
  explicit Coalescer(CoalescerOptions options);

  /// Answers one single query against `model`'s engine, possibly batched
  /// with concurrent callers holding the same snapshot. Blocks up to the
  /// window plus batch execution; the caller renders the StatusOr exactly
  /// as it would an inline engine->Query() result.
  ///
  /// `batch_wait_us` (optional) receives the microseconds this call spent
  /// blocked on the batching protocol (the leader's window sleep, or a
  /// follower's wait — which spans the leader's batch execution too, since
  /// that is what the follower is blocked on). Untouched on the disabled
  /// direct path, so callers can pre-set it to 0.
  StatusOr<serve::QueryResponse> Execute(
      const std::shared_ptr<const ServingModel>& model,
      serve::QueryRequest request, double* batch_wait_us = nullptr);

  bool enabled() const { return options_.window_us > 0; }
  const CoalescerOptions& options() const { return options_; }
  CoalescerStats stats() const;

 private:
  /// One in-flight micro-batch. Lifetime is shared by the leader and every
  /// follower; slots are positionally aligned requests/results.
  struct Batch {
    std::shared_ptr<const ServingModel> model;
    std::vector<serve::QueryRequest> requests;
    std::vector<StatusOr<serve::QueryResponse>> results;
    bool sealed = false;  ///< No more joins; the leader may flush.
    bool done = false;    ///< Results are populated; followers may take.
    std::condition_variable cv;
  };

  /// Seals `batch` (idempotent) under mutex_ and detaches it from open_.
  void Seal(Batch* batch, std::atomic<uint64_t>* reason);

  CoalescerOptions options_;

  std::mutex mutex_;
  std::shared_ptr<Batch> open_;  ///< Joinable batch, null between windows.

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> flush_full_{0};
  std::atomic<uint64_t> flush_timeout_{0};
  std::atomic<uint64_t> flush_mismatch_{0};
};

}  // namespace cpd::server

#endif  // CPD_SERVER_COALESCER_H_
