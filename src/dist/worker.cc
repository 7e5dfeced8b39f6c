#include "dist/worker.h"

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/diffusion_features.h"
#include "core/gibbs_sampler.h"
#include "core/model_state.h"
#include "core/state_snapshot.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cpd::dist {

namespace {

/// Everything a session materializes from kSetup: the rebuilt graph plus one
/// working slot (state + sampler + shared-table set), mirroring the
/// in-process executors' Slot.
struct Session {
  Session(SetupMsg setup_msg)
      : setup(std::move(setup_msg)),
        caches(setup.graph),
        working(setup.graph, setup.config),
        sampler(setup.graph, setup.config, caches, &working) {
    sampler.UseExternalSparseTables(&tables);
  }

  SetupMsg setup;
  LinkCaches caches;
  ModelState working;
  GibbsSampler sampler;
  SparseSamplerTables tables;
  StateSnapshot snapshot;
  KernelFlags flags;
  uint64_t sweep = 0;
  uint64_t restored_params_version = 0;
  bool have_sweep = false;
};

void SendErrorBestEffort(int fd, const Status& status) {
  (void)SendFrame(fd, MsgType::kError, EncodeErrorBody(status.ToString()));
}

/// Reads and discards until the peer hangs up; the "hang" fault mode. The
/// coordinator's deadline handler shuts the socket down, which unblocks this
/// recv — so a hung worker thread never outlives its test.
void DrainUntilEof(int fd) {
  char buf[4096];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
}

Status Serve(int fd, const WorkerHooks& hooks) {
  // --- handshake: echo Hello back verbatim, then expect Setup. ---
  auto hello_frame = RecvFrame(fd);
  if (!hello_frame.ok()) return hello_frame.status();
  if (hello_frame->type != MsgType::kHello) {
    return Status::InvalidArgument(
        std::string("worker: expected Hello, got ") +
        MsgTypeName(hello_frame->type));
  }
  auto hello = HelloMsg::Decode(hello_frame->body);
  if (!hello.ok()) return hello.status();
  CPD_RETURN_IF_ERROR(SendFrame(fd, MsgType::kHelloAck, hello_frame->body));

  auto setup_frame = RecvFrame(fd);
  if (!setup_frame.ok()) return setup_frame.status();
  if (setup_frame->type != MsgType::kSetup) {
    return Status::InvalidArgument(
        std::string("worker: expected Setup, got ") +
        MsgTypeName(setup_frame->type));
  }
  auto setup = SetupMsg::Decode(setup_frame->body);
  if (!setup.ok()) return setup.status();
  if (setup->graph.num_users() != hello->num_users ||
      setup->graph.num_documents() != hello->num_documents ||
      setup->graph.vocabulary_size() != hello->vocab_size ||
      setup->config.num_communities != hello->num_communities ||
      setup->config.num_topics != hello->num_topics ||
      setup->shard_users.size() != hello->num_shards) {
    return Status::InvalidArgument(
        "worker: Setup does not match the Hello dimensions");
  }
  Session session(std::move(*setup));
  CPD_RETURN_IF_ERROR(SendFrame(fd, MsgType::kReady, std::string_view()));

  // --- sweep/shard loop. ---
  int completed_shards = 0;
  for (;;) {
    auto frame = RecvFrame(fd);
    if (!frame.ok()) {
      // EOF / reset after the handshake is the coordinator going away;
      // drain cleanly rather than report an error.
      return Status::OK();
    }
    switch (frame->type) {
      case MsgType::kShutdown:
        return Status::OK();

      case MsgType::kSweepBegin: {
        auto msg = SweepBeginMsg::Decode(frame->body, &session.snapshot);
        if (!msg.ok()) return msg.status();
        session.sweep = msg->sweep;
        session.flags = msg->flags;
        session.have_sweep = true;
        if (session.setup.config.sampler_mode == SamplerMode::kSparse) {
          session.tables.Rebuild(session.snapshot, nullptr);
        }
        break;
      }

      case MsgType::kRunShard: {
        auto msg = RunShardMsg::Decode(frame->body);
        if (!msg.ok()) return msg.status();
        if (!session.have_sweep || msg->sweep != session.sweep) {
          return Status::FailedPrecondition(
              "worker: RunShard for a sweep that was never begun");
        }
        if (msg->shard >= session.setup.shard_users.size()) {
          return Status::InvalidArgument("worker: shard index out of range");
        }
        if (hooks.fail_after_shards >= 0 &&
            completed_shards >= hooks.fail_after_shards) {
          if (hooks.hang_instead) {
            DrainUntilEof(fd);
            return Status::OK();
          }
          ::shutdown(fd, SHUT_RDWR);
          return Status::OK();
        }

        const std::vector<UserId>& users =
            session.setup.shard_users[msg->shard];
        Rng rng(1);
        rng.LoadState(msg->rng);
        CounterDelta delta;
        WallTimer timer;
        // Mirrors ShardExecutorBase::RunShard: full sweep-state restore per
        // shard (each shard starts from the snapshot, not from the previous
        // shard's private state), parameter restore only on version change.
        if (!users.empty()) {
          session.snapshot.RestoreSweepStateTo(&session.working);
          if (session.restored_params_version !=
              session.snapshot.parameters_version()) {
            session.snapshot.RestoreParametersTo(&session.working);
            session.restored_params_version =
                session.snapshot.parameters_version();
          }
          session.sampler.set_freeze_communities(
              session.flags.freeze_communities);
          session.sampler.set_community_uses_content(
              session.flags.community_uses_content);
          session.sampler.set_community_uses_diffusion(
              session.flags.community_uses_diffusion);
          session.sampler.SweepUsers(users, &rng);
          const SocialGraph& graph = session.setup.graph;
          for (UserId u : users) {
            for (DocId d : graph.DocumentsOf(u)) {
              const size_t di = static_cast<size_t>(d);
              delta.RecordMove(graph.document(d), d,
                               session.snapshot.CommunityOf(d),
                               session.snapshot.TopicOf(d),
                               session.working.doc_community[di],
                               session.working.doc_topic[di],
                               session.setup.config.num_communities,
                               session.setup.config.num_topics,
                               session.working.vocab_size);
            }
          }
        }

        ShardResultMsg result;
        result.sweep = msg->sweep;
        result.shard = msg->shard;
        result.rng = rng.SaveState();
        result.shard_seconds = timer.ElapsedSeconds();
        result.mh = session.sampler.mh_stats();
        result.collapse = session.sampler.collapse_cache_stats();
        session.sampler.ResetMhStats();
        session.sampler.ResetCollapseCacheStats();
        CPD_RETURN_IF_ERROR(
            SendFrame(fd, MsgType::kShardResult, result.Encode(delta)));
        ++completed_shards;
        break;
      }

      default:
        return Status::InvalidArgument(
            std::string("worker: unexpected message ") +
            MsgTypeName(frame->type));
    }
  }
}

}  // namespace

Status ServeWorker(int fd, const WorkerHooks& hooks) {
  const Status status = Serve(fd, hooks);
  if (!status.ok()) SendErrorBestEffort(fd, status);
  ::close(fd);
  return status;
}

}  // namespace cpd::dist
