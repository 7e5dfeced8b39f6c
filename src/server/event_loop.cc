#include "server/event_loop.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fcntl.h>

#include <cstring>
#include <utility>

#include "obs/clock.h"
#include "util/logging.h"

namespace cpd::server {

namespace {

// epoll user-data tokens for the two non-connection fds. Connection tokens
// start at 1 and count up; the sentinels sit at the top of the space.
constexpr uint64_t kListenToken = ~uint64_t{0};
constexpr uint64_t kWakeToken = ~uint64_t{0} - 1;

constexpr int kEpollTickMs = 50;  // Idle sweep / drain poll cadence.

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK): " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

EventLoop::EventLoop(int listen_fd, EventLoopOptions options,
                     EventLoopHandler* handler)
    : listen_fd_(listen_fd), options_(options), handler_(handler) {}

EventLoop::~EventLoop() {
  Stop();
  // The fds stay open across Stop(): a worker may still post a (dropped)
  // completion after the loop thread exits, and Wake() touching a closed
  // eventfd would race. The owner destroys the loop only once no caller
  // can reach CompleteRequest.
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

Status EventLoop::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("event loop already running");
  }
  Status nonblocking = SetNonBlocking(listen_fd_);
  if (!nonblocking.ok()) return nonblocking;

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError("epoll_create1: " +
                           std::string(std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::IOError("eventfd: " + std::string(std::strerror(errno)));
  }

  struct epoll_event event {};
  event.events = EPOLLIN;
  event.data.u64 = kListenToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) < 0) {
    return Status::IOError("epoll_ctl(listen): " +
                           std::string(std::strerror(errno)));
  }
  event.events = EPOLLIN;
  event.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    return Status::IOError("epoll_ctl(wake): " +
                           std::string(std::strerror(errno)));
  }

  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void EventLoop::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::CompleteRequest(uint64_t token, HttpResponse response,
                                bool keep_alive) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(
        Completion{token, std::move(response), keep_alive});
  }
  Wake();
}

void EventLoop::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  // A full eventfd counter still wakes the loop; the value is irrelevant.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Loop() {
  bool draining = false;
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];

  for (;;) {
    const int num_events =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, kEpollTickMs);
    if (num_events < 0) {
      if (errno == EINTR) continue;
      CPD_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }

    DrainCompletions();

    for (int i = 0; i < num_events; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kListenToken) {
        AcceptAll();
        continue;
      }
      if (token == kWakeToken) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      auto it = connections_.find(token);
      if (it == connections_.end()) continue;  // Closed earlier this tick.
      Connection* connection = &it->second;
      const uint32_t mask = events[i].events;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        // Peer reset / socket error. If a request is in flight the token
        // must stay valid for its completion, which will observe
        // peer_closed and drop the connection; otherwise close now.
        connection->peer_closed = true;
        if (!connection->in_flight) CloseConnection(token);
        continue;
      }
      if ((mask & EPOLLIN) != 0) {
        HandleReadable(connection);
        it = connections_.find(token);
        if (it == connections_.end()) continue;
        connection = &it->second;
      }
      if ((mask & EPOLLOUT) != 0) HandleWritable(connection);
    }

    const bool stop_requested = stopping_.load(std::memory_order_acquire);
    if (stop_requested && !draining) {
      draining = true;
      drain_deadline_ = Clock::now() + std::chrono::milliseconds(
                                           options_.drain_timeout_ms);
      // Stop accepting: the listener leaves the epoll set; unaccepted
      // backlog entries are reset when the caller closes the fd.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      CloseIdleForDrain();
    }
    if (draining) {
      CloseIdleForDrain();
      if (connections_.empty()) break;
      if (Clock::now() >= drain_deadline_) {
        CPD_LOG(Warning) << "event loop drain timed out with "
                         << connections_.size()
                         << " connection(s); force-closing";
        while (!connections_.empty()) {
          CloseConnection(connections_.begin()->first);
        }
        break;
      }
    } else {
      SweepIdle();
    }
  }

  // Completions posted after the force-close find no connection and are
  // dropped by DrainCompletions on the next Stop(); clear what is queued.
  std::lock_guard<std::mutex> lock(completions_mutex_);
  completions_.clear();
}

void EventLoop::AcceptAll() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient accept error.
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (stopping_.load(std::memory_order_acquire) ||
        connections_.size() >=
            static_cast<size_t>(options_.max_connections)) {
      // Over capacity (or draining): best-effort 429, then close.
      const std::string shed =
          SerializeResponse(handler_->OnConnectionShed(), false);
      [[maybe_unused]] ssize_t n =
          ::send(fd, shed.data(), shed.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }

    Status nonblocking = SetNonBlocking(fd);
    if (!nonblocking.ok()) {
      ::close(fd);
      continue;
    }
    handler_->OnConnectionAccepted();
    const uint64_t token = next_token_++;
    auto [it, inserted] =
        connections_.try_emplace(token, fd, token, options_);
    (void)inserted;
    struct epoll_event event {};
    event.events = EPOLLIN;
    event.data.u64 = token;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      ::close(fd);
      connections_.erase(it);
      continue;
    }
    it->second.interest = EPOLLIN;
  }
}

void EventLoop::HandleReadable(Connection* connection) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      connection->last_activity = Clock::now();
      connection->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (!connection->parser.NeedsMore()) break;
      continue;
    }
    if (n == 0) {
      connection->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(connection->token);
    return;
  }
  ProcessParsed(connection);
}

void EventLoop::ProcessParsed(Connection* connection) {
  if (connection->in_flight || !connection->out.empty()) return;

  switch (connection->parser.state()) {
    case RequestParser::State::kComplete: {
      HttpRequest request = connection->parser.TakeRequest();
      connection->in_flight = true;
      connection->last_activity = Clock::now();
      // One request in flight per connection: reads pause until the
      // response is written (responses stay ordered; a pipelining client
      // just sees its later requests answered sequentially).
      SetInterest(connection, 0);
      handler_->OnRequest(connection->token, std::move(request));
      return;
    }
    case RequestParser::State::kError: {
      const HttpResponse response = handler_->OnFramingError(
          connection->parser.error(),
          connection->parser.error_http_status());
      connection->close_after_write = true;
      SetInterest(connection, 0);  // The framing is broken; stop reading.
      QueueWrite(connection, SerializeResponse(response, false));
      return;
    }
    case RequestParser::State::kHead:
    case RequestParser::State::kBody:
      if (connection->peer_closed) {
        if (connection->parser.HasPartialData()) {
          // Mid-message close: answer the malformed framing with a 400
          // even though the write is best-effort.
          const bool mid_body =
              connection->parser.state() == RequestParser::State::kBody;
          const HttpResponse response = handler_->OnFramingError(
              Status::InvalidArgument(mid_body
                                          ? "connection closed mid-body"
                                          : "connection closed mid-head"),
              400);
          connection->close_after_write = true;
          QueueWrite(connection, SerializeResponse(response, false));
        } else {
          CloseConnection(connection->token);  // Clean end-of-stream.
        }
      }
      return;
  }
}

void EventLoop::QueueWrite(Connection* connection, std::string bytes) {
  if (connection->out.empty()) {
    connection->out = std::move(bytes);
    connection->out_offset = 0;
  } else {
    connection->out.append(bytes);
  }
  FlushWrites(connection);
}

void EventLoop::HandleWritable(Connection* connection) {
  FlushWrites(connection);
}

void EventLoop::FlushWrites(Connection* connection) {
  while (connection->out_offset < connection->out.size()) {
    const ssize_t n = ::send(connection->fd,
                             connection->out.data() + connection->out_offset,
                             connection->out.size() - connection->out_offset,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      connection->out_offset += static_cast<size_t>(n);
      connection->last_activity = Clock::now();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SetInterest(connection, connection->interest | EPOLLOUT);
      return;
    }
    if (errno == EINTR) continue;
    CloseConnection(connection->token);  // Peer gone mid-write.
    return;
  }

  // Fully written.
  connection->out.clear();
  connection->out_offset = 0;
  if (connection->write_start_us >= 0) {
    handler_->OnResponseWritten(static_cast<double>(
        obs::NowMicros() - connection->write_start_us));
    connection->write_start_us = -1;
  }
  if (connection->close_after_write) {
    CloseConnection(connection->token);
    return;
  }
  if (!connection->in_flight) {
    SetInterest(connection, EPOLLIN);
    // Pipelined bytes may already hold the next complete request.
    ProcessParsed(connection);
  }
}

void EventLoop::DrainCompletions() {
  std::vector<Completion> completions;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions.swap(completions_);
  }
  for (Completion& completion : completions) {
    auto it = connections_.find(completion.token);
    if (it == connections_.end()) continue;  // Connection died mid-handler.
    Connection* connection = &it->second;
    connection->in_flight = false;
    if (connection->peer_closed && !connection->parser.HasPartialData() &&
        connection->parser.state() != RequestParser::State::kComplete) {
      // Peer reset while the handler ran and left nothing to answer into.
      CloseConnection(completion.token);
      continue;
    }
    if (!completion.keep_alive) connection->close_after_write = true;
    // Only completion responses time the write stage (framing/shed writes
    // do not): one sample per dispatched request.
    connection->write_start_us = obs::NowMicros();
    QueueWrite(connection,
               SerializeResponse(completion.response, completion.keep_alive));
  }
}

void EventLoop::SetInterest(Connection* connection, uint32_t events) {
  if (connection->interest == events) return;
  struct epoll_event event {};
  event.events = events;
  event.data.u64 = connection->token;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &event) == 0) {
    connection->interest = events;
  }
}

void EventLoop::CloseConnection(uint64_t token) {
  auto it = connections_.find(token);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  connections_.erase(it);
}

void EventLoop::SweepIdle() {
  if (options_.idle_timeout_ms <= 0) return;
  const auto cutoff =
      Clock::now() - std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<uint64_t> idle;
  for (const auto& [token, connection] : connections_) {
    if (!connection.in_flight && connection.out.empty() &&
        connection.last_activity < cutoff) {
      idle.push_back(token);
    }
  }
  for (uint64_t token : idle) CloseConnection(token);
}

void EventLoop::CloseIdleForDrain() {
  // Keep-alive connections with no request in flight and nothing queued to
  // write are closed outright; the client sees a clean end-of-stream.
  std::vector<uint64_t> idle;
  for (const auto& [token, connection] : connections_) {
    if (!connection.in_flight && connection.out.empty()) {
      idle.push_back(token);
    }
  }
  for (uint64_t token : idle) CloseConnection(token);
}

}  // namespace cpd::server
