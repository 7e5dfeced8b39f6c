#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/clock.h"
#include "parallel/thread_pool.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cpd::server {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMicros(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

/// Splits "/a/{b}/c" into segments; the leading empty segment is dropped.
std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> segments = Split(path, '/', /*skip_empty=*/false);
  if (!segments.empty() && segments.front().empty()) {
    segments.erase(segments.begin());
  }
  // A trailing slash yields a trailing empty segment; treat "/x/" like "/x".
  if (!segments.empty() && segments.back().empty()) segments.pop_back();
  return segments;
}

}  // namespace

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.threads < 1) options_.threads = 1;
  if (options_.max_connections < 1) options_.max_connections = 1;
  if (options_.max_inflight < 1) options_.max_inflight = 1;
  AttachMetrics(&own_metrics_);
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::AttachMetrics(obs::MetricsRegistry* metrics) {
  CPD_CHECK(!running());
  metrics_ = metrics;
  connections_accepted_ =
      metrics->GetCounter("cpd_http_connections_accepted_total",
                          "Connections accepted by the listener.");
  connections_rejected_ =
      metrics->GetCounter("cpd_http_connections_rejected_total",
                          "Connections shed at the max_connections cap.");
  requests_ = metrics->GetCounter("cpd_http_requests_total",
                                  "Well-framed requests read off connections.");
  const char* const classes[] = {"2xx", "4xx", "5xx"};
  for (size_t i = 0; i < 3; ++i) {
    responses_[i] =
        metrics->GetCounter("cpd_http_responses_total",
                            "Responses written, by status class.",
                            {{"class", classes[i]}});
  }
  rejected_429_ =
      metrics->GetCounter("cpd_http_rejected_429_total",
                          "Requests shed by the inflight admission cap.");
  deadline_504_ =
      metrics->GetCounter("cpd_http_deadline_504_total",
                          "Requests failed by the server deadline.");
  const char* const stage_help =
      "Transport-side request stages (no query type), microseconds.";
  queue_wait_us_ = metrics->GetHistogram("cpd_request_stage_us", stage_help,
                                         {{"stage", "queue_wait"}});
  write_us_ = metrics->GetHistogram("cpd_request_stage_us", stage_help,
                                    {{"stage", "write"}});
}

void HttpServer::Handle(const std::string& method, const std::string& pattern,
                        Handler handler) {
  CPD_CHECK(!running());
  routes_.push_back(
      Route{method, SplitPath(pattern), std::move(handler)});
}

Status HttpServer::Start() {
  if (running()) return Status::FailedPrecondition("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket failed: %s", strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("not a numeric IPv4 host: " +
                                   options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IOError(
        StrFormat("bind to %s:%d failed: %s", options_.host.c_str(),
                  options_.port, strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  // The backlog must carry a simultaneous connect storm up to the
  // connection cap (the 256/1024-connection bench levels open everything
  // at once; an overflowed SYN queue costs each victim a 1s retransmit).
  // The kernel clamps to net.core.somaxconn.
  const int backlog = std::max(128, options_.max_connections);
  if (::listen(listen_fd_, backlog) != 0) {
    const Status status =
        Status::IOError(StrFormat("listen failed: %s", strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(options_.threads));
  EventLoopOptions loop_options;
  loop_options.max_connections = options_.max_connections;
  loop_options.idle_timeout_ms = options_.idle_timeout_ms;
  loop_options.max_head_bytes = options_.max_head_bytes;
  loop_options.max_body_bytes = options_.max_body_bytes;
  event_loop_ = std::make_unique<EventLoop>(
      listen_fd_, loop_options, static_cast<EventLoopHandler*>(this));
  Status started = event_loop_->Start();
  if (!started.ok()) {
    event_loop_.reset();
    pool_.reset();
    running_.store(false, std::memory_order_release);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return started;
  }
  CPD_LOG(Info) << "cpd_serve listening on " << options_.host << ":" << port_
                << " (epoll io, " << options_.threads
                << " workers, max_inflight " << options_.max_inflight << ")";
  return Status::OK();
}

HttpResponse HttpServer::Render429() const {
  HttpResponse response = MakeErrorResponse(
      429, Status::ResourceExhausted("server overloaded, retry later"),
      /*retry_after_ms=*/options_.retry_after_seconds * 1000);
  response.headers["Retry-After"] =
      std::to_string(options_.retry_after_seconds);
  return response;
}

HttpResponse HttpServer::Dispatch(HttpRequest* request) {
  // Trace id: honor the client's X-Request-Id (bounded — it lands in logs
  // and the echo header), else mint cpd-<n>. Every routed response echoes
  // it; framing errors never reach Dispatch and carry none.
  const std::string& inbound = request->Header("x-request-id");
  request->trace_id =
      inbound.empty()
          ? "cpd-" + std::to_string(
                         next_trace_id_.fetch_add(1, std::memory_order_relaxed))
          : inbound.substr(0, 128);

  // Request-level admission control: a bounded number of requests may
  // execute concurrently; everything beyond it is shed immediately instead
  // of queueing behind slow handlers.
  int inflight = inflight_.load(std::memory_order_relaxed);
  do {
    if (inflight >= options_.max_inflight) {
      rejected_429_->Increment();
      HttpResponse shed = Render429();
      shed.headers["X-Request-Id"] = request->trace_id;
      return shed;
    }
  } while (!inflight_.compare_exchange_weak(inflight, inflight + 1,
                                            std::memory_order_acq_rel));

  const Clock::time_point start = Clock::now();
  HttpResponse response;
  std::map<std::string, std::string> params;
  const Route* route = MatchRoute(request->method, request->path, &params);
  if (route == nullptr) {
    response = MakeErrorResponse(404, Status::NotFound("no such endpoint"));
  } else {
    // Attach the captures in place: the caller owns the request and a copy
    // here would duplicate up to max_body_bytes on every hit.
    request->path_params = std::move(params);
    response = route->handler(*request);
  }
  if (options_.deadline_ms > 0) {
    const double elapsed_ms = ElapsedMicros(start) / 1000.0;
    if (elapsed_ms > options_.deadline_ms) {
      deadline_504_->Increment();
      response = MakeErrorResponse(
          504, Status::DeadlineExceeded(
                   StrFormat("request exceeded the %d ms deadline",
                             options_.deadline_ms)));
    }
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  response.headers["X-Request-Id"] = request->trace_id;
  return response;
}

const HttpServer::Route* HttpServer::MatchRoute(
    const std::string& method, const std::string& path,
    std::map<std::string, std::string>* params) const {
  const std::vector<std::string> segments = SplitPath(path);
  for (const Route& route : routes_) {
    if (route.method != method) continue;
    if (route.segments.size() != segments.size()) continue;
    bool matched = true;
    std::map<std::string, std::string> captured;
    for (size_t i = 0; i < segments.size(); ++i) {
      const std::string& pattern = route.segments[i];
      if (pattern.size() >= 2 && pattern.front() == '{' &&
          pattern.back() == '}') {
        captured[pattern.substr(1, pattern.size() - 2)] = segments[i];
      } else if (pattern != segments[i]) {
        matched = false;
        break;
      }
    }
    if (matched) {
      *params = std::move(captured);
      return &route;
    }
  }
  return nullptr;
}

void HttpServer::OnRequest(uint64_t token, HttpRequest request) {
  requests_->Increment();
  const int64_t received_us = obs::NowMicros();
  // The event loop must never block on a handler: route the request onto a
  // worker and post the response back to the loop when it is ready.
  pool_->Submit([this, token, received_us,
                 request = std::move(request)]() mutable {
    // Queue wait: parsed-on-the-loop to picked-up-by-a-worker.
    request.timing.queue_us =
        static_cast<double>(obs::NowMicros() - received_us);
    queue_wait_us_->Record(request.timing.queue_us);
    const HttpResponse response = Dispatch(&request);
    CountResponse(response.status);
    const bool keep_alive =
        !stopping_.load(std::memory_order_acquire) && request.KeepAlive();
    LogRequest(request, response,
               static_cast<double>(obs::NowMicros() - received_us));
    event_loop_->CompleteRequest(token, response, keep_alive);
  });
}

void HttpServer::OnResponseWritten(double micros) { write_us_->Record(micros); }

void HttpServer::LogRequest(const HttpRequest& request,
                            const HttpResponse& response, double total_us) {
  if (options_.log_requests) {
    CPD_LOG(Info) << request.method << " " << request.target << " -> "
                  << response.status << " ("
                  << StrFormat("%.0f", total_us) << " us) ["
                  << request.trace_id << "]";
  }
  if (options_.slow_request_us > 0 &&
      total_us >= static_cast<double>(options_.slow_request_us)) {
    std::string breakdown;
    const auto stage = [&breakdown](const char* name, double value) {
      if (value < 0) return;  // -1 = the stage did not happen.
      breakdown += StrFormat(" %s=%.0fus", name, value);
    };
    stage("queue_wait", request.timing.queue_us);
    stage("parse", request.timing.parse_us);
    stage("scoring", request.timing.scoring_us);
    stage("serialize", request.timing.serialize_us);
    CPD_LOG(Warning) << "slow request [" << request.trace_id << "] "
                     << request.method << " " << request.target << " -> "
                     << response.status << " total="
                     << StrFormat("%.0f", total_us) << "us" << breakdown;
  }
}

HttpResponse HttpServer::OnConnectionShed() {
  connections_rejected_->Increment();
  return Render429();
}

HttpResponse HttpServer::OnFramingError(const Status& error,
                                        int http_status) {
  const HttpResponse response = MakeErrorResponse(http_status, error);
  CountResponse(response.status);
  return response;
}

void HttpServer::OnConnectionAccepted() {
  connections_accepted_->Increment();
}

void HttpServer::CountResponse(int status) {
  responses_[status < 300 ? 0 : status < 500 ? 1 : 2]->Increment();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // The loop drains (in-flight worker responses still flush through
  // CompleteRequest) before the pool is joined.
  event_loop_->Stop();
  ::close(listen_fd_);
  listen_fd_ = -1;
  pool_.reset();
  event_loop_.reset();
  CPD_LOG(Info) << "server on port " << port_ << " stopped";
}

}  // namespace cpd::server
