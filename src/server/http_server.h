#ifndef CPD_SERVER_HTTP_SERVER_H_
#define CPD_SERVER_HTTP_SERVER_H_

/// \file http_server.h
/// Embedded HTTP/1.1 server: one routing/admission/deadline layer over an
/// epoll event loop (src/server/event_loop). A single loop thread
/// multiplexes up to `max_connections` non-blocking connections and frames
/// requests through the incremental RequestParser; fully-parsed requests
/// are submitted to a ThreadPool as work items, and workers post responses
/// back to the loop. Capacity is decoupled from the worker count, which is
/// what lets 256+ mostly-idle keep-alive connections share a handful of
/// workers. Two fresh servers under a frozen clock answer a request trace
/// with byte-identical responses (tests/server_determinism_test.cc).
///
/// Admission control is two-level and never blocks a client unboundedly:
///   - connection level: over `max_connections` the accept edge replies
///     429 + Retry-After inline and closes (nothing waits);
///   - request level: at most `max_inflight` requests execute at once;
///     excess requests on live connections get 429 + Retry-After without
///     tying up the handler path.
/// A per-request deadline (`deadline_ms`) turns over-budget handlers into
/// 504s. Stop() is graceful: in-flight requests finish and their responses
/// are written before the workers are joined (the hot-reload test drives
/// traffic through a swap and a drain and expects zero failed requests).
/// Every non-2xx body this layer renders is the unified error envelope
/// (MakeErrorResponse in server/http.h).
///
/// Routing: exact segments or "{param}" captures ("/v1/membership/{user}"),
/// matched per-method; handlers run on worker threads and must be
/// thread-safe. This layer knows nothing about models — src/server/json_api
/// registers the CPD endpoints on top.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/event_loop.h"
#include "server/http.h"
#include "util/status.h"

namespace cpd {
class ThreadPool;
}  // namespace cpd

namespace cpd::server {

/// Compatibility shim with one value: the event loop is the only I/O path
/// and nothing reads HttpServerOptions::io_mode. It exists only so that
/// perfbench/src/common.cc, which still assigns it, keeps compiling; drop
/// that assignment, then delete the enum and the field.
enum class IoMode { kEpoll };

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;             ///< 0 = ephemeral (tests/bench read port()).
  IoMode io_mode = IoMode::kEpoll;  ///< Unread shim (see IoMode).
  int threads = 4;          ///< Worker threads that run the handlers.
  int max_connections = 1024;    ///< Open connections (excess -> 429).
  int max_inflight = 64;    ///< Requests executing at once (excess -> 429).
  int deadline_ms = 0;      ///< Per-request budget (0 = none; over -> 504).
  int retry_after_seconds = 1;   ///< Advertised on every 429.
  /// The event loop closes a connection with no request in flight and
  /// nothing to write after this long without traffic (0 = never).
  int idle_timeout_ms = 30000;
  size_t max_head_bytes = 64 * 1024;
  size_t max_body_bytes = 4 * 1024 * 1024;
  bool log_requests = true;  ///< One CPD_LOG(Info) line per request.
  /// Requests slower than this (read-to-dispatch-done, microseconds) also
  /// log one Warning line with the per-stage breakdown (request.timing).
  /// 0 disables the slow-request log.
  int64_t slow_request_us = 0;
};

class HttpServer : private EventLoopHandler {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerOptions options);
  ~HttpServer();  ///< Calls Stop().

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for `method` + `pattern`. Pattern segments are
  /// literal or "{name}" captures bound into request.path_params. First
  /// registered match wins; call before Start().
  void Handle(const std::string& method, const std::string& pattern,
              Handler handler);

  /// Binds, listens, and spawns the event loop + worker pool.
  Status Start();

  /// Port actually bound (after Start; useful with options.port = 0).
  int port() const { return port_; }

  /// Graceful shutdown: stops accepting, lets in-flight requests finish and
  /// write their responses, then joins everything. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Registers the transport families in `metrics` and records into them
  /// from then on: the six cpd_http_* counters (every class child of
  /// cpd_http_responses_total up front, so a fresh scrape shows zeros) and
  /// cpd_request_stage_us{stage="queue_wait"|"write"}. RegisterCpdRoutes
  /// attaches the ServiceStats registry; until then the server records
  /// into a registry it owns. `metrics` must outlive the server; call
  /// before Start().
  void AttachMetrics(obs::MetricsRegistry* metrics);

  /// The registry the transport records into (see AttachMetrics).
  const obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct Route {
    std::string method;
    std::vector<std::string> segments;  ///< "{name}" segments capture.
    Handler handler;
  };

  /// Routes + admission + deadline around one parsed request (mutated only
  /// to attach path_params). Returns the response to write (always exactly
  /// one response per request).
  HttpResponse Dispatch(HttpRequest* request);
  const Route* MatchRoute(const std::string& method, const std::string& path,
                          std::map<std::string, std::string>* params) const;
  HttpResponse Render429() const;
  void CountResponse(int status);

  // EventLoopHandler: requests hop from the loop thread onto the worker
  // pool and their responses hop back via CompleteRequest.
  void OnRequest(uint64_t token, HttpRequest request) override;
  HttpResponse OnConnectionShed() override;
  HttpResponse OnFramingError(const Status& error, int http_status) override;
  void OnConnectionAccepted() override;
  void OnResponseWritten(double micros) override;

  /// The access-log line (+ slow-request Warning when the request
  /// exceeded options_.slow_request_us).
  void LogRequest(const HttpRequest& request, const HttpResponse& response,
                  double total_us);

  HttpServerOptions options_;
  std::vector<Route> routes_;
  std::atomic<uint64_t> next_trace_id_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<EventLoop> event_loop_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> inflight_{0};

  // Transport metric handles, all in *metrics_ (AttachMetrics).
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_rejected_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* responses_[3] = {};  ///< By status class: 2xx, 4xx, 5xx.
  obs::Counter* rejected_429_ = nullptr;
  obs::Counter* deadline_504_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  obs::Histogram* write_us_ = nullptr;
};

}  // namespace cpd::server

#endif  // CPD_SERVER_HTTP_SERVER_H_
