#ifndef CPD_SERVER_HTTP_H_
#define CPD_SERVER_HTTP_H_

/// \file http.h
/// HTTP/1.1 message types and framing — the transport vocabulary of the
/// embedded serving layer (no third-party dependency; the subset the
/// serving endpoints need: one request line, headers, an optional
/// Content-Length body, keep-alive connections).
///
/// Three layers live here:
///   - HttpRequest / HttpResponse: plain structs plus serializers;
///   - RequestParser: the incremental request framing the event loop feeds
///     (typed errors: InvalidArgument = malformed framing -> 400,
///     OutOfRange = over a size cap -> 431/413);
///   - HttpClient: a blocking keep-alive loopback client for tests and the
///     closed-loop load generators (bench/obs.cc, perfbench).
///
/// Chunked transfer encoding, TLS, and HTTP/2 are out of scope: the server
/// fronts an in-process QueryEngine on a trusted network edge, and every
/// payload it speaks is a small JSON document.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cpd::server {

/// Per-request stage durations (microseconds), filled progressively as a
/// request moves through the transport and the handler. -1 marks a stage
/// that did not happen (e.g. scoring on a non-query route); the slow-request
/// log prints only the stages that did. Durations measured with
/// obs::NowMicros() so a frozen test clock zeroes them deterministically.
struct RequestTiming {
  double queue_us = -1.0;      ///< Parsed to picked up by a worker.
  double parse_us = -1.0;      ///< JSON body decode + request validation.
  double scoring_us = -1.0;    ///< Engine query time.
  double serialize_us = -1.0;  ///< Response JSON encode.
};

/// One parsed request. Header names are lowercased on parse; `path` is the
/// target with the query string stripped, `query` holds the decoded
/// key=value parameters, and `path_params` is filled by the router for
/// patterns like "/v1/membership/{user}".
struct HttpRequest {
  std::string method;   ///< Uppercase ("GET", "POST").
  std::string target;   ///< Raw request target ("/v1/query?k=5").
  std::string path;     ///< Target without the query string.
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0".
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;
  std::map<std::string, std::string> path_params;
  std::string body;

  /// Trace id assigned by HttpServer::Dispatch (inbound X-Request-Id, or a
  /// generated cpd-<n>), echoed on the response and in access/slow logs.
  std::string trace_id;
  /// Stage timeline; mutable so handlers taking `const HttpRequest&` can
  /// record stages without widening the Handler signature.
  mutable RequestTiming timing;

  /// Lowercased header lookup; empty string when absent.
  const std::string& Header(const std::string& name) const;

  /// Connection semantics the client asked for: HTTP/1.1 defaults to
  /// keep-alive unless "Connection: close"; HTTP/1.0 defaults to close
  /// unless "Connection: keep-alive". Header values compared
  /// case-insensitively.
  bool KeepAlive() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::map<std::string, std::string> headers;  ///< Extra headers.
  std::string body;
};

/// Canonical reason phrase ("OK", "Too Many Requests", ...).
const char* HttpStatusReason(int status);

/// Serializes a response (adds Content-Type, Content-Length and the
/// Connection header implied by `keep_alive`).
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Serializes a client request (adds Host, Content-Length).
std::string SerializeRequest(const HttpRequest& request,
                             const std::string& host);

/// Parses a request head (request line + headers, no body); used by
/// RequestParser and directly by the framing tests.
StatusOr<HttpRequest> ParseRequestHead(std::string_view head);

/// The one error body every non-2xx response uses (docs/HTTP_API.md pins
/// it): {"error":{"code":"<StatusCode name>","message":...}} with an
/// optional "retry_after_ms" (only load-shed 429s carry one). Defined here
/// — below the routes — so the transport's framing/admission errors and
/// json_api's typed errors are the same shape by construction.
HttpResponse MakeErrorResponse(int http_status, const Status& status,
                               int retry_after_ms = 0);

/// Incremental (resumable) HTTP/1.1 request parser — the request framing
/// of the event loop (one parser per connection). Feed()
/// bytes as they arrive; the parser buffers a head, validates the framing
/// (including the Content-Length body cap *before* a single body byte is
/// buffered, so an oversized upload is rejected by its declared length,
/// never stored), then buffers the body. Pipelined bytes beyond one
/// request are retained for the next TakeRequest() cycle.
class RequestParser {
 public:
  enum class State {
    kHead,      ///< Collecting request line + headers.
    kBody,      ///< Head parsed; collecting Content-Length bytes.
    kComplete,  ///< One full request ready (TakeRequest()).
    kError,     ///< Framing error; connection must close after the 4xx.
  };

  RequestParser(size_t max_head_bytes, size_t max_body_bytes)
      : max_head_bytes_(max_head_bytes), max_body_bytes_(max_body_bytes) {}

  /// Appends bytes and advances the state machine as far as possible.
  State Feed(std::string_view bytes);

  State state() const { return state_; }
  bool NeedsMore() const {
    return state_ == State::kHead || state_ == State::kBody;
  }

  /// True when a partial message is buffered (a mid-message peer close is
  /// then malformed framing, not a clean end-of-stream).
  bool HasPartialData() const { return NeedsMore() && !buffer_.empty(); }

  /// Moves the completed request out and resumes parsing any pipelined
  /// bytes already buffered (state() afterwards may be kComplete again).
  /// Only valid in kComplete.
  HttpRequest TakeRequest();

  /// Typed framing error (kError only): InvalidArgument = malformed,
  /// OutOfRange = over a size cap.
  const Status& error() const { return error_; }

  /// HTTP status for the framing error: 400 malformed, 431 head over cap,
  /// 413 declared body over cap. 0 unless state() == kError.
  int error_http_status() const { return error_http_status_; }

 private:
  State Advance();
  State Fail(int http_status, Status status);

  size_t max_head_bytes_;
  size_t max_body_bytes_;
  State state_ = State::kHead;
  std::string buffer_;
  size_t head_size_ = 0;  ///< Bytes of buffer_ holding the parsed head.
  size_t body_size_ = 0;  ///< Declared Content-Length.
  HttpRequest request_;   ///< Head fields while in kBody/kComplete.
  Status error_;
  int error_http_status_ = 0;
};

/// Blocking keep-alive HTTP client (tests + load generator). One in-flight
/// request at a time; reconnects are the caller's job (connected() turns
/// false once the server closes or errors).
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static StatusOr<HttpClient> Connect(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one request and blocks for the response. After an error or a
  /// "Connection: close" response the socket is closed.
  StatusOr<HttpResponse> RoundTrip(const std::string& method,
                                   const std::string& target,
                                   const std::string& body = "");

 private:
  int fd_ = -1;
  std::string host_;
};

}  // namespace cpd::server

#endif  // CPD_SERVER_HTTP_H_
