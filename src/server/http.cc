#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/json.h"
#include "util/string_util.h"

namespace cpd::server {

namespace {

constexpr std::string_view kHeadTerminator = "\r\n\r\n";

/// Lowercases ASCII in place (header names are case-insensitive).
std::string AsciiLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// True when a head line holds a CR, LF or NUL. Lines split only on CRLF,
/// so a bare CR/LF would survive into the target or a header value and,
/// logged or echoed back (X-Request-Id), split the log line or the
/// response (RFC 9110 §5.5).
bool HasLineBreakOrNul(std::string_view line) {
  return line.find_first_of(std::string_view("\r\n\0", 3)) !=
         std::string_view::npos;
}

/// %xx-decodes a query component ('+' is a space).
std::string UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out.push_back(' ');
    } else if (text[i] == '%' && i + 2 < text.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(text[i + 1]);
      const int lo = hex(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

}  // namespace

const std::string& HttpRequest::Header(const std::string& name) const {
  static const std::string kEmpty;
  const auto it = headers.find(AsciiLower(name));
  return it == headers.end() ? kEmpty : it->second;
}

bool HttpRequest::KeepAlive() const {
  const std::string connection = AsciiLower(Header("Connection"));
  if (version == "HTTP/1.0") return connection == "keep-alive";
  return connection != "close";
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              HttpStatusReason(response.status));
  if (!response.content_type.empty()) {
    out += "Content-Type: " + response.content_type + "\r\n";
  }
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

std::string SerializeRequest(const HttpRequest& request,
                             const std::string& host) {
  std::string out = request.method + " " + request.target + " HTTP/1.1\r\n";
  out += "Host: " + host + "\r\n";
  if (!request.body.empty()) {
    out += "Content-Type: application/json\r\n";
  }
  out += StrFormat("Content-Length: %zu\r\n", request.body.size());
  for (const auto& [name, value] : request.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

StatusOr<HttpRequest> ParseRequestHead(std::string_view head) {
  HttpRequest request;
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) {
    return Status::InvalidArgument("missing request line terminator");
  }
  const std::string_view line = head.substr(0, line_end);
  if (HasLineBreakOrNul(line)) {
    return Status::InvalidArgument("request line contains CR, LF or NUL");
  }
  const size_t method_end = line.find(' ');
  const size_t target_end =
      method_end == std::string_view::npos ? std::string_view::npos
                                           : line.find(' ', method_end + 1);
  if (method_end == std::string_view::npos ||
      target_end == std::string_view::npos) {
    return Status::InvalidArgument("malformed request line");
  }
  request.method = std::string(line.substr(0, method_end));
  request.target =
      std::string(line.substr(method_end + 1, target_end - method_end - 1));
  request.version = std::string(line.substr(target_end + 1));
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    return Status::InvalidArgument("unsupported HTTP version '" +
                                   request.version + "'");
  }
  if (request.method.empty() || request.target.empty() ||
      request.target[0] != '/') {
    return Status::InvalidArgument("malformed request line");
  }

  // Headers: "Name: value" lines until the blank line.
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t next = head.find("\r\n", pos);
    const std::string_view header_line =
        head.substr(pos, next == std::string_view::npos ? head.size() - pos
                                                        : next - pos);
    if (header_line.empty()) break;
    if (HasLineBreakOrNul(header_line)) {
      return Status::InvalidArgument("header line contains CR, LF or NUL");
    }
    const size_t colon = header_line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line");
    }
    const std::string name = AsciiLower(Trim(header_line.substr(0, colon)));
    // A second Content-Length would silently win and leave the rest of the
    // body to be parsed as a pipelined request (RFC 9112 §6.3).
    if (name == "content-length" && request.headers.count(name) != 0) {
      return Status::InvalidArgument("duplicate Content-Length");
    }
    request.headers[name] =
        std::string(Trim(header_line.substr(colon + 1)));
    if (next == std::string_view::npos) break;
    pos = next + 2;
  }

  // Split the target into path + query parameters.
  const size_t question = request.target.find('?');
  request.path = request.target.substr(0, question);
  if (question != std::string::npos) {
    for (const std::string& pair :
         Split(request.target.substr(question + 1), '&', /*skip_empty=*/true)) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        request.query[UrlDecode(pair)] = "";
      } else {
        request.query[UrlDecode(pair.substr(0, eq))] =
            UrlDecode(pair.substr(eq + 1));
      }
    }
  }
  return request;
}

HttpResponse MakeErrorResponse(int http_status, const Status& status,
                               int retry_after_ms) {
  Json error = Json::MakeObject();
  error.Set("code", Json(StatusCodeToString(status.code())));
  error.Set("message", Json(status.message()));
  if (retry_after_ms > 0) error.Set("retry_after_ms", Json(retry_after_ms));
  Json body = Json::MakeObject();
  body.Set("error", std::move(error));
  HttpResponse response;
  response.status = http_status;
  response.body = body.Dump();
  return response;
}

// ----- RequestParser -----

RequestParser::State RequestParser::Feed(std::string_view bytes) {
  if (!NeedsMore()) return state_;  // Completed/errored; bytes would be lost.
  buffer_.append(bytes);
  return Advance();
}

RequestParser::State RequestParser::Fail(int http_status, Status status) {
  state_ = State::kError;
  error_ = std::move(status);
  error_http_status_ = http_status;
  return state_;
}

RequestParser::State RequestParser::Advance() {
  if (state_ == State::kHead) {
    const size_t terminator = buffer_.find(kHeadTerminator);
    if (terminator == std::string::npos) {
      if (buffer_.size() > max_head_bytes_) {
        return Fail(431,
                    Status::OutOfRange("message head exceeds the size cap"));
      }
      return state_;
    }
    head_size_ = terminator + kHeadTerminator.size();
    // The cap binds the head itself, not just the unterminated prefix: a
    // complete oversized head arriving in one read is equally over budget.
    if (head_size_ > max_head_bytes_) {
      return Fail(431,
                  Status::OutOfRange("message head exceeds the size cap"));
    }
    auto request =
        ParseRequestHead(std::string_view(buffer_).substr(0, head_size_));
    if (!request.ok()) return Fail(400, request.status());
    request_ = std::move(*request);

    // Transfer-Encoding is rejected even beside a Content-Length: a peer
    // that honours it would frame the body differently (RFC 9112 §6.3).
    if (!request_.Header("Transfer-Encoding").empty()) {
      return Fail(400, Status::InvalidArgument(
                           "chunked transfer encoding not supported"));
    }
    body_size_ = 0;
    const auto length = request_.headers.find("content-length");
    if (length != request_.headers.end()) {
      // Digits only: an empty value would otherwise frame no body and leave
      // the body to be parsed as a pipelined request (RFC 9112 §6.3).
      if (length->second.empty() ||
          length->second.find_first_not_of("0123456789") !=
              std::string::npos) {
        return Fail(400, Status::InvalidArgument("malformed Content-Length"));
      }
      const unsigned long long parsed =
          std::strtoull(length->second.c_str(), nullptr, 10);
      // The declared length is checked here, before a single body byte is
      // buffered: an oversized upload costs the server one head, never
      // max_body_bytes of memory.
      if (parsed > max_body_bytes_) {
        return Fail(
            413, Status::OutOfRange("request body exceeds the size cap"));
      }
      body_size_ = static_cast<size_t>(parsed);
    }
    state_ = State::kBody;
  }
  if (state_ == State::kBody && buffer_.size() >= head_size_ + body_size_) {
    request_.body = buffer_.substr(head_size_, body_size_);
    state_ = State::kComplete;
  }
  return state_;
}

HttpRequest RequestParser::TakeRequest() {
  HttpRequest request = std::move(request_);
  request_ = HttpRequest{};
  buffer_.erase(0, head_size_ + body_size_);
  head_size_ = 0;
  body_size_ = 0;
  state_ = State::kHead;
  Advance();  // Pipelined bytes may already complete the next request.
  return request;
}

// ----- HttpStream -----

namespace {

/// Buffered blocking reader/writer over a client's connected socket
/// (HttpClient's transport). Does not own the fd; ReadResponse blocks
/// until a full message, a size cap, or the peer closes (typed errors:
/// InvalidArgument = malformed framing, OutOfRange = over a size cap,
/// NotFound = peer closed cleanly between messages, IOError = socket
/// error).
class HttpStream {
 public:
  explicit HttpStream(int fd) : fd_(fd) {}

  /// Reads one full response.
  StatusOr<HttpResponse> ReadResponse(size_t max_body_bytes);

  /// Writes the whole buffer (MSG_NOSIGNAL; EPIPE is an IOError, never a
  /// process signal).
  Status WriteAll(std::string_view bytes);

 private:
  /// Ensures buffer_ holds a full "\r\n\r\n"-terminated head; returns its
  /// length including the terminator.
  StatusOr<size_t> BufferHead(size_t max_head_bytes);
  /// Ensures buffer_ holds >= `total` bytes.
  Status BufferBody(size_t total);

  int fd_;
  std::string buffer_;
};

StatusOr<size_t> HttpStream::BufferHead(size_t max_head_bytes) {
  while (true) {
    const size_t terminator = buffer_.find(kHeadTerminator);
    if (terminator != std::string::npos) {
      return terminator + kHeadTerminator.size();
    }
    if (buffer_.size() > max_head_bytes) {
      return Status::OutOfRange("message head exceeds the size cap");
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      if (buffer_.empty()) {
        return Status::NotFound("peer closed the connection");
      }
      return Status::InvalidArgument("connection closed mid-head");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("recv failed: %s", strerror(errno)));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status HttpStream::BufferBody(size_t total) {
  while (buffer_.size() < total) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::InvalidArgument("connection closed mid-body");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("recv failed: %s", strerror(errno)));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  return Status::OK();
}

StatusOr<HttpResponse> HttpStream::ReadResponse(size_t max_body_bytes) {
  auto head_size = BufferHead(/*max_head_bytes=*/64 * 1024);
  if (!head_size.ok()) return head_size.status();
  const std::string_view head =
      std::string_view(buffer_).substr(0, *head_size);

  HttpResponse response;
  const size_t line_end = head.find("\r\n");
  const std::string_view line = head.substr(0, line_end);
  if (line.size() < 12 || line.substr(0, 5) != "HTTP/") {
    return Status::InvalidArgument("malformed status line");
  }
  response.status = std::atoi(std::string(line.substr(9, 3)).c_str());
  if (response.status < 100 || response.status > 599) {
    return Status::InvalidArgument("malformed status code");
  }

  size_t body_size = 0;
  bool saw_length = false;
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t next = head.find("\r\n", pos);
    const std::string_view header_line = head.substr(pos, next - pos);
    if (header_line.empty()) break;
    const size_t colon = header_line.find(':');
    if (colon != std::string_view::npos) {
      const std::string name = AsciiLower(Trim(header_line.substr(0, colon)));
      const std::string value(Trim(header_line.substr(colon + 1)));
      if (name == "content-length") {
        body_size = static_cast<size_t>(
            std::strtoull(value.c_str(), nullptr, 10));
        saw_length = true;
      }
      response.headers[name] = value;
      if (name == "content-type") response.content_type = value;
    }
    pos = next + 2;
  }
  if (!saw_length) {
    return Status::InvalidArgument("response without Content-Length");
  }
  if (body_size > max_body_bytes) {
    return Status::OutOfRange("response body exceeds the size cap");
  }
  CPD_RETURN_IF_ERROR(BufferBody(*head_size + body_size));
  response.body = buffer_.substr(*head_size, body_size);
  buffer_.erase(0, *head_size + body_size);
  return response;
}

Status HttpStream::WriteAll(std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("send failed: %s", strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

// ----- HttpClient -----

HttpClient::~HttpClient() { Close(); }

HttpClient::HttpClient(HttpClient&& other) noexcept
    : fd_(other.fd_), host_(std::move(other.host_)) {
  other.fd_ = -1;
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    other.fd_ = -1;
  }
  return *this;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<HttpClient> HttpClient::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket failed: %s", strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not a numeric IPv4 host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status =
        Status::IOError(StrFormat("connect to %s:%d failed: %s", host.c_str(),
                                  port, strerror(errno)));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  HttpClient client;
  client.fd_ = fd;
  client.host_ = StrFormat("%s:%d", host.c_str(), port);
  return client;
}

StatusOr<HttpResponse> HttpClient::RoundTrip(const std::string& method,
                                             const std::string& target,
                                             const std::string& body) {
  if (!connected()) return Status::FailedPrecondition("client not connected");
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  HttpStream stream(fd_);
  Status written = stream.WriteAll(SerializeRequest(request, host_));
  if (!written.ok()) {
    Close();
    return written;
  }
  auto response = stream.ReadResponse(/*max_body_bytes=*/64 * 1024 * 1024);
  if (!response.ok()) {
    Close();
    return response.status();
  }
  const auto connection = response->headers.find("connection");
  if (connection != response->headers.end() &&
      AsciiLower(connection->second) == "close") {
    Close();
  }
  return response;
}

}  // namespace cpd::server
