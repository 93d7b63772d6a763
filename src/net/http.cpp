#include "net/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "net/fault.hpp"

namespace aimes::net {

namespace {

/// Hard cap on one message (start-line + headers + body). The control plane
/// exchanges kilobyte-scale JSON; anything bigger is a bug or abuse.
constexpr std::size_t kMaxMessageBytes = 1 << 20;
/// Per-connection read timeout; a stalled client cannot wedge the loop.
constexpr int kIoTimeoutMs = 5000;
/// Bounds on draining an upload left unread by an early error response.
constexpr std::size_t kLingerBytes = 4 * kMaxMessageBytes;
constexpr int kLingerMs = 2000;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Arms the fd so the eventual ::close() aborts the connection (RST) rather
/// than lingering in a half-closed state, then shuts both directions down so
/// every in-flight operation on it fails immediately. Used by the fault shim
/// for mid-stream resets; the caller's normal close path stays the owner of
/// the fd (no double close).
void fault_abort(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::shutdown(fd, SHUT_RDWR);
}

/// recv(2) behind the fault shim: may stall, reset the connection (errno
/// ECONNRESET), or clamp the read to one byte — the torn-framing generator
/// every incremental parser above this layer must survive.
ssize_t net_recv(int fd, char* buf, std::size_t len) {
  if (net_faults_active()) {
    const FaultDecision d = next_net_fault(FaultPoint::kRead);
    if (d.stall_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(d.stall_ms));
    if (d.reset) {
      fault_abort(fd);
      errno = ECONNRESET;
      return -1;
    }
    if (d.short_op && len > 1) len = 1;
  }
  return ::recv(fd, buf, len, 0);
}

bool send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    std::size_t len = text.size() - sent;
    if (net_faults_active()) {
      const FaultDecision d = next_net_fault(FaultPoint::kWrite);
      if (d.reset) {
        fault_abort(fd);
        return false;
      }
      if (d.short_op && len > 1) len = 1;
    }
    const ssize_t n = ::send(fd, text.data() + sent, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Splits `text` into (start-line, headers, body) and fills `headers`/`body`.
/// Returns the start-line or an error. `head_only` skips the Content-Length
/// body check — the streaming client parses the header block before the body
/// exists.
common::Expected<std::string> parse_message(const std::string& text,
                                            std::map<std::string, std::string>& headers,
                                            std::string& body, bool head_only = false) {
  using E = common::Expected<std::string>;
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) return E::error("truncated message: no header terminator");
  const std::string head = text.substr(0, head_end);
  body = text.substr(head_end + 4);
  std::istringstream lines(head);
  std::string line;
  if (!std::getline(lines, line)) return E::error("empty message");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const std::string start_line = line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) return E::error("malformed header line '" + line + "'");
    headers[lower(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
  }
  const auto length = headers.find("content-length");
  if (length != headers.end() && !head_only) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(length->second.c_str(), &end, 10);
    if (end == length->second.c_str() || n > kMaxMessageBytes) {
      return E::error("bad content-length '" + length->second + "'");
    }
    if (body.size() < n) return E::error("truncated body");
    body.resize(n);
  }
  return start_line;
}

/// Reads until the message is complete (headers seen and Content-Length
/// bytes of body arrived) or the cap/timeout trips.
common::Expected<std::string> read_message(int fd) {
  using E = common::Expected<std::string>;
  std::string buf;
  char chunk[4096];
  while (buf.size() <= kMaxMessageBytes) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kIoTimeoutMs);
    if (ready <= 0) return E::error("read timeout");
    const ssize_t n = net_recv(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return E::error(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) break;  // peer closed
    buf.append(chunk, static_cast<std::size_t>(n));
    const auto head_end = buf.find("\r\n\r\n");
    if (head_end == std::string::npos) continue;
    // Complete once the advertised body has arrived (no Content-Length =
    // complete at end of headers; the loop's recv of 0 also lands here).
    const std::string head = lower(buf.substr(0, head_end));
    const auto at = head.find("content-length:");
    if (at == std::string::npos) return buf;
    const unsigned long long want =
        std::strtoull(head.c_str() + at + std::strlen("content-length:"), nullptr, 10);
    if (want > kMaxMessageBytes) return E::error("oversized body");
    if (buf.size() - head_end - 4 >= want) return buf;
  }
  if (buf.size() > kMaxMessageBytes) return E::error("oversized message");
  return buf;
}

/// Lingering close after an early error response (413, or a 400 before the
/// body was read). Closing a socket with unread input makes the kernel reset
/// the connection, and the reset can destroy the response before the client
/// reads it. So: half-close (the client sees EOF after the response), then
/// read and discard the rest of the upload, up to a byte and a time bound so
/// a client that never stops sending cannot hold the connection. Plain
/// recv(2), not the fault shim: draining is not protocol I/O.
void drain_upload(int fd) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kLingerMs);
  char chunk[16384];
  std::size_t drained = 0;
  while (drained < kLingerBytes) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{fd, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) return;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    drained += static_cast<std::size_t>(n);
  }
}

/// Non-blocking connect with a poll-based deadline: a black-holed address
/// fails typed after `timeout_ms` instead of hanging the caller in
/// ::connect() past any deadline it promised its own user.
common::Status connect_with_deadline(int fd, const sockaddr* addr, socklen_t len,
                                     int timeout_ms, const std::string& where) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return common::Status::error("fcntl: " + std::string(std::strerror(errno)));
  }
  if (::connect(fd, addr, len) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      return common::Status::error("connect " + where + ": " + std::strerror(errno));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      return common::Status::error("connect " + where + ": timeout after " +
                                   std::to_string(timeout_ms) + " ms");
    }
    int err = 0;
    socklen_t errlen = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen) < 0 || err != 0) {
      return common::Status::error("connect " + where + ": " +
                                   std::strerror(err != 0 ? err : errno));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return common::Status::error("fcntl: " + std::string(std::strerror(errno)));
  }
  return {};
}

/// Creates and connects a client socket for `endpoint` (loopback TCP or
/// unix-domain). Returns the connected fd; the caller owns the close.
common::Expected<int> open_client_fd(const Endpoint& endpoint, int connect_timeout_ms) {
  using E = common::Expected<int>;
  sockaddr_storage storage{};
  socklen_t addr_len = 0;
  int fd = -1;
  if (endpoint.is_unix()) {
    auto* addr = reinterpret_cast<sockaddr_un*>(&storage);
    if (endpoint.socket_path.size() >= sizeof addr->sun_path) {
      return E::error("unix socket path too long: " + endpoint.socket_path);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return E::error(std::string("socket: ") + std::strerror(errno));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, endpoint.socket_path.c_str(), endpoint.socket_path.size() + 1);
    addr_len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                      endpoint.socket_path.size() + 1);
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return E::error(std::string("socket: ") + std::strerror(errno));
    auto* addr = reinterpret_cast<sockaddr_in*>(&storage);
    addr->sin_family = AF_INET;
    addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr->sin_port = htons(endpoint.port);
    addr_len = sizeof(sockaddr_in);
  }
  if (auto st = connect_with_deadline(fd, reinterpret_cast<const sockaddr*>(&storage),
                                      addr_len, connect_timeout_ms, endpoint.describe());
      !st.ok()) {
    ::close(fd);
    return E::error(st.error());
  }
  return fd;
}

/// True when `name` is one of the headers the renderers synthesize; entries
/// in the user-facing maps with these names are skipped, not duplicated.
bool synthesized_header(const std::string& name) {
  const std::string key = lower(name);
  return key == "content-type" || key == "content-length" || key == "connection" ||
         key == "transfer-encoding" || key == "host";
}

void render_extra_headers(std::ostringstream& out,
                          const std::map<std::string, std::string>& headers) {
  for (const auto& [name, value] : headers) {
    if (synthesized_header(name)) continue;
    out << name << ": " << value << "\r\n";
  }
}

}  // namespace

std::string Endpoint::describe() const {
  return is_unix() ? "unix:" + socket_path : "127.0.0.1:" + std::to_string(port);
}

std::string HttpRequest::header(const std::string& name) const {
  const auto it = headers.find(lower(name));
  return it == headers.end() ? "" : it->second;
}

std::string HttpResponse::header(const std::string& name) const {
  const auto it = headers.find(lower(name));
  return it == headers.end() ? "" : it->second;
}

std::string HttpRequest::query_param(const std::string& key) const {
  std::size_t i = 0;
  while (i < query.size()) {
    auto amp = query.find('&', i);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(i, amp - i);
    const auto eq = pair.find('=');
    if (pair.substr(0, eq) == key) {
      return eq == std::string::npos ? "" : pair.substr(eq + 1);
    }
    i = amp + 1;
  }
  return "";
}

std::string_view status_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

common::Expected<HttpRequest> parse_http_request(const std::string& text) {
  using E = common::Expected<HttpRequest>;
  HttpRequest req;
  auto start = parse_message(text, req.headers, req.body);
  if (!start) return E::error(start.error());
  std::istringstream parts(*start);
  std::string version;
  if (!(parts >> req.method >> req.target >> version) ||
      version.rfind("HTTP/", 0) != 0) {
    return E::error("malformed request line '" + *start + "'");
  }
  std::transform(req.method.begin(), req.method.end(), req.method.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  const auto qmark = req.target.find('?');
  req.path = req.target.substr(0, qmark);
  req.query = qmark == std::string::npos ? "" : req.target.substr(qmark + 1);
  return req;
}

common::Expected<HttpResponse> parse_http_response(const std::string& text) {
  using E = common::Expected<HttpResponse>;
  HttpResponse res;
  auto start = parse_message(text, res.headers, res.body);
  if (!start) return E::error(start.error());
  std::istringstream parts(*start);
  std::string version;
  if (!(parts >> version >> res.status) || version.rfind("HTTP/", 0) != 0) {
    return E::error("malformed status line '" + *start + "'");
  }
  const auto it = res.headers.find("content-type");
  if (it != res.headers.end()) res.content_type = it->second;
  return res;
}

std::string render_http_response(const HttpResponse& response) {
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << " " << status_phrase(response.status) << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Content-Length: " << response.body.size() << "\r\n";
  render_extra_headers(out, response.headers);
  out << "Connection: close\r\n\r\n" << response.body;
  return out.str();
}

std::string render_stream_header(const HttpResponse& response) {
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << " " << status_phrase(response.status) << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Transfer-Encoding: chunked\r\n";
  render_extra_headers(out, response.headers);
  out << "Connection: close\r\n\r\n";
  return out.str();
}

std::string render_chunk(std::string_view data) {
  char size_line[32];
  std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
  std::string out = size_line;
  out.append(data);
  out += "\r\n";
  return out;
}

common::Status ChunkDecoder::feed(std::string_view data, std::string& out) {
  std::size_t i = 0;
  while (i < data.size()) {
    switch (state_) {
      case State::kSize: {
        // Accumulate the "<hex>[;ext]\r\n" size line. 32 bytes is generous
        // for a capped chunk size; more means garbage, not a bigger chunk.
        const char c = data[i++];
        if (c == '\n') {
          if (!line_.empty() && line_.back() == '\r') line_.pop_back();
          const std::string size_text = line_.substr(0, line_.find(';'));
          line_.clear();
          char* end = nullptr;
          const unsigned long long size = std::strtoull(size_text.c_str(), &end, 16);
          if (end == size_text.c_str() || *end != '\0') {
            return common::Status::error("malformed chunk size '" + size_text + "'");
          }
          if (size > kMaxMessageBytes) {
            return common::Status::error("oversized chunk (" + size_text + " > 1 MiB cap)");
          }
          if (size == 0) {
            state_ = State::kTrailer;
          } else {
            remaining_ = static_cast<std::size_t>(size);
            state_ = State::kData;
          }
        } else {
          line_ += c;
          if (line_.size() > 32) return common::Status::error("chunk size line too long");
        }
        break;
      }
      case State::kData: {
        const std::size_t take = std::min(remaining_, data.size() - i);
        out.append(data.substr(i, take));
        i += take;
        remaining_ -= take;
        if (remaining_ == 0) state_ = State::kDataEnd;
        break;
      }
      case State::kDataEnd: {
        // The CRLF that closes a data chunk.
        const char c = data[i++];
        if (c == '\r') {
          if (!line_.empty()) return common::Status::error("malformed chunk terminator");
          line_ = "\r";
        } else if (c == '\n' && line_ == "\r") {
          line_.clear();
          state_ = State::kSize;
        } else {
          return common::Status::error("malformed chunk terminator");
        }
        break;
      }
      case State::kTrailer: {
        // Trailer lines after the zero-length chunk; an empty line ends the
        // message. The control plane sends none, but tolerate them.
        const char c = data[i++];
        if (c == '\n') {
          if (!line_.empty() && line_.back() == '\r') line_.pop_back();
          const bool empty = line_.empty();
          line_.clear();
          if (empty) state_ = State::kDone;
        } else {
          line_ += c;
          if (line_.size() > 1024) return common::Status::error("trailer line too long");
        }
        break;
      }
      case State::kDone:
        return common::Status::error("data after final chunk");
    }
  }
  return {};
}

std::string render_http_request(const HttpRequest& request, const std::string& host) {
  std::ostringstream out;
  out << request.method << " " << request.target << " HTTP/1.1\r\n"
      << "Host: " << host << "\r\n"
      << "Content-Type: application/json\r\n"
      << "Content-Length: " << request.body.size() << "\r\n";
  render_extra_headers(out, request.headers);
  out << "Connection: close\r\n\r\n" << request.body;
  return out.str();
}

SseEvent parse_sse_event(const std::string& block) {
  SseEvent event;
  std::size_t pos = 0;
  while (pos <= block.size()) {
    const auto nl = block.find('\n', pos);
    const std::string line =
        block.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? block.size() + 1 : nl + 1;
    if (line.empty() || line.front() == ':') continue;  // comment / keepalive
    const auto colon = line.find(':');
    const std::string field = colon == std::string::npos ? line : line.substr(0, colon);
    std::string value = colon == std::string::npos ? "" : line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (field == "id") {
      event.has_id = true;
      event.id = std::strtoull(value.c_str(), nullptr, 10);
    } else if (field == "event") {
      event.kind = value;
    } else if (field == "data") {
      if (!event.data.empty()) event.data += '\n';
      event.data += value;
    }
    // Unknown fields are ignored per the SSE spec.
  }
  return event;
}

std::vector<SseEvent> drain_sse_frames(std::string& carry) {
  std::vector<SseEvent> events;
  for (;;) {
    const auto end = carry.find("\n\n");
    if (end == std::string::npos) break;
    const std::string block = carry.substr(0, end);
    carry.erase(0, end + 2);
    SseEvent event = parse_sse_event(block);
    if (!event.has_id && event.kind.empty() && event.data.empty()) continue;  // keepalive
    events.push_back(std::move(event));
  }
  return events;
}

int Backoff::next_ms() {
  const int n = attempt_++;
  const double base = static_cast<double>(base_ms_) *
                      static_cast<double>(1ULL << std::min(n, 20));
  const double capped = std::min(base, static_cast<double>(cap_ms_));
  std::uint64_t state = seed_ ^ (static_cast<std::uint64_t>(n) * 0x9e3779b97f4a7c15ULL);
  const double jitter01 =
      static_cast<double>(common::splitmix64(state) >> 11) * 0x1.0p-53;
  const double total = std::min(capped * (1.0 + 0.5 * jitter01),
                                static_cast<double>(cap_ms_));
  return std::max(1, static_cast<int>(total));
}

common::Expected<std::uint16_t> HttpServer::start(std::uint16_t port, Handler handler) {
  using E = common::Expected<std::uint16_t>;
  if (listen_fd_ >= 0) return E::error("server already running");
  handler_ = std::move(handler);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return E::error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return E::error("bind 127.0.0.1:" + std::to_string(port) + ": " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return E::error("listen: " + err);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return E::error("getsockname: " + err);
  }
  endpoint_ = Endpoint::tcp(ntohs(addr.sin_port));
  listen_fd_ = fd;
  thread_ = std::jthread([this](const std::stop_token& st) { serve(st); });
  return endpoint_.port;
}

common::Status HttpServer::start_unix(const std::string& path, Handler handler) {
  if (listen_fd_ >= 0) return common::Status::error("server already running");
  handler_ = std::move(handler);

  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    return common::Status::error("unix socket path too long (max " +
                                 std::to_string(sizeof addr.sun_path - 1) +
                                 " bytes): " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return common::Status::error(std::string("socket: ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; replace it.
  ::unlink(path.c_str());
  const auto addr_len =
      static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), addr_len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return common::Status::error("bind unix:" + path + ": " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return common::Status::error("listen: " + err);
  }
  endpoint_ = Endpoint::unix_path(path);
  listen_fd_ = fd;
  thread_ = std::jthread([this](const std::stop_token& st) { serve(st); });
  return {};
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  // Streaming connection threads re-check this between pulls; set it before
  // joining so a follower mid-stream winds down instead of wedging stop().
  stopping_.store(true, std::memory_order_relaxed);
  thread_.request_stop();
  // Shut the listener down so a blocked accept/poll wakes immediately.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();  // joins the connection threads too
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (endpoint_.is_unix()) ::unlink(endpoint_.socket_path.c_str());
  endpoint_ = Endpoint{};
  stopping_.store(false, std::memory_order_relaxed);
}

void HttpServer::serve(const std::stop_token& stop_token) {
  while (!stop_token.stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stop_token.stop_requested()) break;
    // Reap finished connection threads (jthread joins on destruction; a
    // done flag keeps that join instant).
    connections_.remove_if([](const Connection& c) {
      return c.done.load(std::memory_order_acquire);
    });
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    if (net_faults_active() && next_net_fault(FaultPoint::kAccept).reset) {
      // Accept-time reset: the client's connect succeeded but its first
      // read/write gets an abort — we own this fd, so close-with-linger-0
      // sends a genuine RST.
      fault_abort(conn);
      ::close(conn);
      continue;
    }
    Connection& slot = connections_.emplace_back();
    slot.thread = std::jthread([this, conn, &slot] {
      handle_connection(conn);
      slot.done.store(true, std::memory_order_release);
    });
  }
  // Accept loop exiting joins every connection (list destruction).
  connections_.clear();
}

void HttpServer::handle_connection(int conn) {
  // A dead client that stops reading must not wedge a streaming send.
  timeval send_timeout{};
  send_timeout.tv_sec = kIoTimeoutMs / 1000;
  ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);

  auto message = read_message(conn);
  HttpResponse response;
  if (!message) {
    response.status = message.error().find("oversized") != std::string::npos ? 413 : 400;
    response.body = "{\"error\": \"" + common::json::escape(message.error()) + "\"}\n";
  } else {
    auto request = parse_http_request(*message);
    if (!request) {
      response.status = 400;
      response.body = "{\"error\": \"" + common::json::escape(request.error()) + "\"}\n";
    } else {
      response = handler_(*request);
    }
  }
  if (response.stream) {
    bool alive = send_all(conn, render_stream_header(response));
    if (alive && !response.body.empty()) {
      alive = send_all(conn, render_chunk(response.body));
    }
    std::string piece;
    bool more = true;
    while (alive && more && !stopping_.load(std::memory_order_relaxed)) {
      piece.clear();
      more = response.stream(piece);
      if (!piece.empty()) alive = send_all(conn, render_chunk(piece));
    }
    // Terminator even on interrupt: a stopped server ends streams cleanly.
    if (alive) send_all(conn, render_chunk({}));
  } else {
    send_all(conn, render_http_response(response));
  }
  if (!message) drain_upload(conn);
  ::shutdown(conn, SHUT_RDWR);
  ::close(conn);
}

common::Expected<HttpResponse> http_call(const Endpoint& endpoint, const HttpRequest& request,
                                         int connect_timeout_ms) {
  using E = common::Expected<HttpResponse>;
  auto fd = open_client_fd(endpoint, connect_timeout_ms);
  if (!fd) return E::error(fd.error());
  const std::string host = endpoint.is_unix() ? "localhost" : endpoint.describe();
  const bool sent = send_all(*fd, render_http_request(request, host));
  ::shutdown(*fd, SHUT_WR);
  // Even when the send failed: a server that refuses early (413) answers
  // before the upload is done, and that answer is the useful outcome.
  auto message = read_message(*fd);
  ::close(*fd);
  if (!sent && (!message || message->empty())) return E::error("send failed");
  if (!message) return E::error(message.error());
  return parse_http_response(*message);
}

common::Expected<HttpResponse> http_call(std::uint16_t port, const HttpRequest& request) {
  return http_call(Endpoint::tcp(port), request);
}

common::Expected<HttpResponse> http_stream(const Endpoint& endpoint, const HttpRequest& request,
                                           const StreamSink& on_data, int idle_timeout_ms,
                                           int connect_timeout_ms) {
  using E = common::Expected<HttpResponse>;
  auto opened = open_client_fd(endpoint, connect_timeout_ms);
  if (!opened) return E::error(opened.error());
  const int fd = *opened;
  const std::string host = endpoint.is_unix() ? "localhost" : endpoint.describe();
  const bool sent = send_all(fd, render_http_request(request, host));
  ::shutdown(fd, SHUT_WR);

  // Read the header block, then hand the rest to the chunk decoder as it
  // arrives — the whole point over http_call is not waiting for EOF. As in
  // http_call, a failed send still reads: a server that refuses early (413)
  // answers before the upload is done.
  std::string buf;
  char chunk[4096];
  std::size_t head_end = std::string::npos;
  const auto fail = [&](const std::string& what) {
    ::close(fd);
    return E::error(!sent && buf.empty() ? "send failed" : what);
  };
  while (head_end == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, idle_timeout_ms);
    if (ready <= 0) return fail("stream idle timeout waiting for headers");
    const ssize_t n = net_recv(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return fail("connection closed before headers completed");
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.size() > kMaxMessageBytes) return fail("oversized header block");
    head_end = buf.find("\r\n\r\n");
  }

  HttpResponse res;
  {
    // Header-only parse: the body is still in flight at this point.
    std::string ignored_body;
    auto start = parse_message(buf.substr(0, head_end + 4), res.headers, ignored_body,
                               /*head_only=*/true);
    if (!start) return fail(start.error());
    std::istringstream parts(*start);
    std::string version;
    if (!(parts >> version >> res.status) || version.rfind("HTTP/", 0) != 0) {
      return fail("malformed status line '" + *start + "'");
    }
  }
  const auto ct = res.headers.find("content-type");
  if (ct != res.headers.end()) res.content_type = ct->second;

  std::string rest = buf.substr(head_end + 4);
  if (lower(res.headers.count("transfer-encoding") != 0 ? res.headers.at("transfer-encoding")
                                                        : "") != "chunked") {
    // Non-chunked (the daemon's error responses): buffer to EOF like
    // http_call, bounded by Content-Length when present.
    res.body = std::move(rest);
    while (res.body.size() <= kMaxMessageBytes) {
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, idle_timeout_ms);
      if (ready <= 0) break;
      const ssize_t n = net_recv(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      res.body.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const auto length = res.headers.find("content-length");
    if (length != res.headers.end()) {
      const unsigned long long want = std::strtoull(length->second.c_str(), nullptr, 10);
      if (res.body.size() > want) res.body.resize(want);
    }
    return res;
  }

  ChunkDecoder decoder;
  std::string decoded;
  auto deliver = [&]() -> bool {  // false = sink asked to stop
    if (decoded.empty()) return true;
    const bool keep_going = !on_data || on_data(decoded);
    decoded.clear();
    return keep_going;
  };
  if (auto st = decoder.feed(rest, decoded); !st.ok()) return fail(st.error());
  for (bool more = deliver(); more && !decoder.done(); more = deliver()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, idle_timeout_ms);
    if (ready <= 0) return fail("stream idle timeout");
    const ssize_t n = net_recv(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return fail("connection closed mid-stream");
    if (auto st = decoder.feed({chunk, static_cast<std::size_t>(n)}, decoded); !st.ok()) {
      return fail(st.error());
    }
  }
  ::close(fd);
  return res;
}

common::Expected<HttpResponse> http_stream(std::uint16_t port, const HttpRequest& request,
                                           const StreamSink& on_data, int idle_timeout_ms) {
  return http_stream(Endpoint::tcp(port), request, on_data, idle_timeout_ms);
}

}  // namespace aimes::net
