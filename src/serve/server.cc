#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::serve {
namespace {

void CloseQuietly(int fd) {
  if (fd >= 0) ::close(fd);
}

// Best-effort whole-string send for the pre-connection overload rejection;
// the peer may already be gone, which is fine.
void SendAll(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    ssize_t n = ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

Server::Connection::~Connection() { CloseQuietly(fd); }

Server::Server(LineHandler handler, std::function<void()> drain,
               const ServerOptions& options)
    : handler_(std::move(handler)), drain_(std::move(drain)), options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    CloseQuietly(listen_fd_);
    listen_fd_ = -1;
    throw Error(StrFormat("invalid bind address '%s'", options_.bind_address.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    CloseQuietly(listen_fd_);
    listen_fd_ = -1;
    throw Error(StrFormat("bind %s:%u: %s", options_.bind_address.c_str(),
                          static_cast<unsigned>(options_.port), std::strerror(err)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    int err = errno;
    CloseQuietly(listen_fd_);
    listen_fd_ = -1;
    throw Error(StrFormat("listen: %s", std::strerror(err)));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    int err = errno;
    CloseQuietly(listen_fd_);
    listen_fd_ = -1;
    throw Error(StrFormat("getsockname: %s", std::strerror(err)));
  }
  port_ = ntohs(bound.sin_port);
}

Server::Server(Dispatcher& dispatcher, const ServerOptions& options)
    : Server(
          [&dispatcher](const std::string& line, std::function<void(std::string)> done,
                        std::chrono::steady_clock::time_point received_at) {
            dispatcher.Handle(line, std::move(done), received_at);
          },
          [&dispatcher] { dispatcher.Drain(); }, options) {}

Server::~Server() {
  CloseQuietly(listen_fd_);
  for (auto& connection : connections_) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  connections_.clear();
}

void Server::Run() {
  obs::Log(obs::LogLevel::kInfo, "serve", "server.listening")
      .Kv("address", options_.bind_address)
      .Kv("port", static_cast<unsigned>(port_));
  AcceptLoop();

  // Graceful drain: stop reading new requests, let admitted queries finish
  // and write their responses, then tear the sockets down.
  CloseQuietly(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) ::shutdown(connection->fd, SHUT_RD);
  }
  for (auto& connection : connections_) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  if (drain_) drain_();
  // Dropping the references closes each fd whose responses are all written;
  // a response still in flight holds its own reference.
  connections_.clear();
  obs::Log(obs::LogLevel::kInfo, "serve", "server.stopped");
}

void Server::ReapFinished() {
  std::vector<ConnectionPtr> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done_reading.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock; destruction (and the close) may be deferred past
  // this scope by response callbacks still holding references.
  for (auto& connection : finished) {
    if (connection->reader.joinable()) connection->reader.join();
  }
}

void Server::AcceptLoop() {
  obs::Counter& accepted = obs::GetCounter("serve.connections.accepted");
  obs::Counter& rejected = obs::GetCounter("serve.connections.rejected");
  while (!stop_.load(std::memory_order_relaxed)) {
    ReapFinished();
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      obs::Log(obs::LogLevel::kError, "serve", "server.poll_failed")
          .Kv("error", std::strerror(errno));
      return;
    }
    if (ready == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      obs::Log(obs::LogLevel::kWarn, "serve", "server.accept_failed")
          .Kv("error", std::strerror(errno));
      continue;
    }
    std::size_t live = 0;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      live = connections_.size();
    }
    if (options_.max_connections > 0 && live >= options_.max_connections) {
      // Structured backpressure instead of an unexplained RST: one
      // overloaded error line, then close. The fleet router retries it.
      rejected.Increment();
      SendAll(fd, ErrorResponse(Json(), ErrorCode::kOverloaded,
                                StrFormat("connection limit reached (%zu connections)",
                                          options_.max_connections)) +
                      "\n");
      CloseQuietly(fd);
      obs::Log(obs::LogLevel::kWarn, "serve", "server.connection_rejected")
          .Kv("live", static_cast<std::uint64_t>(live))
          .Kv("max", static_cast<std::uint64_t>(options_.max_connections));
      continue;
    }
    accepted.Increment();
    // Replies go out as soon as they are written: with Nagle on, a
    // pipelined reply waits for the client's next segment or ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(connection);
    }
    // The reader captures a plain copy of the shared_ptr; ReapFinished
    // joins the thread before the vector's reference is dropped, and any
    // response in flight holds its own.
    connection->reader = std::thread([this, connection] { ReadLoop(connection); });
  }
}

void Server::ReadLoop(const ConnectionPtr& connection) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, error, or shutdown(SHUT_RD)
    // One receive timestamp covers every line in the chunk: the timeline's
    // `accept` phase then measures socket-to-dispatcher latency, including
    // time spent behind earlier lines of a pipelined batch.
    auto received_at = std::chrono::steady_clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      std::size_t newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handler_(
          line,
          [connection](std::string response) { WriteLine(connection, response); },
          received_at);
    }
    buffer.erase(0, start);
    if (buffer.size() > options_.max_line_bytes) {
      obs::Log(obs::LogLevel::kWarn, "serve", "server.line_too_long")
          .Kv("bytes", static_cast<std::uint64_t>(buffer.size()));
      break;
    }
  }
  connection->done_reading.store(true, std::memory_order_release);
}

void Server::WriteLine(const ConnectionPtr& connection, const std::string& line) {
  std::lock_guard<std::mutex> lock(connection->write_mu);
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(connection->fd, framed.data() + sent, framed.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer gone; the reader will observe the close
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace flatnet::serve
