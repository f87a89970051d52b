#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

using flatnet::Json;
using Clock = std::chrono::steady_clock;

const char* ToString(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kError: return "error";
    case Outcome::kPartial: return "partial";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kTransport: return "transport";
  }
  return "unknown";
}

namespace {

// Fast path for the common reply shape `{"cached":<b>,"id":<n>,"ok":true,
// "result":{...}}` (keys are sorted, so the order is fixed): the full JSON
// parse costs more client CPU than the server spends on a cached reply.
bool ParseOkFast(const std::string& line, Reply& reply) {
  static const std::string kTrue = "{\"cached\":true,\"id\":";
  static const std::string kFalse = "{\"cached\":false,\"id\":";
  static const std::string kOk = ",\"ok\":true,\"result\":";
  std::size_t pos = 0;
  if (line.compare(0, kTrue.size(), kTrue) == 0) {
    reply.cached = true;
    pos = kTrue.size();
  } else if (line.compare(0, kFalse.size(), kFalse) == 0) {
    reply.cached = false;
    pos = kFalse.size();
  } else {
    return false;
  }
  std::int64_t id = 0;
  std::size_t digits = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    id = id * 10 + (line[pos++] - '0');
    ++digits;
  }
  if (digits == 0 || line.compare(pos, kOk.size(), kOk) != 0) return false;
  // Timing, partial answers and anything unusual take the full parse.
  if (line.find("\"timing\":") != std::string::npos ||
      line.find("\"partial\":") != std::string::npos || line.back() != '}') {
    return false;
  }
  reply.id = id;
  reply.outcome = Outcome::kOk;
  std::size_t begin = pos + kOk.size();
  reply.result = line.substr(begin, line.size() - 1 - begin);
  return true;
}

}  // namespace

Reply ParseReply(const std::string& line) {
  Reply reply;
  if (ParseOkFast(line, reply)) return reply;
  reply = Reply();
  Json doc;
  try {
    doc = Json::Parse(line);
  } catch (const flatnet::Error&) {
    reply.code = "unparseable";
    return reply;
  }
  if (doc.type() != Json::Type::kObject) {
    reply.code = "unparseable";
    return reply;
  }
  const Json& id = doc.Get("id");
  if (id.type() == Json::Type::kNumber && id.AsNumber() >= 0) {
    reply.id = static_cast<std::int64_t>(id.AsNumber());
  }
  const Json& ok = doc.Get("ok");
  bool is_ok = ok.type() == Json::Type::kBool && ok.AsBool();
  if (!is_ok) {
    const Json& error = doc.Get("error");
    reply.code = error.type() == Json::Type::kObject &&
                         error.Get("code").type() == Json::Type::kString
                     ? error.At("code").AsString()
                     : "unknown";
    // A reply that names no request is a connection-level refusal (the
    // accept-time `overloaded` line): nothing on that connection is served.
    reply.outcome = reply.id < 0 ? Outcome::kTransport : Outcome::kError;
    return reply;
  }
  reply.outcome = Outcome::kOk;
  if (reply.id < 0) {
    reply.outcome = Outcome::kTransport;
    reply.code = "no_id";
    return reply;
  }
  const Json& cached = doc.Get("cached");
  reply.cached = cached.type() == Json::Type::kBool && cached.AsBool();
  const Json& result = doc.Get("result");
  if (result.type() == Json::Type::kObject && result.Get("partial").type() ==
                                                  Json::Type::kBool &&
      result.At("partial").AsBool()) {
    reply.outcome = Outcome::kPartial;
    reply.code = "partial";
  }
  const Json& timing = doc.Get("timing");
  if (timing.type() == Json::Type::kObject) {
    if (timing.Get("server_ms").type() == Json::Type::kNumber) {
      reply.server_ms = timing.At("server_ms").AsNumber();
    }
    if (timing.Get("phases").type() == Json::Type::kArray) {
      for (const Json& phase : timing.At("phases").AsArray()) {
        reply.phases.emplace_back(phase.At("name").AsString(), phase.At("ms").AsNumber());
      }
    }
  }
  // The result object is embedded verbatim by the server; cut the raw
  // bytes out rather than re-serializing the parsed value.
  static const std::string kKey = "\"result\":";
  std::size_t begin = line.find(kKey);
  std::size_t end = timing.is_null() ? line.rfind('}') : line.rfind(",\"timing\":");
  if (begin != std::string::npos && end != std::string::npos && end > begin) {
    begin += kKey.size();
    reply.result = line.substr(begin, end - begin);
  }
  return reply;
}

std::vector<std::vector<double>> PoissonSchedule(double rate, double seconds,
                                                 std::size_t conns, std::uint64_t seed) {
  std::vector<std::vector<double>> schedule(conns);
  flatnet::Rng rng(seed);
  double per_conn = rate / static_cast<double>(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    flatnet::Rng stream = rng.Fork();
    double t = 0.0;
    while (true) {
      // Exponential inter-arrival gap; 1 - U keeps the log argument in (0, 1].
      t += -std::log(1.0 - stream.UniformDouble()) / per_conn;
      if (t >= seconds) break;
      schedule[c].push_back(t);
    }
  }
  return schedule;
}

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

double SecondsSince(Clock::time_point start, Clock::time_point t) {
  return std::chrono::duration<double>(t - start).count();
}

// Drives one connection until every request is answered, the connection
// dies, or the drain deadline passes.
void DriveConnection(int fd, const std::vector<double>& due,
                     const std::vector<std::int64_t>& ids,
                     const std::vector<std::string>& lines, const LoadOptions& options,
                     Clock::time_point start, std::vector<Sample>& samples) {
  // Sleep with microsecond precision: the default 50 us timer slack would
  // batch sends at high rates.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  SetNonBlocking(fd);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::string wbuf;
  std::string rbuf;
  char chunk[65536];
  bool dead = false;
  double last_due = due.empty() ? 0.0 : due.back();

  auto fail_rest = [&](Outcome outcome, const std::string& code) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Sample& s = samples[static_cast<std::size_t>(ids[i])];
      if (s.recv_s < 0 && s.reply.outcome == Outcome::kTransport && s.reply.code.empty()) {
        s.reply.outcome = outcome;
        s.reply.code = code;
      }
    }
  };

  while (!dead) {
    Clock::time_point now = Clock::now();
    double now_s = SecondsSince(start, now);
    while (next < due.size() && due[next] <= now_s) {
      std::int64_t id = ids[next];
      if (options.before_send) {
        options.before_send(id);
        now = Clock::now();
        now_s = SecondsSince(start, now);
      }
      wbuf += lines[static_cast<std::size_t>(id)];
      wbuf.push_back('\n');
      samples[static_cast<std::size_t>(id)].sent_s = now_s;
      ++outstanding;
      ++next;
    }
    while (!wbuf.empty()) {
      ssize_t n = ::send(fd, wbuf.data(), wbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        wbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      dead = true;
      break;
    }
    if (dead) break;
    if (next == due.size() && outstanding == 0) break;
    double wait_s;
    if (next < due.size()) {
      wait_s = due[next] - now_s;
    } else {
      wait_s = last_due + options.drain_timeout_s - now_s;
      if (wait_s <= 0) {
        fail_rest(Outcome::kTimeout, "timeout");
        return;
      }
    }
    pollfd pfd{fd, static_cast<short>(POLLIN | (wbuf.empty() ? 0 : POLLOUT)), 0};
    if (wait_s > 0) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(wait_s);
      ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
      int rc = ::ppoll(&pfd, 1, &ts, nullptr);
      if (rc < 0 && errno != EINTR) dead = true;
      if (rc <= 0) continue;
    } else {
      // Overdue sends first, but never starve the read side.
      if (::poll(&pfd, 1, 0) <= 0) continue;
    }
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      while (true) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          rbuf.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        dead = true;  // EOF or error
        break;
      }
      double recv_s = SecondsSince(start, Clock::now());
      std::size_t pos = 0;
      while (true) {
        std::size_t nl = rbuf.find('\n', pos);
        if (nl == std::string::npos) break;
        Reply reply = ParseReply(rbuf.substr(pos, nl - pos));
        pos = nl + 1;
        if (reply.id < 0 || reply.id >= static_cast<std::int64_t>(samples.size()) ||
            samples[static_cast<std::size_t>(reply.id)].recv_s >= 0) {
          // Unmatched: a refusal or a stray line poisons the connection.
          fail_rest(Outcome::kTransport, reply.code.empty() ? "unmatched" : reply.code);
          dead = true;
          break;
        }
        Sample& s = samples[static_cast<std::size_t>(reply.id)];
        s.recv_s = recv_s;
        s.reply = std::move(reply);
        --outstanding;
      }
      rbuf.erase(0, pos);
    }
  }
  fail_rest(Outcome::kTransport, "connection_lost");
}

}  // namespace

std::vector<Sample> RunOpenLoop(const std::vector<int>& fds,
                                const std::vector<std::vector<double>>& schedule,
                                const std::vector<std::vector<std::int64_t>>& ids,
                                const std::vector<std::string>& lines,
                                const LoadOptions& options) {
  std::vector<Sample> samples(lines.size());
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    for (std::size_t i = 0; i < schedule[c].size(); ++i) {
      Sample& s = samples[static_cast<std::size_t>(ids[c][i])];
      s.id = ids[c][i];
      s.conn = c;
      s.due_s = schedule[c][i];
    }
  }
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < fds.size(); ++c) {
    threads.emplace_back([&, c] {
      DriveConnection(fds[c], schedule[c], ids[c], lines, options, start, samples);
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

int ConnectLocal(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw flatnet::Error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw flatnet::Error("connect 127.0.0.1:" + std::to_string(port) + ": " +
                         std::strerror(err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::vector<std::string> RoundTrips(std::uint16_t port, const std::vector<std::string>& lines) {
  int fd = ConnectLocal(port);
  std::vector<std::string> replies;
  std::string rbuf;
  char chunk[65536];
  for (const std::string& line : lines) {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0 && errno != EINTR) {
        ::close(fd);
        throw flatnet::Error("send failed on port " + std::to_string(port));
      }
      if (n > 0) off += static_cast<std::size_t>(n);
    }
    std::size_t nl;
    while ((nl = rbuf.find('\n')) == std::string::npos) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0 && errno != EINTR) {
        ::close(fd);
        throw flatnet::Error("connection closed on port " + std::to_string(port));
      }
      if (n > 0) rbuf.append(chunk, static_cast<std::size_t>(n));
    }
    replies.push_back(rbuf.substr(0, nl));
    rbuf.erase(0, nl + 1);
  }
  ::close(fd);
  return replies;
}

}  // namespace perfbench
