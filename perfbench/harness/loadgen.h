// Open-loop load generator for flatnet_serve / flatnet_router.
//
// Arrivals follow a seeded Poisson schedule fixed before the run starts.
// Each connection is driven by one thread that sends every request at its
// due time, pipelines freely, and matches replies by `id`. Latency is
// measured from the request's *due* time, not from the moment it was
// written: when the generator falls behind (a descheduled thread, a full
// socket buffer), the requests queued behind the stall are charged for it
// instead of silently starting their clocks late. How late the generator
// ran is reported separately for every request.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Outcome : std::uint8_t {
  kOk,
  kError,      // a structured error reply (overloaded, unavailable, bad_request, ...)
  kPartial,    // a fleet answer missing some shards
  kTimeout,    // no reply before the drain deadline
  kTransport,  // connect/write/read failure, a closed connection, or a refusal
};
const char* ToString(Outcome outcome);
inline bool Failed(Outcome outcome) { return outcome != Outcome::kOk; }

// One parsed reply line.
struct Reply {
  std::int64_t id = -1;  // -1: the reply names no request (e.g. an accept refusal)
  Outcome outcome = Outcome::kTransport;
  std::string code;  // error code for kError/kTransport replies
  bool cached = false;
  double server_ms = -1.0;  // from the `timing` field; -1 when absent
  std::vector<std::pair<std::string, double>> phases;
  std::string result;  // raw `result` bytes
};

// Classifies one reply line. Never throws: an unparseable line is a
// transport failure with id -1.
Reply ParseReply(const std::string& line);

// Per-connection Poisson arrival times (seconds from the run start) whose
// superposition has rate `rate`, over [0, seconds).
std::vector<std::vector<double>> PoissonSchedule(double rate, double seconds,
                                                 std::size_t conns, std::uint64_t seed);

struct Sample {
  std::int64_t id = 0;
  std::size_t conn = 0;
  double due_s = 0.0;
  double sent_s = -1.0;  // when the line was handed to the socket
  double recv_s = -1.0;  // when the reply was read; -1 when none
  Reply reply;
  double LatencyMs() const { return recv_s < 0 ? -1.0 : (recv_s - due_s) * 1e3; }
  double LatenessMs() const { return sent_s < 0 ? -1.0 : (sent_s - due_s) * 1e3; }
};

struct LoadOptions {
  double drain_timeout_s = 5.0;
  // Test hook: called on the connection's thread just before the request
  // with this id is sent (lets a test stall the generator).
  std::function<void(std::int64_t)> before_send;
};

// Drives `fds` (connected sockets, one per schedule row). `lines[id]` is
// the request line for id (already carrying "id":<id>, no newline); the
// ids of connection c are `ids[c]`, due at `schedule[c]`. Returns one
// sample per request, indexed by id. Closes nothing.
std::vector<Sample> RunOpenLoop(const std::vector<int>& fds,
                                const std::vector<std::vector<double>>& schedule,
                                const std::vector<std::vector<std::int64_t>>& ids,
                                const std::vector<std::string>& lines,
                                const LoadOptions& options);

// Blocking TCP connect to 127.0.0.1:port; throws flatnet::Error.
int ConnectLocal(std::uint16_t port);

// Sends each line in order on one connection and returns each raw reply
// line (closed-loop, one at a time).
std::vector<std::string> RoundTrips(std::uint16_t port, const std::vector<std::string>& lines);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
