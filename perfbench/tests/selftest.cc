// Self-tests for the benchmark's load generator.
//
//   perfbench_selftest        exits 0 when every check passes
//
// Checks that the open-loop timer charges a generator stall to the
// requests queued behind it, and that refusals, `overloaded`,
// `unavailable` and partial replies are all classified as failures.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

// Answers each request line `{"id":N}` at once with an ok reply.
void EchoServer(int fd) {
  std::string buf;
  char chunk[4096];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      std::size_t at = line.find("\"id\":");
      std::string id = line.substr(at + 5, line.find('}', at) - at - 5);
      std::string reply = "{\"cached\":false,\"id\":" + id + ",\"ok\":true,\"result\":{}}\n";
      ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    }
  }
}

void TestStallIsCharged() {
  int pair[2];
  ::socketpair(AF_UNIX, SOCK_STREAM, 0, pair);
  std::thread server(EchoServer, pair[1]);
  // 40 requests 5 ms apart; the generator stalls 100 ms before sending id 10.
  std::vector<std::vector<double>> schedule(1);
  std::vector<std::vector<std::int64_t>> ids(1);
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    schedule[0].push_back(0.005 * i);
    ids[0].push_back(i);
    lines.push_back("{\"id\":" + std::to_string(i) + "}");
  }
  perfbench::LoadOptions options;
  options.before_send = [](std::int64_t id) {
    if (id == 10) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  auto samples = perfbench::RunOpenLoop({pair[0]}, schedule, ids, lines, options);
  ::shutdown(pair[0], SHUT_RDWR);
  server.join();
  ::close(pair[0]);
  ::close(pair[1]);

  bool all_ok = true;
  for (const auto& s : samples) all_ok = all_ok && s.reply.outcome == perfbench::Outcome::kOk;
  Check(all_ok, "stall: every request answered");
  // Request 10 was due at 50 ms and could not leave before ~150 ms; the
  // requests due inside the stall waited behind it.
  Check(samples[10].LatencyMs() >= 95.0, "stall: the stalled request is charged the stall");
  Check(samples[10].LatenessMs() >= 95.0, "stall: generator lateness is reported");
  bool queued_charged = true;
  for (int i = 11; i < 30; ++i) {
    double stall_end_ms = 150.0;
    double due_ms = samples[i].due_s * 1e3;
    if (due_ms < stall_end_ms - 5.0) {
      queued_charged = queued_charged && samples[i].LatencyMs() >= stall_end_ms - due_ms - 5.0;
    }
  }
  Check(queued_charged, "stall: requests queued behind the stall are charged for it");
  Check(samples[39].LatencyMs() < 50.0, "stall: requests due after the stall are not");
}

void TestFailureClassification() {
  using perfbench::Outcome;
  using perfbench::ParseReply;
  auto ok = ParseReply("{\"cached\":true,\"id\":7,\"ok\":true,\"result\":{\"x\":1}}");
  Check(ok.outcome == Outcome::kOk && ok.id == 7 && ok.cached && ok.result == "{\"x\":1}",
        "classify: ok reply with raw result bytes");
  auto timed = ParseReply(
      "{\"cached\":false,\"id\":3,\"ok\":true,\"result\":{\"a\":[1]},\"timing\":{\"phases\":"
      "[{\"ms\":0.5,\"name\":\"queue\"}],\"server_ms\":0.75}}");
  Check(timed.outcome == Outcome::kOk && timed.server_ms == 0.75 && timed.phases.size() == 1 &&
            timed.result == "{\"a\":[1]}",
        "classify: timing is split off the result bytes");
  auto overloaded = ParseReply(
      "{\"error\":{\"code\":\"overloaded\",\"message\":\"busy\"},\"id\":4,\"ok\":false}");
  Check(perfbench::Failed(overloaded.outcome) && overloaded.code == "overloaded",
        "classify: overloaded reply is a failure");
  auto unavailable = ParseReply(
      "{\"error\":{\"code\":\"unavailable\",\"message\":\"x\"},\"id\":5,\"ok\":false}");
  Check(perfbench::Failed(unavailable.outcome), "classify: unavailable reply is a failure");
  auto refused = ParseReply(
      "{\"error\":{\"code\":\"overloaded\",\"message\":\"too many connections\"},\"id\":null,"
      "\"ok\":false}");
  Check(refused.outcome == Outcome::kTransport && refused.id == -1,
        "classify: accept-time refusal is a transport failure");
  auto partial = ParseReply(
      "{\"cached\":false,\"id\":6,\"ok\":true,\"result\":{\"partial\":true,\"top\":[]}}");
  Check(perfbench::Failed(partial.outcome), "classify: partial fleet answer is a failure");
  Check(ParseReply("not json").outcome == Outcome::kTransport,
        "classify: garbage is a transport failure");

  // A refusal on a live connection fails every request sent on it.
  int pair[2];
  ::socketpair(AF_UNIX, SOCK_STREAM, 0, pair);
  std::string refusal =
      "{\"error\":{\"code\":\"overloaded\",\"message\":\"too many connections\"},\"id\":null,"
      "\"ok\":false}\n";
  ::send(pair[1], refusal.data(), refusal.size(), MSG_NOSIGNAL);
  ::shutdown(pair[1], SHUT_WR);
  std::vector<std::vector<double>> schedule{{0.0, 0.001, 0.002}};
  std::vector<std::vector<std::int64_t>> ids{{0, 1, 2}};
  std::vector<std::string> lines{"{\"id\":0}", "{\"id\":1}", "{\"id\":2}"};
  perfbench::LoadOptions options;
  options.drain_timeout_s = 0.5;
  auto samples = perfbench::RunOpenLoop({pair[0]}, schedule, ids, lines, options);
  ::close(pair[0]);
  ::close(pair[1]);
  bool all_failed = true;
  for (const auto& s : samples) all_failed = all_failed && perfbench::Failed(s.reply.outcome);
  Check(all_failed, "classify: a refused connection fails every request on it");
}

void TestScheduleIsSeeded() {
  auto a = perfbench::PoissonSchedule(1000.0, 2.0, 4, 42);
  auto b = perfbench::PoissonSchedule(1000.0, 2.0, 4, 42);
  auto c = perfbench::PoissonSchedule(1000.0, 2.0, 4, 43);
  std::size_t total = 0;
  for (const auto& row : a) total += row.size();
  Check(a == b && a != c, "schedule: same seed, same arrivals; other seed, other arrivals");
  Check(total > 1800 && total < 2200, "schedule: about rate x seconds arrivals");
}

}  // namespace

int main() {
  TestStallIsCharged();
  TestFailureClassification();
  TestScheduleIsSeeded();
  std::printf("%s\n", g_failures == 0 ? "all self-tests passed" : "self-tests FAILED");
  return g_failures == 0 ? 0 : 1;
}
