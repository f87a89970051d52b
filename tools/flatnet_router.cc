// flatnet_router: fleet frontend for sharded flatnet_serve backends.
//
// Listens on the same line-delimited JSON protocol as flatnet_serve and
// routes each request across N backend shards (started with --shard i/N)
// over a consistent-hash ring: point queries go to the owning shard (with
// failover and hedging for compute ops), `top` is scatter-gathered and
// k-way merged byte-identical to a single-process answer, and `status`
// returns the merged fleet view. Dead shards degrade ranking answers to
// `partial: true` instead of errors; a restarted shard heals back in via
// the background prober. See src/fleet/router.h for the routing table.
//
// --backends (required) lists the shards in ring order: the i-th address
// must be the backend started with --shard i/N (the ownership ring is
// derived from the count, so order is identity). A backend may also be
// given as a bare port (127.0.0.1 assumed). Hedging re-issues a slow
// compute query to the next distinct live shard once the owner has been
// silent for multiplier x its EWMA latency (clamped to [min,max]); first
// response wins.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "fleet/router.h"
#include "obs/recorder.h"
#include "obs_flags.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

serve::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();  // one atomic store
}

}  // namespace

int main(int argc, char** argv) {
  fleet::RouterOptions router_options;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::uint64_t max_connections = 0;
  std::uint64_t probe_interval_ms = router_options.probe_interval.count();
  std::uint64_t request_timeout_ms = router_options.request_timeout.count();

  auto add_backend = [&](std::string_view address) {
    router_options.backends.push_back(fleet::ParseBackendAddress(std::string(address)));
    return true;
  };
  auto add_backends = [&](const std::string& list) {
    for (std::string_view part : Split(list, ',')) {
      if (!part.empty()) add_backend(part);
    }
    return true;
  };
  FlagSet flags("flatnet_router");
  flags.Repeatable("--backends", "HOST:PORT,HOST:PORT,...", add_backends)
      // Repeatable single-address form, for scripts that build the list.
      .Repeatable("--backend", "HOST:PORT", add_backend)
      .Unsigned("--port", "P", &port)
      .String("--bind", "ADDR", &bind_address)
      .String("--port-file", "<file>", &port_file)
      .Unsigned("--vnodes", "N", &router_options.vnodes, 1)
      .Unsigned("--probe-interval-ms", "MS", &probe_interval_ms, 1)
      .Unsigned("--request-timeout-ms", "MS", &request_timeout_ms, 1)
      .Switch("--no-hedging", &router_options.hedging, false)
      .Double("--hedge-multiplier", "X", &router_options.hedge.multiplier, 0.0)
      .Double("--hedge-min-ms", "MS", &router_options.hedge.min_ms, 0.0)
      .Double("--hedge-max-ms", "MS", &router_options.hedge.max_ms, 0.0)
      .Unsigned("--max-connections", "N", &max_connections);
  tools::ObsFlags obs_flags(flags);
  if (int code = flags.Parse(argc, argv)) return code;
  if (router_options.backends.empty()) {
    std::fprintf(stderr, "flatnet_router: at least one --backends address is required\n");
    return flags.UsageError();
  }
  router_options.probe_interval = std::chrono::milliseconds(probe_interval_ms);
  router_options.request_timeout = std::chrono::milliseconds(request_timeout_ms);

  obs::RegisterCoreMetrics();
  obs::InstallCrashHandlerFromEnv();

  try {
    fleet::FleetRouter router(router_options);
    router.Start();
    std::fprintf(stderr, "fleet: %zu shards, %zu live\n", router_options.backends.size(),
                 router.pool().NumAlive());

    serve::ServerOptions server_options;
    server_options.bind_address = bind_address;
    server_options.port = port;
    server_options.max_connections = max_connections;
    serve::Server server(
        [&router](const std::string& line, std::function<void(std::string)> done,
                  std::chrono::steady_clock::time_point received_at) {
          router.Handle(line, std::move(done), received_at);
        },
        /*drain=*/nullptr, server_options);

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << '\n';
      if (!out) {
        std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
        return 1;
      }
    }
    std::printf("routing on %s:%u\n", bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    g_server = &server;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    {
      obs::MetricsFlusher flusher(obs_flags.metrics_out(),
                                  obs::MetricsFlusher::IntervalFromEnv());
      server.Run();
    }
    g_server = nullptr;
    router.Stop();

    fleet::RouterStats stats = router.stats();
    std::printf(
        "shutdown: %llu requests, %llu errors, %llu hedges (%llu won), %llu partial\n",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.errors),
        static_cast<unsigned long long>(stats.hedge_issued),
        static_cast<unsigned long long>(stats.hedge_won),
        static_cast<unsigned long long>(stats.partial_answers));
    return obs_flags.Finish(0);
  } catch (const Error& e) {
    std::fprintf(stderr, "flatnet_router: %s\n", e.what());
    return 1;
  }
}
