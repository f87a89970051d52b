// flatnet_serve: resident analysis query service.
//
// Loads a topology once (from a SaveInternet stem, generating and caching
// it when absent) and answers reach / reliance / leak / status queries over
// line-delimited JSON on TCP — see src/serve/protocol.h for the grammar.
// Results are cached (sharded byte-budget LRU), admission is bounded, and
// SIGTERM/SIGINT drain gracefully: admitted queries finish and answer
// before the process exits.
//
// Fleet membership: --shard I/N declares this process shard I of an
// N-shard fleet (0-based). Attach then keeps only this shard's slice of
// each store's rankings and cells under the consistent-hash ring
// (src/fleet/ring.h), and status advertises the owned ranges so the
// flatnet_router can route and merge. --max-connections caps live
// connections; past the cap an accept receives one structured
// `overloaded` error line (the router treats it as backpressure).
//
// Observability: --slow-query-ms (or FLATNET_SLOW_QUERY_MS) logs each
// request slower than the threshold with its phase timeline;
// --recorder-dump (or FLATNET_RECORDER_DUMP) enables the flight recorder
// and installs a fatal-signal handler that dumps it to the named file;
// FLATNET_METRICS_INTERVAL republishes --metrics-out every N seconds while
// the server runs. The `metrics` and `debug` serve ops expose the same
// state over the socket.
//
// With --topology, the stem is loaded when present; otherwise the era
// topology is generated and saved there (atomic publish), so restarts are
// fast. Without --topology the topology lives only in memory. --port 0
// (default) binds an ephemeral port; --port-file publishes the bound port
// for scripted clients.
//
// --sweep attaches a flatnet_sweep result store, enabling the `top` op
// (a load or fingerprint failure is then fatal). Without the flag,
// <stem>.sweep is attached when it exists and matches — best-effort, so a
// stale store logs a warning instead of blocking startup. --leak does the
// same for a flatnet_leaksim --campaign store and the `leakdist` op
// (implicit candidate: <stem>.leak), and --fail for a flatnet_failsim
// store and the `hegemony` + `failure` ops (implicit candidate:
// <stem>.fail).
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>

#include "core/graph_store.h"
#include "core/serialize.h"
#include "core/study.h"
#include "failsim/store.h"
#include "leaksim/store.h"
#include "obs/recorder.h"
#include "obs_flags.h"
#include "serve/server.h"
#include "sweep/store.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

serve::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();  // one atomic store
}

Internet LoadOrGenerate(const std::string& stem, const std::string& era, std::uint32_t ases,
                        std::uint64_t seed) {
  // A `.graph` topology is memory-mapped: adjacency serves straight from
  // the file, no builder, no hash maps.
  if (IsGraphStorePath(stem)) {
    if (std::filesystem::exists(stem)) {
      std::fprintf(stderr, "mapping topology from %s...\n", stem.c_str());
      return LoadInternetBinary(stem);
    }
  } else if (!stem.empty() && InternetCacheExists(stem)) {
    std::fprintf(stderr, "loading topology from %s...\n", stem.c_str());
    return LoadInternet(stem);
  }
  StudyOptions options;
  options.generator =
      era == "2015" ? GeneratorParams::Era2015(ases) : GeneratorParams::Era2020(ases);
  if (seed != 0) options.generator.seed = seed;
  options.campaign.seed = options.generator.seed ^ 0xca3;
  std::fprintf(stderr, "generating %s-era Internet (%u ASes, seed %llu)...\n", era.c_str(),
               options.generator.total_ases,
               static_cast<unsigned long long>(options.generator.seed));
  Study study(options);
  Internet internet = study.internet();
  if (IsGraphStorePath(stem)) {
    SaveInternetBinary(internet, stem);
    std::fprintf(stderr, "cached topology at %s\n", stem.c_str());
  } else if (!stem.empty()) {
    SaveInternet(internet, stem);
    std::fprintf(stderr, "cached topology at %s.{as-rel.txt,meta.tsv}\n", stem.c_str());
  }
  return internet;
}

// Attaches a campaign store of `kind` ("sweep", "leak", "fail") with
// `attach`, which loads `path` and hands it to the dispatcher. An explicit
// path (`flag_path`, from --<kind>) must attach: failure is fatal and
// returns false. Without one, <stem>.<kind> is attached when it exists,
// and a failure (say, a store from an older topology) only warns.
bool AttachStore(const char* kind, const char* ops_enabled, const std::string& flag_path,
                 const std::string& stem,
                 const std::function<void(const std::string&)>& attach) {
  std::string path = flag_path;
  if (path.empty() && !stem.empty()) {
    std::string candidate = stem + "." + kind;
    if (std::filesystem::exists(candidate)) path = candidate;
  }
  if (path.empty()) return true;
  try {
    attach(path);
    std::fprintf(stderr, "%s store: %s (%s)\n", kind, path.c_str(), ops_enabled);
  } catch (const Error& e) {
    if (!flag_path.empty()) {
      std::fprintf(stderr, "cannot attach %s store: %s\n", kind, e.what());
      return false;
    }
    std::fprintf(stderr, "ignoring %s store %s: %s\n", kind, path.c_str(), e.what());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stem;
  std::string era = "2020";
  std::uint32_t ases = 0;
  std::uint64_t seed = 0;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::string recorder_dump;
  std::string sweep_path;
  std::string leak_path;
  std::string fail_path;
  std::uint64_t max_connections = 0;
  std::optional<std::uint64_t> cache_mb;
  std::optional<std::uint64_t> default_deadline_ms;
  std::optional<std::uint64_t> slow_query_ms;
  serve::DispatcherOptions dispatch;

  // I/N, e.g. --shard 0/3: shard index / fleet size.
  auto parse_shard = [&](const std::string& v) {
    std::size_t slash = v.find('/');
    if (slash == std::string::npos) return false;
    auto index = ParseU64(std::string_view(v).substr(0, slash));
    auto count = ParseU64(std::string_view(v).substr(slash + 1));
    if (!index || !count || *count == 0 || *index >= *count) return false;
    dispatch.shard_index = *index;
    dispatch.shard_count = *count;
    return true;
  };
  FlagSet flags("flatnet_serve");
  flags.String("--topology", "<stem>", &stem)
      .Choice("--era", {"2015", "2020"}, &era)
      .Unsigned("--ases", "N", &ases)
      .Unsigned("--seed", "S", &seed)
      .Unsigned("--port", "P", &port)
      .String("--bind", "ADDR", &bind_address)
      .String("--port-file", "<file>", &port_file)
      .Unsigned("--threads", "N", &dispatch.threads)
      .Unsigned("--cache-mb", "MB", &cache_mb)
      .Unsigned("--max-inflight", "N", &dispatch.max_inflight, 1)
      .Unsigned("--default-deadline-ms", "MS", &default_deadline_ms)
      .String("--sweep", "<file>", &sweep_path)
      .String("--leak", "<file>", &leak_path)
      .String("--fail", "<file>", &fail_path)
      .Unsigned("--slow-query-ms", "MS", &slow_query_ms)
      .String("--recorder-dump", "<file>", &recorder_dump)
      .Repeatable("--shard", "I/N", parse_shard)
      .Unsigned("--max-connections", "N", &max_connections);
  tools::ObsFlags obs_flags(flags);
  if (int code = flags.Parse(argc, argv)) return code;
  if (cache_mb) dispatch.cache_bytes = *cache_mb * 1024 * 1024;
  if (default_deadline_ms) {
    dispatch.default_deadline_ms = static_cast<std::int64_t>(*default_deadline_ms);
  }
  if (slow_query_ms) dispatch.slow_query_ms = static_cast<std::int64_t>(*slow_query_ms);

  obs::RegisterCoreMetrics();
  if (!recorder_dump.empty()) {
    // The flag copy must outlive the process: the handler reads it at
    // crash time. InstallCrashHandler copies into static storage.
    obs::InstallCrashHandler(recorder_dump);
  } else {
    obs::InstallCrashHandlerFromEnv();
  }
  Internet internet = LoadOrGenerate(stem, era, ases, seed);
  std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
               internet.graph().num_edges());

  serve::Dispatcher dispatcher(internet, dispatch);

  auto attach_sweep = [&](const std::string& path) {
    dispatcher.AttachSweepStore(sweep::SweepStore::Load(path), path);
  };
  auto attach_leak = [&](const std::string& path) {
    dispatcher.AttachLeakStore(leaksim::LeakStore::Load(path), path);
  };
  auto attach_fail = [&](const std::string& path) {
    dispatcher.AttachFailStore(failsim::FailStore::Load(path), path);
  };
  if (!AttachStore("sweep", "top op enabled", sweep_path, stem, attach_sweep) ||
      !AttachStore("leak", "leakdist op enabled", leak_path, stem, attach_leak) ||
      !AttachStore("fail", "hegemony + failure ops enabled", fail_path, stem, attach_fail)) {
    return 1;
  }

  serve::ServerOptions server_options;
  server_options.bind_address = bind_address;
  server_options.port = port;
  server_options.max_connections = max_connections;
  serve::Server server(dispatcher, server_options);

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 1;
    }
  }
  std::printf("listening on %s:%u\n", bind_address.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  {
    // Republishes --metrics-out on the FLATNET_METRICS_INTERVAL cadence
    // while the server runs; a no-op when either is unset.
    obs::MetricsFlusher flusher(obs_flags.metrics_out(),
                                obs::MetricsFlusher::IntervalFromEnv());
    server.Run();
  }
  g_server = nullptr;

  serve::CacheStats cache = dispatcher.cache_stats();
  std::printf("shutdown: cache %llu hits / %llu misses / %llu evictions, %llu entries\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.entries));
  return obs_flags.Finish(0);
}
