// perfbench_harness: the in-process half of the flatnet benchmark.
//
// Subcommands (each prints one JSON object on stdout):
//
//   prepare  generate an Era-2020 topology from the seed, save and map it
//            as `.graph` (repeated --reps times), then run the campaign
//            drivers on it — a journaled all-origins sweep, a leak
//            campaign, a knockout failure campaign and a link-set failure
//            campaign — and publish their stores; checks sampled sweep
//            rows against an independent ReachableCount.
//   campaign reruns the campaign stages on a prepared topology, writing
//            their stores elsewhere (more timed runs of the same inputs).
//   layers   times single layers by calling their public functions:
//            bgp kernels, AsGraphBuilder, store attach, request parsing,
//            Dispatcher::Handle, and fleet::MergeTop.
//   load     drives a running flatnet_serve / flatnet_router with seeded
//            open-loop Poisson arrivals (see loadgen.h) and writes one
//            sample line per request; checks reach counts and the byte
//            identity of cold and cached results.
//   probe    sends the `top` cross-check queries to two ports and compares
//            the result bytes.
//
// Every subcommand records spans around its layer calls and, given
// --spans FILE, appends them there as JSON lines when it ends.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "bgp/hegemony.h"
#include "bgp/leak.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "bgp/reliance.h"
#include "core/graph_store.h"
#include "core/internet.h"
#include "failsim/engine.h"
#include "fleet/merge.h"
#include "fleet/ring.h"
#include "leaksim/engine.h"
#include "loadgen.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "spans.h"
#include "sweep/engine.h"
#include "topogen/generate.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"

using namespace flatnet;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

namespace {

// ---------------------------------------------------------------- flags

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw InvalidArgument("expected --flag value pairs, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string Str(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string Required(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) throw InvalidArgument("missing --" + key);
    return it->second;
  }
  std::uint64_t U64(const std::string& key, std::uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }
  double Num(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------- helpers

// Campaign drivers run on a fixed thread count: with 4 threads the 100k
// sweep's rate spread 15% from run to run, with 2 threads 6%. The
// in-process dispatcher gets the pool size flatnet_serve runs with.
constexpr std::size_t kCampaignThreads = 2;
constexpr std::size_t kDispatchThreads = 2;
// Sample sizes of the checks and of the layer timings.
constexpr std::size_t kVerifiedSweepRows = 48;   // sweep rows checked per column
constexpr std::size_t kHeavySamples = 40;        // origins timed for reliance (1/4 hegemony)
constexpr std::size_t kDispatchRequests = 500;   // parse + in-process dispatch requests
constexpr std::size_t kVerifyReachEvery = 20;    // every n-th reach reply is recounted
// Campaign cells: victims and origins sampled per campaign. Trial counts
// per cell are flags (each workload sizes its own).
constexpr std::size_t kLeakVictims = 16;
constexpr std::size_t kFailOrigins = 8;
constexpr std::size_t kLinksetOrigins = 2;
constexpr std::uint32_t kLinksetSeverity = 2;  // links knocked out per link-set trial

double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double Seconds(const SpanLog& log, std::int64_t span) {
  return log.spans()[static_cast<std::size_t>(span)].Micros() / 1e6;
}

Json Summary(const std::vector<double>& us) {
  Json out = Json::MakeObject();
  out["count"] = static_cast<std::uint64_t>(us.size());
  out["p50"] = perfbench::Quantile(us, 0.50);
  out["p99"] = perfbench::Quantile(us, 0.99);
  return out;
}

std::vector<AsId> SampleIds(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<AsId> out;
  for (std::uint32_t id : rng.SampleWithoutReplacement(
           static_cast<std::uint32_t>(n),
           static_cast<std::uint32_t>(std::min<std::size_t>(k, n)))) {
    out.push_back(static_cast<AsId>(id));
  }
  return out;
}

std::uint64_t TopologySeed(std::uint64_t seed) { return 0x5eed0000ULL + seed; }

struct WorkPaths {
  std::string graph, sweep, leak, fail, linkset;
  explicit WorkPaths(const std::string& dir)
      : graph(dir + "/topo.graph"),
        sweep(dir + "/topo.sweep"),
        leak(dir + "/topo.leak"),
        fail(dir + "/topo.fail"),
        linkset(dir + "/linkset.fail") {}
};

void Emit(const Json& out) { std::printf("%s\n", out.Dump().c_str()); }

void FinishSpans(const SpanLog& log, const Flags& flags) {
  std::string path = flags.Str("spans");
  if (!path.empty()) log.WriteJsonl(path);
}

// ------------------------------------------------------------- prepare

Internet GenerateInternet(std::uint32_t ases, std::uint64_t seed) {
  GeneratorParams params = GeneratorParams::Era2020(ases);
  params.seed = TopologySeed(seed);
  params.assign_prefixes = false;
  World world = GenerateWorld(params);
  return Internet(std::move(world.full_graph), std::move(world.tiers),
                  std::move(world.metadata));
}

// reach(o, I \ mask) exactly as the sweep columns and the serve `reach` op
// define it, computed with the standalone counting entry point.
Bitset ModeMask(const Internet& internet, AsId origin, const std::string& mode) {
  if (mode == "provider_free") return internet.ProviderFreeExclusion(origin);
  if (mode == "tier1_free") return internet.Tier1FreeExclusion(origin);
  if (mode == "hierarchy_free") return internet.HierarchyFreeExclusion(origin);
  return Bitset(internet.num_ases());
}

Json CampaignJson(std::size_t units, double run_s, double finalize_s) {
  Json out = Json::MakeObject();
  out["units"] = static_cast<std::uint64_t>(units);
  out["run_s"] = run_s;
  out["finalize_s"] = finalize_s;
  out["per_s"] = run_s > 0 ? static_cast<double>(units) / run_s : 0.0;
  return out;
}

// Runs the campaign stages on `internet` — a journaled all-origins sweep, a
// leak campaign, a knockout failure campaign and a link-set failure
// campaign — reporting each into out["sweep"], out["leak"], ... and writing
// their stores under `paths`. Then the gate: sampled sweep rows against an
// independent ReachableCount (out["checks"]). Cells are drawn from `seed`,
// so every call with the same seed runs the same campaign.
void RunCampaigns(const Internet& internet, const WorkPaths& paths, const Flags& flags,
                  std::uint64_t seed, SpanLog& log, Json& out) {
  std::size_t n = internet.num_ases();
  std::vector<std::pair<std::string, std::function<Json()>>> stages;

  // Sweep: every origin, journal on, fixed thread count.
  sweep::SweepTable table;
  stages.emplace_back("sweep", [&] {
    obs::ResetSpanStatsForTest();
    sweep::SweepOptions options;
    options.threads = kCampaignThreads;
    options.journal_path = paths.sweep + ".journal";
    sweep::SweepRunStats stats;
    std::int64_t run = log.Begin("sweep.run");
    table = sweep::RunSweep(internet, options, &stats);
    log.End(run);
    std::int64_t fin = log.Begin("sweep.finalize");
    sweep::FinalizeSweepStore(paths.sweep, table, options.journal_path);
    log.End(fin);
    Json result = CampaignJson(stats.origins_computed, Seconds(log, run), Seconds(log, fin));
    // Slowest chunk over the mean chunk, from the engine's own span stats.
    auto span_stats = obs::SpanStatsSnapshot();
    auto chunk = span_stats.find("sweep.chunk");
    double skew = 0.0;
    if (chunk != span_stats.end() && chunk->second.count > 0 &&
        chunk->second.total_seconds > 0) {
      double mean = chunk->second.total_seconds / static_cast<double>(chunk->second.count);
      skew = chunk->second.max_seconds / mean;
    }
    result["chunk_skew"] = skew;
    return result;
  });

  // Leak campaign: sampled victims x every scenario.
  Rng master(seed ^ 0x1eafULL);
  std::vector<leaksim::LeakCellSpec> leak_cells;
  for (AsId victim : SampleIds(n, kLeakVictims, master.NextU64())) {
    for (int s = 0; s < static_cast<int>(kNumLeakScenarios); ++s) {
      leaksim::LeakCellSpec spec;
      spec.victim = victim;
      spec.scenario = static_cast<LeakScenario>(s);
      spec.seed = master.NextU64();
      spec.trials = static_cast<std::uint32_t>(flags.U64("leak-trials", 50));
      leak_cells.push_back(spec);
    }
  }
  stages.emplace_back("leak", [&] {
    leaksim::LeakCampaignOptions options;
    options.threads = kCampaignThreads;
    options.journal_path = paths.leak + ".journal";
    leaksim::LeakCampaignStats stats;
    std::int64_t run = log.Begin("leaksim.run");
    leaksim::LeakTable leak_table = leaksim::RunLeakCampaign(internet, leak_cells, options, &stats);
    log.End(run);
    std::int64_t fin = log.Begin("leaksim.finalize");
    leaksim::FinalizeLeakStore(paths.leak, leak_table, options.journal_path);
    log.End(fin);
    return CampaignJson(stats.trials_evaluated, Seconds(log, run), Seconds(log, fin));
  });

  // Failure campaigns: knockout scenarios, then a small link-set one (each
  // link-set trial rebuilds the graph, so its rate is reported apart).
  auto fail_campaign = [&](const std::string& name, const std::string& path,
                           const std::vector<failsim::FailScenario>& scenarios,
                           std::size_t origins, std::uint32_t severity,
                           std::uint32_t trials) -> std::function<Json()> {
    std::vector<failsim::FailCellSpec> cells;
    for (AsId origin : SampleIds(n, origins, master.NextU64())) {
      for (failsim::FailScenario scenario : scenarios) {
        failsim::FailCellSpec spec;
        spec.origin = origin;
        spec.scenario = scenario;
        spec.severity = scenario == failsim::FailScenario::kLinkSet ? severity : 0;
        spec.seed = master.NextU64();
        spec.trials = trials;
        cells.push_back(spec);
      }
    }
    return [&log, &internet, name, path, cells] {
      failsim::FailCampaignOptions options;
      options.threads = kCampaignThreads;
      options.journal_path = path + ".journal";
      failsim::FailCampaignStats stats;
      std::int64_t run = log.Begin("failsim." + name + "run");
      failsim::FailTable fail_table =
          failsim::RunFailureCampaign(internet, cells, options, &stats);
      log.End(run);
      std::int64_t fin = log.Begin("failsim." + name + "finalize");
      failsim::FinalizeFailStore(path, fail_table, options.journal_path);
      log.End(fin);
      return CampaignJson(stats.trials_evaluated, Seconds(log, run), Seconds(log, fin));
    };
  };
  stages.emplace_back("fail", fail_campaign(
      "", paths.fail,
      {failsim::FailScenario::kSingleAs, failsim::FailScenario::kTier1,
       failsim::FailScenario::kHegemonyCascade},
      kFailOrigins, 0, static_cast<std::uint32_t>(flags.U64("fail-trials", 20))));
  stages.emplace_back("linkset", fail_campaign(
      "linkset_", paths.linkset, {failsim::FailScenario::kLinkSet}, kLinksetOrigins,
      kLinksetSeverity, static_cast<std::uint32_t>(flags.U64("linkset-trials", 4))));

  // Warm-up: untimed sweeps for --warmup-s seconds. Right after a serving
  // phase the first half second of a 2-thread stage often ran at half
  // speed on a 4-vCPU VM (20k-AS sweeps read 24k instead of 46k
  // origins/s), and on a 20k topology the first stage lasts only that long.
  auto warm_until = perfbench::Clock::now() +
                    std::chrono::duration_cast<perfbench::Clock::duration>(
                        std::chrono::duration<double>(flags.Num("warmup-s", 0)));
  while (perfbench::Clock::now() < warm_until) stages.front().second();
  for (const auto& [name, stage] : stages) out[name] = stage();

  // Gate: sampled sweep rows against an independent ReachableCount.
  std::size_t checked = 0, mismatched = 0;
  const struct {
    sweep::SweepColumn column;
    const char* mode;
  } kColumns[] = {{sweep::SweepColumn::kProviderFree, "provider_free"},
                  {sweep::SweepColumn::kTier1Free, "tier1_free"},
                  {sweep::SweepColumn::kHierarchyFree, "hierarchy_free"}};
  for (AsId origin : SampleIds(n, kVerifiedSweepRows, seed ^ 0xc0ffeeULL)) {
    for (const auto& c : kColumns) {
      Bitset mask = ModeMask(internet, origin, c.mode);
      std::size_t expect = ReachableCount(internet.graph(), origin, &mask);
      ++checked;
      if (table.Column(c.column)[origin] != expect) {
        ++mismatched;
        std::fprintf(stderr, "sweep row mismatch: origin id %u column %s: %u vs %zu\n",
                     origin, c.mode, table.Column(c.column)[origin], expect);
      }
    }
  }
  Json checks = Json::MakeObject();
  checks["sweep_rows_checked"] = static_cast<std::uint64_t>(checked);
  checks["sweep_rows_mismatched"] = static_cast<std::uint64_t>(mismatched);
  out["checks"] = checks;
}

int CmdPrepare(const Flags& flags) {
  std::uint32_t ases = static_cast<std::uint32_t>(flags.U64("ases", 20000));
  std::uint64_t seed = flags.U64("seed", 1);
  std::size_t reps = std::max<std::uint64_t>(1, flags.U64("reps", 1));
  WorkPaths paths(flags.Required("work"));
  SpanLog log;
  Json out = Json::MakeObject();

  // Set-up: generate, save, map — repeated so the median is steady.
  Json generate_s = Json::MakeArray(), save_s = Json::MakeArray(),
       load_s = Json::MakeArray(), setup_s = Json::MakeArray();
  Internet internet;
  for (std::size_t r = 0; r < reps; ++r) {
    internet = Internet();
    std::int64_t setup = log.Begin("setup");
    std::int64_t generate = log.Begin("topogen.generate", setup);
    Internet generated = GenerateInternet(ases, seed);
    log.End(generate);
    std::int64_t save = log.Begin("core.graph_save", setup);
    SaveInternetBinary(generated, paths.graph);
    log.End(save);
    generated = Internet();
    std::int64_t load = log.Begin("core.graph_load", setup);
    internet = LoadInternetBinary(paths.graph);
    log.End(load);
    log.End(setup);
    setup_s.Append(Seconds(log, setup));
    generate_s.Append(Seconds(log, generate));
    save_s.Append(Seconds(log, save));
    load_s.Append(Seconds(log, load));
  }
  out["setup_s"] = setup_s;
  out["generate_s"] = generate_s;
  out["save_s"] = save_s;
  out["load_s"] = load_s;
  out["graph_mapped_mb"] =
      static_cast<double>(std::filesystem::file_size(paths.graph)) / (1024.0 * 1024.0);
  out["num_ases"] = static_cast<std::uint64_t>(internet.num_ases());
  out["num_edges"] = static_cast<std::uint64_t>(internet.graph().num_edges());
  RunCampaigns(internet, paths, flags, seed, log, out);
  out["rss_mb"] = VmHwmMb();
  FinishSpans(log, flags);
  Emit(out);
  return 0;
}

// Reruns the campaign stages on the prepared topology (--work), writing
// their stores under --out, so the stores the servers attach stay as
// `prepare` wrote them.
int CmdCampaign(const Flags& flags) {
  WorkPaths in(flags.Required("work"));
  WorkPaths paths(flags.Required("out"));
  SpanLog log;
  Json out = Json::MakeObject();
  Internet internet = LoadInternetBinary(in.graph);
  RunCampaigns(internet, paths, flags, flags.U64("seed", 1), log, out);
  FinishSpans(log, flags);
  Emit(out);
  return 0;
}

// ------------------------------------------------------------- request mixes

// One request body without its closing brace, so "id"/"timing" can be
// appended; `op` names the request's op for the sample file.
struct Body {
  std::string op;
  std::string text;
  AsId origin = kInvalidAsId;  // reach: for the local recount
  std::string mode;            // reach mode
};

constexpr const char* kReachModes[] = {"full", "provider_free", "tier1_free", "hierarchy_free"};
constexpr const char* kTopMetrics[] = {"provider_free", "tier1_free", "hierarchy_free"};
constexpr const char* kLeakScenarioWire[] = {"none", "t1", "t1t2", "global", "hierarchy"};
constexpr const char* kKnockoutWire[] = {"single_as", "tier1", "hegemony_cascade"};
constexpr const char* kFailColumns[] = {"loss_ases", "disconnected"};
constexpr std::size_t kHotSetSize = 16;

class MixSource {
 public:
  MixSource(const Internet& internet, const WorkPaths& paths, std::uint64_t seed)
      : internet_(internet), hot_(SampleIds(internet.num_ases(), kHotSetSize, seed ^ 0x407ULL)) {
    leaksim::LeakStore leak = leaksim::LeakStore::Load(paths.leak);
    std::set<AsId> victims;
    for (std::size_t i = 0; i < leak.num_cells(); ++i) victims.insert(leak.cell(i).spec.victim);
    leak_victims_.assign(victims.begin(), victims.end());
    failsim::FailStore fail = failsim::FailStore::Load(paths.fail);
    std::set<AsId> origins;
    for (std::size_t i = 0; i < fail.num_cells(); ++i) origins.insert(fail.cell(i).spec.origin);
    fail_origins_.assign(origins.begin(), origins.end());
  }

  std::string Asn(AsId id) const { return std::to_string(internet_.graph().AsnOf(id)); }

  Body Reach(AsId origin, const char* mode) const {
    return {"reach",
            "{\"op\":\"reach\",\"origin\":" + Asn(origin) + ",\"mode\":\"" + mode + "\"",
            origin, mode};
  }
  Body Reliance(AsId origin) const {
    return {"reliance", "{\"op\":\"reliance\",\"origin\":" + Asn(origin) + ",\"k\":10"};
  }
  Body Leak(AsId victim, AsId leaker) const {
    // `originate` leaks are defined for every leaker other than the victim.
    return {"leak", "{\"op\":\"leak\",\"victim\":" + Asn(victim) + ",\"leaker\":" +
                        Asn(leaker) + ",\"model\":\"originate\""};
  }

  // Every compute request over the hot set: the warm-up pass sends these.
  std::vector<Body> HotKeys() const {
    std::vector<Body> out;
    for (AsId a : hot_) {
      for (const char* mode : kReachModes) out.push_back(Reach(a, mode));
      out.push_back(Reliance(a));
      for (AsId b : hot_) {
        if (a != b) out.push_back(Leak(a, b));
      }
    }
    return out;
  }

  Body Draw(const std::string& mix, Rng& rng) const {
    double u = rng.UniformDouble();
    if (mix == "hot" && u < 0.7) {
      auto hot = [&] { return hot_[rng.UniformU64(hot_.size())]; };
      double v = u / 0.7;
      if (v < 0.6) return Reach(hot(), kReachModes[rng.UniformU64(4)]);
      if (v < 0.8) return Reliance(hot());
      AsId victim = hot();
      AsId leaker = hot();
      while (leaker == victim) leaker = hot();
      return Leak(victim, leaker);
    }
    // Inline store ops: the hot mix's remaining 30%, or all of `store`.
    switch (rng.UniformU64(5)) {
      case 0:
        return {"top", "{\"op\":\"top\",\"k\":" + std::string(rng.Bernoulli(0.5) ? "10" : "50") +
                           ",\"metric\":\"" + kTopMetrics[rng.UniformU64(3)] + "\""};
      case 1:
        return {"leakdist",
                "{\"op\":\"leakdist\",\"victim\":" +
                    Asn(leak_victims_[rng.UniformU64(leak_victims_.size())]) +
                    ",\"scenario\":\"" + kLeakScenarioWire[rng.UniformU64(5)] + "\""};
      case 2:
        return {"hegemony", "{\"op\":\"hegemony\",\"origin\":" +
                                Asn(fail_origins_[rng.UniformU64(fail_origins_.size())]) +
                                ",\"k\":10"};
      case 3:
        return {"failure", "{\"op\":\"failure\",\"origin\":" +
                               Asn(fail_origins_[rng.UniformU64(fail_origins_.size())]) +
                               ",\"scenario\":\"" + kKnockoutWire[rng.UniformU64(3)] +
                               "\",\"column\":\"" + kFailColumns[rng.UniformU64(2)] + "\""};
      default:
        return {"status", "{\"op\":\"status\""};
    }
  }

 private:
  const Internet& internet_;
  std::vector<AsId> hot_;
  std::vector<AsId> leak_victims_;
  std::vector<AsId> fail_origins_;
};

std::string Line(const Body& body, std::int64_t id, bool timing) {
  return body.text + ",\"id\":" + std::to_string(id) + (timing ? ",\"timing\":true}" : "}");
}

// Dispatcher::Handle with the harness's own completion wait: the promise's
// shared state outlives both sides, whichever finishes first.
std::string HandleAndWait(serve::Dispatcher& dispatcher, const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  std::future<std::string> reply = done->get_future();
  dispatcher.Handle(line, [done](std::string r) { done->set_value(std::move(r)); });
  return reply.get();
}

// -------------------------------------------------------------- layers

int CmdLayers(const Flags& flags) {
  std::uint64_t seed = flags.U64("seed", 1);
  std::string mix = flags.Str("mix", "store");
  WorkPaths paths(flags.Required("work"));
  std::size_t samples = flags.U64("samples", 200);
  SpanLog log;
  Json out = Json::MakeObject();
  Internet internet = LoadInternetBinary(paths.graph);
  const AsGraph& graph = internet.graph();
  std::size_t n = internet.num_ases();

  // bgp kernels over a seeded uniform sample of origins (never the first
  // ids: low ids are the heaviest transit ASes).
  std::vector<AsId> origins = SampleIds(n, samples, seed ^ 0x1a7e5ULL);
  ReachabilityEngine engine(graph);
  for (AsId o : origins) {
    Bitset mask;
    {
      ScopedSpan span(log, "bgp.hf_exclusion");
      mask = internet.HierarchyFreeExclusion(o);
    }
    ScopedSpan span(log, "bgp.reach_count");
    engine.Count(o, &mask);
  }
  auto source = [](AsId id) {
    AnnouncementSource s;
    s.node = id;
    return s;
  };
  RouteComputation computation(graph, {source(origins[0])});
  std::size_t heavy = std::min<std::size_t>(origins.size(), kHeavySamples);
  for (std::size_t i = 0; i < origins.size(); ++i) {
    {
      ScopedSpan span(log, "bgp.route_compute");
      computation.Recompute({source(origins[i])});
    }
    if (i < heavy) {
      ScopedSpan span(log, "bgp.reliance");
      ComputeReliance(computation);
    }
    if (i < heavy / 4) {
      ScopedSpan span(log, "bgp.hegemony");
      ComputeHegemony(computation);
    }
  }
  // Leak trials with a reusable workspace, as the campaign engine runs them.
  Rng leak_rng(seed ^ 0x1eaf7ULL);
  LeakWorkspace workspace;
  for (std::size_t v = 0; v < std::min<std::size_t>(8, origins.size()); ++v) {
    LeakExperiment experiment(graph, origins[v], LeakConfig{});
    std::size_t ran = 0;
    for (std::size_t tries = 0; ran < heavy / 4 + 1 && tries < 200; ++tries) {
      AsId leaker = static_cast<AsId>(leak_rng.UniformU64(n));
      if (!experiment.CanLeak(leaker)) continue;
      ScopedSpan span(log, "bgp.leak_trial");
      experiment.Run(leaker, workspace);
      ++ran;
    }
  }
  // Graph rebuild from the loaded edge list, as a link-set trial does it.
  std::vector<AsGraph::Edge> edges = graph.EdgeList();
  for (std::size_t r = 0; r < flags.U64("build-reps", 2); ++r) {
    ScopedSpan span(log, "asgraph.build");
    AsGraphBuilder builder;
    for (AsId id = 0; id < n; ++id) builder.AddAs(graph.AsnOf(id));
    for (const AsGraph::Edge& e : edges) builder.AddEdge(e.a, e.b, e.type);
    AsGraph rebuilt = std::move(builder).Build();
  }
  edges = {};

  // Store attach, then parse + in-process dispatch of the workload's stream.
  serve::DispatcherOptions options;
  options.threads = kDispatchThreads;
  serve::Dispatcher dispatcher(internet, options);
  {
    ScopedSpan span(log, "serve.attach_sweep");
    dispatcher.AttachSweepStore(sweep::SweepStore::Load(paths.sweep), paths.sweep);
  }
  {
    ScopedSpan span(log, "serve.attach_leak");
    dispatcher.AttachLeakStore(leaksim::LeakStore::Load(paths.leak), paths.leak);
  }
  {
    ScopedSpan span(log, "serve.attach_fail");
    dispatcher.AttachFailStore(failsim::FailStore::Load(paths.fail), paths.fail);
  }
  MixSource source_mix(internet, paths, seed);
  if (mix == "hot") {
    for (const Body& body : source_mix.HotKeys()) HandleAndWait(dispatcher, Line(body, 0, false));
  }
  Rng rng(seed ^ 0xd15ULL);
  for (std::size_t i = 0; i < kDispatchRequests; ++i) {
    std::string line = Line(source_mix.Draw(mix, rng), static_cast<std::int64_t>(i), false);
    {
      ScopedSpan span(log, "serve.parse", -1, static_cast<std::int64_t>(i));
      serve::ParseRequest(line);
    }
    ScopedSpan span(log, "serve.dispatch", -1, static_cast<std::int64_t>(i));
    HandleAndWait(dispatcher, line);
  }

  // fleet::MergeTop over the two shard slices of a 2-shard fleet.
  if (flags.U64("merge", 0) != 0) {
    fleet::Ring ring(2);
    std::vector<std::unique_ptr<serve::Dispatcher>> shards;
    for (std::size_t s = 0; s < 2; ++s) {
      serve::DispatcherOptions shard_options;
      shard_options.threads = 1;
      shard_options.shard_index = s;
      shard_options.shard_count = 2;
      shards.push_back(std::make_unique<serve::Dispatcher>(internet, shard_options));
      shards.back()->AttachSweepStore(sweep::SweepStore::Load(paths.sweep), paths.sweep);
    }
    for (const char* k : {"10", "50"}) {
      for (const char* metric : kTopMetrics) {
        std::string line = std::string("{\"op\":\"top\",\"k\":") + k + ",\"metric\":\"" +
                           metric + "\",\"id\":0}";
        std::vector<Json> results;
        for (auto& shard : shards) {
          results.push_back(Json::Parse(HandleAndWait(*shard, line)).At("result"));
        }
        for (int r = 0; r < 50; ++r) {
          ScopedSpan span(log, "fleet.merge");
          fleet::MergeTop(results, {}, ring);
        }
      }
    }
  }

  const char* kLayers[] = {"bgp.hf_exclusion", "bgp.reach_count", "bgp.route_compute",
                           "bgp.reliance",     "bgp.hegemony",    "bgp.leak_trial",
                           "asgraph.build",    "serve.attach_sweep", "serve.attach_leak",
                           "serve.attach_fail", "serve.parse",     "serve.dispatch",
                           "fleet.merge"};
  Json layers = Json::MakeObject();
  for (const char* name : kLayers) layers[name] = Summary(log.DurationsUs(name));
  out["layers_us"] = layers;
  FinishSpans(log, flags);
  Emit(out);
  return 0;
}

// ---------------------------------------------------------------- load

int CmdLoad(const Flags& flags) {
  std::uint64_t seed = flags.U64("seed", 1);
  std::string mix = flags.Str("mix", "store");
  std::uint16_t port = static_cast<std::uint16_t>(flags.U64("port", 0));
  double rate = flags.Num("rate", 100);
  double seconds = flags.Num("seconds", 1);
  std::size_t conns = std::max<std::uint64_t>(1, flags.U64("conns", 4));
  bool timing = flags.U64("timing", 0) != 0;
  WorkPaths paths(flags.Required("work"));
  Internet internet = LoadInternetBinary(paths.graph);
  MixSource source(internet, paths, flags.U64("hot-seed", seed));
  Json out = Json::MakeObject();

  // Warm-up: every hot compute key once, closed-loop; these are the cold
  // bytes the cached replies must match.
  std::map<std::string, std::string> first_result;
  std::size_t warm_failed = 0;
  if (std::string cold_in = flags.Str("cold-in"); !cold_in.empty()) {
    std::ifstream in(cold_in);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    Json cold = Json::Parse(text);
    for (const auto& [key, value] : cold.AsObject()) {
      first_result.emplace(key, value.AsString());
    }
  }
  if (flags.U64("warm", 0) != 0) {
    std::vector<Body> keys = source.HotKeys();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      lines.push_back(Line(keys[i], static_cast<std::int64_t>(i), false));
    }
    std::vector<std::string> replies = perfbench::RoundTrips(port, lines);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      perfbench::Reply reply = perfbench::ParseReply(replies[i]);
      if (reply.outcome != perfbench::Outcome::kOk) {
        ++warm_failed;
        continue;
      }
      first_result.emplace(keys[i].text, reply.result);
    }
    if (std::string cold_out = flags.Str("cold-out"); !cold_out.empty()) {
      Json cold = Json::MakeObject();
      for (const auto& [key, value] : first_result) cold[key] = value;
      std::ofstream(cold_out) << cold.Dump();
    }
  }

  auto schedule = perfbench::PoissonSchedule(rate, seconds, conns, seed);
  Rng rng(seed ^ 0xb0d1ULL);
  std::vector<std::vector<std::int64_t>> ids(conns);
  std::vector<Body> bodies;
  std::vector<std::string> lines;
  // Draw in global due order so the stream does not depend on `conns`.
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t c = 0; c < conns; ++c) {
    for (double due : schedule[c]) order.emplace_back(due, c);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::vector<double>> sorted_schedule(conns);
  for (const auto& [due, c] : order) {
    std::int64_t id = static_cast<std::int64_t>(bodies.size());
    bodies.push_back(source.Draw(mix, rng));
    lines.push_back(Line(bodies.back(), id, timing));
    ids[c].push_back(id);
    sorted_schedule[c].push_back(due);
  }
  std::vector<int> fds;
  for (std::size_t c = 0; c < conns; ++c) fds.push_back(perfbench::ConnectLocal(port));
  std::vector<perfbench::Sample> samples =
      perfbench::RunOpenLoop(fds, sorted_schedule, ids, lines, perfbench::LoadOptions());
  for (int fd : fds) ::close(fd);

  // Gates: sampled reach counts against a local ReachableCount, and cached
  // result bytes against the first (cold) reply for the same request.
  std::size_t reach_checked = 0, reach_mismatched = 0;
  std::size_t repeat_checked = 0, repeat_mismatched = 0;
  std::size_t reach_seen = 0;
  for (perfbench::Sample& s : samples) {
    const Body& body = bodies[static_cast<std::size_t>(s.id)];
    if (s.reply.outcome != perfbench::Outcome::kOk) continue;
    if (body.op == "reach" && reach_seen++ % kVerifyReachEvery == 0) {
      Bitset mask = ModeMask(internet, body.origin, body.mode);
      std::size_t expect = ReachableCount(internet.graph(), body.origin, &mask);
      std::uint64_t got = Json::Parse(s.reply.result).At("reachable").AsU64();
      ++reach_checked;
      if (got != expect) {
        ++reach_mismatched;
        std::fprintf(stderr, "reach mismatch: %s -> %llu, local %zu\n", lines[s.id].c_str(),
                     static_cast<unsigned long long>(got), expect);
      }
    }
    if (body.op == "reach" || body.op == "reliance" || body.op == "leak") {
      auto [it, fresh] = first_result.emplace(body.text, s.reply.result);
      if (!fresh) {
        ++repeat_checked;
        if (it->second != s.reply.result) {
          ++repeat_mismatched;
          std::fprintf(stderr, "result bytes differ for %s\n", body.text.c_str());
        }
      }
    }
  }

  // One sample line per request: id op outcome code latency_ms lateness_ms
  // server_ms cached phases.
  SpanLog log;
  std::string layer = flags.Str("layer", "serve");
  auto start = perfbench::Clock::now();
  std::ofstream file(flags.Required("samples-out"));
  std::size_t failed = 0;
  std::vector<double> lateness;
  for (const perfbench::Sample& s : samples) {
    const Body& body = bodies[static_cast<std::size_t>(s.id)];
    if (perfbench::Failed(s.reply.outcome)) ++failed;
    if (s.sent_s >= 0) lateness.push_back(s.LatenessMs());
    file << s.id << ' ' << body.op << ' ' << perfbench::ToString(s.reply.outcome) << ' '
         << (s.reply.code.empty() ? "-" : s.reply.code) << ' ' << s.due_s * 1e3 << ' '
         << s.LatencyMs() << ' ' << s.LatenessMs() << ' ' << s.reply.server_ms << ' '
         << (s.reply.cached ? 1 : 0) << ' ';
    if (s.reply.phases.empty()) file << '-';
    for (std::size_t i = 0; i < s.reply.phases.size(); ++i) {
      file << (i ? "," : "") << s.reply.phases[i].first << '=' << s.reply.phases[i].second;
    }
    file << '\n';
    if (s.recv_s >= 0) {
      auto at = [&](double t) {
        return start + std::chrono::duration_cast<perfbench::Clock::duration>(
                           std::chrono::duration<double>(t));
      };
      log.Add(layer + ".request", at(s.due_s), at(s.recv_s), -1, s.id);
    }
  }
  if (!file) throw Error("cannot write samples");
  out["attempted"] = static_cast<std::uint64_t>(samples.size());
  out["failed"] = static_cast<std::uint64_t>(failed);
  out["warm_keys"] = static_cast<std::uint64_t>(source.HotKeys().size());
  out["warm_failed"] = static_cast<std::uint64_t>(warm_failed);
  out["lateness_p99_ms"] = perfbench::Quantile(lateness, 0.99);
  Json checks = Json::MakeObject();
  checks["reach_checked"] = static_cast<std::uint64_t>(reach_checked);
  checks["reach_mismatched"] = static_cast<std::uint64_t>(reach_mismatched);
  checks["repeat_checked"] = static_cast<std::uint64_t>(repeat_checked);
  checks["repeat_mismatched"] = static_cast<std::uint64_t>(repeat_mismatched);
  out["checks"] = checks;
  FinishSpans(log, flags);
  Emit(out);
  return 0;
}

// ---------------------------------------------------------------- probe

int CmdProbe(const Flags& flags) {
  std::vector<std::string> lines;
  for (const char* k : {"10", "50"}) {
    for (const char* metric : kTopMetrics) {
      lines.push_back(std::string("{\"op\":\"top\",\"k\":") + k + ",\"metric\":\"" + metric +
                      "\",\"id\":" + std::to_string(lines.size()) + "}");
    }
  }
  auto a = perfbench::RoundTrips(static_cast<std::uint16_t>(flags.U64("port", 0)), lines);
  auto b = perfbench::RoundTrips(static_cast<std::uint16_t>(flags.U64("reference-port", 0)),
                                 lines);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    perfbench::Reply ra = perfbench::ParseReply(a[i]);
    perfbench::Reply rb = perfbench::ParseReply(b[i]);
    if (ra.outcome != perfbench::Outcome::kOk || rb.outcome != perfbench::Outcome::kOk ||
        ra.result != rb.result) {
      ++mismatched;
      std::fprintf(stderr, "top bytes differ for %s\n", lines[i].c_str());
    }
  }
  Json out = Json::MakeObject();
  out["top_checked"] = static_cast<std::uint64_t>(lines.size());
  out["top_mismatched"] = static_cast<std::uint64_t>(mismatched);
  Emit(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness prepare|campaign|layers|load|probe --flag value...\n");
    return 2;
  }
  obs::SetLogLevel(obs::LogLevel::kWarn);
  std::string cmd = argv[1];
  try {
    Flags flags(argc, argv, 2);
    if (cmd == "prepare") return CmdPrepare(flags);
    if (cmd == "campaign") return CmdCampaign(flags);
    if (cmd == "layers") return CmdLayers(flags);
    if (cmd == "load") return CmdLoad(flags);
    if (cmd == "probe") return CmdProbe(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
