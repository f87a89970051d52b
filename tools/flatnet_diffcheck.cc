// flatnet_diffcheck: differential fuzzing of the BGP kernels.
//
// Generates randomized small/medium topologies from the topogen archetypes
// (seeded, fully reproducible) and cross-checks the three propagation
// implementations — RouteComputation, ReachabilityEngine, EventBgpEngine —
// plus the structural invariants from src/check, over randomized origin /
// excluded-set / peer-lock configurations. Any divergence is logged as a
// minimized reproducer (generator seed + case parameters + first
// mismatching AS) and the process exits nonzero. CI runs a bounded budget
// of cases under ASan/UBSan; the full default sweep is the standing
// regression gate for kernel refactors.
//
// A run draws --cases cases, --per-topology K per generated topology whose
// size is drawn from --min-ases..--max-ases, from the --era 2020, 2015, or
// both eras alternately.
//
// The --repro string is printed verbatim when a case fails; feeding it back
// replays exactly that topology and configuration.
//
// --graph-identity memory-maps a binary topology store, re-feeds its edge
// list through AsGraphBuilder, and compares every CSR column bit for bit —
// the proof that a graph served from disk is indistinguishable from one
// built in memory.
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "check/diff.h"
#include "core/graph_store.h"
#include "obs_flags.h"
#include "topogen/generate.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

// Registered once, eagerly: the metrics snapshot reports both counters
// even on an all-clean run.
struct DiffcheckCounters {
  obs::Counter& cases = obs::GetCounter("diffcheck.cases");
  obs::Counter& mismatches = obs::GetCounter("diffcheck.mismatches");
};

DiffcheckCounters& Counters() {
  static DiffcheckCounters counters;
  return counters;
}

template <typename T>
bool ColumnsEqual(const char* name, std::span<const T> mapped, std::span<const T> built) {
  if (mapped.size() == built.size() &&
      std::equal(mapped.begin(), mapped.end(), built.begin())) {
    return true;
  }
  std::size_t at = 0;
  std::size_t common = std::min(mapped.size(), built.size());
  while (at < common && mapped[at] == built[at]) ++at;
  std::printf("MISMATCH column %s: sizes %zu vs %zu, first divergence at index %zu\n", name,
              mapped.size(), built.size(), at);
  return false;
}

int RunGraphIdentity(const std::string& path) {
  Internet internet = LoadInternetBinary(path);
  const AsGraph& mapped = internet.graph();
  AsGraphBuilder builder;
  for (AsId id = 0; id < mapped.num_ases(); ++id) builder.AddAs(mapped.AsnOf(id));
  for (const AsGraph::Edge& edge : mapped.EdgeList()) {
    builder.AddEdge(edge.a, edge.b, edge.type);
  }
  AsGraph built = std::move(builder).Build();

  bool ok = ColumnsEqual("asn_of", mapped.AsnColumn(), built.AsnColumn());
  ok &= ColumnsEqual("by_asn", mapped.ByAsnColumn(), built.ByAsnColumn());
  ok &= ColumnsEqual("slice", mapped.SliceColumn(), built.SliceColumn());
  ok &= ColumnsEqual("entry_ids", mapped.EntryIdsColumn(), built.EntryIdsColumn());
  if (ok) {
    std::printf("OK: %s (%zu ASes, %zu edges) is bit-identical to the builder-built graph\n",
                path.c_str(), mapped.num_ases(), mapped.num_edges());
  }
  return ok ? 0 : 1;
}

struct TopologyKey {
  bool era2020 = true;
  std::uint64_t topo_seed = 0;
  std::uint32_t ases = 0;
};

std::string ReproString(const TopologyKey& topo, const check::DiffCaseConfig& config) {
  return StrFormat("%s:%llu:%u:%llu:%zu:%s:%zu:%zu", topo.era2020 ? "2020" : "2015",
                   static_cast<unsigned long long>(topo.topo_seed), topo.ases,
                   static_cast<unsigned long long>(config.case_seed), config.excluded_count,
                   check::ToString(config.lock), config.locked_count,
                   config.filtered_sender_count);
}

World BuildWorld(const TopologyKey& topo) {
  GeneratorParams params =
      topo.era2020 ? GeneratorParams::Era2020(topo.ases) : GeneratorParams::Era2015(topo.ases);
  params.seed = topo.topo_seed;
  return GenerateWorld(params);
}

// Runs one case and handles reporting. Returns true when the oracle held.
bool RunCase(const World& world, const TopologyKey& topo, const check::DiffCaseConfig& config) {
  Counters().cases.Increment();
  check::DiffReport report = check::RunDiffCase(world.full_graph, config);
  if (report.ok) return true;
  Counters().mismatches.Increment();
  obs::Log(obs::LogLevel::kError, "diffcheck", "oracle.mismatch")
      .Kv("era", topo.era2020 ? "2020" : "2015")
      .Kv("topo_seed", static_cast<std::uint64_t>(topo.topo_seed))
      .Kv("ases", topo.ases)
      .Kv("case_seed", static_cast<std::uint64_t>(config.case_seed))
      .Kv("excluded", static_cast<std::uint64_t>(config.excluded_count))
      .Kv("lock", check::ToString(config.lock))
      .Kv("locked", static_cast<std::uint64_t>(config.locked_count))
      .Kv("senders", static_cast<std::uint64_t>(config.filtered_sender_count))
      .Kv("oracle", report.oracle)
      .Kv("first_asn", report.first_mismatch_asn)
      .Kv("detail", report.detail);
  std::printf("MISMATCH %s\n  replay: flatnet_diffcheck --repro %s\n", report.Summary().c_str(),
              ReproString(topo, config).c_str());
  return false;
}

// Replays one --repro string; a malformed one is a usage error.
int RunRepro(const std::string& repro, const FlagSet& flags) {
  auto fields = Split(repro, ':');
  if (fields.size() != 8) return flags.UsageError();
  TopologyKey topo;
  if (fields[0] == "2020") {
    topo.era2020 = true;
  } else if (fields[0] == "2015") {
    topo.era2020 = false;
  } else {
    return flags.UsageError();
  }
  auto topo_seed = ParseU64(fields[1]);
  auto ases = ParseU64(fields[2]);
  auto case_seed = ParseU64(fields[3]);
  auto excluded = ParseU64(fields[4]);
  auto lock = check::ParseLockSetup(fields[5]);
  auto locked = ParseU64(fields[6]);
  auto senders = ParseU64(fields[7]);
  if (!topo_seed || !ases || !case_seed || !excluded || !lock || !locked || !senders) {
    return flags.UsageError();
  }
  topo.topo_seed = *topo_seed;
  topo.ases = static_cast<std::uint32_t>(*ases);
  check::DiffCaseConfig config;
  config.case_seed = *case_seed;
  config.excluded_count = *excluded;
  config.lock = *lock;
  config.locked_count = *locked;
  config.filtered_sender_count = *senders;

  World world = BuildWorld(topo);
  std::printf("replaying %s: %zu ASes, %zu edges\n", repro.c_str(), world.num_ases(),
              world.full_graph.num_edges());
  bool ok = RunCase(world, topo, config);
  std::printf("%s\n", ok ? "OK: engines agree" : "MISMATCH (see above)");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t cases = 200;
  std::uint64_t seed = 20200901;
  std::uint64_t min_ases = 200;
  std::uint64_t max_ases = 900;
  std::uint64_t per_topology = 8;
  std::string era = "both";
  std::string repro;
  std::string graph_identity;

  FlagSet flags("flatnet_diffcheck");
  flags.Unsigned("--cases", "N", &cases)
      .Unsigned("--seed", "S", &seed)
      .Unsigned("--min-ases", "A", &min_ases)
      .Unsigned("--max-ases", "B", &max_ases)
      .Unsigned("--per-topology", "K", &per_topology)
      .Choice("--era", {"2020", "2015", "both"}, &era)
      .String("--repro",
              "<era>:<topo-seed>:<ases>:<case-seed>:<excluded>:<lock>:<locked>:<senders>",
              &repro)
      .String("--graph-identity", "<file.graph>", &graph_identity);
  tools::ObsFlags obs_flags(flags);
  if (int code = flags.Parse(argc, argv)) return code;
  if (min_ases < 50 || max_ases < min_ases || per_topology == 0 || cases == 0) {
    return flags.UsageError();
  }

  if (!graph_identity.empty()) return obs_flags.Finish(RunGraphIdentity(graph_identity));
  if (!repro.empty()) return obs_flags.Finish(RunRepro(repro, flags));

  Rng master(seed);
  Stopwatch total;
  std::uint64_t done = 0;
  std::uint64_t failures = 0;
  std::uint64_t topologies = 0;
  while (done < cases) {
    TopologyKey topo;
    topo.era2020 = era == "2020" || (era == "both" && topologies % 2 == 0);
    topo.topo_seed = master.NextU64();
    topo.ases =
        static_cast<std::uint32_t>(min_ases + master.UniformU64(max_ases - min_ases + 1));
    Stopwatch sw;
    World world = BuildWorld(topo);
    ++topologies;
    std::size_t n = world.num_ases();
    obs::Log(obs::LogLevel::kInfo, "diffcheck", "topology")
        .Kv("era", topo.era2020 ? "2020" : "2015")
        .Kv("seed", static_cast<std::uint64_t>(topo.topo_seed))
        .Kv("ases", static_cast<std::uint64_t>(n))
        .Kv("edges", static_cast<std::uint64_t>(world.full_graph.num_edges()))
        .Kv("gen_s", sw.ElapsedSeconds());

    for (std::uint64_t k = 0; k < per_topology && done < cases; ++k, ++done) {
      check::DiffCaseConfig config;
      config.case_seed = master.NextU64();
      // Every third case runs the unrestricted graph; the rest excise up to
      // ~12% of the ASes. Lock setups cycle so all three appear per
      // topology.
      config.excluded_count = k % 3 == 0 ? 0 : 1 + master.UniformU64(n / 8);
      switch (k % 3) {
        case 0: config.lock = check::LockSetup::kNone; break;
        case 1: config.lock = check::LockSetup::kFull; break;
        default: config.lock = check::LockSetup::kDirectOnly; break;
      }
      if (config.lock != check::LockSetup::kNone) {
        config.locked_count = 1 + master.UniformU64(n / 10);
        config.filtered_sender_count = 1 + master.UniformU64(3);
      }
      if (!RunCase(world, topo, config)) ++failures;
    }
  }

  std::printf("diffcheck: %llu cases over %llu topologies, %llu mismatches, %.1fs\n",
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(topologies),
              static_cast<unsigned long long>(failures), total.ElapsedSeconds());
  return obs_flags.Finish(failures == 0 ? 0 : 1);
}
