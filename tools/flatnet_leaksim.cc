// flatnet_leaksim: route-leak resilience analysis from on-disk topology
// files (the §8 simulations as a command-line tool).
//
// Two modes:
//
//   Single victim (default): one (victim, scenario) series, serial.
//     flatnet_leaksim <stem> --victim <asn> [--trials N] [--seed S]
//                     [--lock none|t1|t1t2|global] [--hierarchy-only]
//                     [--pre-erratum]
//
//   Campaign (--campaign): victims x all five scenarios, evaluated by the
//   parallel engine (src/leaksim/) and published as a columnar `.leak`
//   store that flatnet_serve answers percentile queries from (`leakdist`
//   op). Victims come from --victim (pinned) or --victims N (drawn
//   without replacement from the master seed). Results are byte-identical
//   at any --threads value and equal to the serial mode per cell.
//     flatnet_leaksim <stem> --campaign [--victims N | --victim <asn>]
//                     [--trials N] [--seed S] [--threads N] [--chunk N]
//                     [--out <file>] [--resume] [--users] [--pre-erratum]
//
// Completed chunks are journaled to <out>.journal, so a killed campaign
// restarted with --resume recomputes only the missing chunks and produces
// a byte-identical store. --throttle-chunk-ms and --max-chunks are test
// hooks (slow the run so a kill can land mid-run / stop after N chunks).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "campaign_cli.h"
#include "core/leak_scenarios.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "leaksim/engine.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flatnet_leaksim <stem> --victim <asn> [--trials N] [--seed S]\n"
               "                       [--lock none|t1|t1t2|global] [--hierarchy-only]\n"
               "                       [--pre-erratum] [--log-level <level>]\n"
               "                       [--metrics-out <file>]\n"
               "       flatnet_leaksim <stem> --campaign [--victims N | --victim <asn>]\n"
               "                       [--trials N] [--seed S] [--threads N] [--chunk N]\n"
               "                       [--out <file>] [--resume] [--users] [--pre-erratum]\n"
               "                       [--throttle-chunk-ms MS] [--max-chunks N]\n"
               "                       [--log-level <level>] [--metrics-out <file>]\n");
  return 2;
}

constexpr LeakScenario kAllScenarios[kNumLeakScenarios] = {
    LeakScenario::kAnnounceAll,           LeakScenario::kAnnounceAllLockT1,
    LeakScenario::kAnnounceAllLockT1T2,   LeakScenario::kAnnounceAllLockGlobal,
    LeakScenario::kAnnounceHierarchyOnly,
};

void WarnUnderCollected(AsId victim, Asn asn, LeakScenario scenario, std::size_t collected,
                        std::size_t requested, std::size_t attempts) {
  std::fprintf(stderr,
               "warning: victim AS%llu scenario \"%s\": only %zu of %zu trials collected "
               "(%zu draws attempted); reported percentiles cover fewer trials than "
               "requested\n",
               static_cast<unsigned long long>(asn), ToString(scenario), collected, requested,
               attempts);
  (void)victim;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stem;
  std::string out;
  std::string metrics_out;
  std::optional<std::uint64_t> victim_asn;
  std::size_t trials = 500;
  std::size_t victims = 0;
  std::uint64_t seed = 1;
  LeakScenario scenario = LeakScenario::kAnnounceAll;
  bool hierarchy_only = false;
  bool campaign = false;
  bool use_users = false;
  PeerLockMode mode = PeerLockMode::kFull;
  leaksim::LeakCampaignOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    auto next_u64 = [&](std::uint64_t* value) {
      const char* v = next();
      auto parsed = v ? ParseU64(v) : std::nullopt;
      if (!parsed) return false;
      *value = *parsed;
      return true;
    };
    std::uint64_t value = 0;
    if (auto flag = tools::ParseCampaignFlag(argc, argv, &i, &options, &options.chunk_trials);
        flag != tools::CampaignFlag::kNotOurs) {
      if (flag == tools::CampaignFlag::kBad) return Usage();
    } else if (arg == "--log-level") {
      const char* v = next();
      auto level = v ? obs::ParseLogLevel(v) : std::nullopt;
      if (!level) return Usage();
      obs::SetLogLevel(*level);
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage();
      metrics_out = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return Usage();
      out = v;
    } else if (arg == "--victim") {
      if (!next_u64(&value)) return Usage();
      victim_asn = value;
    } else if (arg == "--victims") {
      if (!next_u64(&value) || value == 0) return Usage();
      victims = static_cast<std::size_t>(value);
    } else if (arg == "--trials") {
      if (!next_u64(&value)) return Usage();
      trials = static_cast<std::size_t>(value);
    } else if (arg == "--seed") {
      if (!next_u64(&value)) return Usage();
      seed = value;
    } else if (arg == "--campaign") {
      campaign = true;
    } else if (arg == "--users") {
      use_users = true;
    } else if (arg == "--lock") {
      const char* v = next();
      std::string lock = v ? v : "";
      if (lock == "none") {
        scenario = LeakScenario::kAnnounceAll;
      } else if (lock == "t1") {
        scenario = LeakScenario::kAnnounceAllLockT1;
      } else if (lock == "t1t2") {
        scenario = LeakScenario::kAnnounceAllLockT1T2;
      } else if (lock == "global") {
        scenario = LeakScenario::kAnnounceAllLockGlobal;
      } else {
        return Usage();
      }
    } else if (arg == "--hierarchy-only") {
      hierarchy_only = true;
    } else if (arg == "--pre-erratum") {
      mode = PeerLockMode::kDirectOnly;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      stem = arg;
    }
  }
  if (stem.empty()) return Usage();
  if (!campaign && !victim_asn.has_value()) {
    std::fprintf(stderr, "flatnet_leaksim: --victim is required (or use --campaign)\n");
    return Usage();
  }
  if (victim_asn.has_value() && *victim_asn == 0) {
    // ASN 0 is reserved (RFC 7607) and never appears in a topology; the
    // old flag parser used it as a "flag missing" sentinel and reported a
    // confusing lookup failure instead.
    std::fprintf(stderr, "flatnet_leaksim: ASN 0 is reserved and cannot be a victim\n");
    return 2;
  }
  if (campaign && victims == 0 && !victim_asn.has_value()) victims = 5;
  if (hierarchy_only) scenario = LeakScenario::kAnnounceHierarchyOnly;

  obs::RegisterCoreMetrics();
  obs::InstallCrashHandlerFromEnv();
  // Republishes --metrics-out on the FLATNET_METRICS_INTERVAL cadence so a
  // collector can watch a long campaign live; no-op when either is unset.
  obs::MetricsFlusher flusher(metrics_out, obs::MetricsFlusher::IntervalFromEnv());

  auto finish = [&](int code) {
    if (!metrics_out.empty()) obs::WriteMetricsFile(metrics_out);
    return code;
  };

  try {
    Internet internet = LoadInternetAuto(stem);

    if (!campaign) {
      AsId victim = tools::AsIdOf(internet, *victim_asn);
      LeakTrialSeries series =
          RunLeakScenario(internet, victim, scenario, trials, seed, nullptr, mode);
      std::printf("victim AS%llu (%s), scenario: %s%s, %zu trials\n",
                  static_cast<unsigned long long>(*victim_asn),
                  internet.NameOf(victim).c_str(), ToString(scenario),
                  mode == PeerLockMode::kDirectOnly ? " [pre-erratum]" : "",
                  series.collected());
      if (series.UnderCollected()) {
        WarnUnderCollected(victim, static_cast<Asn>(*victim_asn), scenario,
                           series.collected(), series.trials_requested, series.attempts);
      }
      if (series.collected() == 0) {
        if (series.trials_requested == 0) {
          std::printf("ASes detoured: no trials requested\n");
          return finish(0);
        }
        std::fprintf(stderr,
                     "no valid leak trials collected in %zu draws (every drawn AS lacked a "
                     "route to the victim)\n",
                     series.attempts);
        return finish(1);
      }
      tools::PrintSeries("ASes detoured:", series.fraction_ases_detoured);
      return finish(0);
    }

    // Campaign mode: victims x all scenarios. The master seed drives both
    // the victim draw and each cell's trial seed, so a campaign is fully
    // reproducible from (topology, seed, victims, trials).
    std::size_t n = internet.num_ases();
    Rng master(seed);
    std::vector<AsId> victim_ids = tools::CampaignAses(internet, victim_asn, victims, master);

    std::vector<leaksim::LeakCellSpec> cells;
    cells.reserve(victim_ids.size() * kNumLeakScenarios);
    for (AsId victim : victim_ids) {
      for (LeakScenario s : kAllScenarios) {
        leaksim::LeakCellSpec spec;
        spec.victim = victim;
        spec.scenario = s;
        spec.lock_mode = mode;
        spec.seed = master.NextU64();  // == Rng::Fork per cell
        spec.trials = static_cast<std::uint32_t>(trials);
        cells.push_back(spec);
      }
    }

    std::vector<double> users;
    if (use_users) {
      users = tools::UserWeights(internet);
      options.users = &users;
    }
    if (out.empty()) out = stem + ".leak";
    options.journal_path = out + ".journal";

    std::fprintf(stderr, "topology: %zu ASes, %zu relationships; campaign: %zu cells\n", n,
                 internet.graph().num_edges(), cells.size());

    leaksim::LeakCampaignStats stats;
    leaksim::LeakTable table = leaksim::RunLeakCampaign(internet, cells, options, &stats);
    if (!tools::ReportCampaignRun("campaign", "trials", stats, stats.trials_evaluated,
                                  options.journal_path)) {
      return finish(0);
    }

    for (const leaksim::LeakCellResult& cell : table.cells) {
      Asn asn = internet.graph().AsnOf(cell.spec.victim);
      if (cell.UnderCollected()) {
        WarnUnderCollected(cell.spec.victim, asn, cell.spec.scenario, cell.collected(),
                           cell.spec.trials, cell.attempts);
      }
      std::string label =
          StrFormat("AS%llu %-36s", static_cast<unsigned long long>(asn),
                    ToString(cell.spec.scenario));
      tools::PrintSeries(label.c_str(), cell.fraction_ases);
    }
    leaksim::FinalizeLeakStore(out, table, options.journal_path);
    std::printf("wrote %s\n", out.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "flatnet_leaksim: %s\n", e.what());
    return finish(1);
  }
  return finish(0);
}
