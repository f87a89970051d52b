// flatnet_leaksim: route-leak resilience analysis from on-disk topology
// files (the §8 simulations as a command-line tool).
//
// Two modes:
//
//   Single victim (default): one (victim, scenario) series, serial. The
//   scenario is announce-all under peer locking --lock (default none), or
//   --hierarchy-only.
//
//   Campaign (--campaign): victims x all five scenarios, evaluated by the
//   parallel engine (src/leaksim/) and published as a columnar `.leak`
//   store that flatnet_serve answers percentile queries from (`leakdist`
//   op). Victims come from --victim (pinned) or --victims N (drawn
//   without replacement from the master seed). Results are byte-identical
//   at any --threads value and equal to the serial mode per cell.
//   --users adds user-weighted detour fractions to the store.
//
//   Both modes take --trials and --seed; --pre-erratum runs the direct-only
//   peer-lock model the paper used before its erratum.
//
// Completed chunks are journaled to <out>.journal, so a killed campaign
// restarted with --resume recomputes only the missing chunks and produces
// a byte-identical store. --throttle-chunk-ms and --max-chunks are test
// hooks (slow the run so a kill can land mid-run / stop after N chunks).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign_cli.h"
#include "core/graph_store.h"
#include "core/leak_scenarios.h"
#include "core/serialize.h"
#include "leaksim/engine.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs_flags.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

constexpr LeakScenario kAllScenarios[kNumLeakScenarios] = {
    LeakScenario::kAnnounceAll,           LeakScenario::kAnnounceAllLockT1,
    LeakScenario::kAnnounceAllLockT1T2,   LeakScenario::kAnnounceAllLockGlobal,
    LeakScenario::kAnnounceHierarchyOnly,
};

// --lock: announce-all under each peer-locking level.
constexpr std::pair<const char*, LeakScenario> kLockChoices[] = {
    {"none", LeakScenario::kAnnounceAll},
    {"t1", LeakScenario::kAnnounceAllLockT1},
    {"t1t2", LeakScenario::kAnnounceAllLockT1T2},
    {"global", LeakScenario::kAnnounceAllLockGlobal},
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
  std::optional<std::uint64_t> victim_asn;
  std::size_t trials = 500;
  std::size_t victims = 0;
  std::uint64_t seed = 1;
  LeakScenario scenario = LeakScenario::kAnnounceAll;
  bool hierarchy_only = false;
  bool campaign = false;
  bool use_users = false;
  bool pre_erratum = false;
  leaksim::LeakCampaignOptions options;

  FlagSet flags("flatnet_leaksim");
  flags.Positional("<stem>", &stem)
      .Unsigned("--victim", "<asn>", &victim_asn)
      .Switch("--campaign", &campaign)
      .Unsigned("--victims", "N", &victims, 1)
      .Unsigned("--trials", "N", &trials)
      .Unsigned("--seed", "S", &seed)
      .Choice("--lock", kLockChoices, &scenario)
      .Switch("--hierarchy-only", &hierarchy_only)
      .Switch("--pre-erratum", &pre_erratum)
      .Switch("--users", &use_users)
      .String("--out", "<file>", &out);
  tools::AddCampaignFlags(flags, &options, &options.chunk_trials);
  tools::ObsFlags obs_flags(flags);
  if (int code = flags.Parse(argc, argv)) return code;
  if (stem.empty()) return flags.UsageError();
  if (!campaign && !victim_asn.has_value()) {
    std::fprintf(stderr, "flatnet_leaksim: --victim is required (or use --campaign)\n");
    return flags.UsageError();
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
  PeerLockMode mode = pre_erratum ? PeerLockMode::kDirectOnly : PeerLockMode::kFull;

  obs::RegisterCoreMetrics();
  obs::InstallCrashHandlerFromEnv();
  // Republishes --metrics-out on the FLATNET_METRICS_INTERVAL cadence so a
  // collector can watch a long campaign live; no-op when either is unset.
  obs::MetricsFlusher flusher(obs_flags.metrics_out(), obs::MetricsFlusher::IntervalFromEnv());

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
          return obs_flags.Finish(0);
        }
        std::fprintf(stderr,
                     "no valid leak trials collected in %zu draws (every drawn AS lacked a "
                     "route to the victim)\n",
                     series.attempts);
        return obs_flags.Finish(1);
      }
      tools::PrintSeries("ASes detoured:", series.fraction_ases_detoured);
      return obs_flags.Finish(0);
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
      return obs_flags.Finish(0);
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
    return obs_flags.Finish(1);
  }
  return obs_flags.Finish(0);
}
