// flatnet_failsim: AS hegemony scores and failure-cascade campaigns from
// on-disk topology files.
//
// Two modes:
//
//   Hegemony (--hegemony): prints the top --top ASes by hegemony score
//   for one origin — the transit ASes the origin's routes depend on,
//   viewpoint-trimmed per Fontugne et al. (--trim F of the viewpoints at
//   each end, 0 <= F < 0.5).
//
//   Campaign (default): origins x scenarios, evaluated by the parallel
//   engine (src/failsim/) and published as a columnar `.fail` store that
//   flatnet_serve answers ranking/series queries from (`hegemony` and
//   `failure` ops). Origins come from --origin (pinned) or --origins N
//   (drawn without replacement from the master seed). Results are
//   byte-identical at any --threads and --chunk value. --scenarios takes
//   a comma-separated subset of single_as,tier1,hegemony_cascade,link_set
//   (default all four); --severity K sizes the link_set failures.
//
// Completed chunks are journaled to <out>.journal, so a killed campaign
// restarted with --resume recomputes only the missing chunks and produces
// a byte-identical store. --throttle-chunk-ms and --max-chunks are test
// hooks (slow the run so a kill can land mid-run / stop after N chunks).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bgp/hegemony.h"
#include "bgp/propagation.h"
#include "campaign_cli.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "failsim/engine.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs_flags.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace flatnet;

namespace {

bool ParseScenarios(const std::string& list, std::vector<failsim::FailScenario>* out) {
  out->clear();
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    std::string name = list.substr(start, comma - start);
    if (name == "single_as") {
      out->push_back(failsim::FailScenario::kSingleAs);
    } else if (name == "tier1") {
      out->push_back(failsim::FailScenario::kTier1);
    } else if (name == "hegemony_cascade") {
      out->push_back(failsim::FailScenario::kHegemonyCascade);
    } else if (name == "link_set") {
      out->push_back(failsim::FailScenario::kLinkSet);
    } else {
      return false;
    }
    start = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string stem;
  std::string out;
  std::optional<std::uint64_t> origin_asn;
  std::size_t trials = 32;
  std::size_t origins = 0;
  std::size_t top = 10;
  std::uint64_t seed = 1;
  std::uint32_t severity = 2;
  bool hegemony_mode = false;
  bool use_users = false;
  std::vector<failsim::FailScenario> scenarios = {
      failsim::FailScenario::kSingleAs,
      failsim::FailScenario::kTier1,
      failsim::FailScenario::kHegemonyCascade,
      failsim::FailScenario::kLinkSet,
  };
  failsim::FailCampaignOptions options;

  auto parse_scenarios = [&](const std::string& v) { return ParseScenarios(v, &scenarios); };
  FlagSet flags("flatnet_failsim");
  flags.Positional("<stem>", &stem)
      .Switch("--hegemony", &hegemony_mode)
      .Unsigned("--origin", "<asn>", &origin_asn)
      .Unsigned("--origins", "N", &origins, 1)
      .Unsigned("--top", "N", &top, 1)
      // The hegemony trim fraction: 0 <= F < 0.5.
      .Double("--trim", "F", &options.hegemony_trim, 0.0, std::nextafter(0.5, 0.0))
      .Unsigned("--trials", "N", &trials)
      .Unsigned("--seed", "S", &seed)
      .Repeatable("--scenarios", "single_as,tier1,hegemony_cascade,link_set", parse_scenarios)
      .Unsigned("--severity", "K", &severity, 1)
      .Switch("--users", &use_users)
      .String("--out", "<file>", &out);
  tools::AddCampaignFlags(flags, &options, &options.chunk_trials);
  tools::ObsFlags obs_flags(flags);
  if (int code = flags.Parse(argc, argv)) return code;
  if (stem.empty()) return flags.UsageError();
  if (hegemony_mode && !origin_asn.has_value()) {
    std::fprintf(stderr, "flatnet_failsim: --hegemony requires --origin\n");
    return flags.UsageError();
  }
  if (origin_asn.has_value() && *origin_asn == 0) {
    // ASN 0 is reserved (RFC 7607) and never appears in a topology.
    std::fprintf(stderr, "flatnet_failsim: ASN 0 is reserved and cannot be an origin\n");
    return 2;
  }
  if (!hegemony_mode && origins == 0 && !origin_asn.has_value()) origins = 5;

  obs::RegisterCoreMetrics();
  obs::InstallCrashHandlerFromEnv();
  // Republishes --metrics-out on the FLATNET_METRICS_INTERVAL cadence so a
  // collector can watch a long campaign live; no-op when either is unset.
  obs::MetricsFlusher flusher(obs_flags.metrics_out(), obs::MetricsFlusher::IntervalFromEnv());

  try {
    Internet internet = LoadInternetAuto(stem);
    std::size_t n = internet.num_ases();

    if (hegemony_mode) {
      AsId origin = tools::AsIdOf(internet, *origin_asn);
      RouteComputation computation(internet.graph(), {{.node = origin}});
      HegemonyOptions hegemony_options;
      hegemony_options.trim = options.hegemony_trim;
      HegemonyResult result = ComputeHegemony(computation, hegemony_options);
      std::vector<AsId> ranking = HegemonyRanking(result);
      std::printf("origin AS%llu (%s): %zu viewpoints, trim %zu each end\n",
                  static_cast<unsigned long long>(*origin_asn),
                  internet.NameOf(origin).c_str(), result.num_viewpoints,
                  result.trimmed_each_end);
      for (std::size_t i = 0; i < std::min(top, ranking.size()); ++i) {
        AsId a = ranking[i];
        std::printf("%3zu. AS%-10llu %-24s %.6f\n", i + 1,
                    static_cast<unsigned long long>(internet.graph().AsnOf(a)),
                    internet.NameOf(a).c_str(), result.hegemony[a]);
      }
      return obs_flags.Finish(0);
    }

    // Campaign mode: origins x scenarios. The master seed drives both the
    // origin draw and each cell's trial seed, so a campaign is fully
    // reproducible from (topology, seed, origins, scenarios, trials).
    Rng master(seed);
    std::vector<AsId> origin_ids = tools::CampaignAses(internet, origin_asn, origins, master);

    std::vector<failsim::FailCellSpec> cells;
    cells.reserve(origin_ids.size() * scenarios.size());
    for (AsId origin : origin_ids) {
      for (failsim::FailScenario scenario : scenarios) {
        failsim::FailCellSpec spec;
        spec.origin = origin;
        spec.scenario = scenario;
        spec.severity = scenario == failsim::FailScenario::kLinkSet ? severity : 0;
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
    if (out.empty()) out = stem + ".fail";
    options.journal_path = out + ".journal";

    std::fprintf(stderr, "topology: %zu ASes, %zu relationships; campaign: %zu cells\n", n,
                 internet.graph().num_edges(), cells.size());

    failsim::FailCampaignStats stats;
    failsim::FailTable table = failsim::RunFailureCampaign(internet, cells, options, &stats);
    if (!tools::ReportCampaignRun("campaign", "trials", stats, stats.trials_evaluated,
                                  options.journal_path)) {
      return obs_flags.Finish(0);
    }

    for (const failsim::FailCellResult& cell : table.cells) {
      Asn asn = internet.graph().AsnOf(cell.spec.origin);
      if (cell.UnderCollected()) {
        std::fprintf(stderr,
                     "warning: origin AS%llu scenario \"%s\": only %zu of %u trials "
                     "collected (scenario pool exhausted)\n",
                     static_cast<unsigned long long>(asn), ToString(cell.spec.scenario),
                     cell.collected(), cell.spec.trials);
      }
      std::string label = StrFormat("AS%llu %-18s loss", static_cast<unsigned long long>(asn),
                                    ToString(cell.spec.scenario));
      tools::PrintSeries(label.c_str(), cell.loss_ases);
    }
    failsim::FinalizeFailStore(out, table, options.journal_path);
    std::printf("wrote %s\n", out.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "flatnet_failsim: %s\n", e.what());
    return obs_flags.Finish(1);
  }
  return obs_flags.Finish(0);
}
