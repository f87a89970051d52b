// flatnet_sweep: all-origins batch sweep with checkpoint/resume.
//
// Computes the paper's per-origin reachability metrics for every AS in an
// on-disk topology and publishes them as a columnar `.sweep` store that
// flatnet_serve (`top` op) and flatnet_reach answer from in microseconds.
//
// <stem> names a pair written by flatnet_gen / SaveInternet. The store
// defaults to <stem>.sweep; completed chunks are journaled to
// <out>.journal as the sweep runs, so a killed run restarted with
// --resume recomputes only the missing chunks and produces a
// byte-identical store. The journal is removed once the store publishes.
//
// --throttle-chunk-ms and --max-chunks are test hooks (slow the sweep so
// a kill can land mid-run / stop after N chunks); production runs leave
// them unset.
#include <cstdio>
#include <string>

#include "campaign_cli.h"
#include "core/graph_store.h"
#include "core/serialize.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs_flags.h"
#include "sweep/engine.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/strings.h"

using namespace flatnet;

int main(int argc, char** argv) {
  std::string stem;
  std::string out;
  sweep::SweepOptions options;

  constexpr std::uint32_t kAllColumns = sweep::kReachColumns | sweep::kPathColumns;
  FlagSet flags("flatnet_sweep");
  flags.Positional("<stem>", &stem)
      .String("--out", "<file>", &out)
      .Choice("--columns", {{"reach", sweep::kReachColumns}, {"all", kAllColumns}},
              &options.columns);
  tools::AddCampaignFlags(flags, &options, &options.chunk_size);
  tools::ObsFlags obs_flags(flags);
  if (int code = flags.Parse(argc, argv)) return code;
  if (stem.empty()) return flags.UsageError();
  if (out.empty()) out = stem + ".sweep";
  options.journal_path = out + ".journal";

  obs::RegisterCoreMetrics();
  obs::InstallCrashHandlerFromEnv();
  // Republishes --metrics-out on the FLATNET_METRICS_INTERVAL cadence so a
  // collector can watch a long sweep live; no-op when either is unset.
  obs::MetricsFlusher flusher(obs_flags.metrics_out(), obs::MetricsFlusher::IntervalFromEnv());

  try {
    Internet internet = LoadInternetAuto(stem);
    std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
                 internet.graph().num_edges());

    sweep::SweepRunStats stats;
    sweep::SweepTable table = sweep::RunSweep(internet, options, &stats);
    if (!tools::ReportCampaignRun("sweep", "origins", stats, stats.origins_computed,
                                  options.journal_path)) {
      return obs_flags.Finish(0);
    }
    sweep::FinalizeSweepStore(out, table, options.journal_path);
    std::printf("wrote %s\n", out.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "flatnet_sweep: %s\n", e.what());
    return obs_flags.Finish(1);
  }
  return obs_flags.Finish(0);
}
