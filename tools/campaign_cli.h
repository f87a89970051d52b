// Command-line pieces shared by the chunked campaign tools: flatnet_sweep,
// flatnet_leaksim --campaign, and flatnet_failsim.
#ifndef FLATNET_TOOLS_CAMPAIGN_CLI_H_
#define FLATNET_TOOLS_CAMPAIGN_CLI_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/internet.h"
#include "sweep/chunked.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace flatnet::tools {

// Adds --threads N, --chunk N (N > 0), --resume, --throttle-chunk-ms MS
// and --max-chunks N, targeting `options` and `*chunk` (each campaign
// names its own chunk-size field).
inline void AddCampaignFlags(FlagSet& flags, sweep::ChunkedOptions* options,
                             std::uint32_t* chunk) {
  flags.Unsigned("--threads", "N", &options->threads)
      .Unsigned("--chunk", "N", chunk, 1)
      .Switch("--resume", &options->resume)
      .Unsigned("--throttle-chunk-ms", "MS", &options->throttle_chunk_ms)
      .Unsigned("--max-chunks", "N", &options->max_chunks);
}

// Prints "<label>: N/M chunks computed (K resumed), U <unit> in Ss
// (R <unit>/s)" to stderr and, when --max-chunks stopped the run early,
// that the journal was kept. Returns stats.complete: whether to publish.
inline bool ReportCampaignRun(const char* label, const char* unit,
                              const sweep::ChunkedStats& stats, std::size_t units,
                              const std::string& journal_path) {
  std::fprintf(stderr,
               "%s: %zu/%zu chunks computed (%zu resumed), %zu %s in %.2fs (%.0f %s/s)\n",
               label, stats.chunks_computed, stats.chunks_total, stats.chunks_resumed, units,
               unit, stats.seconds,
               stats.seconds > 0 ? static_cast<double>(units) / stats.seconds : 0.0, unit);
  if (!stats.complete) {
    // A --max-chunks run leaves the journal in place so the next --resume
    // invocation picks up where this one stopped.
    std::fprintf(stderr, "partial run (--max-chunks): journal kept at %s, no store written\n",
                 journal_path.c_str());
  }
  return stats.complete;
}

// The AsId of `asn`; throws Error when the topology lacks it.
inline AsId AsIdOf(const Internet& internet, std::uint64_t asn) {
  auto id = internet.graph().IdOf(static_cast<Asn>(asn));
  if (!id) {
    throw Error(
        StrFormat("AS%llu not present in the topology", static_cast<unsigned long long>(asn)));
  }
  return *id;
}

// The campaign's subject ASes: the pinned ASN when given, else `count`
// ASes drawn without replacement from `master`.
inline std::vector<AsId> CampaignAses(const Internet& internet,
                                      const std::optional<std::uint64_t>& pinned,
                                      std::size_t count, Rng& master) {
  if (pinned.has_value()) return {AsIdOf(internet, *pinned)};
  std::size_t n = internet.num_ases();
  std::vector<AsId> ids;
  for (std::uint32_t id : master.SampleWithoutReplacement(
           static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(std::min(count, n)))) {
    ids.push_back(static_cast<AsId>(id));
  }
  return ids;
}

// Per-AS user estimates, one entry per AS, for --users campaigns.
inline std::vector<double> UserWeights(const Internet& internet) {
  std::vector<double> users(internet.num_ases());
  for (AsId id = 0; id < users.size(); ++id) users[id] = internet.metadata().Get(id).users;
  return users;
}

// Prints "<label> mean M%  median …  max X%" over a series of fractions.
inline void PrintSeries(const char* label, std::vector<double> f) {
  double mean =
      f.empty() ? 0.0
                : std::accumulate(f.begin(), f.end(), 0.0) / static_cast<double>(f.size());
  std::printf("%s mean %.2f%%  median %.2f%%  p90 %.2f%%  p99 %.2f%%  max %.2f%%\n", label,
              100 * mean, 100 * Quantile(f, 0.5), 100 * Quantile(f, 0.9),
              100 * Quantile(f, 0.99), 100 * Quantile(f, 1.0));
}

}  // namespace flatnet::tools

#endif  // FLATNET_TOOLS_CAMPAIGN_CLI_H_
