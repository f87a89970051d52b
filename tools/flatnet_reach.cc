// flatnet_reach: compute the paper's reachability metrics from on-disk
// topology files: one origin's three metrics (--asn), or the top N ASes by
// hierarchy-free reach (--top), swept on --threads workers (0 = all cores).
//
// <stem> names a pair written by flatnet_gen / SaveInternet
// (<stem>.as-rel.txt + <stem>.meta.tsv). For raw CAIDA files without a
// metadata sidecar, use --rel <file> instead; tiers are then inferred from
// graph structure.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "asgraph/caida.h"
#include "asgraph/tiers.h"
#include "core/graph_store.h"
#include "core/reachability_analysis.h"
#include "core/serialize.h"
#include "obs_flags.h"
#include "sweep/engine.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

using namespace flatnet;

int main(int argc, char** argv) {
  std::string stem;
  std::string rel_file;
  std::uint64_t asn = 0;
  std::uint64_t top = 0;
  std::uint64_t threads = 0;  // 0 = hardware concurrency

  FlagSet flags("flatnet_reach");
  flags.Positional("<stem>", &stem)
      .String("--rel", "<caida-file>", &rel_file)
      .Unsigned("--asn", "<asn>", &asn)
      .Unsigned("--top", "N", &top)
      .Unsigned("--threads", "N", &threads);
  tools::ObsFlags obs_flags(flags);
  if (int code = flags.Parse(argc, argv)) return code;
  // Exactly one of <stem> / --rel, and at least one of --asn / --top.
  if ((stem.empty() == rel_file.empty()) || (asn == 0 && top == 0)) return flags.UsageError();

  Internet internet;
  if (!stem.empty()) {
    internet = LoadInternetAuto(stem);
  } else {
    AsGraph graph = LoadCaidaFile(rel_file);
    TierSets tiers = InferTierSets(graph);
    AsMetadata metadata(graph.num_ases());
    std::fprintf(stderr, "inferred %zu Tier-1s and %zu Tier-2s from graph structure\n",
                 tiers.tier1.size(), tiers.tier2.size());
    internet = Internet(std::move(graph), std::move(tiers), std::move(metadata));
  }
  std::fprintf(stderr, "topology: %zu ASes, %zu relationships\n", internet.num_ases(),
               internet.graph().num_edges());

  if (asn != 0) {
    auto id = internet.graph().IdOf(static_cast<Asn>(asn));
    if (!id) {
      std::fprintf(stderr, "AS%llu not present in the topology\n",
                   static_cast<unsigned long long>(asn));
      return obs_flags.Finish(1);
    }
    ReachabilitySummary r = AnalyzeReachability(internet, *id);
    double denom = static_cast<double>(internet.num_ases() - 1);
    std::printf("AS%llu%s%s\n", static_cast<unsigned long long>(asn),
                internet.NameOf(*id).empty() ? "" : " — ", internet.NameOf(*id).c_str());
    std::printf("  provider-free  reach(o, I\\Po):        %s (%.1f%%)\n",
                WithCommas(r.provider_free).c_str(), 100 * r.provider_free / denom);
    std::printf("  Tier-1-free    reach(o, I\\Po\\T1):     %s (%.1f%%)\n",
                WithCommas(r.tier1_free).c_str(), 100 * r.tier1_free / denom);
    std::printf("  hierarchy-free reach(o, I\\Po\\T1\\T2):  %s (%.1f%%)\n",
                WithCommas(r.hierarchy_free).c_str(), 100 * r.hierarchy_free / denom);
    return obs_flags.Finish(0);
  }

  // The sharded engine returns element-identical results to the serial
  // HierarchyFreeSweep at any thread count, so the table below is
  // byte-identical to the pre-sweep-engine output.
  std::vector<std::uint32_t> sweep =
      sweep::ParallelHierarchyFreeSweep(internet, static_cast<std::size_t>(threads));
  std::vector<AsId> order(internet.num_ases());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](AsId a, AsId b) { return sweep[a] > sweep[b]; });
  TextTable table;
  table.AddColumn("#", TextTable::Align::kRight);
  table.AddColumn("ASN", TextTable::Align::kRight);
  table.AddColumn("name");
  table.AddColumn("hierarchy-free", TextTable::Align::kRight);
  for (std::size_t i = 0; i < top && i < order.size(); ++i) {
    AsId id = order[i];
    table.AddRow({std::to_string(i + 1), std::to_string(internet.graph().AsnOf(id)),
                  internet.NameOf(id), WithCommas(sweep[id])});
  }
  table.Print(stdout);
  return obs_flags.Finish(0);
}
