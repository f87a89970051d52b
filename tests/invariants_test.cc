// Cross-cutting mathematical invariants that tie several modules together.
// These are the identities a paper reviewer would check by hand on a small
// example; here they are enforced over randomized generated topologies.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "bgp/reliance.h"
#include "core/reachability_analysis.h"
#include "core/serialize.h"
#include "test_paths.h"
#include "topogen/generate.h"
#include "util/rng.h"

namespace flatnet {
namespace {

class InvariantsTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  World MakeWorld(std::uint32_t ases = 1000) {
    GeneratorParams params = GeneratorParams::Era2020(ases);
    params.seed = GetParam();
    return GenerateWorld(params);
  }
};

// Σ_a rely(o, a) minus the self terms must equal Σ_t E[intermediate count
// of t's tied-best paths] — reliance is a redistribution of path mass, so
// the books have to balance. E[len] is computed independently with a DP
// over the predecessor DAG.
TEST_P(InvariantsTest, RelianceMassBalancesExpectedPathLength) {
  World world = MakeWorld(800);
  Rng rng(GetParam() ^ 0xba1);
  for (int trial = 0; trial < 3; ++trial) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    AnnouncementSource source{.node = origin};
    RouteComputation computation(world.full_graph, {source});
    RelianceResult reliance = ComputeReliance(computation);

    // DP: expected AS-path length (hop count) from each node to the origin,
    // averaging uniformly over tied-best paths.
    std::vector<double> expected_len(world.num_ases(), 0.0);
    for (AsId node : computation.NodesByLength()) {
      const auto& preds = computation.Predecessors(node);
      if (preds.empty()) continue;  // origin
      double total_sigma = reliance.path_counts[node];
      double acc = 0.0;
      for (AsId pred : preds) {
        acc += reliance.path_counts[pred] * (expected_len[pred] + 1.0);
      }
      expected_len[node] = acc / total_sigma;
    }

    double reliance_mass = 0.0;  // Σ_a (rely(a) - self term)
    double expected_intermediates = 0.0;
    for (AsId node = 0; node < world.num_ases(); ++node) {
      if (node == origin) continue;
      if (!computation.Route(node).HasRoute()) continue;
      reliance_mass += reliance.reliance[node] - 1.0;
      // Intermediates of t's paths exclude t itself and the origin.
      expected_intermediates += expected_len[node] - 1.0;
    }
    EXPECT_NEAR(reliance_mass, expected_intermediates,
                1e-6 * std::max(1.0, expected_intermediates));
  }
}

// The expected length DP must agree with the engine's shortest length
// (ties all share the same length, so E[len] == RouteEntry::length).
TEST_P(InvariantsTest, TiedBestPathsShareTheirLength) {
  World world = MakeWorld(800);
  AsId origin = world.Cloud("Google").id;
  AnnouncementSource source{.node = origin};
  RouteComputation computation(world.full_graph, {source});
  RelianceResult reliance = ComputeReliance(computation);
  std::vector<double> expected_len(world.num_ases(), 0.0);
  for (AsId node : computation.NodesByLength()) {
    const auto& preds = computation.Predecessors(node);
    if (preds.empty()) continue;
    double acc = 0.0;
    for (AsId pred : preds) {
      acc += reliance.path_counts[pred] * (expected_len[pred] + 1.0);
    }
    expected_len[node] = acc / reliance.path_counts[node];
    EXPECT_NEAR(expected_len[node], computation.Route(node).length, 1e-9)
        << "node " << node;
  }
}

// Everyone with a transit chain reaches (almost) the entire topology on
// the unrestricted graph. "Almost": provider-less non-Tier-1 networks
// (the PCCW / Liberty Global archetypes) are reachable only over their own
// peer links — the same dataset quirk that caps the paper's maximum at
// 69,488 of 69,999 ASes.
TEST_P(InvariantsTest, FullGraphIsGloballyReachableUpToProviderlessPeers) {
  World world = MakeWorld(900);
  Rng rng(GetParam() ^ 0x91);
  ReachabilityEngine engine(world.full_graph);
  std::size_t n = world.num_ases();
  // Sound characterization: an AS is possibly unreachable only when its
  // provider-ancestor closure never reaches a Tier-1 — i.e. it hangs
  // (directly or transitively) under a provider-less non-Tier-1.
  Bitset anchored(n);  // ancestor closure touches the clique
  for (AsId t1 : world.tiers.tier1) anchored.Set(t1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (AsId id = 0; id < n; ++id) {
      if (anchored.Test(id)) continue;
      for (const Neighbor& nb : world.full_graph.Providers(id)) {
        if (anchored.Test(nb.id)) {
          anchored.Set(id);
          changed = true;
          break;
        }
      }
    }
  }
  std::size_t unanchored = n - anchored.Count();
  EXPECT_LT(unanchored, n / 20);  // the stranded fringe is small

  Bitset reached = engine.Compute(world.tiers.tier1[0]);
  EXPECT_GE(reached.Count(), anchored.Count());
  anchored.ForEachSet([&](std::size_t id) {
    EXPECT_TRUE(reached.Test(id)) << "anchored AS " << id << " unreachable";
  });
  for (int i = 0; i < 10; ++i) {
    AsId origin = static_cast<AsId>(rng.UniformU64(n));
    EXPECT_GE(engine.Count(origin) + 1, anchored.Count()) << "origin " << origin;
  }
}

// Serialization must preserve every analysis outcome, not just the graph
// shape: hierarchy-free reachability per (sampled) origin survives the
// round trip through the CAIDA + TSV files.
TEST_P(InvariantsTest, SerializationPreservesAnalyses) {
  World world = MakeWorld(700);
  Internet original(world.full_graph, world.tiers, world.metadata);
  auto stem = TempPath("flatnet_invariants_" + std::to_string(GetParam()));
  SaveInternet(original, stem);
  Internet reloaded = LoadInternet(stem);

  Rng rng(GetParam() ^ 0x5e);
  for (int i = 0; i < 6; ++i) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    Asn asn = original.graph().AsnOf(origin);
    auto reloaded_origin = reloaded.graph().IdOf(asn);
    ASSERT_TRUE(reloaded_origin.has_value());
    ReachabilitySummary a = AnalyzeReachability(original, origin);
    ReachabilitySummary b = AnalyzeReachability(reloaded, *reloaded_origin);
    EXPECT_EQ(a.provider_free, b.provider_free) << "AS" << asn;
    EXPECT_EQ(a.tier1_free, b.tier1_free) << "AS" << asn;
    EXPECT_EQ(a.hierarchy_free, b.hierarchy_free) << "AS" << asn;
  }
  std::filesystem::remove(stem + ".as-rel.txt");
  std::filesystem::remove(stem + ".meta.tsv");
}

// Excluding a node can never help anyone: reachability is monotone in the
// subgraph (the property all of §6's comparisons rest on).
TEST_P(InvariantsTest, ReachabilityMonotoneUnderExclusion) {
  World world = MakeWorld(700);
  Rng rng(GetParam() ^ 0x707);
  ReachabilityEngine engine(world.full_graph);
  for (int i = 0; i < 6; ++i) {
    AsId origin = static_cast<AsId>(rng.UniformU64(world.num_ases()));
    Bitset excluded(world.num_ases());
    Bitset previous = engine.Compute(origin, &excluded);
    for (int step = 0; step < 4; ++step) {
      AsId victim = static_cast<AsId>(rng.UniformU64(world.num_ases()));
      if (victim == origin) continue;
      excluded.Set(victim);
      Bitset now = engine.Compute(origin, &excluded);
      EXPECT_TRUE(now.IsSubsetOf(previous));
      previous = now;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantsTest, ::testing::Values(3, 1234, 777777));

}  // namespace
}  // namespace flatnet
