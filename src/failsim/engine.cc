#include "failsim/engine.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>

#include "bgp/hegemony.h"
#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "obs/trace.h"
#include "sweep/chunked.h"
#include "sweep/fingerprint.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flatnet::failsim {
namespace {

// The serial prep product: per-cell baseline reach sets and pre-drawn
// knockout material, and the prefix sums mapping global trial indices
// back to (cell, local).
struct PreparedCampaign {
  std::vector<Bitset> baselines;        // intact reach set, origin included
  std::vector<double> baseline_users;   // Σ users over baseline destinations
  std::vector<std::vector<std::uint32_t>> edge_draws;  // kLinkSet: trials×severity indices
  std::vector<AsGraph::Edge> edge_list;  // canonical order, filled when any cell fails links
  std::vector<std::size_t> offsets;      // cells.size() + 1 entries
  std::size_t total_trials = 0;
};

PreparedCampaign Prepare(const Internet& internet, const std::vector<FailCellSpec>& cells,
                         const FailCampaignOptions& options, FailTable& table) {
  obs::TraceSpan prep_span("failsim.prepare");
  const AsGraph& graph = internet.graph();
  std::size_t n = internet.num_ases();
  PreparedCampaign prep;
  prep.baselines.reserve(cells.size());
  prep.baseline_users.reserve(cells.size());
  prep.edge_draws.resize(cells.size());
  prep.offsets.reserve(cells.size() + 1);
  prep.offsets.push_back(0);
  table.cells.reserve(cells.size());

  ReachabilityEngine engine(graph);
  // Hegemony rankings are deterministic per origin; cells sharing an
  // origin share the computation.
  std::map<AsId, std::vector<AsId>> rankings;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FailCellSpec& spec = cells[i];
    if (spec.origin >= n) {
      throw InvalidArgument(StrFormat("RunFailureCampaign: cell %zu origin %u out of range "
                                      "(%zu ASes)",
                                      i, spec.origin, n));
    }
    if (spec.scenario == FailScenario::kLinkSet) {
      if (spec.severity == 0 || spec.severity > graph.num_edges()) {
        throw InvalidArgument(StrFormat("RunFailureCampaign: cell %zu link severity %u out "
                                        "of range (%zu links)",
                                        i, spec.severity, graph.num_edges()));
      }
    } else if (spec.severity != 0) {
      throw InvalidArgument(StrFormat("RunFailureCampaign: cell %zu severity %u is only "
                                      "meaningful for link_set cells",
                                      i, spec.severity));
    }

    FailCellResult cell;
    cell.spec = spec;

    Bitset baseline;
    engine.ComputeInto(spec.origin, nullptr, baseline);
    std::size_t baseline_count = baseline.Count();
    cell.baseline = baseline_count > 0 ? baseline_count - 1 : 0;  // destinations only
    double users_total = 0.0;
    if (options.users != nullptr) {
      for (std::size_t w = 0; w < baseline.num_words(); ++w) {
        std::uint64_t word = baseline.Word(w);
        while (word != 0) {
          std::size_t a = 64 * w + static_cast<std::size_t>(std::countr_zero(word));
          if (a != spec.origin) users_total += (*options.users)[a];
          word &= word - 1;
        }
      }
    }
    prep.baselines.push_back(std::move(baseline));
    prep.baseline_users.push_back(users_total);

    Rng rng(spec.seed);
    std::size_t collected = 0;
    switch (spec.scenario) {
      case FailScenario::kSingleAs: {
        std::uint32_t avail = static_cast<std::uint32_t>(n - 1);
        std::uint32_t k = std::min(spec.trials, avail);
        for (std::uint32_t idx : rng.SampleWithoutReplacement(avail, k)) {
          // Index space skips the origin.
          cell.targets.push_back(idx < spec.origin ? idx : idx + 1);
        }
        collected = k;
        break;
      }
      case FailScenario::kTier1: {
        std::vector<AsId> pool;
        for (AsId t1 : internet.tiers().tier1) {
          if (t1 != spec.origin) pool.push_back(t1);
        }
        std::uint32_t k =
            std::min<std::uint32_t>(spec.trials, static_cast<std::uint32_t>(pool.size()));
        for (std::uint32_t idx :
             rng.SampleWithoutReplacement(static_cast<std::uint32_t>(pool.size()), k)) {
          cell.targets.push_back(pool[idx]);
        }
        collected = k;
        break;
      }
      case FailScenario::kHegemonyCascade: {
        auto it = rankings.find(spec.origin);
        if (it == rankings.end()) {
          RouteComputation computation(graph, {{.node = spec.origin}});
          HegemonyOptions hegemony_options;
          hegemony_options.trim = options.hegemony_trim;
          it = rankings
                   .emplace(spec.origin,
                            HegemonyRanking(ComputeHegemony(computation, hegemony_options)))
                   .first;
        }
        const std::vector<AsId>& ranking = it->second;
        std::size_t k = std::min<std::size_t>(spec.trials, ranking.size());
        cell.targets.assign(ranking.begin(), ranking.begin() + k);
        collected = k;
        break;
      }
      case FailScenario::kLinkSet: {
        std::uint32_t num_edges = static_cast<std::uint32_t>(graph.num_edges());
        if (prep.edge_list.empty()) prep.edge_list = graph.EdgeList();
        std::vector<std::uint32_t>& draws = prep.edge_draws[i];
        draws.reserve(std::size_t{spec.trials} * spec.severity);
        for (std::uint32_t t = 0; t < spec.trials; ++t) {
          for (std::uint32_t e : rng.SampleWithoutReplacement(num_edges, spec.severity)) {
            draws.push_back(e);
          }
        }
        collected = spec.trials;
        break;
      }
    }
    cell.attempts = collected;
    cell.loss_ases.resize(collected, 0.0);
    cell.disconnected.resize(collected, 0.0);
    if (options.users != nullptr) cell.loss_users.resize(collected, 0.0);
    table.cells.push_back(std::move(cell));

    prep.total_trials += collected;
    prep.offsets.push_back(prep.total_trials);
  }
  return prep;
}

// Per-worker reusable evaluation state for the shared intact graph.
// Link-set trials operate on a rebuilt subgraph instead and allocate per
// trial — the rebuild dominates anyway.
struct FailWorkspace {
  explicit FailWorkspace(const AsGraph& graph)
      : engine(graph), mask(graph.num_ases()), damaged(graph.num_ases()) {}
  ReachabilityEngine engine;
  Bitset mask;
  Bitset damaged;
};

struct TrialOutcome {
  double loss_ases = 0.0;
  double disconnected = 0.0;
  double loss_users = 0.0;
};

// Σ users over baseline-reachable destinations lost in this trial,
// excluding the knocked-out ASes themselves (`mask` empty for link
// trials). The origin is in both sets, so it never counts.
double LostUsers(const Bitset& baseline, const Bitset& damaged, const Bitset* mask,
                 const std::vector<double>& users) {
  double lost = 0.0;
  for (std::size_t w = 0; w < baseline.num_words(); ++w) {
    std::uint64_t word = baseline.Word(w) & ~damaged.Word(w);
    if (mask != nullptr) word &= ~mask->Word(w);
    while (word != 0) {
      lost += users[64 * w + static_cast<std::size_t>(std::countr_zero(word))];
      word &= word - 1;
    }
  }
  return lost;
}

TrialOutcome EvaluateTrial(const Internet& internet, const PreparedCampaign& prep,
                           const FailTable& table, std::size_t cell_index, std::size_t local,
                           const std::vector<double>* users, FailWorkspace& workspace) {
  const FailCellResult& cell = table.cells[cell_index];
  const FailCellSpec& spec = cell.spec;
  const Bitset& baseline = prep.baselines[cell_index];
  double baseline_count = static_cast<double>(cell.baseline);
  double baseline_users = prep.baseline_users[cell_index];

  std::size_t damaged_count = 0;
  std::size_t knocked_reachable = 0;
  double lost_users = 0.0;

  if (spec.scenario == FailScenario::kLinkSet) {
    const AsGraph& graph = internet.graph();
    const std::uint32_t* failed =
        prep.edge_draws[cell_index].data() + local * spec.severity;
    AsGraphBuilder builder;
    for (AsId id = 0; id < graph.num_ases(); ++id) builder.AddAs(graph.AsnOf(id));
    for (std::uint32_t e = 0; e < prep.edge_list.size(); ++e) {
      bool drop = false;
      for (std::uint32_t f = 0; f < spec.severity; ++f) {
        if (failed[f] == e) {
          drop = true;
          break;
        }
      }
      if (drop) continue;
      const AsGraph::Edge& edge = prep.edge_list[e];
      builder.AddEdge(edge.a, edge.b, edge.type);
    }
    AsGraph sub = std::move(builder).Build();
    ReachabilityEngine sub_engine(sub);
    if (users != nullptr) {
      sub_engine.ComputeInto(spec.origin, nullptr, workspace.damaged);
      std::size_t reached = workspace.damaged.Count();
      damaged_count = reached > 0 ? reached - 1 : 0;
      lost_users = LostUsers(baseline, workspace.damaged, nullptr, *users);
    } else {
      damaged_count = sub_engine.Count(spec.origin);
    }
  } else {
    workspace.mask.ResetAll();
    std::size_t knockout = spec.scenario == FailScenario::kHegemonyCascade ? local + 1 : 1;
    std::size_t first = spec.scenario == FailScenario::kHegemonyCascade ? 0 : local;
    for (std::size_t k = 0; k < knockout; ++k) {
      AsId target = cell.targets[first + k];
      workspace.mask.Set(target);
      if (baseline.Test(target)) ++knocked_reachable;
    }
    if (users != nullptr) {
      workspace.engine.ComputeInto(spec.origin, &workspace.mask, workspace.damaged);
      std::size_t reached = workspace.damaged.Count();
      damaged_count = reached > 0 ? reached - 1 : 0;
      lost_users = LostUsers(baseline, workspace.damaged, &workspace.mask, *users);
    } else {
      damaged_count = workspace.engine.Count(spec.origin, &workspace.mask);
    }
  }

  double disconnected =
      baseline_count > static_cast<double>(damaged_count)
          ? baseline_count - static_cast<double>(damaged_count)
          : 0.0;
  double collateral = disconnected - static_cast<double>(knocked_reachable);
  if (collateral < 0.0) collateral = 0.0;

  TrialOutcome outcome;
  outcome.disconnected = disconnected;
  outcome.loss_ases = baseline_count > 0.0 ? collateral / baseline_count : 0.0;
  outcome.loss_users = baseline_users > 0.0 ? lost_users / baseline_users : 0.0;
  return outcome;
}

}  // namespace

std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<FailCellSpec>& cells, bool has_users,
                                  double hegemony_trim) {
  std::uint64_t hash = 14695981039346656037ull;
  hash = sweep::Fnv1aMix(hash, sweep::TopologyFingerprint(internet));
  hash = sweep::Fnv1aMix(hash, has_users ? 1 : 0);
  hash = sweep::Fnv1aMix(hash, std::bit_cast<std::uint64_t>(hegemony_trim));
  hash = sweep::Fnv1aMix(hash, cells.size());
  for (const FailCellSpec& spec : cells) {
    hash = sweep::Fnv1aMix(hash, spec.origin);
    hash = sweep::Fnv1aMix(hash, static_cast<std::uint64_t>(spec.scenario));
    hash = sweep::Fnv1aMix(hash, spec.severity);
    hash = sweep::Fnv1aMix(hash, spec.seed);
    hash = sweep::Fnv1aMix(hash, spec.trials);
  }
  return hash;
}

FailTable RunFailureCampaign(const Internet& internet, const std::vector<FailCellSpec>& cells,
                             const FailCampaignOptions& options, FailCampaignStats* stats) {
  if (options.chunk_trials == 0) {
    throw InvalidArgument("RunFailureCampaign: chunk_trials must be > 0");
  }
  if (options.users != nullptr && options.users->size() != internet.num_ases()) {
    throw InvalidArgument(StrFormat("RunFailureCampaign: %zu user weights for %zu ASes",
                                    options.users->size(), internet.num_ases()));
  }
  if (!(options.hegemony_trim >= 0.0) || options.hegemony_trim >= 0.5) {
    throw InvalidArgument("RunFailureCampaign: hegemony_trim must be in [0, 0.5)");
  }

  FailTable table;
  table.has_users = options.users != nullptr;
  PreparedCampaign prep;

  // Reuse the sweep journal: "origins" are global trial indices and each
  // trial's values are its metrics as u32 word pairs — the collateral loss
  // fraction, the disconnected count, then, when users are weighted, the
  // user loss. The fingerprint slot carries the campaign fingerprint so a
  // resume against a different topology, cell list, trim, or user-weight
  // flag fails loudly.
  auto prepare = [&] {
    table.fingerprint = sweep::TopologyFingerprint(internet);
    table.campaign_fingerprint =
        CampaignFingerprint(internet, cells, table.has_users, options.hegemony_trim);
    prep = Prepare(internet, cells, options, table);
    sweep::SweepMeta meta;
    meta.fingerprint = table.campaign_fingerprint;
    meta.num_origins = prep.total_trials;
    meta.columns = table.has_users ? 0x7 : 0x3;
    meta.chunk_size = options.chunk_trials;
    return meta;
  };
  std::size_t words_per_trial = table.has_users ? 6 : 4;

  auto make_evaluator = [&]() -> sweep::ChunkEvaluator {
    auto workspace = std::make_shared<FailWorkspace>(internet.graph());
    return [&, workspace](std::size_t begin, std::size_t len, std::uint32_t* payload) {
      auto run_trial = [&](std::size_t cell, std::size_t local, std::size_t i) {
        TrialOutcome outcome =
            EvaluateTrial(internet, prep, table, cell, local, options.users, *workspace);
        std::uint32_t* at = payload + i * words_per_trial;
        sweep::EncodeDouble(outcome.loss_ases, at);
        sweep::EncodeDouble(outcome.disconnected, at + 2);
        if (table.has_users) sweep::EncodeDouble(outcome.loss_users, at + 4);
      };
      sweep::ForEachCellTrial(prep.offsets, begin, len, run_trial);
    };
  };
  auto decode = [&](std::size_t begin, std::size_t len, const std::uint32_t* payload) {
    auto land_trial = [&](std::size_t cell, std::size_t local, std::size_t i) {
      const std::uint32_t* at = payload + i * words_per_trial;
      FailCellResult& result = table.cells[cell];
      result.loss_ases[local] = sweep::DecodeDouble(at);
      result.disconnected[local] = sweep::DecodeDouble(at + 2);
      if (table.has_users) result.loss_users[local] = sweep::DecodeDouble(at + 4);
    };
    sweep::ForEachCellTrial(prep.offsets, begin, len, land_trial);
  };

  sweep::ChunkedCampaign campaign{"failsim", "trials", "trials_evaluated", "RunFailureCampaign",
                                  words_per_trial};
  std::size_t computed =
      sweep::RunChunked(campaign, options, prepare, make_evaluator, decode, stats);
  if (stats != nullptr) stats->trials_evaluated = computed;
  return table;
}

void FinalizeFailStore(const std::string& path, const FailTable& table,
                       const std::string& journal_path) {
  WriteFailStore(path, table);
  sweep::RemoveJournal(journal_path);
}

}  // namespace flatnet::failsim
