#include "leaksim/engine.h"

#include <memory>

#include "core/leak_scenarios.h"
#include "obs/trace.h"
#include "sweep/chunked.h"
#include "sweep/fingerprint.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flatnet::leaksim {
namespace {

// The serial prep product: one experiment + pre-drawn leakers per cell,
// and the prefix sums mapping global trial indices back to (cell, local).
struct PreparedCampaign {
  std::vector<std::unique_ptr<LeakExperiment>> experiments;
  std::vector<std::vector<AsId>> leakers;
  std::vector<std::size_t> offsets;  // cells.size() + 1 entries
  std::size_t total_trials = 0;
  std::size_t draw_attempts = 0;
};

PreparedCampaign Prepare(const Internet& internet, const std::vector<LeakCellSpec>& cells,
                         const std::vector<double>* users, LeakTable& table) {
  obs::TraceSpan prep_span("leaksim.prepare");
  PreparedCampaign prep;
  std::size_t n = internet.num_ases();
  prep.experiments.reserve(cells.size());
  prep.leakers.reserve(cells.size());
  prep.offsets.reserve(cells.size() + 1);
  prep.offsets.push_back(0);
  table.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const LeakCellSpec& spec = cells[i];
    if (spec.victim >= n) {
      throw InvalidArgument(StrFormat("RunLeakCampaign: cell %zu victim %u out of range "
                                      "(%zu ASes)",
                                      i, spec.victim, n));
    }
    LeakConfig config =
        LeakConfigForScenario(internet, spec.victim, spec.scenario, spec.lock_mode);
    config.model = spec.model;
    prep.experiments.push_back(
        std::make_unique<LeakExperiment>(internet.graph(), spec.victim, config, users));
    Rng rng(spec.seed);
    LeakDraw draw = DrawLeakers(*prep.experiments.back(), n, spec.trials, rng);
    prep.draw_attempts += draw.attempts;

    LeakCellResult cell;
    cell.spec = spec;
    cell.attempts = draw.attempts;
    cell.fraction_ases.resize(draw.leakers.size(), 0.0);
    if (users != nullptr) cell.fraction_users.resize(draw.leakers.size(), 0.0);
    table.cells.push_back(std::move(cell));

    prep.total_trials += draw.leakers.size();
    prep.offsets.push_back(prep.total_trials);
    prep.leakers.push_back(std::move(draw.leakers));
  }
  return prep;
}

}  // namespace

std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<LeakCellSpec>& cells, bool has_users) {
  std::uint64_t hash = 14695981039346656037ull;
  hash = sweep::Fnv1aMix(hash, sweep::TopologyFingerprint(internet));
  hash = sweep::Fnv1aMix(hash, has_users ? 1 : 0);
  hash = sweep::Fnv1aMix(hash, cells.size());
  for (const LeakCellSpec& spec : cells) {
    hash = sweep::Fnv1aMix(hash, spec.victim);
    hash = sweep::Fnv1aMix(hash, static_cast<std::uint64_t>(spec.scenario));
    hash = sweep::Fnv1aMix(hash, static_cast<std::uint64_t>(spec.lock_mode));
    hash = sweep::Fnv1aMix(hash, static_cast<std::uint64_t>(spec.model));
    hash = sweep::Fnv1aMix(hash, spec.seed);
    hash = sweep::Fnv1aMix(hash, spec.trials);
  }
  return hash;
}

LeakTable RunLeakCampaign(const Internet& internet, const std::vector<LeakCellSpec>& cells,
                          const LeakCampaignOptions& options, LeakCampaignStats* stats) {
  if (options.chunk_trials == 0) {
    throw InvalidArgument("RunLeakCampaign: chunk_trials must be > 0");
  }
  if (options.users != nullptr && options.users->size() != internet.num_ases()) {
    throw InvalidArgument(StrFormat("RunLeakCampaign: %zu user weights for %zu ASes",
                                    options.users->size(), internet.num_ases()));
  }

  LeakTable table;
  table.has_users = options.users != nullptr;
  PreparedCampaign prep;

  // Reuse the sweep journal: "origins" are global trial indices and each
  // trial's values are its fractions as u32 word pairs — the AS fraction,
  // then, when users are weighted, the user fraction. The fingerprint slot
  // carries the campaign fingerprint so a resume against a different
  // topology, cell list, or user-weight flag fails loudly.
  auto prepare = [&] {
    table.fingerprint = sweep::TopologyFingerprint(internet);
    prep = Prepare(internet, cells, options.users, table);
    sweep::SweepMeta meta;
    meta.fingerprint = CampaignFingerprint(internet, cells, table.has_users);
    meta.num_origins = prep.total_trials;
    meta.columns = table.has_users ? 0x3 : 0x1;
    meta.chunk_size = options.chunk_trials;
    return meta;
  };
  std::size_t words_per_trial = table.has_users ? 4 : 2;

  auto make_evaluator = [&]() -> sweep::ChunkEvaluator {
    auto workspace = std::make_shared<LeakWorkspace>();
    return [&, workspace](std::size_t begin, std::size_t len, std::uint32_t* payload) {
      auto run_trial = [&](std::size_t cell, std::size_t local, std::size_t i) {
        // Engaged by construction: the draw only kept CanLeak leakers.
        LeakOutcome outcome =
            *prep.experiments[cell]->Run(prep.leakers[cell][local], *workspace);
        std::uint32_t* at = payload + i * words_per_trial;
        sweep::EncodeDouble(outcome.fraction_ases_detoured, at);
        if (table.has_users) sweep::EncodeDouble(outcome.fraction_users_detoured, at + 2);
      };
      sweep::ForEachCellTrial(prep.offsets, begin, len, run_trial);
    };
  };
  auto decode = [&](std::size_t begin, std::size_t len, const std::uint32_t* payload) {
    auto land_trial = [&](std::size_t cell, std::size_t local, std::size_t i) {
      const std::uint32_t* at = payload + i * words_per_trial;
      LeakCellResult& result = table.cells[cell];
      result.fraction_ases[local] = sweep::DecodeDouble(at);
      if (table.has_users) result.fraction_users[local] = sweep::DecodeDouble(at + 2);
    };
    sweep::ForEachCellTrial(prep.offsets, begin, len, land_trial);
  };

  sweep::ChunkedCampaign campaign{"leaksim", "trials", "trials_evaluated", "RunLeakCampaign",
                                  words_per_trial};
  std::size_t computed =
      sweep::RunChunked(campaign, options, prepare, make_evaluator, decode, stats);
  if (stats != nullptr) {
    stats->trials_evaluated = computed;
    stats->draw_attempts = prep.draw_attempts;
  }
  return table;
}

void FinalizeLeakStore(const std::string& path, const LeakTable& table,
                       const std::string& journal_path) {
  WriteLeakStore(path, table);
  sweep::RemoveJournal(journal_path);
}

}  // namespace flatnet::leaksim
