#include "sweep/engine.h"

#include <algorithm>
#include <array>
#include <memory>

#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "sweep/chunked.h"
#include "sweep/fingerprint.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::sweep {
namespace {

// Thread-local compute state: one BFS engine plus one reusable scratch
// mask per baseline exclusion set. Per origin the scratch is patched (set
// the origin's providers, drop the origin itself) and restored — no
// O(n) mask copy and no allocation on the steady state.
class Worker {
 public:
  Worker(const Internet& internet, std::uint32_t columns)
      : internet_(internet),
        engine_(internet.graph()),
        columns_(columns),
        provider_scratch_(internet.num_ases()),
        tier1_scratch_(internet.tiers().tier1_mask),
        hierarchy_scratch_(internet.tiers().tier1_mask) {
    hierarchy_scratch_ |= internet.tiers().tier2_mask;
  }

  // Fills the journal payload for origins [begin, begin + len): for every
  // present column in ascending SweepColumn order, the chunk's len values.
  void EvaluateChunk(std::size_t begin, std::size_t len, std::uint32_t* payload) {
    std::array<std::uint32_t*, kNumSweepColumns> out{};
    std::uint32_t* next = payload;
    for (std::size_t c = 0; c < kNumSweepColumns; ++c) {
      if (columns_ & (1u << c)) {
        out[c] = next;
        next += len;
      }
    }
    auto at = [&](SweepColumn c) { return out[static_cast<std::size_t>(c)]; };
    for (std::size_t i = 0; i < len; ++i) {
      AsId origin = static_cast<AsId>(begin + i);
      if (at(SweepColumn::kProviderFree)) {
        at(SweepColumn::kProviderFree)[i] = CountWithScratch(origin, provider_scratch_);
      }
      if (at(SweepColumn::kTier1Free)) {
        at(SweepColumn::kTier1Free)[i] = CountWithScratch(origin, tier1_scratch_);
      }
      if (at(SweepColumn::kHierarchyFree)) {
        at(SweepColumn::kHierarchyFree)[i] = CountWithScratch(origin, hierarchy_scratch_);
      }
      if (columns_ & kPathColumns) {
        std::uint32_t one = 0, two = 0, three_plus = 0;
        PathBins(origin, &one, &two, &three_plus);
        if (at(SweepColumn::kPathOneHop)) at(SweepColumn::kPathOneHop)[i] = one;
        if (at(SweepColumn::kPathTwoHops)) at(SweepColumn::kPathTwoHops)[i] = two;
        if (at(SweepColumn::kPathThreePlus)) at(SweepColumn::kPathThreePlus)[i] = three_plus;
      }
    }
  }

 private:
  void PathBins(AsId origin, std::uint32_t* one, std::uint32_t* two,
                std::uint32_t* three_plus) {
    AnnouncementSource source;
    source.node = origin;
    RouteComputation computation(internet_.graph(), {source});
    *one = *two = *three_plus = 0;
    for (AsId node = 0; node < internet_.num_ases(); ++node) {
      if (node == origin) continue;
      const RouteEntry& entry = computation.Route(node);
      if (!entry.HasRoute()) continue;
      if (entry.length <= 1) {
        ++*one;
      } else if (entry.length == 2) {
        ++*two;
      } else {
        ++*three_plus;
      }
    }
  }

  // reach(origin, I \ base \ P(origin)), with the origin itself never
  // excluded — the same patch-and-restore the serial HierarchyFreeSweep
  // uses, generalized to any baseline mask.
  std::uint32_t CountWithScratch(AsId origin, Bitset& mask) {
    bool origin_in_mask = mask.Test(origin);
    if (origin_in_mask) mask.Reset(origin);
    flipped_.clear();
    for (const Neighbor& nb : internet_.graph().Providers(origin)) {
      if (!mask.Test(nb.id)) {
        mask.Set(nb.id);
        flipped_.push_back(nb.id);
      }
    }
    std::uint32_t count = static_cast<std::uint32_t>(engine_.Count(origin, &mask));
    for (AsId id : flipped_) mask.Reset(id);
    if (origin_in_mask) mask.Set(origin);
    return count;
  }

  const Internet& internet_;
  ReachabilityEngine engine_;
  std::uint32_t columns_;
  Bitset provider_scratch_;   // empty baseline
  Bitset tier1_scratch_;      // T1 baseline
  Bitset hierarchy_scratch_;  // T1 | T2 baseline
  std::vector<AsId> flipped_;
};

std::vector<SweepColumn> PresentColumns(std::uint32_t columns) {
  std::vector<SweepColumn> present;
  for (std::size_t c = 0; c < kNumSweepColumns; ++c) {
    if (columns & (1u << c)) present.push_back(static_cast<SweepColumn>(c));
  }
  return present;
}

}  // namespace

SweepTable RunSweep(const Internet& internet, const SweepOptions& options,
                    SweepRunStats* stats) {
  if (options.chunk_size == 0) throw InvalidArgument("RunSweep: chunk_size must be > 0");
  if (options.columns == 0 || (options.columns >> kNumSweepColumns) != 0) {
    throw InvalidArgument(StrFormat("RunSweep: invalid column bitmask 0x%x", options.columns));
  }

  std::size_t n = internet.num_ases();
  std::vector<SweepColumn> present = PresentColumns(options.columns);
  SweepTable table;

  auto prepare = [&] {
    table.fingerprint = TopologyFingerprint(internet);
    table.columns = options.columns;
    table.num_origins = n;
    for (SweepColumn c : present) table.MutableColumn(c).assign(n, 0);
    SweepMeta meta;
    meta.fingerprint = table.fingerprint;
    meta.num_origins = n;
    meta.columns = options.columns;
    meta.chunk_size = options.chunk_size;
    return meta;
  };
  auto make_evaluator = [&]() -> ChunkEvaluator {
    auto worker = std::make_shared<Worker>(internet, options.columns);
    return [worker](std::size_t begin, std::size_t len, std::uint32_t* payload) {
      worker->EvaluateChunk(begin, len, payload);
    };
  };
  auto decode = [&](std::size_t begin, std::size_t len, const std::uint32_t* payload) {
    for (SweepColumn c : present) {
      std::copy(payload, payload + len, table.MutableColumn(c).begin() +
                                            static_cast<std::ptrdiff_t>(begin));
      payload += len;
    }
  };

  ChunkedCampaign campaign{"sweep", "origins", "origins_computed", "RunSweep", present.size()};
  std::size_t computed = RunChunked(campaign, options, prepare, make_evaluator, decode, stats);
  if (stats != nullptr) stats->origins_computed = computed;
  return table;
}

std::vector<std::uint32_t> ParallelHierarchyFreeSweep(const Internet& internet,
                                                      std::size_t threads) {
  SweepOptions options;
  options.threads = threads;
  options.columns = ColumnBit(SweepColumn::kHierarchyFree);
  SweepTable table = RunSweep(internet, options);
  return std::move(table.MutableColumn(SweepColumn::kHierarchyFree));
}

void FinalizeSweepStore(const std::string& path, const SweepTable& table,
                        const std::string& journal_path) {
  WriteSweepStore(path, table);
  RemoveJournal(journal_path);
}

}  // namespace flatnet::sweep
