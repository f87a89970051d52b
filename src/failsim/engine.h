// Deterministic parallel failure-cascade campaign engine.
//
// A campaign is a list of cells (src/failsim/store.h); each cell's
// knockout sets are pre-drawn SERIALLY from the cell's seed — the random
// single-AS ablations and link draws replay a fixed Rng stream, the
// Tier-1 permutation comes from the same stream, and the hegemony
// cascade order is the deterministic ranking of bgp/hegemony.h on the
// intact graph. Only the evaluation of the drawn trials is parallel: the
// concatenated trial space is split into fixed-size chunks claimed off
// an atomic cursor by ThreadPool workers, each holding one reusable
// workspace (a ReachabilityEngine plus knockout/reach scratch bitsets).
// Every trial writes into its pre-assigned slot, so the resulting table
// — and the store serialized from it — is byte-identical at any thread
// count and any chunk size.
//
// Chunking, checkpoint/resume, and instrumentation come from the shared
// campaign driver (sweep/chunked.h; doubles ride the journal as u32 word
// pairs): a killed run resumed with `resume = true` recomputes only the
// missing chunks and produces a byte-identical store. The journal header
// is keyed on the campaign fingerprint, so resuming against different
// inputs is loud. Metrics: failsim.chunks_completed / chunks_resumed /
// checkpoint_writes / trials_evaluated counters, a failsim.trials_per_sec
// gauge, and failsim.run / failsim.prepare / failsim.chunk trace spans.
#ifndef FLATNET_FAILSIM_ENGINE_H_
#define FLATNET_FAILSIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/internet.h"
#include "failsim/store.h"
#include "sweep/chunked.h"

namespace flatnet::failsim {

struct FailCampaignOptions : sweep::ChunkedOptions {
  // Trials per chunk — the unit of claiming and of checkpointing. Failure
  // trials are heavier than leak trials (link trials rebuild the graph),
  // so the default chunk is smaller than leaksim's.
  std::uint32_t chunk_trials = 16;
  // Per-AS user weights (one entry per AS); non-null enables the
  // user-weighted loss column in every cell. Must outlive the run.
  const std::vector<double>* users = nullptr;
  // Viewpoint-trimming fraction for kHegemonyCascade rankings (each end).
  double hegemony_trim = 0.1;
};

struct FailCampaignStats : sweep::ChunkedStats {
  std::size_t trials_evaluated = 0;
};

// Runs the campaign. The returned table covers every trial when
// stats->complete (untouched slots are zero on an early stop). Per-cell
// under-collection (fewer viable knockout sets than `trials` — e.g. a
// Tier-1 cell on a topology with 12 Tier-1s) is reported through each
// cell's collected()/UnderCollected(), never by silently shrinking
// someone else's slots. Throws InvalidArgument on a bad options/cell
// combination and Error on journal failures.
FailTable RunFailureCampaign(const Internet& internet, const std::vector<FailCellSpec>& cells,
                             const FailCampaignOptions& options = {},
                             FailCampaignStats* stats = nullptr);

// The campaign fingerprint the journal and store carry: FNV-1a over the
// topology fingerprint, the user-weight flag, the hegemony trim, and
// every cell spec.
std::uint64_t CampaignFingerprint(const Internet& internet,
                                  const std::vector<FailCellSpec>& cells, bool has_users,
                                  double hegemony_trim);

// Publishes `table` to `path` (atomic tmp+rename) and, on success,
// removes the now-redundant journal when `journal_path` is non-empty.
void FinalizeFailStore(const std::string& path, const FailTable& table,
                       const std::string& journal_path = std::string());

}  // namespace flatnet::failsim

#endif  // FLATNET_FAILSIM_ENGINE_H_
