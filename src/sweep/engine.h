// Sharded all-origins batch sweep engine.
//
// Computes the paper's per-origin reachability metrics (and optionally
// the Fig 13 path-length bins) for EVERY AS in a topology. The origin
// space is split into fixed-size chunks; worker tasks on the existing
// ThreadPool claim chunks dynamically off a shared atomic cursor (idle
// workers pull the next unclaimed chunk, so an uneven chunk never strands
// a core). Each worker owns a thread-local ReachabilityEngine plus
// reusable exclusion-mask scratch — zero per-origin allocation on the
// default reachability columns.
//
// Chunking, checkpoint/resume, and instrumentation come from the shared
// campaign driver (sweep/chunked.h): with a journal path set, a killed run
// resumed with `resume = true` recomputes only the missing chunks and —
// because every per-origin value is deterministic and the store is
// written in origin order — produces a byte-identical store to an
// uninterrupted run. Metrics: sweep.chunks_completed / chunks_resumed /
// checkpoint_writes / origins_computed counters, a sweep.origins_per_sec
// gauge, and sweep.run / sweep.chunk trace spans.
#ifndef FLATNET_SWEEP_ENGINE_H_
#define FLATNET_SWEEP_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/internet.h"
#include "sweep/chunked.h"
#include "sweep/store.h"

namespace flatnet::sweep {

struct SweepOptions : ChunkedOptions {
  // Origins per chunk — the unit of claiming and of checkpointing.
  std::uint32_t chunk_size = 256;
  // Bitmask of SweepColumn values to compute (kReachColumns by default).
  std::uint32_t columns = kReachColumns;
};

struct SweepRunStats : ChunkedStats {
  std::size_t origins_computed = 0;
};

// Runs the sweep. The returned table covers every origin when
// stats->complete (untouched entries are zero on an early stop). Throws
// InvalidArgument on a bad options combination and Error on journal
// failures.
SweepTable RunSweep(const Internet& internet, const SweepOptions& options,
                    SweepRunStats* stats = nullptr);

// Convenience: the hierarchy-free column only, computed in parallel.
// Result is element-for-element identical to the serial
// HierarchyFreeSweep (core/reachability_analysis.h).
std::vector<std::uint32_t> ParallelHierarchyFreeSweep(const Internet& internet,
                                                      std::size_t threads = 0);

// Publishes `table` to `path` (atomic tmp+rename) and, on success,
// removes the now-redundant journal when `journal_path` is non-empty.
void FinalizeSweepStore(const std::string& path, const SweepTable& table,
                        const std::string& journal_path = std::string());

}  // namespace flatnet::sweep

#endif  // FLATNET_SWEEP_ENGINE_H_
