// One chunked, journaled, resumable campaign driver for the sweep, leak,
// and failure campaigns (DESIGN.md §10.1).
//
// RunChunked splits a dense space of work units (origins or trials) into
// fixed-size chunks claimed off an atomic cursor by ThreadPool workers,
// and owns the journal (create, recover, record checks, appends), the
// max_chunks / throttle hooks, cooperative failure, the CampaignMonitor,
// and the <component>.* counters, gauge, spans, and `resume` log line. An
// engine supplies its serial pre-draw (returning the journal meta), a
// per-worker factory, and one decode function. A chunk's values travel as
// a u32 payload that the driver hands to `decode` for freshly computed and
// journal-recovered chunks alike, so the journal codec runs on every
// campaign, not only on resume.
#ifndef FLATNET_SWEEP_CHUNKED_H_
#define FLATNET_SWEEP_CHUNKED_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "sweep/journal.h"

namespace flatnet::sweep {

// The fields every campaign's options share. SweepOptions,
// LeakCampaignOptions, and FailCampaignOptions derive from this and add
// their own chunk size (the defaults differ per campaign).
struct ChunkedOptions {
  // Worker parallelism; 0 = hardware concurrency.
  std::size_t threads = 0;
  // When non-empty, completed chunks are journaled here.
  std::string journal_path;
  // Resume from an existing journal at journal_path (fresh start when the
  // file does not exist). The journal must match this topology and these
  // inputs; a mismatch throws rather than silently recomputing.
  bool resume = false;
  // Test/smoke hooks: stop after this many freshly computed chunks
  // (0 = run to completion), and sleep per completed chunk so an external
  // kill can land mid-run on small inputs.
  std::uint32_t max_chunks = 0;
  std::uint32_t throttle_chunk_ms = 0;
};

// The chunk accounting every campaign reports; each engine's stats add
// their own per-unit count.
struct ChunkedStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_resumed = 0;   // restored from the journal
  std::size_t chunks_computed = 0;  // computed by this run
  bool complete = false;  // false only when max_chunks stopped the run early
  double seconds = 0.0;
};

// Names and payload shape of one campaign kind.
struct ChunkedCampaign {
  const char* component;     // metric/span/log prefix: "sweep", "leaksim", ...
  const char* unit;          // "origins" or "trials"; also names the rate gauge
  const char* unit_counter;  // per-unit counter: "origins_computed", ...
  const char* caller;        // prefixes a rethrown journal failure: "RunSweep"
  std::size_t words_per_unit = 1;  // u32 payload words per unit
};

// Evaluates units [begin, begin + len) into payload[0, len * words_per_unit).
using ChunkEvaluator =
    std::function<void(std::size_t begin, std::size_t len, std::uint32_t* payload)>;
// Lands a chunk's payload in the engine's result table. Called from worker
// threads on disjoint unit ranges.
using ChunkDecoder =
    std::function<void(std::size_t begin, std::size_t len, const std::uint32_t* payload)>;

// Runs `prepare` (the serial pre-draw; returns the journal meta, whose
// num_origins and chunk_size are the unit count and chunk size), then
// evaluates every chunk not recovered from the journal. `make_evaluator`
// is called once per worker thread to build that worker's state. Returns
// the number of units computed by this run and fills `stats` when
// non-null. Throws Error naming the journal path on a bad journal record,
// and Error("<caller>: ...") on a journal write failure.
std::size_t RunChunked(const ChunkedCampaign& campaign, const ChunkedOptions& options,
                       const std::function<SweepMeta()>& prepare,
                       const std::function<ChunkEvaluator()>& make_evaluator,
                       const ChunkDecoder& decode, ChunkedStats* stats = nullptr);

// Removes a published campaign's now-redundant journal; best-effort, and a
// no-op for an empty path.
void RemoveJournal(const std::string& journal_path);

// For campaigns whose units are trials concatenated across cells: calls
// visit(cell, local, i) for each unit begin + i of [begin, begin + len),
// where `offsets` holds the cells' trial prefix sums (cells + 1 entries)
// and `local` is the trial's index within its cell.
template <typename Visit>
void ForEachCellTrial(const std::vector<std::size_t>& offsets, std::size_t begin,
                      std::size_t len, Visit&& visit) {
  std::size_t cell = static_cast<std::size_t>(
      std::upper_bound(offsets.begin(), offsets.end(), begin) - offsets.begin() - 1);
  for (std::size_t i = 0; i < len; ++i) {
    std::size_t g = begin + i;
    while (g >= offsets[cell + 1]) ++cell;
    visit(cell, g - offsets[cell], i);
  }
}

// Journal payload codec for floating-point campaigns: each double rides as
// two u32 words, low word first.
inline void EncodeDouble(double value, std::uint32_t* out) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  out[0] = static_cast<std::uint32_t>(bits);
  out[1] = static_cast<std::uint32_t>(bits >> 32);
}

inline double DecodeDouble(const std::uint32_t* in) {
  std::uint64_t bits = (static_cast<std::uint64_t>(in[1]) << 32) | in[0];
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace flatnet::sweep

#endif  // FLATNET_SWEEP_CHUNKED_H_
