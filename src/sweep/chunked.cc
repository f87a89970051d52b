#include "sweep/chunked.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/campaign.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace flatnet::sweep {

std::size_t RunChunked(const ChunkedCampaign& campaign, const ChunkedOptions& options,
                       const std::function<SweepMeta()>& prepare,
                       const std::function<ChunkEvaluator()>& make_evaluator,
                       const ChunkDecoder& decode, ChunkedStats* stats) {
  const std::string component = campaign.component;
  obs::Counter& chunks_completed = obs::GetCounter(component + ".chunks_completed");
  obs::Counter& checkpoint_writes = obs::GetCounter(component + ".checkpoint_writes");
  obs::Counter& units_counter = obs::GetCounter(component + "." + campaign.unit_counter);
  const std::string chunk_span_name = component + ".chunk";

  obs::TraceSpan run_span(component + ".run");
  Stopwatch stopwatch;
  const SweepMeta meta = prepare();
  const std::size_t n = meta.num_origins;
  const std::size_t chunk_size = meta.chunk_size;
  const std::size_t words = campaign.words_per_unit;
  auto chunk_len_of = [&](std::size_t begin) { return std::min(chunk_size, n - begin); };

  std::size_t num_chunks = n == 0 ? 0 : (n + chunk_size - 1) / chunk_size;
  std::vector<char> done(num_chunks, 0);
  std::size_t chunks_resumed = 0;

  SweepJournal journal;
  if (!options.journal_path.empty()) {
    bool exists = std::filesystem::exists(options.journal_path);
    if (options.resume && exists) {
      std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> recovered;
      journal = SweepJournal::Recover(options.journal_path, meta, &recovered);
      for (auto& [chunk_index, values] : recovered) {
        if (chunk_index >= num_chunks) {
          throw Error(StrFormat("%s: journal record for chunk %u is out of range (%zu chunks)",
                                options.journal_path.c_str(), chunk_index, num_chunks));
        }
        std::size_t begin = std::size_t{chunk_index} * chunk_size;
        std::size_t chunk_len = chunk_len_of(begin);
        if (values.size() != chunk_len * words) {
          throw Error(StrFormat("%s: journal record for chunk %u holds %zu values, "
                                "expected %zu",
                                options.journal_path.c_str(), chunk_index, values.size(),
                                chunk_len * words));
        }
        decode(begin, chunk_len, values.data());
        if (!done[chunk_index]) {
          done[chunk_index] = 1;
          ++chunks_resumed;
        }
      }
      obs::GetCounter(component + ".chunks_resumed").Increment(chunks_resumed);
      obs::Log(obs::LogLevel::kInfo, component, "resume")
          .Kv("journal", options.journal_path)
          .Kv("chunks_resumed", static_cast<std::uint64_t>(chunks_resumed))
          .Kv("chunks_total", static_cast<std::uint64_t>(num_chunks));
    } else {
      journal = SweepJournal::Create(options.journal_path, meta);
    }
  }

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_computed{0};
  std::atomic<std::size_t> units_computed{0};
  std::atomic<bool> failed{false};
  std::mutex journal_mu;
  std::string failure;  // first worker error, guarded by journal_mu

  obs::CampaignMonitor::Options monitor_options;
  monitor_options.component = component;
  monitor_options.unit = campaign.unit;
  monitor_options.total_chunks = num_chunks;
  monitor_options.resumed_chunks = chunks_resumed;
  monitor_options.workers = options.threads > 0
                                ? options.threads
                                : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  obs::CampaignMonitor monitor(monitor_options);

  auto worker_loop = [&] {
    ChunkEvaluator evaluate = make_evaluator();
    std::vector<std::uint32_t> payload;
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) break;
      if (options.max_chunks != 0 &&
          chunks_computed.load(std::memory_order_relaxed) >= options.max_chunks) {
        break;
      }
      std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      if (done[chunk]) continue;

      obs::TraceSpan chunk_span(chunk_span_name);
      Stopwatch chunk_watch;
      std::size_t begin = chunk * chunk_size;
      std::size_t chunk_len = chunk_len_of(begin);
      payload.resize(chunk_len * words);
      evaluate(begin, chunk_len, payload.data());
      decode(begin, chunk_len, payload.data());

      if (journal.is_open()) {
        // Pool tasks must not throw; a journal I/O failure aborts the
        // campaign cooperatively and rethrows after the pool drains.
        {
          std::lock_guard<std::mutex> lock(journal_mu);
          try {
            journal.AppendChunk(static_cast<std::uint32_t>(chunk), payload.data(),
                                payload.size());
          } catch (const Error& e) {
            if (failure.empty()) failure = e.what();
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        checkpoint_writes.Increment();
      }

      chunks_computed.fetch_add(1, std::memory_order_relaxed);
      units_computed.fetch_add(chunk_len, std::memory_order_relaxed);
      chunks_completed.Increment();
      units_counter.Increment(chunk_len);
      monitor.ChunkDone(chunk, chunk_watch.ElapsedSeconds() * 1000.0, chunk_len);
      if (options.throttle_chunk_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(options.throttle_chunk_ms));
      }
    }
  };

  {
    ThreadPool pool(options.threads);
    std::size_t workers = pool.thread_count() > 0 ? pool.thread_count() : 1;
    for (std::size_t w = 0; w < workers; ++w) pool.Submit(worker_loop);
    pool.Wait();
  }
  journal.Close();
  if (failed.load()) throw Error(std::string(campaign.caller) + ": " + failure);

  double seconds = stopwatch.ElapsedSeconds();
  std::size_t computed = chunks_computed.load();
  std::size_t units = units_computed.load();
  if (seconds > 0.0) {
    obs::GetGauge(component + "." + campaign.unit + "_per_sec")
        .Set(static_cast<std::int64_t>(static_cast<double>(units) / seconds));
  }
  if (stats != nullptr) {
    stats->chunks_total = num_chunks;
    stats->chunks_resumed = chunks_resumed;
    stats->chunks_computed = computed;
    stats->complete = chunks_resumed + computed >= num_chunks;
    stats->seconds = seconds;
  }
  return units;
}

void RemoveJournal(const std::string& journal_path) {
  if (journal_path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(journal_path, ec);
}

}  // namespace flatnet::sweep
