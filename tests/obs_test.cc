#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "asgraph/as_graph.h"
#include "bgp/reachability.h"
#include "obs/campaign.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "test_paths.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace flatnet::obs {
namespace {

// Captures emitted lines and restores the default sink + level on exit.
class LogCapture {
 public:
  LogCapture() {
    SetLogSinkForTest([this](LogLevel level, const std::string& line) {
      levels.push_back(level);
      lines.push_back(line);
    });
  }
  ~LogCapture() {
    SetLogSinkForTest(nullptr);
    SetLogLevel(LogLevel::kInfo);
  }
  std::vector<LogLevel> levels;
  std::vector<std::string> lines;
};

TEST(Log, LevelFiltering) {
  LogCapture capture;
  SetLogLevel(LogLevel::kWarn);
  Log(LogLevel::kInfo, "test", "dropped").Kv("k", 1);
  Log(LogLevel::kDebug, "test", "dropped_too");
  ASSERT_TRUE(capture.lines.empty());
  Log(LogLevel::kWarn, "test", "kept");
  Log(LogLevel::kError, "test", "kept_too");
  ASSERT_EQ(capture.lines.size(), 2u);
  EXPECT_EQ(capture.levels[0], LogLevel::kWarn);
  EXPECT_EQ(capture.levels[1], LogLevel::kError);
  SetLogLevel(LogLevel::kOff);
  Log(LogLevel::kError, "test", "silenced");
  EXPECT_EQ(capture.lines.size(), 2u);
}

TEST(Log, StructuredKeyValueFormatting) {
  LogCapture capture;
  SetLogLevel(LogLevel::kDebug);
  Log(LogLevel::kInfo, "comp", "event")
      .Kv("str", "plain")
      .Kv("quoted", "has space")
      .Kv("num", std::uint64_t{42})
      .Kv("neg", std::int64_t{-7})
      .Kv("frac", 2.5)
      .Kv("flag", true);
  ASSERT_EQ(capture.lines.size(), 1u);
  const std::string& line = capture.lines[0];
  EXPECT_NE(line.find(" I comp event "), std::string::npos);
  EXPECT_NE(line.find("str=plain"), std::string::npos);
  EXPECT_NE(line.find("quoted=\"has space\""), std::string::npos);
  EXPECT_NE(line.find("num=42"), std::string::npos);
  EXPECT_NE(line.find("neg=-7"), std::string::npos);
  EXPECT_NE(line.find("frac=2.5"), std::string::npos);
  EXPECT_NE(line.find("flag=true"), std::string::npos);
}

TEST(Log, ParseLogLevelNames) {
  EXPECT_EQ(ParseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(ParseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none"), LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("loud").has_value());
  EXPECT_STREQ(ToString(LogLevel::kWarn), "warn");
}

TEST(Metrics, CounterAndGaugeBasics) {
  Counter& counter = GetCounter("test.basics.counter");
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(4);
  EXPECT_EQ(counter.value(), 5u);
  // Re-registration returns the same object.
  EXPECT_EQ(&GetCounter("test.basics.counter"), &counter);

  Gauge& gauge = GetGauge("test.basics.gauge");
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.SetMax(5);
  EXPECT_EQ(gauge.value(), 7);
  gauge.SetMax(12);
  EXPECT_EQ(gauge.value(), 12);
}

TEST(Metrics, KindConflictsThrow) {
  GetCounter("test.conflict.name");
  EXPECT_THROW(GetGauge("test.conflict.name"), InvalidArgument);
  EXPECT_THROW(GetHistogram("test.conflict.name", {1.0}), InvalidArgument);
  EXPECT_THROW(GetHistogram("test.conflict.hist", {3.0, 1.0}), InvalidArgument);
  EXPECT_THROW(GetHistogram("test.conflict.hist", {}), InvalidArgument);
}

TEST(Metrics, HistogramBucketBoundaries) {
  Histogram& h = GetHistogram("test.hist.bounds", {1.0, 2.0, 5.0});
  // v <= bound lands in that bucket; above every bound -> overflow.
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (inclusive upper bound)
  h.Observe(1.5);   // bucket 1
  h.Observe(2.0);   // bucket 1
  h.Observe(5.0);   // bucket 2
  h.Observe(100.0); // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 100.0);
}

TEST(Metrics, ConcurrentUpdatesFromThreadPool) {
  Counter& counter = GetCounter("test.concurrent.counter");
  Histogram& h = GetHistogram("test.concurrent.hist", {10.0, 100.0, 1000.0});
  ThreadPool pool(4);
  constexpr std::size_t kOps = 10000;
  pool.ParallelFor(0, kOps, [&](std::size_t i) {
    counter.Increment();
    h.Observe(static_cast<double>(i % 2000));
  });
  EXPECT_EQ(counter.value(), kOps);
  EXPECT_EQ(h.count(), kOps);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, kOps);
}

TEST(Metrics, SnapshotJsonRoundTrip) {
  GetCounter("test.roundtrip.counter").Increment(3);
  GetGauge("test.roundtrip.gauge").Set(-5);
  Histogram& h = GetHistogram("test.roundtrip.hist", {1.0, 10.0});
  h.Observe(0.5);
  h.Observe(50.0);

  Json parsed = Json::Parse(MetricsRegistry::Default().Snapshot().Dump(2));
  EXPECT_EQ(parsed.At("counters").At("test.roundtrip.counter").AsU64(), 3u);
  EXPECT_DOUBLE_EQ(parsed.At("gauges").At("test.roundtrip.gauge").AsNumber(), -5.0);
  const Json& hist = parsed.At("histograms").At("test.roundtrip.hist");
  EXPECT_EQ(hist.At("count").AsU64(), 2u);
  EXPECT_DOUBLE_EQ(hist.At("sum").AsNumber(), 50.5);
  EXPECT_EQ(hist.At("counts").size(), 3u);
  EXPECT_EQ(hist.At("counts")[0].AsU64(), 1u);
  EXPECT_EQ(hist.At("counts")[2].AsU64(), 1u);
  EXPECT_EQ(hist.At("bounds").size(), 2u);
}

TEST(Metrics, ReachabilityNodesReachedMatchesCount) {
  // The nodes_reached counter counts destinations only, exactly like
  // ReachabilityEngine::Count (the origin is not a reached node).
  flatnet::AsGraphBuilder builder;
  builder.AddEdge(2, 1, flatnet::EdgeType::kP2C);
  builder.AddEdge(3, 2, flatnet::EdgeType::kP2C);
  builder.AddEdge(3, 4, flatnet::EdgeType::kP2C);
  builder.AddEdge(5, 4, flatnet::EdgeType::kP2P);
  flatnet::AsGraph graph = std::move(builder).Build();

  Counter& nodes_reached = GetCounter("reachability.nodes_reached");
  flatnet::ReachabilityEngine engine(graph);
  for (flatnet::Asn origin : {1u, 4u, 5u}) {
    std::uint64_t before = nodes_reached.value();
    std::size_t count = engine.Count(*graph.IdOf(origin));
    EXPECT_EQ(nodes_reached.value() - before, count) << "origin AS" << origin;
  }
}

TEST(Metrics, ObservabilitySnapshotContainsCoreNames) {
  Json snapshot = ObservabilitySnapshot();
  EXPECT_TRUE(snapshot.At("counters").Contains("propagation.customer.relax_ops"));
  EXPECT_TRUE(snapshot.At("counters").Contains("cache.hit"));
  EXPECT_TRUE(snapshot.At("counters").Contains("cache.miss"));
  EXPECT_TRUE(snapshot.At("gauges").Contains("thread_pool.queue_depth"));
  EXPECT_TRUE(snapshot.At("gauges").Contains("thread_pool.threads"));
  EXPECT_TRUE(snapshot.At("spans").Contains("bgp.propagation.customer_phase"));
}

TEST(Metrics, HistogramSnapshotConsistentUnderConcurrentObserve) {
  // The consistency contract: Snapshot() may only report consistent=true
  // when the buckets reconcile with the count, even while writers hammer
  // Observe. Raw accessors are allowed to tear; Snapshot is not.
  Histogram& h = GetHistogram("test.race.hist", {1.0, 10.0, 100.0});
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) h.Observe(static_cast<double>(i % 200));
    });
  }
  std::uint64_t before = h.count();
  while (h.count() < kWriters * kPerWriter) {
    HistogramSnapshot snap = h.Snapshot();
    if (snap.consistent) {
      std::uint64_t total = 0;
      for (std::uint64_t b : snap.buckets) total += b;
      ASSERT_EQ(total, snap.count);
    }
    // count() alone is monotonic regardless of consistency.
    ASSERT_GE(snap.count, before);
    before = snap.count;
  }
  for (auto& w : writers) w.join();
  // Quiescent: the snapshot must reconcile exactly.
  HistogramSnapshot final_snap = h.Snapshot();
  ASSERT_TRUE(final_snap.consistent);
  std::uint64_t total = 0;
  for (std::uint64_t b : final_snap.buckets) total += b;
  EXPECT_EQ(total, kWriters * kPerWriter);
  EXPECT_EQ(final_snap.count, kWriters * kPerWriter);
}

TEST(Metrics, SnapshotCountersMonotonicAcrossConsecutiveReads) {
  Counter& counter = GetCounter("test.monotonic.counter");
  Json first = Json::Parse(ObservabilitySnapshot().Dump());
  counter.Increment(2);
  Json second = Json::Parse(ObservabilitySnapshot().Dump());
  const Json& a = first.At("counters");
  const Json& b = second.At("counters");
  EXPECT_EQ(b.At("test.monotonic.counter").AsU64(),
            a.At("test.monotonic.counter").AsU64() + 2);
  // Every counter present in the first snapshot is present in the second
  // with a value no smaller — the scrape-to-scrape contract collectors
  // compute rates from.
  // (Object iteration order is sorted, so mechanical comparison is stable.)
  for (const auto& name : {"cache.hit", "cache.miss", "serve.requests",
                           "serve.reach.requests", "serve.slow_queries"}) {
    ASSERT_TRUE(a.Contains(name)) << name;
    EXPECT_GE(b.At(name).AsU64(), a.At(name).AsU64()) << name;
  }
}

TEST(Metrics, WriteMetricsFileJsonAndPrometheus) {
  GetCounter("test.flush.counter").Increment(7);
  std::string json_path = TempPath("flatnet_metrics_test.json");
  std::string prom_path = TempPath("flatnet_metrics_test.prom");
  ASSERT_TRUE(WriteMetricsFile(json_path));
  ASSERT_TRUE(WriteMetricsFile(prom_path));

  std::ifstream json_in(json_path);
  std::string json_text((std::istreambuf_iterator<char>(json_in)),
                        std::istreambuf_iterator<char>());
  Json parsed = Json::Parse(json_text);
  EXPECT_GE(parsed.At("counters").At("test.flush.counter").AsU64(), 7u);

  std::ifstream prom_in(prom_path);
  std::string prom_text((std::istreambuf_iterator<char>(prom_in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(prom_text.find("flatnet_test_flush_counter"), std::string::npos);
  EXPECT_NE(prom_text.find("# TYPE"), std::string::npos);
  std::filesystem::remove(json_path);
  std::filesystem::remove(prom_path);
}

TEST(Metrics, FlusherRepublishesOnCadence) {
  std::string path = TempPath("flatnet_flusher_test.json");
  {
    MetricsFlusher flusher(path, 0.02);
    ASSERT_TRUE(flusher.active());
    for (int i = 0; i < 200 && flusher.flushes() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(flusher.flushes(), 2u);
  }  // destructor stops the thread and flushes final state
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_TRUE(Json::Parse(text).Contains("counters"));
  std::filesystem::remove(path);

  // Empty path or non-positive interval: inert, never writes.
  MetricsFlusher inert("", 1.0);
  EXPECT_FALSE(inert.active());
  MetricsFlusher zero(path, 0.0);
  EXPECT_FALSE(zero.active());
}

TEST(Recorder, RingWraparoundKeepsNewestEvents) {
  ResetRecorderForTest();
  EnableRecorder(true);
  constexpr std::uint64_t kTotal = kRecorderRingCapacity + 100;
  for (std::uint64_t i = 0; i < kTotal; ++i) RecordEvent("test.recorder.wrap", i);
  RecorderStats stats = GetRecorderStats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_GE(stats.recorded, kTotal);
  EXPECT_GE(stats.overwritten, 100u);

  auto events = CollectRecorderEvents(kRecorderRingCapacity);
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), kRecorderRingCapacity);
  std::uint64_t min_arg = ~0ull, max_arg = 0;
  for (const RecorderEvent& event : events) {
    ASSERT_EQ(std::string_view(event.name), "test.recorder.wrap");
    min_arg = std::min(min_arg, event.arg);
    max_arg = std::max(max_arg, event.arg);
  }
  // The oldest 100 events were overwritten; the newest survived.
  EXPECT_EQ(max_arg, kTotal - 1);
  EXPECT_GE(min_arg, 100u);
  // Merged snapshot is time-ordered.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_us, events[i].t_us);
  }
  EnableRecorder(false);
  ResetRecorderForTest();
}

TEST(Recorder, RecordsFromThreadPoolWorkers) {
  ResetRecorderForTest();
  EnableRecorder(true);
  {
    ThreadPool pool(4);
    pool.ParallelFor(0, 256, [](std::size_t i) {
      RecordEvent("test.recorder.worker", i);
    });
  }
  RecorderStats stats = GetRecorderStats();
  EXPECT_GE(stats.threads, 1u);
  auto events = CollectRecorderEvents(4096);
  std::size_t worker_events = 0;
  for (const RecorderEvent& event : events) {
    if (std::string_view(event.name) == "test.recorder.worker") ++worker_events;
  }
  EXPECT_EQ(worker_events, 256u);
  EnableRecorder(false);
  ResetRecorderForTest();
}

TEST(Recorder, JsonAndDumpFormatsAgree) {
  ResetRecorderForTest();
  EnableRecorder(true);
  for (std::uint64_t i = 0; i < 10; ++i) RecordEvent("test.recorder.json", i);

  Json doc = Json::Parse(RecorderJson(8).Dump());
  EXPECT_TRUE(doc.At("enabled").AsBool());
  ASSERT_EQ(doc.At("events").size(), 8u);
  EXPECT_GE(doc.At("dropped").AsU64(), 2u);  // 10 recorded, 8 returned
  EXPECT_GE(doc.At("threads").AsU64(), 1u);
  const Json& event = doc.At("events")[0];
  EXPECT_EQ(event.At("name").AsString(), "test.recorder.json");
  EXPECT_TRUE(event.Contains("t_us"));
  EXPECT_TRUE(event.Contains("seq"));
  EXPECT_TRUE(event.Contains("thread"));
  EXPECT_TRUE(event.Contains("arg"));

  // The on-demand dump uses the crash handler's renderer and format.
  std::string path = TempPath("flatnet_recorder_test.dump");
  ASSERT_TRUE(WriteRecorderDump(path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  EXPECT_EQ(line, "flatnet-flight-recorder v1");
  std::size_t event_lines = 0;
  std::string last;
  while (std::getline(in, line)) {
    if (line.rfind("event t_us=", 0) == 0) {
      ++event_lines;
      EXPECT_NE(line.find(" thread="), std::string::npos);
      EXPECT_NE(line.find(" seq="), std::string::npos);
      EXPECT_NE(line.find(" name="), std::string::npos);
    }
    last = line;
  }
  EXPECT_GE(event_lines, 10u);
  EXPECT_EQ(last, "end events=" + std::to_string(event_lines));
  std::filesystem::remove(path);
  EnableRecorder(false);
  ResetRecorderForTest();
}

TEST(Recorder, DisabledRecordsNothing) {
  ResetRecorderForTest();
  ASSERT_FALSE(RecorderEnabled());
  RecordEvent("test.recorder.disabled", 1);
  EXPECT_EQ(GetRecorderStats().recorded, 0u);
  EXPECT_TRUE(CollectRecorderEvents(16).empty());
  Json doc = Json::Parse(RecorderJson(16).Dump());
  EXPECT_FALSE(doc.At("enabled").AsBool());
  EXPECT_EQ(doc.At("events").size(), 0u);
}

TEST(ReqTrace, PhasesPartitionTheTimelineAndAccumulate) {
  using Clock = RequestTrace::Clock;
  Clock::time_point start = Clock::now();
  RequestTrace trace(start);
  trace.MarkAt("accept", start + std::chrono::microseconds(100));
  trace.MarkAt("parse", start + std::chrono::microseconds(300));
  // Consecutive same-name marks fold into one phase entry.
  trace.MarkAt("work", start + std::chrono::microseconds(800));
  trace.MarkAt("work", start + std::chrono::microseconds(1300));
  trace.MarkAt("serialize", start + std::chrono::microseconds(1400));

  const auto& phases = trace.phases();
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0].name, "accept");
  EXPECT_DOUBLE_EQ(phases[0].ms, 0.1);
  EXPECT_EQ(phases[1].name, "parse");
  EXPECT_DOUBLE_EQ(phases[1].ms, 0.2);
  EXPECT_EQ(phases[2].name, "work");
  EXPECT_DOUBLE_EQ(phases[2].ms, 1.0);  // 0.5 + 0.5 accumulated
  EXPECT_EQ(phases[3].name, "serialize");
  EXPECT_DOUBLE_EQ(trace.MarkedMs(), 1.4);

  Json timing = Json::Parse(trace.TimingJson().Dump());
  ASSERT_EQ(timing.At("phases").size(), 4u);
  EXPECT_EQ(timing.At("phases")[2].At("name").AsString(), "work");
  EXPECT_DOUBLE_EQ(timing.At("server_ms").AsNumber(), 1.4);

  std::string formatted = trace.Format();
  EXPECT_NE(formatted.find("accept="), std::string::npos);
  EXPECT_NE(formatted.find("work="), std::string::npos);
}

TEST(Campaign, MonitorTracksProgressEtaAndStragglers) {
  CampaignMonitor::Options options;
  options.component = "test.campaign";
  options.unit = "items";
  options.total_chunks = 20;
  options.workers = 2;
  options.heartbeat_ms = 0;  // keep the log quiet; metrics stay on
  CampaignMonitor monitor(options);
  Counter& stragglers = GetCounter("test.campaign.stragglers");
  std::uint64_t stragglers_before = stragglers.value();

  // Ten uniform 10 ms chunks: no stragglers, a clean mean and ETA.
  for (std::size_t i = 0; i < 10; ++i) monitor.ChunkDone(i, 10.0, 5);
  EXPECT_EQ(monitor.chunks_done(), 10u);
  EXPECT_DOUBLE_EQ(monitor.MeanChunkMs(), 10.0);
  // 10 chunks left at ~10 ms across 2 workers: 0.05 s.
  EXPECT_NEAR(monitor.EtaSeconds(), 0.05, 0.02);
  EXPECT_EQ(monitor.stragglers(), 0u);

  // A 500 ms chunk against a 10 ms mean (factor 50 > 4) is a straggler.
  monitor.ChunkDone(10, 500.0, 5);
  EXPECT_EQ(monitor.stragglers(), 1u);
  EXPECT_EQ(stragglers.value(), stragglers_before + 1);

  // Finish the campaign: ETA collapses to zero.
  for (std::size_t i = 11; i < 20; ++i) monitor.ChunkDone(i, 10.0, 5);
  EXPECT_DOUBLE_EQ(monitor.EtaSeconds(), 0.0);
  EXPECT_EQ(GetGauge("test.campaign.eta_s").value(), 0);
  // The chunk-latency histogram saw every chunk.
  EXPECT_EQ(GetHistogram("test.campaign.chunk_ms", {1.0}).count(), 20u);
}

TEST(Campaign, ResumedChunksCountTowardCompletion) {
  CampaignMonitor::Options options;
  options.component = "test.campaign.resume";
  options.total_chunks = 10;
  options.resumed_chunks = 8;
  options.heartbeat_ms = 0;
  CampaignMonitor monitor(options);
  monitor.ChunkDone(8, 100.0, 1);
  // One chunk left at ~100 ms, one worker: ~0.1 s.
  EXPECT_NEAR(monitor.EtaSeconds(), 0.1, 0.05);
  monitor.ChunkDone(9, 100.0, 1);
  EXPECT_DOUBLE_EQ(monitor.EtaSeconds(), 0.0);
}

TEST(Trace, SpanNestingTracksSelfTime) {
  ResetSpanStatsForTest();
  {
    TraceSpan outer("test.span.outer");
    Stopwatch busy;
    while (busy.ElapsedMillis() < 5) {
    }
    {
      TraceSpan inner("test.span.inner");
      Stopwatch inner_busy;
      while (inner_busy.ElapsedMillis() < 10) {
      }
    }
  }
  auto stats = SpanStatsSnapshot();
  ASSERT_EQ(stats.count("test.span.outer"), 1u);
  ASSERT_EQ(stats.count("test.span.inner"), 1u);
  const SpanStats& outer = stats["test.span.outer"];
  const SpanStats& inner = stats["test.span.inner"];
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  // Outer wall time covers the inner span; outer self time excludes it.
  EXPECT_GE(outer.total_seconds, inner.total_seconds);
  EXPECT_GE(inner.total_seconds, 0.010 * 0.5);
  EXPECT_LT(outer.self_seconds, outer.total_seconds - inner.total_seconds * 0.5);
  EXPECT_LE(outer.min_seconds, outer.max_seconds);
}

TEST(Trace, AggregatesAcrossRepeatsAndThreads) {
  ResetSpanStatsForTest();
  ThreadPool pool(4);
  pool.ParallelFor(0, 64, [&](std::size_t) { TraceSpan span("test.span.repeat"); });
  auto stats = SpanStatsSnapshot();
  ASSERT_EQ(stats.count("test.span.repeat"), 1u);
  EXPECT_EQ(stats["test.span.repeat"].count, 64u);
}

TEST(Trace, SnapshotAndSummaryTable) {
  ResetSpanStatsForTest();
  PreRegisterSpan("test.span.preregistered");
  { TraceSpan span("test.span.ran"); }
  Json spans = Json::Parse(SnapshotSpans().Dump());
  EXPECT_TRUE(spans.Contains("test.span.preregistered"));
  EXPECT_EQ(spans.At("test.span.preregistered").At("count").AsU64(), 0u);
  EXPECT_EQ(spans.At("test.span.ran").At("count").AsU64(), 1u);
  std::string table = SpanSummaryTable().ToString();
  EXPECT_NE(table.find("test.span.ran"), std::string::npos);
}

}  // namespace
}  // namespace flatnet::obs
