#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bgp/propagation.h"
#include "bgp/reachability.h"
#include "bgp/hegemony.h"
#include "core/reachability_analysis.h"
#include "failsim/engine.h"
#include "failsim/store.h"
#include "leaksim/engine.h"
#include "leaksim/store.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/cache.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sweep/engine.h"
#include "sweep/store.h"
#include "test_paths.h"
#include "topogen/generate.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/strings.h"

namespace flatnet {
namespace {

using serve::CacheKey;
using serve::Dispatcher;
using serve::DispatcherOptions;
using serve::ErrorCode;
using serve::ParseRequest;
using serve::ProtocolError;
using serve::QueryKind;
using serve::ReachMode;
using serve::Request;
using serve::ResultCache;

ErrorCode CodeOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ProtocolError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected ProtocolError";
  return ErrorCode::kInternal;
}

TEST(ServeProtocol, ParsesReachWithCanonicalLists) {
  Request request = ParseRequest(
      R"({"op":"reach","origin":15169,"mode":"tier1_free",)"
      R"("excluded":[9,3,9,5],"peer_locked":[7,2],"lock_mode":"direct_only",)"
      R"("id":42,"deadline_ms":500})");
  EXPECT_EQ(request.kind, QueryKind::kReach);
  EXPECT_EQ(request.origin, 15169u);
  EXPECT_EQ(request.mode, ReachMode::kTier1Free);
  EXPECT_EQ(request.excluded, (std::vector<Asn>{3, 5, 9}));  // sorted, deduped
  EXPECT_EQ(request.peer_locked, (std::vector<Asn>{2, 7}));
  EXPECT_EQ(request.lock_mode, PeerLockMode::kDirectOnly);
  EXPECT_EQ(request.deadline_ms, 500);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_EQ(CodeOf([] { ParseRequest("{not json"); }), ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"frobnicate"})"); }), ErrorCode::kUnknownOp);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"reach"})"); }), ErrorCode::kBadRequest);
  // Unknown keys fail loudly (typo protection), per-op.
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"reach","origin":1,"k":5})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"status","origin":1})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"leak","victim":4,"leaker":4})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"reach","origin":0})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(
      CodeOf([] { ParseRequest(R"({"op":"reach","origin":1,"deadline_ms":0})"); }),
      ErrorCode::kBadRequest);
}

TEST(ServeProtocol, ParsesTopRequests) {
  Request request = ParseRequest(R"({"op":"top","k":5,"metric":"tier1_free","id":1})");
  EXPECT_EQ(request.kind, QueryKind::kTop);
  EXPECT_EQ(request.top_k, 5u);
  EXPECT_EQ(request.metric, ReachMode::kTier1Free);

  // Defaults: k=10, hierarchy-free.
  Request bare = ParseRequest(R"({"op":"top"})");
  EXPECT_EQ(bare.top_k, 10u);
  EXPECT_EQ(bare.metric, ReachMode::kHierarchyFree);

  // "full" names no sweep column; unknown fields fail loudly; `top` is
  // inline and takes no deadline.
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"top","metric":"full"})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"top","origin":5})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"top","k":0})"); }), ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"top","deadline_ms":100})"); }),
            ErrorCode::kBadRequest);
  // Never cached: served inline from the precomputed ranking.
  EXPECT_TRUE(CacheKey(ParseRequest(R"({"op":"top","k":3})")).empty());
}

TEST(ServeProtocol, CacheKeyIgnoresIdAndDeadline) {
  Request a = ParseRequest(R"({"op":"reach","origin":7,"id":1,"deadline_ms":100})");
  Request b = ParseRequest(R"({"op":"reach","origin":7,"id":"xyz"})");
  EXPECT_EQ(CacheKey(a), CacheKey(b));

  Request c = ParseRequest(R"({"op":"reach","origin":7,"mode":"full"})");
  EXPECT_NE(CacheKey(a), CacheKey(c));

  // Differently-ordered input lists canonicalize to the same key.
  Request d = ParseRequest(R"({"op":"reach","origin":7,"excluded":[5,3]})");
  Request e = ParseRequest(R"({"op":"reach","origin":7,"excluded":[3,5,3]})");
  EXPECT_EQ(CacheKey(d), CacheKey(e));

  EXPECT_TRUE(CacheKey(ParseRequest(R"({"op":"status"})")).empty());
}

TEST(ServeProtocol, ResponseEnvelopeEmbedsResultVerbatim) {
  std::string cold = serve::OkResponse(Json(7), "{\"reachable\":12}", false);
  std::string warm = serve::OkResponse(Json(7), "{\"reachable\":12}", true);
  EXPECT_EQ(cold, R"({"cached":false,"id":7,"ok":true,"result":{"reachable":12}})");
  EXPECT_EQ(warm, R"({"cached":true,"id":7,"ok":true,"result":{"reachable":12}})");

  Json error = Json::Parse(serve::ErrorResponse(Json(), ErrorCode::kOverloaded, "busy"));
  EXPECT_FALSE(error.Get("ok").AsBool());
  EXPECT_EQ(error.Get("error").Get("code").AsString(), "overloaded");
  EXPECT_TRUE(error.Get("id").is_null());
}

TEST(ServeProtocol, ParsesMetricsDebugAndTimingKeys) {
  Request metrics = ParseRequest(R"({"op":"metrics","id":1})");
  EXPECT_EQ(metrics.kind, QueryKind::kMetrics);
  EXPECT_FALSE(metrics.prometheus);
  EXPECT_TRUE(ParseRequest(R"({"op":"metrics","format":"prometheus"})").prometheus);
  EXPECT_FALSE(ParseRequest(R"({"op":"metrics","format":"json"})").prometheus);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"metrics","format":"xml"})"); }),
            ErrorCode::kBadRequest);

  Request debug = ParseRequest(R"({"op":"debug","n":32})");
  EXPECT_EQ(debug.kind, QueryKind::kDebug);
  EXPECT_EQ(debug.debug_n, 32u);
  EXPECT_EQ(ParseRequest(R"({"op":"debug"})").debug_n, 256u);  // default
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"debug","n":0})"); }), ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"debug","n":200000})"); }),
            ErrorCode::kBadRequest);

  // `timing` is accepted on every op, must be boolean, and defaults off.
  EXPECT_TRUE(ParseRequest(R"({"op":"status","timing":true})").timing);
  EXPECT_TRUE(ParseRequest(R"({"op":"reach","origin":1,"timing":true})").timing);
  EXPECT_FALSE(ParseRequest(R"({"op":"reach","origin":1})").timing);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"reach","origin":1,"timing":1})"); }),
            ErrorCode::kBadRequest);

  // Introspection ops answer inline: never cached, no deadline.
  EXPECT_TRUE(CacheKey(ParseRequest(R"({"op":"metrics"})")).empty());
  EXPECT_TRUE(CacheKey(ParseRequest(R"({"op":"debug"})")).empty());
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"metrics","deadline_ms":5})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"debug","deadline_ms":5})"); }),
            ErrorCode::kBadRequest);

  // Asking for timing never forks the cache: same key with and without.
  EXPECT_EQ(CacheKey(ParseRequest(R"({"op":"reach","origin":7,"timing":true})")),
            CacheKey(ParseRequest(R"({"op":"reach","origin":7})")));
}

TEST(ServeProtocol, TimingFieldAppendsAfterResultKeepingSortedKeys) {
  std::string timing = R"({"phases":[],"server_ms":0.5})";
  std::string timed = serve::OkResponse(Json(7), "{\"reachable\":12}", false, &timing);
  EXPECT_EQ(timed,
            R"({"cached":false,"id":7,"ok":true,"result":{"reachable":12},)"
            R"("timing":{"phases":[],"server_ms":0.5}})");
  // A null timing pointer produces the exact untraced envelope.
  EXPECT_EQ(serve::OkResponse(Json(7), "{\"reachable\":12}", false, nullptr),
            serve::OkResponse(Json(7), "{\"reachable\":12}", false));
}

TEST(ServeCache, EvictsColdEntriesUnderByteBudget) {
  // One shard, budget for two ~111-byte entries (key + 10B value + 96
  // overhead); the third insert must evict the coldest.
  ResultCache cache(2 * (1 + 10 + 96), /*num_shards=*/1);
  const std::string value(10, 'v');
  cache.Put("a", value);
  cache.Put("b", value);
  ASSERT_TRUE(cache.Get("a").has_value());  // promotes "a"; "b" is now coldest
  cache.Put("c", value);
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());

  serve::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
}

TEST(ServeCache, OversizeResultsAreDroppedAndCounted) {
  // Budget fits one small entry; a value bigger than the whole shard
  // budget is dropped up front (counted, not churned through the LRU).
  ResultCache cache(1 + 10 + 96, /*num_shards=*/1);
  cache.Put("a", std::string(10, 'v'));
  cache.Put("b", std::string(4096, 'w'));
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());  // resident entries survive the drop

  serve::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.oversize, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);

  // An oversize result supersedes a stale cached value under the same key
  // rather than leaving the old bytes to be served.
  cache.Put("a", std::string(4096, 'w'));
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.Stats().oversize, 2u);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ServeCache, PutRefreshesExistingKey) {
  ResultCache cache(1 << 20, 1);
  cache.Put("k", "old");
  cache.Put("k", "new");
  EXPECT_EQ(cache.Get("k").value(), "new");
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(Cancel, TokenExpiryAndPropagationAbort) {
  CancelToken manual;
  EXPECT_FALSE(manual.Expired());
  manual.Cancel();
  EXPECT_TRUE(manual.Expired());
  EXPECT_THROW(manual.ThrowIfExpired("test"), CancelledError);

  CancelToken expired(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(expired.Expired());

  AsGraphBuilder builder;
  builder.AddEdge(1, 2, EdgeType::kP2C);
  builder.AddEdge(2, 3, EdgeType::kP2C);
  AsGraph graph = std::move(builder).Build();
  PropagationOptions options;
  options.cancel = &expired;
  AnnouncementSource source;
  source.node = *graph.IdOf(3);
  EXPECT_THROW(RouteComputation(graph, {source}, options), CancelledError);
}

class ServeDispatchTest : public ::testing::Test {
 protected:
  static const World& world() {
    static const World w = [] {
      GeneratorParams params = GeneratorParams::Era2015(600);
      params.seed = 1234;
      return GenerateWorld(params);
    }();
    return w;
  }
  static const Internet& internet() {
    static const Internet net(world().full_graph, world().tiers, world().metadata);
    return net;
  }
  static Dispatcher& dispatcher() {
    static Dispatcher d(internet(), DispatcherOptions{.threads = 2});
    return d;
  }
  static Json Ask(const std::string& line) {
    return Json::Parse(dispatcher().HandleSync(line));
  }
  static Asn AsnAt(AsId id) { return internet().graph().AsnOf(id); }
};

TEST_F(ServeDispatchTest, StatusReportsTopologyAndCache) {
  Json response = Ask(R"({"op":"status","id":"s"})");
  ASSERT_TRUE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("id").AsString(), "s");
  EXPECT_FALSE(response.Get("cached").AsBool());
  const Json& result = response.Get("result");
  EXPECT_EQ(result.Get("num_ases").AsU64(), internet().num_ases());
  EXPECT_EQ(result.Get("num_edges").AsU64(), internet().graph().num_edges());
  EXPECT_TRUE(result.Get("cache").Contains("hits"));
  EXPECT_TRUE(result.Get("metrics").Contains("counters"));
}

TEST_F(ServeDispatchTest, ReachColdThenCachedIsByteIdentical) {
  std::string line = StrFormat(
      R"({"op":"reach","origin":%u,"mode":"hierarchy_free","id":9})", AsnAt(17));
  std::string cold = dispatcher().HandleSync(line);
  std::string warm = dispatcher().HandleSync(line);
  Json cold_doc = Json::Parse(cold);
  Json warm_doc = Json::Parse(warm);
  ASSERT_TRUE(cold_doc.Get("ok").AsBool()) << cold;
  EXPECT_FALSE(cold_doc.Get("cached").AsBool());
  EXPECT_TRUE(warm_doc.Get("cached").AsBool());
  // The result payload embeds verbatim from the cache: everything after the
  // `result` key must match byte-for-byte.
  std::size_t cold_at = cold.find("\"result\":");
  std::size_t warm_at = warm.find("\"result\":");
  ASSERT_NE(cold_at, std::string::npos);
  EXPECT_EQ(cold.substr(cold_at), warm.substr(warm_at));

  // Cross-check against the independent valley-free BFS engine.
  AsId origin = 17;
  Bitset excluded = internet().HierarchyFreeExclusion(origin);
  std::size_t local = ReachableCount(internet().graph(), origin, &excluded);
  EXPECT_EQ(cold_doc.Get("result").Get("reachable").AsU64(), local);
  EXPECT_EQ(cold_doc.Get("result").Get("denominator").AsU64(), internet().num_ases() - 1);
}

TEST_F(ServeDispatchTest, TimingIsOptInAndWarmBytesAreStable) {
  std::string line = StrFormat(
      R"({"op":"reach","origin":%u,"mode":"hierarchy_free","id":8})", AsnAt(29));
  std::string cold = dispatcher().HandleSync(line);
  EXPECT_EQ(cold.find("\"timing\""), std::string::npos);
  std::string warm = dispatcher().HandleSync(line);
  ASSERT_TRUE(Json::Parse(warm).Get("cached").AsBool());
  EXPECT_EQ(warm.find("\"timing\""), std::string::npos);

  std::string timed_line = line;
  timed_line.insert(timed_line.size() - 1, R"(,"timing":true)");
  std::string timed = dispatcher().HandleSync(timed_line);
  Json timed_doc = Json::Parse(timed);
  ASSERT_TRUE(timed_doc.Get("ok").AsBool()) << timed;
  EXPECT_TRUE(timed_doc.Get("cached").AsBool());

  // The timed response is the warm response with `"timing"` appended before
  // the closing brace; everything before it is byte-identical.
  std::size_t at = timed.find(",\"timing\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(timed.substr(0, at) + "}", warm);

  // server_ms is exactly the sum of the reported phases.
  const Json& timing = timed_doc.Get("timing");
  const Json& phases = timing.Get("phases");
  ASSERT_GT(phases.size(), 0u);
  double sum = 0.0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_GE(phases[i].Get("ms").AsNumber(), 0.0);
    sum += phases[i].Get("ms").AsNumber();
  }
  EXPECT_NEAR(sum, timing.Get("server_ms").AsNumber(), 1e-6);
}

TEST_F(ServeDispatchTest, ColdTimedReachNamesThePipelinePhases) {
  std::string line =
      StrFormat(R"({"op":"reach","origin":%u,"timing":true,"id":9})", AsnAt(31));
  Json doc = Json::Parse(dispatcher().HandleSync(line));
  ASSERT_TRUE(doc.Get("ok").AsBool()) << doc.Dump();
  EXPECT_FALSE(doc.Get("cached").AsBool());
  const Json& phases = doc.Get("timing").Get("phases");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    names.push_back(phases[i].Get("name").AsString());
  }
  // The dispatcher pipeline: accept → parse → cache_probe → queue (pool
  // handoff, proving the trace followed the request onto a worker thread)
  // → setup → propagation phases from inside the engine → serialize.
  for (const char* expected : {"accept", "parse", "cache_probe", "queue", "setup",
                               "serialize"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), std::string(expected)), names.end())
        << expected << " missing from " << doc.Get("timing").Dump();
  }
  EXPECT_TRUE(std::any_of(names.begin(), names.end(), [](const std::string& n) {
    return n.rfind("propagation.", 0) == 0;
  })) << doc.Get("timing").Dump();
}

TEST_F(ServeDispatchTest, MetricsOpServesJsonAndPrometheus) {
  Json response = Ask(R"({"op":"metrics","id":"m"})");
  ASSERT_TRUE(response.Get("ok").AsBool());
  EXPECT_FALSE(response.Get("cached").AsBool());
  const Json& result = response.Get("result");
  EXPECT_EQ(result.Get("format").AsString(), "json");
  const Json& metrics = result.Get("metrics");
  EXPECT_TRUE(metrics.Get("counters").Contains("serve.requests"));
  EXPECT_TRUE(metrics.Get("counters").Contains("serve.metrics.requests"));
  EXPECT_TRUE(metrics.Contains("spans"));
  EXPECT_TRUE(metrics.Contains("histograms"));

  Json prom = Ask(R"({"op":"metrics","format":"prometheus","id":"p"})");
  ASSERT_TRUE(prom.Get("ok").AsBool());
  const Json& prom_result = prom.Get("result");
  EXPECT_EQ(prom_result.Get("format").AsString(), "prometheus");
  EXPECT_EQ(prom_result.Get("content_type").AsString(), "text/plain; version=0.0.4");
  std::string text = prom_result.Get("text").AsString();
  EXPECT_NE(text.find("flatnet_serve_requests"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le="), std::string::npos);
}

TEST_F(ServeDispatchTest, DebugOpReturnsFlightRecorderSnapshot) {
  obs::ResetRecorderForTest();
  obs::EnableRecorder(true);
  for (std::uint64_t i = 0; i < 20; ++i) obs::RecordEvent("serve.test.event", i);
  Json response = Ask(R"({"op":"debug","n":16,"id":"d"})");
  obs::EnableRecorder(false);
  ASSERT_TRUE(response.Get("ok").AsBool());
  const Json& result = response.Get("result");
  EXPECT_TRUE(result.Get("enabled").AsBool());
  ASSERT_EQ(result.Get("events").size(), 16u);
  std::size_t ours = 0;
  for (std::size_t i = 0; i < result.Get("events").size(); ++i) {
    if (result.Get("events")[i].Get("name").AsString() == "serve.test.event") ++ours;
  }
  EXPECT_GT(ours, 0u);
  obs::ResetRecorderForTest();
}

TEST_F(ServeDispatchTest, StatusReportsPerOpCountersHitRatioAndUptime) {
  std::string line = StrFormat(R"({"op":"reach","origin":%u,"id":1})", AsnAt(47));
  Json before = Ask(R"({"op":"status"})").Get("result");
  dispatcher().HandleSync(line);  // cold: cache miss
  dispatcher().HandleSync(line);  // warm: cache hit
  Json after = Ask(R"({"op":"status"})").Get("result");

  const Json& ops = after.Get("ops");
  for (const char* op : {"reach", "reliance", "leak", "status", "top", "leakdist",
                         "metrics", "debug", "hegemony", "failure"}) {
    ASSERT_TRUE(ops.Contains(op)) << op;
    EXPECT_TRUE(ops.Get(op).Contains("requests")) << op;
    EXPECT_TRUE(ops.Get(op).Contains("errors")) << op;
  }
  // Counters are process-global, so compare deltas, not absolutes.
  EXPECT_GE(ops.Get("reach").Get("requests").AsU64(),
            before.Get("ops").Get("reach").Get("requests").AsU64() + 2);
  EXPECT_GE(ops.Get("status").Get("requests").AsU64(), 2u);

  const Json& cache = after.Get("cache");
  EXPECT_GT(cache.Get("hit_ratio").AsNumber(), 0.0);
  EXPECT_LE(cache.Get("hit_ratio").AsNumber(), 1.0);
  EXPECT_GT(after.Get("uptime_s").AsNumber(), 0.0);
  EXPECT_EQ(after.Get("slow_query_ms").AsNumber(), 0.0);  // fixture is unarmed
}

TEST_F(ServeDispatchTest, SlowQueryThresholdCountsSlowRequests) {
  DispatcherOptions options{.threads = 1};
  options.slow_query_ms = 1;
  Dispatcher slow(internet(), options);
  obs::Counter& slow_queries = obs::GetCounter("serve.slow_queries");
  std::uint64_t before = slow_queries.value();
  // The traced timeline ends at the `write` phase, marked after the
  // response is handed off — a slow consumer deterministically pushes the
  // request past the 1 ms threshold.
  slow.Handle(R"({"op":"status","id":"s"})", [](std::string response) {
    EXPECT_EQ(response.find("\"timing\""), std::string::npos);  // opt-in only
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  EXPECT_EQ(slow_queries.value(), before + 1);
}

TEST_F(ServeDispatchTest, SlowQueryArmingKeepsResponseBytesIdentical) {
  DispatcherOptions options{.threads = 2};
  options.slow_query_ms = 1000000;  // armed but never tripped
  Dispatcher armed(internet(), options);
  std::string line = StrFormat(R"({"op":"reach","origin":%u,"id":1})", AsnAt(41));
  std::string traced = armed.HandleSync(line);
  std::string untraced = dispatcher().HandleSync(line);
  // Both cold (separate caches): arming the slow-query log traces
  // internally but must not change a single byte on the wire.
  EXPECT_EQ(traced, untraced);
  EXPECT_EQ(traced.find("\"timing\""), std::string::npos);
}

TEST_F(ServeDispatchTest, RelianceReturnsSortedTopK) {
  Json response =
      Ask(StrFormat(R"({"op":"reliance","origin":%u,"k":5,"id":1})", AsnAt(23)));
  ASSERT_TRUE(response.Get("ok").AsBool());
  const Json& top = response.Get("result").Get("top");
  ASSERT_LE(top.size(), 5u);
  ASSERT_GT(top.size(), 0u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].Get("reliance").AsNumber(), top[i].Get("reliance").AsNumber());
  }
}

TEST_F(ServeDispatchTest, LeakFromDirectNeighborDetoursSomeone) {
  // A neighbor of the victim always holds a (direct) route, so the leak is
  // well-defined.
  AsId victim = 0;
  ASSERT_GT(internet().graph().Degree(victim), 0u);
  AsId leaker = internet().graph().NeighborsOf(victim)[0].id;
  Json response = Ask(StrFormat(R"({"op":"leak","victim":%u,"leaker":%u,"id":2})",
                                AsnAt(victim), AsnAt(leaker)));
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  const Json& result = response.Get("result");
  EXPECT_GE(result.Get("fraction_ases").AsNumber(), 0.0);
  EXPECT_LE(result.Get("fraction_ases").AsNumber(), 1.0);
  EXPECT_EQ(result.Get("model").AsString(), "reannounce");
}

TEST_F(ServeDispatchTest, TopWithoutStoreIsBadRequest) {
  Json response = Ask(R"({"op":"top","k":3,"id":"t"})");
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("error").Get("code").AsString(), "bad_request");
  // And status reports the absence.
  Json status = Ask(R"({"op":"status","id":"s"})");
  EXPECT_FALSE(status.Get("result").Get("sweep_store").Get("loaded").AsBool());
}

TEST_F(ServeDispatchTest, TopServesRankedPrefixFromAttachedStore) {
  // A dispatcher of its own, so the fixture dispatcher stays storeless.
  Dispatcher d(internet(), DispatcherOptions{.threads = 2});
  sweep::SweepOptions options;
  options.threads = 2;
  d.AttachSweepStore(
      [&] {
        sweep::SweepStore store;
        std::string path = TempPath("flatnet_serve_top.sweep");
        sweep::WriteSweepStore(path, sweep::RunSweep(internet(), options));
        store = sweep::SweepStore::Load(path);
        std::filesystem::remove(path);
        return store;
      }(),
      "flatnet_serve_top.sweep");
  ASSERT_TRUE(d.has_sweep_store());

  Json response =
      Json::Parse(d.HandleSync(R"({"op":"top","k":5,"metric":"hierarchy_free","id":7})"));
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  const Json& result = response.Get("result");
  EXPECT_EQ(result.Get("metric").AsString(), "hierarchy_free");
  EXPECT_EQ(result.Get("k").AsU64(), 5u);
  const Json& top = result.Get("top");
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].Get("reach").AsU64(), top[i].Get("reach").AsU64());
  }
  // The #1 entry is the true maximum of the serial sweep.
  std::vector<std::uint32_t> serial = HierarchyFreeSweep(internet());
  EXPECT_EQ(top[0].Get("reach").AsU64(),
            *std::max_element(serial.begin(), serial.end()));

  // Status advertises the store so clients (loadgen) can gate `top`.
  Json status = Json::Parse(d.HandleSync(R"({"op":"status","id":"s"})"));
  const Json& sweep_store = status.Get("result").Get("sweep_store");
  EXPECT_TRUE(sweep_store.Get("loaded").AsBool());
  EXPECT_EQ(sweep_store.Get("num_origins").AsU64(), internet().num_ases());

  // A store without the requested column answers bad_request, not zeros.
  Json missing =
      Json::Parse(d.HandleSync(R"({"op":"top","metric":"provider_free","id":8})"));
  EXPECT_TRUE(missing.Get("ok").AsBool());  // default sweep has all reach columns
}

TEST_F(ServeDispatchTest, AttachRejectsMismatchedStore) {
  GeneratorParams params = GeneratorParams::Era2015(300);
  params.seed = 4321;
  World other = GenerateWorld(params);
  Internet other_net(other.full_graph, other.tiers, other.metadata);
  sweep::SweepOptions options;
  options.threads = 2;
  sweep::SweepTable table = sweep::RunSweep(other_net, options);
  std::string path = TempPath("flatnet_serve_mismatch.sweep");
  sweep::WriteSweepStore(path, table);
  sweep::SweepStore store = sweep::SweepStore::Load(path);
  std::filesystem::remove(path);

  Dispatcher d(internet(), DispatcherOptions{.threads = 1});
  EXPECT_THROW(d.AttachSweepStore(std::move(store), path), Error);
  EXPECT_FALSE(d.has_sweep_store());
}

TEST(ServeProtocol, ParsesLeakDistRequests) {
  Request request = ParseRequest(
      R"({"op":"leakdist","victim":15169,"scenario":"t1t2","lock_mode":"direct_only",)"
      R"("model":"originate","q":[0.5,0.99],"id":3})");
  EXPECT_EQ(request.kind, QueryKind::kLeakDist);
  EXPECT_EQ(request.victim, 15169u);
  EXPECT_EQ(request.scenario, LeakScenario::kAnnounceAllLockT1T2);
  EXPECT_EQ(request.lock_mode, PeerLockMode::kDirectOnly);
  EXPECT_EQ(request.model, LeakModel::kOriginate);
  EXPECT_EQ(request.quantiles, (std::vector<double>{0.5, 0.99}));

  // Defaults: announce-to-all, erratum locking, re-announce model, and the
  // server-side default quantile set (empty list here).
  Request bare = ParseRequest(R"({"op":"leakdist","victim":7})");
  EXPECT_EQ(bare.scenario, LeakScenario::kAnnounceAll);
  EXPECT_EQ(bare.lock_mode, PeerLockMode::kFull);
  EXPECT_EQ(bare.model, LeakModel::kReannounce);
  EXPECT_TRUE(bare.quantiles.empty());

  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"leakdist"})"); }), ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"leakdist","victim":7,"scenario":"all"})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"leakdist","victim":7,"q":[]})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"leakdist","victim":7,"q":[1.5]})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"leakdist","victim":7,"leaker":9})"); }),
            ErrorCode::kBadRequest);
  // Served inline from the attached store: no deadline, never cached.
  EXPECT_EQ(
      CodeOf([] { ParseRequest(R"({"op":"leakdist","victim":7,"deadline_ms":100})"); }),
      ErrorCode::kBadRequest);
  EXPECT_TRUE(CacheKey(ParseRequest(R"({"op":"leakdist","victim":7})")).empty());
}

TEST_F(ServeDispatchTest, LeakDistWithoutStoreIsBadRequest) {
  Json response = Ask(StrFormat(R"({"op":"leakdist","victim":%u,"id":"l"})", AsnAt(3)));
  EXPECT_FALSE(response.Get("ok").AsBool());
  EXPECT_EQ(response.Get("error").Get("code").AsString(), "bad_request");
  Json status = Ask(R"({"op":"status","id":"s"})");
  EXPECT_FALSE(status.Get("result").Get("leak_store").Get("loaded").AsBool());
}

TEST_F(ServeDispatchTest, LeakDistServesQuantilesFromAttachedStore) {
  // Build a small two-cell campaign, round-trip it through a store file,
  // and attach it to a fresh dispatcher.
  AsId victim = world().tiers.tier2[0];
  std::vector<leaksim::LeakCellSpec> cells;
  for (LeakScenario scenario :
       {LeakScenario::kAnnounceAll, LeakScenario::kAnnounceAllLockT1T2}) {
    leaksim::LeakCellSpec spec;
    spec.victim = victim;
    spec.scenario = scenario;
    spec.seed = 0x1d;
    spec.trials = 40;
    cells.push_back(spec);
  }
  leaksim::LeakTable table = leaksim::RunLeakCampaign(internet(), cells);
  std::string path = TempPath("flatnet_serve_leakdist.leak");
  leaksim::WriteLeakStore(path, table);

  Dispatcher d(internet(), DispatcherOptions{.threads = 2});
  d.AttachLeakStore(leaksim::LeakStore::Load(path), path);
  std::filesystem::remove(path);
  ASSERT_TRUE(d.has_leak_store());

  Json response = Json::Parse(d.HandleSync(StrFormat(
      R"({"op":"leakdist","victim":%u,"scenario":"t1t2","q":[0.9],"id":7})", AsnAt(victim))));
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  const Json& result = response.Get("result");
  EXPECT_EQ(result.Get("scenario").AsString(), "t1t2");
  EXPECT_EQ(result.Get("collected").AsU64(), table.cells[1].collected());
  EXPECT_EQ(result.Get("requested").AsU64(), 40u);
  EXPECT_FALSE(result.Get("under_collected").AsBool());
  const Json& quantiles = result.Get("quantiles");
  ASSERT_EQ(quantiles.size(), 1u);
  EXPECT_DOUBLE_EQ(quantiles[0].Get("q").AsNumber(), 0.9);
  // The served quantile is the shared nearest-rank statistic of the cell.
  EXPECT_DOUBLE_EQ(quantiles[0].Get("value").AsNumber(),
                   Quantile(table.cells[1].fraction_ases, 0.9));

  // A tuple the campaign never ran answers bad_request, not zeros.
  Json missing = Json::Parse(d.HandleSync(StrFormat(
      R"({"op":"leakdist","victim":%u,"scenario":"global","id":8})", AsnAt(victim))));
  EXPECT_FALSE(missing.Get("ok").AsBool());
  EXPECT_EQ(missing.Get("error").Get("code").AsString(), "bad_request");

  // Status advertises the store and its victims so clients can gate.
  Json status = Json::Parse(d.HandleSync(R"({"op":"status","id":"s"})"));
  const Json& leak_store = status.Get("result").Get("leak_store");
  EXPECT_TRUE(leak_store.Get("loaded").AsBool());
  EXPECT_EQ(leak_store.Get("cells").AsU64(), 2u);
  ASSERT_EQ(leak_store.Get("victims").size(), 1u);
  EXPECT_EQ(leak_store.Get("victims")[0].AsU64(), AsnAt(victim));
}

TEST_F(ServeDispatchTest, AttachRejectsMismatchedLeakStore) {
  GeneratorParams params = GeneratorParams::Era2015(300);
  params.seed = 4321;
  World other = GenerateWorld(params);
  Internet other_net(other.full_graph, other.tiers, other.metadata);
  leaksim::LeakCellSpec spec;
  spec.victim = other.tiers.tier1[0];
  spec.seed = 2;
  spec.trials = 5;
  leaksim::LeakTable table = leaksim::RunLeakCampaign(other_net, {spec});
  std::string path = TempPath("flatnet_serve_leak_mismatch.leak");
  leaksim::WriteLeakStore(path, table);
  leaksim::LeakStore store = leaksim::LeakStore::Load(path);
  std::filesystem::remove(path);

  Dispatcher d(internet(), DispatcherOptions{.threads = 1});
  EXPECT_THROW(d.AttachLeakStore(std::move(store), path), Error);
  EXPECT_FALSE(d.has_leak_store());
}

TEST(ServeProtocol, ParsesHegemonyAndFailureRequests) {
  Request hegemony = ParseRequest(R"({"op":"hegemony","origin":15169,"k":5,"id":1})");
  EXPECT_EQ(hegemony.kind, QueryKind::kHegemony);
  EXPECT_EQ(hegemony.origin, 15169u);
  EXPECT_EQ(hegemony.top_k, 5u);
  EXPECT_TRUE(CacheKey(hegemony).empty());

  Request failure = ParseRequest(
      R"({"op":"failure","origin":7,"scenario":"hegemony_cascade",)"
      R"("column":"disconnected","q":[0.5],"id":2})");
  EXPECT_EQ(failure.kind, QueryKind::kFailure);
  EXPECT_EQ(failure.fail_scenario, failsim::FailScenario::kHegemonyCascade);
  EXPECT_EQ(failure.fail_column, serve::FailColumn::kDisconnected);
  EXPECT_EQ(failure.quantiles, (std::vector<double>{0.5}));
  EXPECT_TRUE(CacheKey(failure).empty());

  // Defaults: single_as knockouts, the AS-fraction column, the
  // server-side quantile set (empty list here).
  Request bare = ParseRequest(R"({"op":"failure","origin":7})");
  EXPECT_EQ(bare.fail_scenario, failsim::FailScenario::kSingleAs);
  EXPECT_EQ(bare.fail_column, serve::FailColumn::kLossAses);
  EXPECT_TRUE(bare.quantiles.empty());

  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"hegemony"})"); }), ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"hegemony","origin":7,"k":0})"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"failure"})"); }), ErrorCode::kBadRequest);
  EXPECT_EQ(
      CodeOf([] { ParseRequest(R"({"op":"failure","origin":7,"scenario":"meteor"})"); }),
      ErrorCode::kBadRequest);
  EXPECT_EQ(CodeOf([] { ParseRequest(R"({"op":"failure","origin":7,"column":"vibes"})"); }),
            ErrorCode::kBadRequest);
  // Served inline from the attached store: no deadline, never cached.
  EXPECT_EQ(
      CodeOf([] { ParseRequest(R"({"op":"hegemony","origin":7,"deadline_ms":100})"); }),
      ErrorCode::kBadRequest);
}

TEST_F(ServeDispatchTest, HegemonyAndFailureWithoutStoreAreBadRequests) {
  for (const char* format : {R"({"op":"hegemony","origin":%u,"id":"h"})",
                             R"({"op":"failure","origin":%u,"id":"f"})"}) {
    Json response = Ask(StrFormat(format, AsnAt(3)));
    EXPECT_FALSE(response.Get("ok").AsBool()) << format;
    EXPECT_EQ(response.Get("error").Get("code").AsString(), "bad_request") << format;
  }
  Json status = Ask(R"({"op":"status","id":"s"})");
  EXPECT_FALSE(status.Get("result").Get("fail_store").Get("loaded").AsBool());
}

TEST_F(ServeDispatchTest, HegemonyAndFailureServeFromAttachedStore) {
  // Build a small two-cell campaign, round-trip it through a store file,
  // and attach it to a fresh dispatcher.
  AsId origin = world().tiers.tier2[0];
  std::vector<failsim::FailCellSpec> cells;
  for (failsim::FailScenario scenario :
       {failsim::FailScenario::kSingleAs, failsim::FailScenario::kTier1}) {
    failsim::FailCellSpec spec;
    spec.origin = origin;
    spec.scenario = scenario;
    spec.seed = 0x2f;
    spec.trials = 12;
    cells.push_back(spec);
  }
  failsim::FailTable table = failsim::RunFailureCampaign(internet(), cells);
  std::string path = TempPath("flatnet_serve_failure.fail");
  failsim::WriteFailStore(path, table);

  Dispatcher d(internet(), DispatcherOptions{.threads = 2});
  d.AttachFailStore(failsim::FailStore::Load(path), path);
  std::filesystem::remove(path);
  ASSERT_TRUE(d.has_fail_store());

  // The served hegemony prefix is the deterministic ranking recomputed on
  // the same topology — the store only gates which origins are available.
  RouteComputation computation(internet().graph(), {{.node = origin}});
  HegemonyResult hegemony = ComputeHegemony(computation);
  std::vector<AsId> ranking = HegemonyRanking(hegemony);
  ASSERT_GE(ranking.size(), 3u);
  Json response = Json::Parse(d.HandleSync(
      StrFormat(R"({"op":"hegemony","origin":%u,"k":3,"id":1})", AsnAt(origin))));
  ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
  const Json& top = response.Get("result").Get("top");
  ASSERT_EQ(top.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top[i].Get("asn").AsU64(), AsnAt(ranking[i])) << "rank " << i;
    EXPECT_DOUBLE_EQ(top[i].Get("hegemony").AsNumber(), hegemony.hegemony[ranking[i]])
        << "rank " << i;
  }
  EXPECT_EQ(response.Get("result").Get("num_viewpoints").AsU64(), hegemony.num_viewpoints);

  // An origin the campaign never ran answers bad_request even with the
  // store attached.
  Json unknown = Json::Parse(d.HandleSync(StrFormat(
      R"({"op":"hegemony","origin":%u,"id":2})", AsnAt(world().tiers.tier2[1]))));
  EXPECT_FALSE(unknown.Get("ok").AsBool());
  EXPECT_EQ(unknown.Get("error").Get("code").AsString(), "bad_request");

  // The served failure quantile is the shared nearest-rank statistic of
  // the cell.
  Json failure = Json::Parse(d.HandleSync(
      StrFormat(R"({"op":"failure","origin":%u,"scenario":"tier1","q":[0.9],"id":3})",
                AsnAt(origin))));
  ASSERT_TRUE(failure.Get("ok").AsBool()) << failure.Dump();
  const Json& result = failure.Get("result");
  EXPECT_EQ(result.Get("scenario").AsString(), "tier1");
  EXPECT_EQ(result.Get("collected").AsU64(), table.cells[1].collected());
  EXPECT_EQ(result.Get("baseline").AsU64(), table.cells[1].baseline);
  ASSERT_EQ(result.Get("quantiles").size(), 1u);
  EXPECT_DOUBLE_EQ(result.Get("quantiles")[0].Get("q").AsNumber(), 0.9);
  EXPECT_DOUBLE_EQ(result.Get("quantiles")[0].Get("value").AsNumber(),
                   Quantile(table.cells[1].loss_ases, 0.9));

  // A scenario the campaign never ran, and the user-weighted column of a
  // store built without --users, both answer structured errors.
  Json missing = Json::Parse(d.HandleSync(StrFormat(
      R"({"op":"failure","origin":%u,"scenario":"link_set","id":4})", AsnAt(origin))));
  EXPECT_FALSE(missing.Get("ok").AsBool());
  EXPECT_EQ(missing.Get("error").Get("code").AsString(), "bad_request");
  Json no_users = Json::Parse(d.HandleSync(StrFormat(
      R"({"op":"failure","origin":%u,"column":"loss_users","id":5})", AsnAt(origin))));
  EXPECT_FALSE(no_users.Get("ok").AsBool());
  EXPECT_EQ(no_users.Get("error").Get("code").AsString(), "bad_request");

  // Status advertises the store, its origins, and its scenarios so
  // clients (the loadgen capability probe) can gate.
  Json status = Json::Parse(d.HandleSync(R"({"op":"status","id":"s"})"));
  const Json& fail_store = status.Get("result").Get("fail_store");
  EXPECT_TRUE(fail_store.Get("loaded").AsBool());
  EXPECT_EQ(fail_store.Get("cells").AsU64(), 2u);
  EXPECT_FALSE(fail_store.Get("has_users").AsBool());
  ASSERT_EQ(fail_store.Get("origins").size(), 1u);
  EXPECT_EQ(fail_store.Get("origins")[0].AsU64(), AsnAt(origin));
  ASSERT_EQ(fail_store.Get("scenarios").size(), 2u);
  EXPECT_EQ(fail_store.Get("scenarios")[0].AsString(), "single_as");
  EXPECT_EQ(fail_store.Get("scenarios")[1].AsString(), "tier1");
}

TEST_F(ServeDispatchTest, AttachRejectsMismatchedFailStore) {
  GeneratorParams params = GeneratorParams::Era2015(300);
  params.seed = 4321;
  World other = GenerateWorld(params);
  Internet other_net(other.full_graph, other.tiers, other.metadata);
  failsim::FailCellSpec spec;
  spec.origin = other.tiers.tier1[0];
  spec.seed = 2;
  spec.trials = 5;
  failsim::FailTable table = failsim::RunFailureCampaign(other_net, {spec});
  std::string path = TempPath("flatnet_serve_fail_mismatch.fail");
  failsim::WriteFailStore(path, table);
  failsim::FailStore store = failsim::FailStore::Load(path);
  std::filesystem::remove(path);

  Dispatcher d(internet(), DispatcherOptions{.threads = 1});
  EXPECT_THROW(d.AttachFailStore(std::move(store), path), Error);
  EXPECT_FALSE(d.has_fail_store());
}

TEST_F(ServeDispatchTest, ErrorsCarryStructuredCodes) {
  Json unknown = Ask(R"({"op":"reach","origin":4199999999,"id":3})");
  EXPECT_FALSE(unknown.Get("ok").AsBool());
  EXPECT_EQ(unknown.Get("error").Get("code").AsString(), "unknown_asn");
  EXPECT_EQ(unknown.Get("id").AsU64(), 3u);

  Json malformed = Ask("}{");
  EXPECT_FALSE(malformed.Get("ok").AsBool());
  EXPECT_EQ(malformed.Get("error").Get("code").AsString(), "bad_request");
  EXPECT_TRUE(malformed.Get("id").is_null());

  Json excluded_origin = Ask(StrFormat(
      R"({"op":"reach","origin":%u,"excluded":[%u],"id":4})", AsnAt(5), AsnAt(5)));
  EXPECT_EQ(excluded_origin.Get("error").Get("code").AsString(), "bad_request");
}

TEST_F(ServeDispatchTest, AdmissionControlShedsLoadWhenSaturated) {
  // max_inflight = 0: every computed query is rejected as overloaded, but
  // status (answered inline) still works — the health check stays alive
  // under load shedding.
  Dispatcher throttled(internet(), DispatcherOptions{.threads = 2, .max_inflight = 0});
  Json rejected =
      Json::Parse(throttled.HandleSync(StrFormat(R"({"op":"reach","origin":%u})", AsnAt(1))));
  EXPECT_FALSE(rejected.Get("ok").AsBool());
  EXPECT_EQ(rejected.Get("error").Get("code").AsString(), "overloaded");
  Json status = Json::Parse(throttled.HandleSync(R"({"op":"status"})"));
  EXPECT_TRUE(status.Get("ok").AsBool());
}

TEST_F(ServeDispatchTest, DeadlineAlreadyExpiredIsRejected) {
  // A 1 ms default deadline with a long queue wait is racy; instead prove
  // the deadline path end-to-end with the smallest legal budget on a
  // dispatcher whose pool is blocked, so the token expires while queued.
  DispatcherOptions options{.threads = 2, .max_inflight = 8};
  Dispatcher slow(internet(), options);
  // Saturate the pool with a long-running query so the probe queues.
  std::atomic<int> done{0};
  for (int i = 0; i < 2; ++i) {
    slow.Handle(StrFormat(R"({"op":"reliance","origin":%u,"k":1000,"id":%d})",
                          AsnAt(100 + i), i),
                [&](std::string) { done.fetch_add(1); });
  }
  std::string response = slow.HandleSync(
      StrFormat(R"({"op":"reach","origin":%u,"deadline_ms":1,"id":"d"})", AsnAt(200)));
  slow.Drain();
  Json doc = Json::Parse(response);
  // Either the probe beat the deadline (fast machine) or it was abandoned;
  // both are legal, but an abandoned probe must carry the structured code.
  if (!doc.Get("ok").is_null() && !doc.Get("ok").AsBool()) {
    EXPECT_EQ(doc.Get("error").Get("code").AsString(), "deadline_exceeded");
  }
}

TEST(ServeServer, SocketRoundTripAndGracefulShutdown) {
  GeneratorParams params = GeneratorParams::Era2015(400);
  params.seed = 77;
  World w = GenerateWorld(params);
  Internet internet(w.full_graph, w.tiers, w.metadata);
  Dispatcher dispatcher(internet, DispatcherOptions{.threads = 2});
  serve::ServerOptions options;
  serve::Server server(dispatcher, options);
  ASSERT_GT(server.port(), 0u);
  std::thread serving([&] { server.Run(); });

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string request = StrFormat("{\"op\":\"reach\",\"origin\":%u,\"id\":1}\n",
                                  internet.graph().AsnOf(3));
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    response.append(chunk, static_cast<std::size_t>(n));
  }
  Json doc = Json::Parse(response.substr(0, response.find('\n')));
  EXPECT_TRUE(doc.Get("ok").AsBool()) << response;
  EXPECT_EQ(doc.Get("id").AsU64(), 1u);

  server.RequestShutdown();
  serving.join();  // graceful drain completes
  ::close(fd);
}

}  // namespace
}  // namespace flatnet
