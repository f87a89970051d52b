#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "failsim/engine.h"
#include "failsim/store.h"
#include "fleet/backend.h"
#include "fleet/hedge.h"
#include "fleet/merge.h"
#include "fleet/ring.h"
#include "fleet/router.h"
#include "leaksim/engine.h"
#include "leaksim/store.h"
#include "serve/dispatcher.h"
#include "serve/server.h"
#include "sweep/engine.h"
#include "sweep/store.h"
#include "test_paths.h"
#include "topogen/generate.h"
#include "util/error.h"
#include "util/json.h"
#include "util/strings.h"

namespace flatnet {
namespace {

using serve::Dispatcher;
using serve::DispatcherOptions;

// --------------------------------------------------------------------------
// Ring: cross-process ownership agreement is the fleet's only coordination
// mechanism, so determinism and exact hash-space coverage are load-bearing.

TEST(FleetRing, RejectsEmptyConfiguration) {
  EXPECT_THROW(fleet::Ring(0, 8), InvalidArgument);
  EXPECT_THROW(fleet::Ring(3, 0), InvalidArgument);
}

TEST(FleetRing, OwnershipIsDeterministicAcrossInstances) {
  fleet::Ring a(4, 64);
  fleet::Ring b(4, 64);
  std::vector<bool> owned(4, false);
  for (std::uint32_t asn = 1; asn <= 2000; ++asn) {
    std::size_t owner = a.Owner(asn);
    ASSERT_LT(owner, 4u);
    EXPECT_EQ(owner, b.Owner(asn));
    owned[owner] = true;
  }
  // 64 vnodes per shard spread 2000 keys over every shard.
  for (std::size_t shard = 0; shard < 4; ++shard) EXPECT_TRUE(owned[shard]);
}

TEST(FleetRing, RangesPartitionTheHashSpaceExactly) {
  fleet::Ring ring(5, 16);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> all;
  std::vector<std::size_t> range_owner;
  for (std::size_t shard = 0; shard < 5; ++shard) {
    for (const auto& range : ring.RangesOf(shard)) {
      all.push_back(range);
      range_owner.push_back(shard);
    }
  }
  // Sort the intervals; an exact partition is contiguous from 0 to 2^64-1
  // with no gap and no overlap (a wrapping interval arrives pre-split).
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return all[a].first < all[b].first; });
  EXPECT_EQ(all[order.front()].first, 0u);
  EXPECT_EQ(all[order.back()].second, ~std::uint64_t{0});
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_EQ(all[order[i]].first, all[order[i - 1]].second + 1);
  }
  // Membership agrees with Owner: each ASN's hash lands in an interval of
  // the shard Owner names.
  for (std::uint32_t asn = 1; asn <= 200; ++asn) {
    std::uint64_t h = fleet::Mix64(asn);
    std::size_t owner = ring.Owner(asn);
    bool contained = false;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (h >= all[i].first && h <= all[i].second) {
        EXPECT_EQ(range_owner[i], owner) << "asn " << asn;
        contained = true;
      }
    }
    EXPECT_TRUE(contained) << "asn " << asn;
  }
}

TEST(FleetRing, FirstLiveFailsOverAndNextLiveExcludesPrimary) {
  fleet::Ring ring(4, 64);
  std::vector<bool> alive(4, true);
  for (std::uint32_t asn = 1; asn <= 200; ++asn) {
    EXPECT_EQ(ring.FirstLive(asn, alive), ring.Owner(asn));
    std::size_t hedge = ring.NextLiveDistinct(asn, ring.Owner(asn), alive);
    EXPECT_NE(hedge, ring.Owner(asn));
    EXPECT_LT(hedge, 4u);
  }

  const std::uint32_t asn = 7;
  const std::size_t owner = ring.Owner(asn);
  std::vector<bool> owner_dead(4, true);
  owner_dead[owner] = false;
  std::size_t failover = ring.FirstLive(asn, owner_dead);
  EXPECT_NE(failover, owner);
  EXPECT_TRUE(owner_dead[failover]);
  // The failover target is the shard that inherits the owner's range — the
  // same shard a hedge against the (excluded) owner would pick.
  EXPECT_EQ(failover, ring.NextLiveDistinct(asn, owner, owner_dead));

  std::vector<bool> only_owner(4, false);
  only_owner[owner] = true;
  EXPECT_EQ(ring.NextLiveDistinct(asn, owner, only_owner), fleet::Ring::npos);
  std::vector<bool> none(4, false);
  EXPECT_EQ(ring.FirstLive(asn, none), fleet::Ring::npos);
}

// --------------------------------------------------------------------------
// Hedge policy.

TEST(FleetHedge, WaitsMaxDelayBeforeFirstObservation) {
  fleet::HedgeOptions options;
  options.multiplier = 3.0;
  options.min_ms = 2.0;
  options.max_ms = 250.0;
  fleet::HedgePolicy policy(2, options);
  // Unknown shard speed: never hedge eagerly.
  EXPECT_DOUBLE_EQ(policy.DelayMsFor(0), 250.0);
  EXPECT_DOUBLE_EQ(policy.EwmaMsOf(0), 0.0);
}

TEST(FleetHedge, EwmaTracksLatencyAndDelayClamps) {
  fleet::HedgeOptions options;
  options.multiplier = 3.0;
  options.min_ms = 2.0;
  options.max_ms = 250.0;
  options.alpha = 0.2;
  fleet::HedgePolicy policy(2, options);

  policy.Observe(0, 10.0);  // first observation seeds the EWMA
  EXPECT_DOUBLE_EQ(policy.EwmaMsOf(0), 10.0);
  EXPECT_DOUBLE_EQ(policy.DelayMsFor(0), 30.0);
  policy.Observe(0, 20.0);  // 10 + 0.2 * (20 - 10)
  EXPECT_DOUBLE_EQ(policy.EwmaMsOf(0), 12.0);
  EXPECT_DOUBLE_EQ(policy.DelayMsFor(0), 36.0);

  // Clamped below by min_ms and above by max_ms; shards are independent.
  policy.Observe(1, 0.1);
  EXPECT_DOUBLE_EQ(policy.DelayMsFor(1), 2.0);
  policy.Observe(1, 100000.0);
  EXPECT_DOUBLE_EQ(policy.DelayMsFor(1), 250.0);
  EXPECT_DOUBLE_EQ(policy.EwmaMsOf(0), 12.0);
}

TEST(FleetHedge, RejectsBadConfiguration) {
  fleet::HedgeOptions bad_multiplier;
  bad_multiplier.multiplier = 0.0;
  EXPECT_THROW(fleet::HedgePolicy(1, bad_multiplier), InvalidArgument);
  fleet::HedgeOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(fleet::HedgePolicy(1, bad_alpha), InvalidArgument);
  fleet::HedgeOptions bad_bounds;
  bad_bounds.min_ms = 10.0;
  bad_bounds.max_ms = 5.0;
  EXPECT_THROW(fleet::HedgePolicy(1, bad_bounds), InvalidArgument);
}

TEST(FleetBackend, ParsesAddressForms) {
  fleet::BackendAddress full = fleet::ParseBackendAddress("10.0.0.1:8080");
  EXPECT_EQ(full.host, "10.0.0.1");
  EXPECT_EQ(full.port, 8080);
  EXPECT_EQ(full.ToString(), "10.0.0.1:8080");
  // Host defaults to loopback for ":port" and bare-port forms.
  EXPECT_EQ(fleet::ParseBackendAddress(":7001").host, "127.0.0.1");
  EXPECT_EQ(fleet::ParseBackendAddress(":7001").port, 7001);
  EXPECT_EQ(fleet::ParseBackendAddress("7001").port, 7001);
  EXPECT_THROW(fleet::ParseBackendAddress("host:nope"), ParseError);
  EXPECT_THROW(fleet::ParseBackendAddress("host:99999"), ParseError);
  EXPECT_THROW(fleet::ParseBackendAddress("host:0"), ParseError);
}

// --------------------------------------------------------------------------
// k-way merge: the router's `top` answer must be byte-identical to the
// single-process encoding, which pins tie order, key order, and truncation.

Json Slice(std::uint64_t k,
           std::vector<std::pair<std::uint64_t, std::uint64_t>> rows) {
  Json result = Json::MakeObject();
  result["denominator"] = std::uint64_t{599};
  result["k"] = k;
  result["metric"] = "hierarchy_free";
  Json top = Json::MakeArray();
  for (const auto& [asn, reach] : rows) {
    Json entry = Json::MakeObject();
    entry["asn"] = asn;
    entry["name"] = StrFormat("AS%llu", static_cast<unsigned long long>(asn));
    entry["reach"] = reach;
    top.Append(std::move(entry));
  }
  result["top"] = std::move(top);
  return result;
}

TEST(FleetMerge, MergesDisjointSlicesBreakingTiesByAsn) {
  fleet::Ring ring(2, 8);
  std::vector<Json> slices = {Slice(3, {{20, 50}, {30, 40}}),
                              Slice(3, {{10, 50}, {40, 40}, {50, 1}})};
  std::string merged = fleet::MergeTop(slices, {}, ring);
  // Value descending, ASN ascending on ties, truncated to k — the same
  // order a single process sorting the union would emit, byte for byte.
  std::vector<Json> combined = {
      Slice(3, {{10, 50}, {20, 50}, {30, 40}, {40, 40}, {50, 1}})};
  EXPECT_EQ(merged, fleet::MergeTop(combined, {}, ring));
  EXPECT_EQ(merged,
            R"({"denominator":599,"k":3,"metric":"hierarchy_free","top":[)"
            R"({"asn":10,"name":"AS10","reach":50},)"
            R"({"asn":20,"name":"AS20","reach":50},)"
            R"({"asn":30,"name":"AS30","reach":40}]})");
  EXPECT_EQ(merged.find("\"partial\""), std::string::npos);
}

TEST(FleetMerge, HandlesEmptySlicesAndKBeyondTotal) {
  fleet::Ring ring(3, 8);
  // One shard owns no ranked origins and k exceeds the fleet-wide total:
  // the merge returns everything it has, in order, without padding.
  std::vector<Json> slices = {Slice(5, {}), Slice(5, {{7, 9}}), Slice(5, {{3, 11}})};
  std::string merged = fleet::MergeTop(slices, {}, ring);
  Json doc = Json::Parse(merged);
  EXPECT_EQ(doc.At("k").AsU64(), 5u);
  ASSERT_EQ(doc.At("top").size(), 2u);
  EXPECT_EQ(doc.At("top")[0].At("asn").AsU64(), 3u);
  EXPECT_EQ(doc.At("top")[1].At("asn").AsU64(), 7u);

  EXPECT_THROW(fleet::MergeTop({}, {}, ring), InvalidArgument);
}

TEST(FleetMerge, PartialAnswersNameDeadShardsAndTheirRanges) {
  fleet::Ring ring(3, 4);
  std::vector<Json> slices = {Slice(2, {{5, 10}})};
  Json doc = Json::Parse(fleet::MergeTop(slices, {1, 2}, ring));
  EXPECT_TRUE(doc.At("partial").AsBool());
  ASSERT_EQ(doc.At("missing_shards").size(), 2u);
  EXPECT_EQ(doc.At("missing_shards")[0].AsU64(), 1u);
  EXPECT_EQ(doc.At("missing_shards")[1].AsU64(), 2u);

  const Json& ranges = doc.At("missing_origin_ranges");
  ASSERT_EQ(ranges.size(), ring.RangesOf(1).size() + ring.RangesOf(2).size());
  // Each range is a [lo, hi] pair of 16-hex-digit strings (JSON numbers are
  // doubles and cannot carry a full uint64), round-trippable to the ring's
  // intervals.
  const auto shard1 = ring.RangesOf(1);
  for (std::size_t i = 0; i < shard1.size(); ++i) {
    ASSERT_EQ(ranges[i].size(), 2u);
    const std::string& lo = ranges[i][0].AsString();
    const std::string& hi = ranges[i][1].AsString();
    ASSERT_EQ(lo.size(), 16u);
    ASSERT_EQ(hi.size(), 16u);
    EXPECT_EQ(std::strtoull(lo.c_str(), nullptr, 16), shard1[i].first);
    EXPECT_EQ(std::strtoull(hi.c_str(), nullptr, 16), shard1[i].second);
  }
}

// --------------------------------------------------------------------------
// Sharded dispatchers: slice-local rankings merge byte-identical to the
// single-process answer, store ops are strictly owner-local, compute ops
// answer identically from any shard.

std::string RawResult(const std::string& response) {
  // The envelope is {...,"result":{...}} (no timing in these tests): the
  // result value's bytes run to the envelope's closing brace.
  std::size_t at = response.find("\"result\":");
  EXPECT_NE(at, std::string::npos) << response;
  at += 9;
  return response.substr(at, response.size() - at - 1);
}

class FleetShardTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 3;

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
  static const std::string& sweep_path() {
    static const std::string path = [] {
      sweep::SweepOptions options;
      options.threads = 2;
      std::string p = TempPath("flatnet_fleet_test.sweep");
      sweep::WriteSweepStore(p, sweep::RunSweep(internet(), options));
      return p;
    }();
    return path;
  }
  static std::unique_ptr<Dispatcher> MakeShard(std::size_t index, std::size_t count,
                                               bool with_sweep = true) {
    DispatcherOptions options{.threads = 2};
    options.shard_index = index;
    options.shard_count = count;
    auto d = std::make_unique<Dispatcher>(internet(), options);
    if (with_sweep) d->AttachSweepStore(sweep::SweepStore::Load(sweep_path()), sweep_path());
    return d;
  }
  static Dispatcher& shard(std::size_t index) {
    static std::vector<std::unique_ptr<Dispatcher>> shards = [] {
      std::vector<std::unique_ptr<Dispatcher>> v;
      for (std::size_t i = 0; i < kShards; ++i) v.push_back(MakeShard(i, kShards));
      return v;
    }();
    return *shards[index];
  }
  static Dispatcher& full() {
    static std::unique_ptr<Dispatcher> d = [] {
      auto p = std::make_unique<Dispatcher>(internet(), DispatcherOptions{.threads = 2});
      p->AttachSweepStore(sweep::SweepStore::Load(sweep_path()), sweep_path());
      return p;
    }();
    return *d;
  }
  static Asn AsnAt(AsId id) { return internet().graph().AsnOf(id); }
};

TEST_F(FleetShardTest, ShardStatusAdvertisesSliceIdentityAndRanges) {
  fleet::Ring ring(kShards, fleet::kDefaultVnodes);
  for (std::size_t i = 0; i < kShards; ++i) {
    Json status = Json::Parse(shard(i).HandleSync(R"({"op":"status","id":"s"})"));
    ASSERT_TRUE(status.Get("ok").AsBool());
    const Json& advertised = status.Get("result").Get("shard");
    EXPECT_EQ(advertised.At("index").AsU64(), i);
    EXPECT_EQ(advertised.At("count").AsU64(), kShards);
    EXPECT_EQ(advertised.At("vnodes").AsU64(), fleet::kDefaultVnodes);
    EXPECT_EQ(advertised.At("owned_ranges").size(), ring.RangesOf(i).size());
  }
  // Unsharded dispatchers advertise no shard identity.
  Json status = Json::Parse(full().HandleSync(R"({"op":"status","id":"s"})"));
  EXPECT_FALSE(status.Get("result").Contains("shard"));
}

TEST_F(FleetShardTest, MergedShardTopIsByteIdenticalToSingleProcess) {
  fleet::Ring ring(kShards, fleet::kDefaultVnodes);
  for (const char* metric : {"provider_free", "tier1_free", "hierarchy_free"}) {
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{700}}) {
      std::string line =
          StrFormat(R"({"op":"top","k":%llu,"metric":"%s","id":3})",
                    static_cast<unsigned long long>(k), metric);
      std::vector<Json> slices;
      for (std::size_t i = 0; i < kShards; ++i) {
        Json response = Json::Parse(shard(i).HandleSync(line));
        ASSERT_TRUE(response.Get("ok").AsBool()) << response.Dump();
        slices.push_back(response.Get("result"));
      }
      EXPECT_EQ(fleet::MergeTop(slices, {}, ring), RawResult(full().HandleSync(line)))
          << metric << " k=" << k;
    }
  }
}

TEST_F(FleetShardTest, ComputeOpsAnswerIdenticallyFromEveryShard) {
  // Every shard holds the full topology: a reach query answers the same
  // regardless of which shard computes it (what makes failover sound).
  for (AsId origin : {AsId{11}, AsId{207}, AsId{492}}) {
    std::string line = StrFormat(
        R"({"op":"reach","origin":%u,"mode":"hierarchy_free","id":4})", AsnAt(origin));
    std::string reference = RawResult(full().HandleSync(line));
    for (std::size_t i = 0; i < kShards; ++i) {
      EXPECT_EQ(RawResult(shard(i).HandleSync(line)), reference) << "shard " << i;
    }
  }
}

TEST_F(FleetShardTest, StoreOpsAreOwnerLocalAndRejectionsNameTheOwner) {
  // A leak and a failure campaign over three tier-2 victims, attached to
  // one unsharded reference and three sharded dispatchers.
  std::vector<AsId> subjects = {world().tiers.tier2[0], world().tiers.tier2[1],
                                world().tiers.tier2[2]};
  std::vector<leaksim::LeakCellSpec> leak_cells;
  std::vector<failsim::FailCellSpec> fail_cells;
  for (AsId subject : subjects) {
    leaksim::LeakCellSpec leak;
    leak.victim = subject;
    leak.scenario = LeakScenario::kAnnounceAll;
    leak.seed = 0x5eed;
    leak.trials = 16;
    leak_cells.push_back(leak);
    failsim::FailCellSpec fail;
    fail.origin = subject;
    fail.scenario = failsim::FailScenario::kSingleAs;
    fail.seed = 0x5eed;
    fail.trials = 8;
    fail_cells.push_back(fail);
  }
  std::string leak_path = TempPath("flatnet_fleet_test.leak");
  leaksim::WriteLeakStore(leak_path, leaksim::RunLeakCampaign(internet(), leak_cells));
  std::string fail_path = TempPath("flatnet_fleet_test.fail");
  failsim::WriteFailStore(fail_path, failsim::RunFailureCampaign(internet(), fail_cells));

  auto attach = [&](Dispatcher& d) {
    d.AttachLeakStore(leaksim::LeakStore::Load(leak_path), leak_path);
    d.AttachFailStore(failsim::FailStore::Load(fail_path), fail_path);
  };
  Dispatcher reference(internet(), DispatcherOptions{.threads = 2});
  attach(reference);
  std::vector<std::unique_ptr<Dispatcher>> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    shards.push_back(MakeShard(i, kShards, /*with_sweep=*/false));
    attach(*shards[i]);
  }
  std::filesystem::remove(leak_path);
  std::filesystem::remove(fail_path);

  fleet::Ring ring(kShards, fleet::kDefaultVnodes);
  for (AsId subject : subjects) {
    Asn asn = AsnAt(subject);
    std::size_t owner = ring.Owner(asn);
    for (std::string line :
         {StrFormat(R"({"op":"leakdist","victim":%u,"scenario":"none","q":[0.5],"id":5})",
                    asn),
          StrFormat(R"({"op":"hegemony","origin":%u,"k":3,"id":5})", asn),
          StrFormat(
              R"({"op":"failure","origin":%u,"scenario":"single_as","q":[0.5],"id":5})",
              asn)}) {
      // The owner's answer matches the unsharded reference exactly.
      EXPECT_EQ(RawResult(shards[owner]->HandleSync(line)),
                RawResult(reference.HandleSync(line)))
          << line;
      // Every other shard refuses and names the owner to route to.
      for (std::size_t i = 0; i < kShards; ++i) {
        if (i == owner) continue;
        Json rejected = Json::Parse(shards[i]->HandleSync(line));
        ASSERT_FALSE(rejected.Get("ok").AsBool()) << line;
        EXPECT_EQ(rejected.Get("error").Get("code").AsString(), "bad_request");
        EXPECT_NE(rejected.Get("error").Get("message").AsString().find(
                      StrFormat("belongs to shard %zu", owner)),
                  std::string::npos);
      }
    }
  }
}

// --------------------------------------------------------------------------
// End-to-end router: real shard servers over sockets, byte identity, a
// shard death degrading to partial / failover / unavailable, and a restart
// healing the ring.

class FleetRouterTest : public FleetShardTest {
 protected:
  static std::uint64_t WaitFor(const std::function<bool()>& done) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return 1;
  }
  // First AsId whose ASN the ring assigns to `shard`, skipping `used` ids.
  static AsId OwnedBy(const fleet::Ring& ring, std::size_t shard, AsId from = 1) {
    for (AsId id = from; id < internet().num_ases(); ++id) {
      if (ring.Owner(AsnAt(id)) == shard) return id;
    }
    ADD_FAILURE() << "no AS owned by shard " << shard;
    return 0;
  }
};

TEST_F(FleetRouterTest, RoutesMergesFailsOverAndHeals) {
  std::vector<std::unique_ptr<Dispatcher>> dispatchers;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::thread> running;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kShards; ++i) {
    dispatchers.push_back(MakeShard(i, kShards));
    servers.push_back(
        std::make_unique<serve::Server>(*dispatchers[i], serve::ServerOptions{}));
    ports.push_back(servers[i]->port());
    running.emplace_back([server = servers[i].get()] { server->Run(); });
  }

  fleet::RouterOptions options;
  for (std::uint16_t port : ports) {
    options.backends.push_back(
        fleet::ParseBackendAddress(StrFormat("127.0.0.1:%u", port)));
  }
  options.probe_interval = std::chrono::milliseconds(50);
  fleet::FleetRouter router(options);
  router.Start();
  EXPECT_EQ(router.pool().NumAlive(), kShards);

  // Scatter-gathered `top` and relayed point queries are byte-identical to
  // the single-process dispatcher (top is never cached, so the whole
  // envelope must match; the relayed queries are all cold on both sides).
  for (const char* metric : {"provider_free", "tier1_free", "hierarchy_free"}) {
    std::string line = StrFormat(R"({"op":"top","k":10,"metric":"%s","id":20})", metric);
    EXPECT_EQ(router.HandleSync(line), full().HandleSync(line)) << metric;
  }
  fleet::Ring ring(kShards, fleet::kDefaultVnodes);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    std::string line =
        StrFormat(R"({"op":"reach","origin":%u,"mode":"provider_free","id":21})",
                  AsnAt(OwnedBy(ring, shard, 40)));
    EXPECT_EQ(RawResult(router.HandleSync(line)), RawResult(full().HandleSync(line)));
  }

  // The merged fleet status is what loadgen's preflight reads.
  Json status = Json::Parse(router.HandleSync(R"({"op":"status","id":"s"})"));
  ASSERT_TRUE(status.Get("ok").AsBool());
  const Json& fleet_view = status.Get("result").Get("fleet");
  EXPECT_EQ(status.Get("result").Get("role").AsString(), "router");
  EXPECT_EQ(fleet_view.At("alive").AsU64(), kShards);
  EXPECT_EQ(fleet_view.At("ring").At("shards").AsU64(), kShards);
  ASSERT_EQ(fleet_view.At("shards").size(), kShards);
  EXPECT_TRUE(status.Get("result").Get("sweep_store").Get("loaded").AsBool());

  // Kill shard 1. The prober notices within a few 50 ms rounds.
  servers[1]->RequestShutdown();
  running[1].join();
  servers[1].reset();
  ASSERT_TRUE(WaitFor([&] { return !router.pool().alive(1); }));

  // Ranking answers degrade to partial instead of failing.
  std::string top_line = R"({"op":"top","k":10,"metric":"hierarchy_free","id":22})";
  Json partial = Json::Parse(router.HandleSync(top_line));
  ASSERT_TRUE(partial.Get("ok").AsBool()) << partial.Dump();
  EXPECT_TRUE(partial.Get("result").At("partial").AsBool());
  ASSERT_EQ(partial.Get("result").At("missing_shards").size(), 1u);
  EXPECT_EQ(partial.Get("result").At("missing_shards")[0].AsU64(), 1u);
  EXPECT_GT(partial.Get("result").At("missing_origin_ranges").size(), 0u);

  // Compute queries for the dead shard's origins fail over and still match
  // the single-process answer.
  AsId orphan = OwnedBy(ring, 1, 100);
  std::string reach_line = StrFormat(
      R"({"op":"reach","origin":%u,"mode":"hierarchy_free","id":23})", AsnAt(orphan));
  EXPECT_EQ(RawResult(router.HandleSync(reach_line)),
            RawResult(full().HandleSync(reach_line)));

  // Store queries for the dead owner answer a structured `unavailable`
  // naming the shard — never a wrong answer from a shard without the slice.
  Json unavailable = Json::Parse(router.HandleSync(
      StrFormat(R"({"op":"hegemony","origin":%u,"k":3,"id":24})", AsnAt(orphan))));
  ASSERT_FALSE(unavailable.Get("ok").AsBool());
  EXPECT_EQ(unavailable.Get("error").Get("code").AsString(), "unavailable");
  EXPECT_NE(unavailable.Get("error").Get("message").AsString().find("shard 1"),
            std::string::npos);

  fleet::RouterStats mid = router.stats();
  EXPECT_GE(mid.partial_answers, 1u);
  EXPECT_GE(mid.unavailable, 1u);

  // Restart shard 1 on its old port: a probe success heals the ring and
  // full byte identity returns.
  servers[1] = std::make_unique<serve::Server>(
      *dispatchers[1], serve::ServerOptions{.port = ports[1]});
  running[1] = std::thread([server = servers[1].get()] { server->Run(); });
  ASSERT_TRUE(WaitFor([&] { return router.pool().alive(1); }));
  EXPECT_EQ(router.HandleSync(top_line), full().HandleSync(top_line));
  EXPECT_GE(router.pool().deaths(), 1u);

  router.Stop();
  for (std::size_t i = 0; i < kShards; ++i) {
    if (servers[i]) servers[i]->RequestShutdown();
    if (running[i].joinable()) running[i].join();
  }
}

TEST(FleetHedging, FirstArrivalWinsAndLoserIsAbandoned) {
  // Two canned backends: shard 0 sleeps well past the hedge delay, shard 1
  // answers immediately. Both answer the router's status probe at once so
  // they stay marked alive.
  std::atomic<int> slow_hits{0};
  std::atomic<int> fast_hits{0};
  auto canned = [](std::atomic<int>& hits, bool slow, const char* who) {
    return [&hits, slow, who](const std::string& line,
                              std::function<void(std::string)> done,
                              std::chrono::steady_clock::time_point) {
      if (line.find("fleet-probe") != std::string::npos) {
        done(R"({"id":"fleet-probe","ok":true,"result":{}})");
        return;
      }
      hits.fetch_add(1);
      if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(400));
      done(StrFormat(R"({"id":1,"ok":true,"result":{"who":"%s"}})", who));
    };
  };
  serve::Server slow_server(canned(slow_hits, true, "slow"), nullptr,
                            serve::ServerOptions{});
  serve::Server fast_server(canned(fast_hits, false, "fast"), nullptr,
                            serve::ServerOptions{});
  std::thread slow_running([&] { slow_server.Run(); });
  std::thread fast_running([&] { fast_server.Run(); });

  fleet::RouterOptions options;
  options.backends = {
      fleet::ParseBackendAddress(StrFormat("127.0.0.1:%u", slow_server.port())),
      fleet::ParseBackendAddress(StrFormat("127.0.0.1:%u", fast_server.port()))};
  // Hedge after at most 20 ms — far below the slow shard's 400 ms — and
  // probe rarely enough to stay out of the test's way.
  options.hedge.multiplier = 1.0;
  options.hedge.min_ms = 5.0;
  options.hedge.max_ms = 20.0;
  options.probe_interval = std::chrono::milliseconds(60000);
  fleet::FleetRouter router(options);
  router.Start();
  ASSERT_EQ(router.pool().NumAlive(), 2u);
  // Router counters are process-global metrics, so assert deltas.
  const fleet::RouterStats baseline = router.stats();

  // An origin owned by the slow shard, so the hedge targets the fast one.
  fleet::Ring ring(2, fleet::kDefaultVnodes);
  std::uint32_t asn = 1;
  while (ring.Owner(asn) != 0) ++asn;

  std::string line = StrFormat(R"({"op":"reach","origin":%u,"id":1})", asn);
  Json first = Json::Parse(router.HandleSync(line));
  ASSERT_TRUE(first.Get("ok").AsBool()) << first.Dump();
  EXPECT_EQ(first.Get("result").Get("who").AsString(), "fast");
  fleet::RouterStats stats = router.stats();
  EXPECT_EQ(stats.hedge_issued - baseline.hedge_issued, 1u);
  EXPECT_EQ(stats.hedge_won - baseline.hedge_won, 1u);
  EXPECT_EQ(slow_hits.load(), 1);
  EXPECT_EQ(fast_hits.load(), 1);

  // The abandoned response must not leak into a later request: the loser's
  // connection is closed, not pooled, so a second query hedges cleanly and
  // again returns the fast shard's bytes.
  Json second = Json::Parse(router.HandleSync(line));
  ASSERT_TRUE(second.Get("ok").AsBool()) << second.Dump();
  EXPECT_EQ(second.Get("result").Get("who").AsString(), "fast");
  stats = router.stats();
  EXPECT_EQ(stats.hedge_issued - baseline.hedge_issued, 2u);
  EXPECT_EQ(stats.hedge_won - baseline.hedge_won, 2u);

  // With hedging off the owner's slow answer is simply waited out.
  fleet::RouterOptions no_hedge = options;
  no_hedge.hedging = false;
  fleet::FleetRouter patient(no_hedge);
  patient.Start();
  Json waited = Json::Parse(patient.HandleSync(line));
  ASSERT_TRUE(waited.Get("ok").AsBool()) << waited.Dump();
  EXPECT_EQ(waited.Get("result").Get("who").AsString(), "slow");
  EXPECT_EQ(patient.stats().hedge_issued, stats.hedge_issued);  // no new hedges
  patient.Stop();

  router.Stop();
  slow_server.RequestShutdown();
  fast_server.RequestShutdown();
  slow_running.join();
  fast_running.join();
}

// --------------------------------------------------------------------------
// Connection cap: past the limit an accept receives one structured
// `overloaded` line and a close — backpressure, not a mystery RST.

int ConnectTo(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string ReadLineFrom(int fd) {
  std::string buffer;
  char chunk[4096];
  while (buffer.find('\n') == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return buffer.substr(0, buffer.find('\n'));
}

TEST(ServeServer, ConnectionCapRejectsWithStructuredOverloadThenRecovers) {
  serve::ServerOptions options;
  options.max_connections = 1;
  serve::Server server(
      [](const std::string&, std::function<void(std::string)> done,
         std::chrono::steady_clock::time_point) { done(R"({"ok":true})"); },
      nullptr, options);
  std::thread running([&] { server.Run(); });

  int first = ConnectTo(server.port());
  std::string ping = "{\"op\":\"status\"}\n";
  ASSERT_EQ(::send(first, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  EXPECT_NE(ReadLineFrom(first).find("\"ok\":true"), std::string::npos);

  // The second connection is over the cap: one overloaded error, then EOF.
  int second = ConnectTo(server.port());
  Json rejection = Json::Parse(ReadLineFrom(second));
  EXPECT_FALSE(rejection.Get("ok").AsBool());
  EXPECT_EQ(rejection.Get("error").Get("code").AsString(), "overloaded");
  char byte = 0;
  EXPECT_EQ(::recv(second, &byte, 1, 0), 0);  // server closed after the line
  ::close(second);

  // Freeing the slot lets the next client in once the reaper runs (the
  // acceptor reaps finished readers on its 100 ms tick).
  ::close(first);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    int retry = ConnectTo(server.port());
    ASSERT_EQ(::send(retry, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    recovered = ReadLineFrom(retry).find("\"ok\":true") != std::string::npos;
    ::close(retry);
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(recovered);

  server.RequestShutdown();
  running.join();
}

}  // namespace
}  // namespace flatnet
