#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/bitset.h"
#include "util/env.h"
#include "util/epoch.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/narrow.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace flatnet {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = Split("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(Strings, ParseU64Strict) {
  EXPECT_EQ(ParseU64("123"), 123u);
  EXPECT_EQ(ParseU64("0"), 0u);
  EXPECT_FALSE(ParseU64("12a").has_value());
  EXPECT_FALSE(ParseU64("").has_value());
  EXPECT_FALSE(ParseU64("-1").has_value());
  EXPECT_FALSE(ParseU64(" 1").has_value());
}

TEST(Strings, ParseI64AndDouble) {
  EXPECT_EQ(ParseI64("-1"), -1);
  EXPECT_EQ(ParseI64("42"), 42);
  EXPECT_FALSE(ParseI64("4.2").has_value());
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_FALSE(ParseDouble("x").has_value());
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(69488), "69,488");
  EXPECT_EQ(WithCommas(1234567890), "1,234,567,890");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f%%", 12.345), "12.35%");
}

TEST(Strings, StartsEndsJoinLower) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(AsciiLower("AbC"), "abc");
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_THROW(rng.UniformU64(0), InvalidArgument);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.UniformU64(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, 500);
  }
}

TEST(Rng, BernoulliEdges) {
  Rng rng(2);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(Rng, ZipfHeavyTail) {
  Rng rng(3);
  std::size_t ones = 0;
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t v = rng.Zipf(1000, 1.5);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v == 1) ++ones;
  }
  // Rank 1 dominates a Zipf(1.5) distribution.
  EXPECT_GT(ones, 1500u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(4);
  auto sample = rng.SampleWithoutReplacement(100, 50);
  ASSERT_EQ(sample.size(), 50u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()), sample.end());
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), InvalidArgument);
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng rng(5);
  std::vector<double> weights{0.0, 9.0, 1.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.PickWeighted(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
  EXPECT_THROW(rng.PickWeighted({0.0, 0.0}), InvalidArgument);
}

TEST(Rng, PowerLawWithinRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.PowerLaw(1.0, 100.0, 2.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(Stats, OnlineStatsMatchesClosedForm) {
  OnlineStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 1.25);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
}

TEST(Stats, HistogramClampsOutliers) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5.0);
  h.Add(15.0);
  h.Add(5.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
}

TEST(Stats, EmpiricalCdf) {
  EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.At(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 4.0);
  EXPECT_THROW(EmpiricalCdf({}), InvalidArgument);
}

TEST(Stats, QuantileUsesNearestRank) {
  // Regression pins for the free Quantile(): the benches once computed
  // sorted[(size_t)(q * (n - 1))], whose truncation reported the sample
  // BELOW the requested rank (for n=10, q=0.85 gave index 7 instead of
  // nearest-rank ceil(0.85 * 10) = 9 → sorted[8]).
  std::vector<double> v{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.85), 8.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.99), 9.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 9.0);
  // Out-of-range q clamps; an empty series is 0, not UB.
  EXPECT_DOUBLE_EQ(Quantile(v, 1.5), 9.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  // Single sample: every quantile is that sample.
  EXPECT_DOUBLE_EQ(Quantile({42.0}, 0.01), 42.0);
  EXPECT_DOUBLE_EQ(Quantile({42.0}, 0.99), 42.0);
  // The free function agrees with EmpiricalCdf::Quantile everywhere.
  EmpiricalCdf cdf(v);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.85, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(Quantile(v, q), cdf.Quantile(q)) << "q=" << q;
  }
}

TEST(Stats, Correlations) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z{5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  std::vector<double> constant{1, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, constant), 0.0);
}

TEST(Bitset, BasicOps) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(64));
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_EQ(b.Count(), 2u);
}

TEST(Bitset, SetAllRespectsTail) {
  Bitset b(70, true);
  EXPECT_EQ(b.Count(), 70u);
  Bitset inverted = ~b;
  EXPECT_EQ(inverted.Count(), 0u);
}

TEST(Bitset, Algebra) {
  Bitset a(100), b(100);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  Bitset u = a;
  u |= b;
  EXPECT_EQ(u.Count(), 3u);
  Bitset i = a;
  i &= b;
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(2));
  Bitset d = a;
  d -= b;
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(1));
  EXPECT_TRUE(i.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_EQ(a.CountAnd(b), 1u);
}

TEST(Bitset, FusedKernels) {
  Bitset a(100), b(100);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  b.Set(99);
  EXPECT_EQ(a.AndNotCount(b), 1u);  // {1}
  EXPECT_EQ(b.AndNotCount(a), 2u);  // {3, 99}
  Bitset u = a;
  EXPECT_EQ(u.OrCountNew(b), 2u);  // {3, 99} are new
  EXPECT_EQ(u.Count(), 4u);
  EXPECT_EQ(u.OrCountNew(b), 0u);  // already merged
}

TEST(Bitset, WordAccess) {
  Bitset b(130);
  EXPECT_EQ(b.num_words(), 3u);
  b.Set(0);
  b.Set(65);
  EXPECT_EQ(b.Word(0), 1u);
  EXPECT_EQ(b.Word(1), 2u);
  b.StoreWord(0, 0xffu);
  EXPECT_EQ(b.Count(), 9u);
  // Stores into the last word clear bits past size().
  b.StoreWord(2, ~std::uint64_t{0});
  EXPECT_EQ(b.Word(2), 3u);
  EXPECT_EQ(b.Count(), 11u);
}

#ifndef NDEBUG
using BitsetDeathTest = ::testing::Test;

TEST(BitsetDeathTest, SizeMismatchAssertsInDebug) {
  // The set-algebra operators document an equal-size contract enforced by
  // debug asserts (matching Test/Set); release builds skip the check.
  Bitset a(100), other(50);
  EXPECT_DEATH(a |= other, "size mismatch");
  EXPECT_DEATH(a &= other, "size mismatch");
  EXPECT_DEATH(a -= other, "size mismatch");
  EXPECT_DEATH((void)a.IsSubsetOf(other), "size mismatch");
  EXPECT_DEATH((void)a.CountAnd(other), "size mismatch");
  EXPECT_DEATH((void)a.OrCountNew(other), "size mismatch");
  EXPECT_DEATH((void)a.AndNotCount(other), "size mismatch");
}
#endif

TEST(Bitset, ForEachSetAscending) {
  Bitset b(200);
  std::vector<std::size_t> expected{3, 70, 64, 199};
  for (auto i : expected) b.Set(i);
  std::sort(expected.begin(), expected.end());
  std::vector<std::size_t> seen;
  b.ForEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(Table, RendersAlignedColumns) {
  TextTable table;
  table.AddColumn("name");
  table.AddColumn("count", TextTable::Align::kRight);
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "1000"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
  // Every line has equal width.
  auto lines = Split(out, '\n');
  std::size_t width = lines[0].size();
  for (auto line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), width);
    }
  }
  EXPECT_THROW(table.AddRow({"too", "many", "cells"}), InvalidArgument);
}

TEST(Stopwatch, PauseFreezesElapsedTime) {
  Stopwatch sw;
  sw.Pause();
  EXPECT_FALSE(sw.running());
  double frozen = sw.ElapsedSeconds();
  Stopwatch busy;
  while (busy.ElapsedMillis() < 5) {
  }
  // While paused, elapsed time is exactly the accumulated value.
  EXPECT_DOUBLE_EQ(sw.ElapsedSeconds(), frozen);
  sw.Pause();  // idempotent
  EXPECT_DOUBLE_EQ(sw.ElapsedSeconds(), frozen);
}

TEST(Stopwatch, ResumeAccumulates) {
  Stopwatch sw;
  Stopwatch wall;
  while (wall.ElapsedMillis() < 2) {
  }
  sw.Pause();
  double first = sw.ElapsedSeconds();
  EXPECT_GT(first, 0.0);
  sw.Resume();
  EXPECT_TRUE(sw.running());
  sw.Resume();  // idempotent
  Stopwatch busy;
  while (busy.ElapsedMillis() < 2) {
  }
  // Accumulates across the pause: strictly more than the first segment.
  EXPECT_GT(sw.ElapsedSeconds(), first);
  sw.Restart();
  EXPECT_TRUE(sw.running());
  EXPECT_LT(sw.ElapsedSeconds(), first + 2.0);
}

TEST(ThreadPool, GlobalStatsCountTasks) {
  ThreadPoolStats before = GlobalThreadPoolStats();
  {
    ThreadPool pool(4);
    EXPECT_GE(GlobalThreadPoolStats().threads, before.threads + 4);
    pool.ParallelFor(0, 100, [](std::size_t) {});
  }
  ThreadPoolStats after = GlobalThreadPoolStats();
  EXPECT_GT(after.tasks_submitted, before.tasks_submitted);
  EXPECT_GT(after.tasks_executed, before.tasks_executed);
  EXPECT_EQ(after.tasks_submitted - before.tasks_submitted,
            after.tasks_executed - before.tasks_executed);
  EXPECT_GT(after.peak_queue_depth, 0);
  EXPECT_EQ(after.threads, before.threads);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineWhenSingleThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0u);
  int sum = 0;
  pool.ParallelFor(0, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, EmptyParallelForRangeIsNoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](std::size_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](std::size_t) { ++calls; });  // inverted = empty
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ZeroWorkerSubmitRunsInline) {
  ThreadPool pool(1);  // <= 1 thread means no workers: inline execution
  ASSERT_EQ(pool.thread_count(), 0u);
  std::thread::id ran_on;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.PendingTasks(), 0u);
}

TEST(ThreadPool, ZeroWorkerTrySubmitRespectsBound) {
  ThreadPool pool(1);
  bool ran = false;
  EXPECT_FALSE(pool.TrySubmit([&] { ran = true; }, 0));
  EXPECT_FALSE(ran);
  EXPECT_TRUE(pool.TrySubmit([&] { ran = true; }, 1));
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, WaitWithoutSubmissionsReturnsImmediately) {
  ThreadPool pool(4);
  pool.Wait();  // must not block
  ThreadPool inline_pool(1);
  inline_pool.Wait();
}

TEST(ThreadPool, TrySubmitShedsLoadAtHighWaterMark) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto blocker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  // in_flight_ counts submitted-but-unfinished, so four admissions against
  // a bound of four succeed deterministically and the fifth must shed.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.TrySubmit(blocker, 4)) << "admission " << i;
  }
  EXPECT_EQ(pool.PendingTasks(), 4u);
  EXPECT_FALSE(pool.TrySubmit(blocker, 4));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_EQ(pool.PendingTasks(), 0u);
  EXPECT_TRUE(pool.TrySubmit([] {}, 4));  // capacity is back after the drain
  pool.Wait();
}

TEST(ThreadPool, QueueStatsStayMonotonicUnderConcurrentSubmit) {
  ThreadPoolStats before = GlobalThreadPoolStats();
  ThreadPool pool(4);
  std::atomic<bool> monotonic{true};
  std::thread sampler([&] {
    std::uint64_t last_submitted = before.tasks_submitted;
    std::uint64_t last_executed = before.tasks_executed;
    std::int64_t last_peak = before.peak_queue_depth;
    for (int i = 0; i < 200; ++i) {
      ThreadPoolStats stats = GlobalThreadPoolStats();
      if (stats.tasks_submitted < last_submitted || stats.tasks_executed < last_executed ||
          stats.peak_queue_depth < last_peak) {
        monotonic = false;
      }
      last_submitted = stats.tasks_submitted;
      last_executed = stats.tasks_executed;
      last_peak = stats.peak_queue_depth;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 200; ++i) pool.Submit([] {});
    });
  }
  for (auto& submitter : submitters) submitter.join();
  sampler.join();
  pool.Wait();
  EXPECT_TRUE(monotonic.load());
  ThreadPoolStats after = GlobalThreadPoolStats();
  EXPECT_GE(after.tasks_submitted - before.tasks_submitted, 600u);
  EXPECT_EQ(after.tasks_submitted - before.tasks_submitted,
            after.tasks_executed - before.tasks_executed);
}

TEST(Env, ScaledCountsHaveFloor) {
  EXPECT_GE(ScaledCount(10, 5), 5u);
  EXPECT_GE(ScaledTrials(1, 1), 1u);
}

class RngSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedTest, ForkIndependence) {
  Rng parent(GetParam());
  Rng child = parent.Fork();
  // Child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_LT(same, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest, ::testing::Values(1, 2, 42, 1337, 99999));

TEST(CheckedNarrow, PassesValuesThatFit) {
  EXPECT_EQ(CheckedNarrow32(std::size_t{0}, "test"), 0u);
  EXPECT_EQ(CheckedNarrow32(std::size_t{0xffffffff}, "test"), 0xffffffffu);
  EXPECT_EQ((CheckedNarrow<std::uint8_t>(std::uint64_t{255}, "test")), 255u);
}

TEST(CheckedNarrow, ThrowsNamingContextAndCount) {
  try {
    CheckedNarrow32(std::size_t{0x100000000ull}, "AsGraphBuilder edge index");
    FAIL() << "expected CheckedNarrow32 to throw";
  } catch (const Error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("AsGraphBuilder edge index"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967296"), std::string::npos) << what;
  }
}

// Parses `args` (argv without the program name) against `flags`.
int ParseArgs(FlagSet& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagSet, ParsesEveryKindIntoItsTarget) {
  std::string stem, out, era = "2020";
  std::uint32_t ases = 0;
  std::optional<std::uint64_t> asn;
  double trim = 0.0;
  bool resume = false, timing = true;
  std::vector<std::string> backends;
  auto add_backend = [&](const std::string& v) {
    backends.push_back(v);
    return true;
  };
  enum class Lock { kNone, kT1 } lock = Lock::kNone;
  FlagSet flags("prog");
  flags.Positional("<stem>", &stem)
      .String("--out", "<file>", &out)
      .Choice("--era", {"2015", "2020"}, &era)
      .Choice("--lock", {{"none", Lock::kNone}, {"t1", Lock::kT1}}, &lock)
      .Unsigned("--ases", "N", &ases)
      .Unsigned("--asn", "<asn>", &asn)
      .Double("--trim", "F", &trim, 0.0, 0.4)
      .Switch("--resume", &resume)
      .Switch("--no-timing", &timing, false)
      .Repeatable("--backend", "ADDR", add_backend);
  ASSERT_EQ(ParseArgs(flags, {"--out", "-dash", "topo", "--era", "2015", "--lock", "t1"}), 0);
  ASSERT_EQ(ParseArgs(flags, {"--ases", "4294967295", "--trim", "0.25", "--asn", "0"}), 0);
  ASSERT_EQ(ParseArgs(flags, {"--resume", "--no-timing", "--backend", "a"}), 0);
  ASSERT_EQ(ParseArgs(flags, {"--backend", "b"}), 0);
  EXPECT_EQ(flags.error(), "");
  EXPECT_EQ(stem, "topo");
  EXPECT_EQ(out, "-dash");  // a value is taken verbatim, even with a leading '-'
  EXPECT_EQ(era, "2015");
  EXPECT_EQ(lock, Lock::kT1);
  EXPECT_EQ(ases, 4294967295u);
  ASSERT_TRUE(asn.has_value());  // an explicit 0 is told apart from absence
  EXPECT_EQ(*asn, 0u);
  EXPECT_DOUBLE_EQ(trim, 0.25);
  EXPECT_TRUE(resume);
  EXPECT_FALSE(timing);
  EXPECT_EQ(backends, (std::vector<std::string>{"a", "b"}));
}

TEST(FlagSet, LastValueWinsAndAbsentFlagsKeepDefaults) {
  std::uint64_t seed = 7;
  std::uint64_t top = 10;
  FlagSet flags("prog");
  flags.Unsigned("--seed", "S", &seed).Unsigned("--top", "N", &top);
  ASSERT_EQ(ParseArgs(flags, {"--seed", "1", "--seed", "2"}), 0);
  EXPECT_EQ(seed, 2u);
  EXPECT_EQ(top, 10u);
}

TEST(FlagSet, RejectsBadArgvWithExitCode2) {
  std::uint32_t ases = 5;
  std::uint32_t chunk = 5;
  std::uint16_t port = 5;
  std::string era = "2020";
  double trim = 0.0;
  auto parse_shard = [](const std::string& v) { return v == "0/1"; };
  FlagSet flags("prog");
  flags.Unsigned("--ases", "N", &ases)
      .Unsigned("--chunk", "N", &chunk, 1)
      .Unsigned("--port", "P", &port)
      .Choice("--era", {"2015", "2020"}, &era)
      .Double("--trim", "F", &trim, 0.0, 0.4)
      .Repeatable("--shard", "I/N", parse_shard);
  struct Case {
    std::vector<const char*> args;
    const char* reason;
  };
  const Case cases[] = {
      {{"--ases"}, "--ases: missing value"},
      {{"--ases", "12x"}, "not an unsigned integer"},
      {{"--ases", "-1"}, "not an unsigned integer"},
      {{"--ases", ""}, "not an unsigned integer"},
      // Wider than the u32 target: rejected, never truncated to 0.
      {{"--ases", "4294967296"}, "out of range [0, 4294967295]"},
      {{"--chunk", "0"}, "out of range [1, 4294967295]"},
      {{"--port", "65536"}, "out of range [0, 65535]"},
      {{"--era", "2019"}, "is not one of 2015|2020"},
      {{"--trim", "0.5"}, "out of range"},
      {{"--trim", "abc"}, "not a number"},
      {{"--shard", "1/1"}, "invalid value '1/1'"},
      {{"--bogus"}, "unknown flag --bogus"},
      {{"stray"}, "unexpected argument 'stray'"},
      // The first error wins; later arguments are not parsed.
      {{"--bogus", "--ases", "x"}, "unknown flag --bogus"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ParseArgs(flags, c.args), FlagSet::kUsageExit) << c.reason;
    EXPECT_NE(flags.error().find(c.reason), std::string::npos) << flags.error();
  }
  EXPECT_EQ(ases, 5u);
  EXPECT_EQ(chunk, 5u);
  EXPECT_EQ(port, 5u);
  EXPECT_EQ(era, "2020");
}

TEST(FlagSet, RepeatableMayRejectWithAnErrorMessage) {
  auto reject = [](const std::string& v) -> bool {
    throw ParseError("backend address '" + v + "': bad port");
  };
  FlagSet flags("prog");
  flags.Repeatable("--backends", "LIST", reject);
  EXPECT_EQ(ParseArgs(flags, {"--backends", "h:0"}), FlagSet::kUsageExit);
  EXPECT_EQ(flags.error(), "--backends: backend address 'h:0': bad port");
}

TEST(FlagSet, UsageIsBuiltFromTheTableAndWrapped) {
  std::string stem;
  std::uint64_t n = 0;
  bool on = false;
  std::string level;
  FlagSet flags("flatnet_tool");
  flags.Positional("<stem>", &stem).Unsigned("--threads", "N", &n).Switch("--resume", &on);
  for (const char* name : {"--alpha", "--bravo", "--charlie", "--delta", "--echo"}) {
    flags.Choice(name, {"trace", "debug", "info"}, &level);
  }
  std::string usage = flags.Usage();
  EXPECT_EQ(usage.rfind("usage: flatnet_tool <stem> [--threads N] [--resume]", 0), 0u)
      << usage;
  EXPECT_NE(usage.find("[--echo trace|debug|info]"), std::string::npos) << usage;
  std::size_t start = 0;
  for (std::size_t nl = usage.find('\n'); nl != std::string::npos;
       start = nl + 1, nl = usage.find('\n', start)) {
    EXPECT_LE(nl - start, 80u) << usage;
    if (start > 0) {
      EXPECT_EQ(usage.compare(start, 20, std::string(20, ' ')), 0) << usage;
    }
  }
  EXPECT_EQ(start, usage.size());  // ends with a newline
}

TEST(EpochStamps, TracksVisitsPerEpoch) {
  EpochStamps stamps(4);
  stamps.NextEpoch();
  EXPECT_FALSE(stamps.Visited(2));
  EXPECT_TRUE(stamps.TryVisit(2));
  EXPECT_FALSE(stamps.TryVisit(2));
  EXPECT_TRUE(stamps.Visited(2));
  stamps.NextEpoch();
  EXPECT_FALSE(stamps.Visited(2));
  stamps.MarkVisited(0);
  EXPECT_TRUE(stamps.Visited(0));
}

// Regression for the epoch-counter wraparound guard: after 2^32 epochs the
// counter returns to 0 — the value every untouched slot still holds — and
// without the guard in NextEpoch every node would read as already visited.
// Reverting the guard makes this test fail.
TEST(EpochStamps, WraparoundClearsStaleStamps) {
  EpochStamps stamps(3);
  stamps.SetEpochForTesting(0xfffffffeu);
  stamps.NextEpoch();  // -> 0xffffffff
  EXPECT_EQ(stamps.epoch(), 0xffffffffu);
  stamps.MarkVisited(1);
  EXPECT_TRUE(stamps.Visited(1));
  stamps.NextEpoch();  // wraps: must clear, not alias stamp 0 as visited
  EXPECT_EQ(stamps.epoch(), 1u);
  EXPECT_FALSE(stamps.Visited(0));
  EXPECT_FALSE(stamps.Visited(1));
  EXPECT_FALSE(stamps.Visited(2));
  EXPECT_TRUE(stamps.TryVisit(1));
}

}  // namespace
}  // namespace flatnet
