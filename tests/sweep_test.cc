// Tests for the sharded sweep engine, the columnar result store, and
// checkpoint/resume (src/sweep/).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bgp/reachability.h"
#include "core/reachability_analysis.h"
#include "sweep/chunked.h"
#include "sweep/engine.h"
#include "sweep/fingerprint.h"
#include "sweep/journal.h"
#include "sweep/store.h"
#include "test_paths.h"
#include "topogen/generate.h"
#include "util/error.h"

namespace flatnet {
namespace {

using sweep::ColumnBit;
using sweep::RunSweep;
using sweep::SweepColumn;
using sweep::SweepJournal;
using sweep::SweepMeta;
using sweep::SweepOptions;
using sweep::SweepRunStats;
using sweep::SweepStore;
using sweep::SweepTable;
using sweep::TopologyFingerprint;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

class SweepTest : public ::testing::Test {
 protected:
  static const World& world() {
    static const World w = [] {
      GeneratorParams params = GeneratorParams::Era2015(500);
      params.seed = 77;
      return GenerateWorld(params);
    }();
    return w;
  }
  static const Internet& internet() {
    static const Internet net(world().full_graph, world().tiers, world().metadata);
    return net;
  }
  // A second, different topology for fingerprint-mismatch tests.
  static const Internet& other_internet() {
    static const Internet net = [] {
      GeneratorParams params = GeneratorParams::Era2015(400);
      params.seed = 78;
      World w = GenerateWorld(params);
      return Internet(w.full_graph, w.tiers, w.metadata);
    }();
    return net;
  }
};

TEST_F(SweepTest, FingerprintIsStableAndDistinguishesTopologies) {
  EXPECT_EQ(TopologyFingerprint(internet()), TopologyFingerprint(internet()));
  EXPECT_NE(TopologyFingerprint(internet()), TopologyFingerprint(other_internet()));
}

TEST_F(SweepTest, ParallelSweepMatchesSerialElementForElement) {
  std::vector<std::uint32_t> serial = HierarchyFreeSweep(internet());
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::uint32_t> parallel =
        sweep::ParallelHierarchyFreeSweep(internet(), threads);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST_F(SweepTest, SweepColumnsMatchPerOriginAnalysis) {
  SweepOptions options;
  options.threads = 4;
  options.chunk_size = 64;
  SweepRunStats stats;
  SweepTable table = RunSweep(internet(), options, &stats);
  ASSERT_TRUE(stats.complete);
  EXPECT_EQ(stats.chunks_resumed, 0u);
  EXPECT_EQ(stats.origins_computed, internet().num_ases());

  // Spot-check a spread of origins against the independent single-origin
  // analysis path.
  for (AsId origin = 0; origin < internet().num_ases(); origin += 37) {
    ReachabilitySummary expected = AnalyzeReachability(internet(), origin);
    EXPECT_EQ(table.Column(SweepColumn::kProviderFree)[origin], expected.provider_free)
        << "origin " << origin;
    EXPECT_EQ(table.Column(SweepColumn::kTier1Free)[origin], expected.tier1_free)
        << "origin " << origin;
    EXPECT_EQ(table.Column(SweepColumn::kHierarchyFree)[origin], expected.hierarchy_free)
        << "origin " << origin;
  }
}

TEST_F(SweepTest, EngineReusePathsAgreeWithAllocatingCompute) {
  ReachabilityEngine engine(internet().graph());
  Bitset scratch;
  Bitset excluded = internet().tiers().tier1_mask;
  for (AsId origin = 0; origin < internet().num_ases(); origin += 53) {
    const Bitset* mask = excluded.Test(origin) ? nullptr : &excluded;
    Bitset fresh = engine.Compute(origin, mask);
    engine.ComputeInto(origin, mask, scratch);
    EXPECT_EQ(scratch, fresh) << "origin " << origin;
    std::size_t count = engine.Count(origin, mask);
    EXPECT_EQ(count, fresh.Count() - 1) << "origin " << origin;
  }
}

TEST_F(SweepTest, RunSweepRejectsBadOptions) {
  SweepOptions zero_chunk;
  zero_chunk.chunk_size = 0;
  EXPECT_THROW(RunSweep(internet(), zero_chunk), InvalidArgument);
  SweepOptions no_columns;
  no_columns.columns = 0;
  EXPECT_THROW(RunSweep(internet(), no_columns), InvalidArgument);
  SweepOptions bad_bit;
  bad_bit.columns = 1u << 7;
  EXPECT_THROW(RunSweep(internet(), bad_bit), InvalidArgument);
}

TEST_F(SweepTest, StoreRoundTripsAndValidates) {
  SweepOptions options;
  options.threads = 2;
  SweepTable table = RunSweep(internet(), options);
  std::string path = TempPath("flatnet_sweep_roundtrip.sweep");
  sweep::WriteSweepStore(path, table);

  SweepStore store = SweepStore::Load(path);
  EXPECT_NO_THROW(store.ValidateAgainst(internet()));
  EXPECT_EQ(store.num_origins(), internet().num_ases());
  EXPECT_EQ(store.fingerprint(), TopologyFingerprint(internet()));
  EXPECT_TRUE(store.HasColumn(SweepColumn::kHierarchyFree));
  EXPECT_FALSE(store.HasColumn(SweepColumn::kPathOneHop));
  for (AsId origin = 0; origin < internet().num_ases(); origin += 41) {
    EXPECT_EQ(store.Value(SweepColumn::kHierarchyFree, origin),
              table.Column(SweepColumn::kHierarchyFree)[origin]);
  }
  // Asking for an absent column is loud, not zero-filled.
  EXPECT_THROW(store.table().Column(SweepColumn::kPathTwoHops), InvalidArgument);

  EXPECT_THROW(store.ValidateAgainst(other_internet()), Error);
  std::filesystem::remove(path);
}

TEST_F(SweepTest, LoadRejectsCorruptionNamingTheFile) {
  SweepOptions options;
  options.columns = ColumnBit(SweepColumn::kHierarchyFree);
  SweepTable table = RunSweep(internet(), options);
  std::string path = TempPath("flatnet_sweep_corrupt.sweep");
  sweep::WriteSweepStore(path, table);
  std::string pristine = ReadFileBytes(path);

  auto write_bytes = [&](std::string bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  auto expect_load_error = [&](const char* what) {
    try {
      SweepStore::Load(path);
      ADD_FAILURE() << "expected Load to throw for " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << what << ": error must name the file: " << e.what();
    }
  };

  // Truncated mid-body.
  write_bytes(pristine.substr(0, pristine.size() - 20));
  expect_load_error("truncation");

  // One flipped byte in the column data fails the CRC.
  {
    std::string bytes = pristine;
    bytes[40] = static_cast<char>(bytes[40] ^ 0x5a);
    write_bytes(bytes);
    expect_load_error("flipped body byte");
  }

  // Clobbered end magic (torn footer).
  {
    std::string bytes = pristine;
    bytes.replace(bytes.size() - 8, 8, "XXXXXXXX");
    write_bytes(bytes);
    expect_load_error("bad end magic");
  }

  // Wrong leading magic: not a sweep store at all.
  {
    std::string bytes = pristine;
    bytes[0] = 'X';
    write_bytes(bytes);
    expect_load_error("bad magic");
  }
  std::filesystem::remove(path);
}

TEST_F(SweepTest, ResumedRunProducesByteIdenticalStore) {
  std::string reference_store = TempPath("flatnet_sweep_ref.sweep");
  std::string resumed_store = TempPath("flatnet_sweep_resumed.sweep");
  std::string journal = TempPath("flatnet_sweep_resumed.journal");
  std::filesystem::remove(journal);

  // Reference: one uninterrupted run, no journal.
  SweepOptions reference;
  reference.threads = 2;
  reference.chunk_size = 32;
  sweep::FinalizeSweepStore(reference_store, RunSweep(internet(), reference));

  // Interrupted: stop after 3 chunks (the journal keeps them), then resume.
  SweepOptions partial = reference;
  partial.threads = 1;
  partial.journal_path = journal;
  partial.max_chunks = 3;
  SweepRunStats partial_stats;
  RunSweep(internet(), partial, &partial_stats);
  EXPECT_FALSE(partial_stats.complete);
  EXPECT_EQ(partial_stats.chunks_computed, 3u);
  ASSERT_TRUE(std::filesystem::exists(journal));

  SweepOptions resume = reference;
  resume.journal_path = journal;
  resume.resume = true;
  SweepRunStats resume_stats;
  SweepTable table = RunSweep(internet(), resume, &resume_stats);
  EXPECT_TRUE(resume_stats.complete);
  EXPECT_EQ(resume_stats.chunks_resumed, 3u);
  EXPECT_EQ(resume_stats.chunks_computed, resume_stats.chunks_total - 3u);
  sweep::FinalizeSweepStore(resumed_store, table, journal);

  EXPECT_EQ(ReadFileBytes(resumed_store), ReadFileBytes(reference_store));
  // Finalize removed the now-redundant journal.
  EXPECT_FALSE(std::filesystem::exists(journal));
  std::filesystem::remove(reference_store);
  std::filesystem::remove(resumed_store);
}

TEST_F(SweepTest, ResumeSurvivesATornJournalTail) {
  std::string reference_store = TempPath("flatnet_sweep_torn_ref.sweep");
  std::string resumed_store = TempPath("flatnet_sweep_torn.sweep");
  std::string journal = TempPath("flatnet_sweep_torn.journal");
  std::filesystem::remove(journal);

  SweepOptions base;
  base.threads = 2;
  base.chunk_size = 32;
  sweep::FinalizeSweepStore(reference_store, RunSweep(internet(), base));

  SweepOptions partial = base;
  partial.threads = 1;
  partial.journal_path = journal;
  partial.max_chunks = 2;
  RunSweep(internet(), partial);

  // A kill mid-append leaves a half-written record; recovery must drop it
  // and keep the intact prefix.
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    const char garbage[] = "CHK1\x03\x00\x00\x00torn-tail";
    out.write(garbage, sizeof(garbage) - 1);
  }

  SweepOptions resume = base;
  resume.journal_path = journal;
  resume.resume = true;
  SweepRunStats stats;
  SweepTable table = RunSweep(internet(), resume, &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.chunks_resumed, 2u);
  sweep::FinalizeSweepStore(resumed_store, table, journal);

  EXPECT_EQ(ReadFileBytes(resumed_store), ReadFileBytes(reference_store));
  std::filesystem::remove(reference_store);
  std::filesystem::remove(resumed_store);
}

TEST_F(SweepTest, JournalRejectsMismatchedMeta) {
  std::string path = TempPath("flatnet_sweep_meta.journal");
  SweepMeta meta;
  meta.fingerprint = 0xabcdef;
  meta.num_origins = 500;
  meta.columns = ColumnBit(SweepColumn::kHierarchyFree);
  meta.chunk_size = 32;
  {
    SweepJournal created = SweepJournal::Create(path, meta);
    std::uint32_t values[32] = {1, 2, 3};
    created.AppendChunk(0, values, 32);
  }

  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> chunks;
  SweepJournal recovered = SweepJournal::Recover(path, meta, &chunks);
  recovered.Close();
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 0u);
  EXPECT_EQ(chunks[0].second.size(), 32u);

  // Any keyed field changing (here: chunk size, then fingerprint) must
  // refuse the journal instead of resuming against the wrong inputs.
  SweepMeta wrong_chunk = meta;
  wrong_chunk.chunk_size = 64;
  chunks.clear();
  EXPECT_THROW(SweepJournal::Recover(path, wrong_chunk, &chunks), Error);
  SweepMeta wrong_topology = meta;
  wrong_topology.fingerprint = 0x1234;
  chunks.clear();
  EXPECT_THROW(SweepJournal::Recover(path, wrong_topology, &chunks), Error);
  std::filesystem::remove(path);
}

TEST_F(SweepTest, PathColumnsBinByRouteLength) {
  SweepOptions options;
  options.threads = 2;
  options.columns = sweep::kPathColumns;
  SweepTable table = RunSweep(internet(), options);
  // Unweighted PathLengths accumulates integral counts into doubles; the
  // sweep stores the same counts as u32.
  for (AsId origin : {AsId{0}, AsId{123}, AsId{499}}) {
    PathLengthBins expected = PathLengths(internet(), origin);
    EXPECT_EQ(table.Column(SweepColumn::kPathOneHop)[origin],
              static_cast<std::uint32_t>(expected.one_hop));
    EXPECT_EQ(table.Column(SweepColumn::kPathTwoHops)[origin],
              static_cast<std::uint32_t>(expected.two_hops));
    EXPECT_EQ(table.Column(SweepColumn::kPathThreePlus)[origin],
              static_cast<std::uint32_t>(expected.three_plus));
  }
}

// The chunked driver's own journal checks, over a trivial evaluator that
// writes each unit's index: an intact journal resumes (recovered and fresh
// chunks land through the same decode), while a record past the last
// chunk or of the wrong length fails the resume with an Error naming the
// journal.
TEST(ChunkedDriver, ResumeChecksRecordRangeAndLength) {
  std::string journal = TempPath("chunked.journal");
  SweepMeta meta;
  meta.fingerprint = 0xc0ffee;
  meta.num_origins = 10;
  meta.columns = 0x1;
  meta.chunk_size = 4;  // chunks of 4, 4, and 2 units
  sweep::ChunkedCampaign campaign{"chunked_test", "units", "units_computed", "ChunkedTest"};
  sweep::ChunkedOptions options;
  options.threads = 2;
  options.journal_path = journal;
  options.resume = true;
  std::vector<std::uint32_t> table(meta.num_origins, 0);
  auto prepare = [&] { return meta; };
  auto make_evaluator = [] {
    return sweep::ChunkEvaluator(
        [](std::size_t begin, std::size_t len, std::uint32_t* payload) {
          for (std::size_t i = 0; i < len; ++i) {
            payload[i] = static_cast<std::uint32_t>(begin + i);
          }
        });
  };
  auto decode = [&](std::size_t begin, std::size_t len, const std::uint32_t* payload) {
    std::copy(payload, payload + len, table.begin() + static_cast<std::ptrdiff_t>(begin));
  };
  auto write_journal = [&](std::uint32_t chunk, std::vector<std::uint32_t> values) {
    SweepJournal writer = SweepJournal::Create(journal, meta);
    writer.AppendChunk(chunk, values.data(), values.size());
  };
  auto resume_error = [&] {
    try {
      sweep::RunChunked(campaign, options, prepare, make_evaluator, decode);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  write_journal(1, {4, 5, 6, 7});
  sweep::ChunkedStats stats;
  EXPECT_EQ(sweep::RunChunked(campaign, options, prepare, make_evaluator, decode, &stats), 6u);
  EXPECT_EQ(stats.chunks_resumed, 1u);
  EXPECT_EQ(stats.chunks_computed, 2u);
  EXPECT_TRUE(stats.complete);
  std::vector<std::uint32_t> expected(meta.num_origins);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(table, expected);

  write_journal(3, {0, 0, 0, 0});
  std::string error = resume_error();
  EXPECT_NE(error.find(journal), std::string::npos) << error;
  EXPECT_NE(error.find("chunk 3 is out of range (3 chunks)"), std::string::npos) << error;

  write_journal(2, {8, 9, 10});
  error = resume_error();
  EXPECT_NE(error.find(journal), std::string::npos) << error;
  EXPECT_NE(error.find("chunk 2 holds 3 values, expected 2"), std::string::npos) << error;
  std::filesystem::remove(journal);
}

// max_chunks is a budget, not a hint: with more workers than the budget
// and chunks slow enough that every worker is mid-claim at once, exactly
// max_chunks chunks are computed and journaled.
TEST(ChunkedDriver, MaxChunksIsExactUnderConcurrency) {
  std::string journal = TempPath("chunked_max.journal");
  SweepMeta meta;
  meta.fingerprint = 0xb0d6e7;
  meta.num_origins = 16;
  meta.columns = 0x1;
  meta.chunk_size = 2;
  sweep::ChunkedCampaign campaign{"chunked_test", "units", "units_computed", "ChunkedTest"};
  sweep::ChunkedOptions options;
  options.threads = 4;
  options.journal_path = journal;
  options.max_chunks = 1;
  auto make_evaluator = [] {
    return sweep::ChunkEvaluator([](std::size_t, std::size_t len, std::uint32_t* payload) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::fill(payload, payload + len, 1u);
    });
  };
  auto decode = [](std::size_t, std::size_t, const std::uint32_t*) {};

  sweep::ChunkedStats stats;
  sweep::RunChunked(campaign, options, [&] { return meta; }, make_evaluator, decode, &stats);
  EXPECT_EQ(stats.chunks_computed, 1u);
  EXPECT_FALSE(stats.complete);

  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> records;
  SweepJournal::Recover(journal, meta, &records).Close();
  EXPECT_EQ(records.size(), 1u);
  std::filesystem::remove(journal);
}

}  // namespace
}  // namespace flatnet
