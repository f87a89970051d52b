// Tests for the parallel leak-campaign engine and its columnar result
// store (src/leaksim/): serial equivalence, thread-count determinism,
// store round-trip and corruption handling, checkpoint/resume, and
// trial accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "core/leak_scenarios.h"
#include "leaksim/engine.h"
#include "leaksim/store.h"
#include "sweep/fingerprint.h"
#include "test_paths.h"
#include "topogen/generate.h"
#include "util/error.h"

namespace flatnet {
namespace {

using leaksim::CampaignFingerprint;
using leaksim::LeakCampaignOptions;
using leaksim::LeakCampaignStats;
using leaksim::LeakCellSpec;
using leaksim::LeakStore;
using leaksim::LeakTable;
using leaksim::RunLeakCampaign;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

class LeaksimTest : public ::testing::Test {
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

  // The Fig 7/8-style cell matrix the tests run: two victims, a few
  // scenarios, deterministic seeds.
  static std::vector<LeakCellSpec> Cells(std::uint32_t trials) {
    std::vector<LeakCellSpec> cells;
    AsId victims[] = {world().tiers.tier1[0], world().tiers.tier2[0]};
    LeakScenario scenarios[] = {LeakScenario::kAnnounceAll,
                                LeakScenario::kAnnounceAllLockT1T2,
                                LeakScenario::kAnnounceHierarchyOnly};
    std::uint64_t seed = 0x1eaf;
    for (AsId victim : victims) {
      for (LeakScenario scenario : scenarios) {
        LeakCellSpec spec;
        spec.victim = victim;
        spec.scenario = scenario;
        spec.seed = seed++;
        spec.trials = trials;
        cells.push_back(spec);
      }
    }
    return cells;
  }
};

TEST_F(LeaksimTest, CampaignMatchesSerialScenarioTrialForTrial) {
  std::vector<LeakCellSpec> cells = Cells(25);
  LeakTable table = RunLeakCampaign(internet(), cells);
  ASSERT_EQ(table.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    LeakTrialSeries serial =
        RunLeakScenario(internet(), cells[i].victim, cells[i].scenario, cells[i].trials,
                        cells[i].seed, nullptr, cells[i].lock_mode);
    EXPECT_EQ(table.cells[i].fraction_ases, serial.fraction_ases_detoured) << "cell " << i;
    EXPECT_EQ(table.cells[i].attempts, serial.attempts) << "cell " << i;
  }
}

TEST_F(LeaksimTest, UserWeightedCampaignMatchesSerial) {
  std::vector<double> users(internet().num_ases());
  for (AsId id = 0; id < internet().num_ases(); ++id) {
    users[id] = internet().metadata().Get(id).users;
  }
  LeakCellSpec spec;
  spec.victim = world().tiers.tier2[0];
  spec.seed = 9;
  spec.trials = 20;
  LeakCampaignOptions options;
  options.users = &users;
  LeakTable table = RunLeakCampaign(internet(), {spec}, options);
  ASSERT_TRUE(table.has_users);

  LeakTrialSeries serial =
      RunLeakScenario(internet(), spec.victim, spec.scenario, spec.trials, spec.seed, &users);
  EXPECT_EQ(table.cells[0].fraction_ases, serial.fraction_ases_detoured);
  EXPECT_EQ(table.cells[0].fraction_users, serial.fraction_users_detoured);
}

TEST_F(LeaksimTest, ThreadAndChunkCountDoNotChangeStoreBytes) {
  std::vector<LeakCellSpec> cells = Cells(30);
  std::string reference_path = TempPath("flatnet_leaksim_t1.leak");
  std::string variant_path = TempPath("flatnet_leaksim_t8.leak");

  LeakCampaignOptions reference;
  reference.threads = 1;
  reference.chunk_trials = 64;
  leaksim::WriteLeakStore(reference_path, RunLeakCampaign(internet(), cells, reference));

  // More threads than cores and a chunk size that straddles cell
  // boundaries must not change a single byte.
  LeakCampaignOptions variant;
  variant.threads = 8;
  variant.chunk_trials = 7;
  leaksim::WriteLeakStore(variant_path, RunLeakCampaign(internet(), cells, variant));

  EXPECT_EQ(ReadFileBytes(variant_path), ReadFileBytes(reference_path));
  std::filesystem::remove(reference_path);
  std::filesystem::remove(variant_path);
}

TEST_F(LeaksimTest, StoreRoundTripsAndValidates) {
  std::vector<LeakCellSpec> cells = Cells(12);
  LeakTable table = RunLeakCampaign(internet(), cells);
  std::string path = TempPath("flatnet_leaksim_roundtrip.leak");
  leaksim::WriteLeakStore(path, table);

  LeakStore store = LeakStore::Load(path);
  EXPECT_NO_THROW(store.ValidateAgainst(internet()));
  EXPECT_EQ(store.fingerprint(), sweep::TopologyFingerprint(internet()));
  EXPECT_FALSE(store.has_users());
  ASSERT_EQ(store.num_cells(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(store.cell(i).spec, cells[i]) << "cell " << i;
    EXPECT_EQ(store.cell(i).fraction_ases, table.cells[i].fraction_ases) << "cell " << i;
    EXPECT_EQ(store.cell(i).attempts, table.cells[i].attempts) << "cell " << i;
  }

  std::size_t found = store.FindCell(cells[1].victim, cells[1].scenario, cells[1].lock_mode,
                                     cells[1].model);
  EXPECT_EQ(found, 1u);
  EXPECT_EQ(store.FindCell(cells[0].victim, LeakScenario::kAnnounceAllLockGlobal,
                           PeerLockMode::kFull, LeakModel::kReannounce),
            LeakStore::npos);

  EXPECT_THROW(store.ValidateAgainst(other_internet()), Error);
  std::filesystem::remove(path);
}

TEST_F(LeaksimTest, LoadRejectsCorruptionNamingTheFile) {
  LeakTable table = RunLeakCampaign(internet(), Cells(8));
  std::string path = TempPath("flatnet_leaksim_corrupt.leak");
  leaksim::WriteLeakStore(path, table);
  std::string pristine = ReadFileBytes(path);

  auto write_bytes = [&](std::string bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  auto expect_load_error = [&](const char* what) {
    try {
      LeakStore::Load(path);
      ADD_FAILURE() << "expected Load to throw for " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << what << ": error must name the file: " << e.what();
    }
  };

  // Truncated mid-body.
  write_bytes(pristine.substr(0, pristine.size() - 20));
  expect_load_error("truncation");

  // One flipped byte in the fraction data fails the CRC.
  {
    std::string bytes = pristine;
    bytes[bytes.size() - 20] = static_cast<char>(bytes[bytes.size() - 20] ^ 0x5a);
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

  // Wrong leading magic: not a leak store at all.
  {
    std::string bytes = pristine;
    bytes[0] = 'X';
    write_bytes(bytes);
    expect_load_error("bad magic");
  }

  // An out-of-range scenario enum in the first cell descriptor (byte 36)
  // is rejected by the range check before the CRC is even consulted.
  {
    std::string bytes = pristine;
    bytes[36] = 99;
    write_bytes(bytes);
    expect_load_error("invalid scenario enum");
  }
  std::filesystem::remove(path);
}

TEST_F(LeaksimTest, ResumedRunProducesByteIdenticalStore) {
  std::vector<LeakCellSpec> cells = Cells(30);
  std::string reference_store = TempPath("flatnet_leaksim_ref.leak");
  std::string resumed_store = TempPath("flatnet_leaksim_resumed.leak");
  std::string journal = TempPath("flatnet_leaksim_resumed.journal");
  std::filesystem::remove(journal);

  // Reference: one uninterrupted run, no journal.
  LeakCampaignOptions reference;
  reference.threads = 2;
  reference.chunk_trials = 16;
  leaksim::FinalizeLeakStore(reference_store, RunLeakCampaign(internet(), cells, reference));

  // Interrupted: stop after 3 chunks (the journal keeps them), then resume
  // at a different thread count.
  LeakCampaignOptions partial = reference;
  partial.threads = 1;
  partial.journal_path = journal;
  partial.max_chunks = 3;
  LeakCampaignStats partial_stats;
  RunLeakCampaign(internet(), cells, partial, &partial_stats);
  EXPECT_FALSE(partial_stats.complete);
  EXPECT_EQ(partial_stats.chunks_computed, 3u);
  ASSERT_TRUE(std::filesystem::exists(journal));

  LeakCampaignOptions resume = reference;
  resume.threads = 4;
  resume.journal_path = journal;
  resume.resume = true;
  LeakCampaignStats resume_stats;
  LeakTable table = RunLeakCampaign(internet(), cells, resume, &resume_stats);
  EXPECT_TRUE(resume_stats.complete);
  EXPECT_EQ(resume_stats.chunks_resumed, 3u);
  EXPECT_EQ(resume_stats.chunks_computed, resume_stats.chunks_total - 3u);
  leaksim::FinalizeLeakStore(resumed_store, table, journal);

  EXPECT_EQ(ReadFileBytes(resumed_store), ReadFileBytes(reference_store));
  // Finalize removed the now-redundant journal.
  EXPECT_FALSE(std::filesystem::exists(journal));
  std::filesystem::remove(reference_store);
  std::filesystem::remove(resumed_store);
}

TEST_F(LeaksimTest, ResumeRejectsAChangedCampaign) {
  std::vector<LeakCellSpec> cells = Cells(20);
  std::string journal = TempPath("flatnet_leaksim_mismatch.journal");
  std::filesystem::remove(journal);

  LeakCampaignOptions partial;
  partial.threads = 1;
  partial.chunk_trials = 16;
  partial.journal_path = journal;
  partial.max_chunks = 2;
  RunLeakCampaign(internet(), cells, partial, nullptr);
  ASSERT_TRUE(std::filesystem::exists(journal));

  // The campaign fingerprint covers every cell field, so resuming with a
  // reseeded cell list must fail instead of mixing incompatible trials.
  std::vector<LeakCellSpec> reseeded = cells;
  reseeded[0].seed ^= 1;
  LeakCampaignOptions resume = partial;
  resume.max_chunks = 0;
  resume.resume = true;
  EXPECT_THROW(RunLeakCampaign(internet(), reseeded, resume), Error);
  std::filesystem::remove(journal);
}

TEST_F(LeaksimTest, CampaignFingerprintCoversCellsAndTopology) {
  std::vector<LeakCellSpec> cells = Cells(10);
  std::uint64_t base = CampaignFingerprint(internet(), cells, false);
  EXPECT_EQ(base, CampaignFingerprint(internet(), cells, false));
  EXPECT_NE(base, CampaignFingerprint(internet(), cells, true));
  EXPECT_NE(base, CampaignFingerprint(other_internet(), cells, false));
  std::vector<LeakCellSpec> reseeded = cells;
  reseeded.back().seed ^= 1;
  EXPECT_NE(base, CampaignFingerprint(internet(), reseeded, false));
}

TEST_F(LeaksimTest, UnderCollectionIsAccountedNotSilent) {
  // Two components: the victim (ASN 1) has a single provider (ASN 2), and
  // a 40-AS chain is unreachable from both. Only AS 2 can ever leak, so
  // uniform draws reject ~97% of the time and the attempt budget
  // (trials * 20 + 100) runs out well before 60 trials validate.
  AsGraphBuilder builder;
  builder.AddEdge(2, 1, EdgeType::kP2C);
  for (Asn asn = 100; asn < 140; ++asn) builder.AddEdge(asn, asn + 1, EdgeType::kP2C);
  AsGraph graph = std::move(builder).Build();
  std::size_t n = graph.num_ases();
  TierSets tiers;
  tiers.tier1_mask = Bitset(n);
  tiers.tier2_mask = Bitset(n);
  Internet tiny(std::move(graph), tiers, AsMetadata(n));

  AsId victim = *tiny.graph().IdOf(1);
  LeakCellSpec spec;
  spec.victim = victim;
  spec.seed = 5;
  spec.trials = 60;

  LeakTrialSeries serial =
      RunLeakScenario(tiny, victim, spec.scenario, spec.trials, spec.seed);
  EXPECT_EQ(serial.trials_requested, 60u);
  EXPECT_TRUE(serial.UnderCollected());
  EXPECT_LT(serial.collected(), serial.trials_requested);
  EXPECT_EQ(serial.attempts, 60u * 20u + 100u);  // full budget consumed

  LeakTable table = RunLeakCampaign(tiny, {spec});
  EXPECT_TRUE(table.cells[0].UnderCollected());
  EXPECT_EQ(table.cells[0].fraction_ases, serial.fraction_ases_detoured);
  EXPECT_EQ(table.cells[0].attempts, serial.attempts);

  // Under-collected cells round-trip through the store with their
  // accounting intact.
  std::string path = TempPath("flatnet_leaksim_under.leak");
  leaksim::WriteLeakStore(path, table);
  LeakStore store = LeakStore::Load(path);
  EXPECT_TRUE(store.cell(0).UnderCollected());
  EXPECT_EQ(store.cell(0).spec.trials, 60u);
  EXPECT_EQ(store.cell(0).attempts, serial.attempts);
  std::filesystem::remove(path);
}

TEST_F(LeaksimTest, ZeroTrialCampaignIsEmptyNotAnError) {
  LeakCellSpec spec;
  spec.victim = world().tiers.tier1[0];
  spec.seed = 3;
  spec.trials = 0;
  std::vector<double> users(internet().num_ases(), 1.0);
  LeakCampaignOptions options;
  options.users = &users;
  LeakCampaignStats stats;
  LeakTable table = RunLeakCampaign(internet(), {spec}, options, &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.trials_evaluated, 0u);
  EXPECT_EQ(table.cells[0].collected(), 0u);
  EXPECT_FALSE(table.cells[0].UnderCollected());

  // The empty cell's columns (both, with users) round-trip through the
  // store as empty.
  std::string path = TempPath("flatnet_leaksim_empty.leak");
  leaksim::WriteLeakStore(path, table);
  LeakStore store = LeakStore::Load(path);
  ASSERT_EQ(store.num_cells(), 1u);
  EXPECT_TRUE(store.has_users());
  EXPECT_TRUE(store.cell(0).fraction_ases.empty());
  EXPECT_TRUE(store.cell(0).fraction_users.empty());
  std::filesystem::remove(path);
}

TEST_F(LeaksimTest, CampaignRejectsBadInputs) {
  LeakCellSpec spec;
  spec.victim = 0;
  spec.trials = 1;
  LeakCampaignOptions zero_chunk;
  zero_chunk.chunk_trials = 0;
  EXPECT_THROW(RunLeakCampaign(internet(), {spec}, zero_chunk), InvalidArgument);

  LeakCellSpec bad_victim;
  bad_victim.victim = static_cast<AsId>(internet().num_ases());
  bad_victim.trials = 1;
  EXPECT_THROW(RunLeakCampaign(internet(), {bad_victim}), InvalidArgument);

  std::vector<double> short_users(3);
  LeakCampaignOptions bad_users;
  bad_users.users = &short_users;
  EXPECT_THROW(RunLeakCampaign(internet(), {spec}, bad_users), InvalidArgument);
}

}  // namespace
}  // namespace flatnet
