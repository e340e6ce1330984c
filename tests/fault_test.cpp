// Fault-tolerance layer tests: CRC-validated checkpoint frames and stores,
// the seeded fault-plan machinery, and — in fault builds (PHIGRAPH_FAULTS)
// — the end-to-end injection matrix: every named fault point, both ranks,
// first/middle/last supersteps, each run under a watchdog that turns a
// deadlocked fault path into an abort instead of a hung suite.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/fault/checkpoint.hpp"
#include "src/fault/fault_injection.hpp"
#include "src/gen/generators.hpp"
#include "src/partition/partition.hpp"
#include "tests/watchdog.hpp"

namespace {

using namespace phigraph;
using fault::CheckpointConfig;
using fault::CheckpointFrame;
using fault::CheckpointStore;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::Point;

// ---- CRC32 ------------------------------------------------------------------

TEST(Crc32, MatchesTheStandardCheckVector) {
  // The canonical CRC-32/IEEE check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(fault::Crc32::of("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalUpdatesMatchOneShot) {
  fault::Crc32 c;
  c.update("12345", 5);
  c.update("6789", 4);
  EXPECT_EQ(c.value(), fault::Crc32::of("123456789", 9));
}

// ---- checkpoint frames ------------------------------------------------------

CheckpointFrame make_frame(int superstep) {
  CheckpointFrame f;
  f.superstep = superstep;
  f.values = {1, 2, 3, 4, 5, 6, 7, 8};
  f.active = {1, 0};
  f.seal();
  return f;
}

TEST(CheckpointFrame, SealedFrameValidatesAndCorruptionIsDetected) {
  auto f = make_frame(4);
  EXPECT_TRUE(f.valid());
  f.values[3] ^= 0x40;  // single bit flip in the payload
  EXPECT_FALSE(f.valid());
  f.values[3] ^= 0x40;
  EXPECT_TRUE(f.valid());
  f.superstep = 5;  // header tampering is caught too
  EXPECT_FALSE(f.valid());
}

TEST(CheckpointStore, KeepsTheLastTwoFramesNewestFirst) {
  CheckpointConfig cfg;
  cfg.interval = 2;
  CheckpointStore store(cfg, /*rank=*/0);
  store.write(make_frame(2));
  store.write(make_frame(4));
  store.write(make_frame(6));  // overwrites the superstep-2 slot
  EXPECT_EQ(store.valid_supersteps(), (std::vector<int>{6, 4}));
  EXPECT_TRUE(store.frame_at(4).has_value());
  EXPECT_FALSE(store.frame_at(2).has_value());
  ASSERT_TRUE(store.latest_valid().has_value());
  EXPECT_EQ(store.latest_valid()->superstep, 6);
}

class FileCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pg_ckpt_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed())))
               .string() +
           "_" + ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(FileCheckpointTest, RoundTripsFramesThroughDisk) {
  CheckpointConfig cfg;
  cfg.interval = 2;
  cfg.file_backed = true;
  cfg.dir = dir_;
  CheckpointStore store(cfg, /*rank=*/1);
  const auto f = make_frame(2);
  store.write(f);
  const auto back = store.latest_valid();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->superstep, f.superstep);
  EXPECT_EQ(back->values, f.values);
  EXPECT_EQ(back->active, f.active);
  EXPECT_EQ(back->crc, f.crc);
}

TEST_F(FileCheckpointTest, CorruptedLatestFrameFallsBackToPrevious) {
  CheckpointConfig cfg;
  cfg.interval = 2;
  cfg.file_backed = true;
  cfg.dir = dir_;
  CheckpointStore store(cfg, /*rank=*/0);
  store.write(make_frame(2));  // slot 0
  store.write(make_frame(4));  // slot 1 — the newest
  {
    // Flip one payload byte of the newest frame on disk (past the 4-byte
    // magic and 24-byte header): its CRC no longer validates.
    std::fstream f(store.slot_path(1),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(4 + 24 + 2);
    char b = 0;
    f.read(&b, 1);
    b ^= 0x10;
    f.seekp(4 + 24 + 2);
    f.write(&b, 1);
  }
  // The corrupted frame is rejected; readers fall back to superstep 2.
  EXPECT_EQ(store.valid_supersteps(), (std::vector<int>{2}));
  EXPECT_FALSE(store.frame_at(4).has_value());
  ASSERT_TRUE(store.latest_valid().has_value());
  EXPECT_EQ(store.latest_valid()->superstep, 2);
}

TEST_F(FileCheckpointTest, TruncatedFrameFileIsRejected) {
  CheckpointConfig cfg;
  cfg.interval = 2;
  cfg.file_backed = true;
  cfg.dir = dir_;
  CheckpointStore store(cfg, /*rank=*/0);
  store.write(make_frame(2));
  std::filesystem::resize_file(store.slot_path(0), 10);  // torn write
  EXPECT_TRUE(store.valid_supersteps().empty());
  EXPECT_FALSE(store.latest_valid().has_value());
}

TEST_F(FileCheckpointTest, WritesLeaveNoTempFilesAndBothSlotsValidate) {
  // Crash-consistent write path: each frame goes to a .tmp sibling, is
  // fsynced, and only then renamed over the slot — so after any number of
  // completed writes no .tmp residue may remain and both slots validate.
  CheckpointConfig cfg;
  cfg.interval = 2;
  cfg.file_backed = true;
  cfg.dir = dir_;
  CheckpointStore store(cfg, /*rank=*/0);
  store.write(make_frame(2));
  store.write(make_frame(4));
  store.write(make_frame(6));
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "stray temp file: " << entry.path();
  EXPECT_EQ(store.valid_supersteps(), (std::vector<int>{6, 4}));
}

// ---- fault plans ------------------------------------------------------------

TEST(FaultPlan, FromSeedIsDeterministic) {
  const auto a = FaultPlan::from_seed(42, /*max_superstep=*/9);
  const auto b = FaultPlan::from_seed(42, /*max_superstep=*/9);
  ASSERT_EQ(a.specs().size(), 1u);
  ASSERT_EQ(b.specs().size(), 1u);
  EXPECT_EQ(a.specs()[0].point, b.specs()[0].point);
  EXPECT_EQ(a.specs()[0].rank, b.specs()[0].rank);
  EXPECT_EQ(a.specs()[0].superstep, b.specs()[0].superstep);
  // Different seeds should (for these two) differ somewhere.
  const auto c = FaultPlan::from_seed(43, 9);
  EXPECT_TRUE(a.specs()[0].point != c.specs()[0].point ||
              a.specs()[0].rank != c.specs()[0].rank ||
              a.specs()[0].superstep != c.specs()[0].superstep);
}

TEST(FaultPlan, ArmRejectsInvalidSpecs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FaultPlan plan;
  // Rank 2+ is legal now (N-rank clusters); negative ranks still are not.
  EXPECT_DEATH(plan.arm({Point::kEngineGenerate, /*rank=*/-1, 0, 1}),
               "rank must be >= 0");
  EXPECT_DEATH(plan.arm({Point::kEngineGenerate, 0, /*superstep=*/-1, 1}),
               "out of range");
  EXPECT_DEATH(plan.arm({Point::kEngineGenerate, 0, 0, /*occurrence=*/0}),
               "out of range");
  EXPECT_DEATH(plan.arm({Point::kEngineGenerate, 0, 0, 1,
                         fault::FaultKind::kTransient, /*shots=*/0}),
               "shots out of range");
}

TEST(FaultPlan, ChaosFromSeedIsDeterministicAndBounded) {
  const auto a = FaultPlan::chaos_from_seed(7, /*max_superstep=*/9, /*nranks=*/4);
  const auto b = FaultPlan::chaos_from_seed(7, 9, 4);
  ASSERT_EQ(a.specs().size(), b.specs().size());
  ASSERT_GE(a.specs().size(), 1u);
  ASSERT_LE(a.specs().size(), 3u);
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].point, b.specs()[i].point);
    EXPECT_EQ(a.specs()[i].rank, b.specs()[i].rank);
    EXPECT_EQ(a.specs()[i].superstep, b.specs()[i].superstep);
    EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
    EXPECT_EQ(a.specs()[i].shots, b.specs()[i].shots);
    EXPECT_GE(a.specs()[i].rank, 0);
    EXPECT_LT(a.specs()[i].rank, 4);
    EXPECT_LE(a.specs()[i].superstep, 9);
    EXPECT_GE(a.specs()[i].shots, 1);
    EXPECT_LE(a.specs()[i].shots, 2);
  }
}

TEST(FaultPoints, EveryPointHasAName) {
  for (int p = 0; p < fault::kNumPoints; ++p)
    EXPECT_STRNE(fault::point_name(static_cast<Point>(p)), "?");
}

// ---- end-to-end injection matrix (fault builds only) ------------------------

#if !PG_FAULTS_ENABLED

TEST(FaultInjection, SkippedWithoutFaultBuild) {
  GTEST_SKIP() << "fault injection requires -DPHIGRAPH_FAULTS=ON "
                  "(the `faults` preset)";
}

#else

constexpr int kSupersteps = 8;     // PageRank runs exactly this many
constexpr int kCkptInterval = 3;   // checkpoints at resume supersteps 3, 6

core::EngineConfig fault_cfg(int simd_bytes, core::DirectionMode dir) {
  core::EngineConfig c;
  // Pipelining on BOTH ranks so pipeline.mover_insert can fire on either.
  c.mode = core::ExecMode::kPipelining;
  // The engine.process and pipeline.mover_insert sites exist only on the
  // CSB path, which a pulling PageRank rank never takes.
  c.direction_mode = dir;
  c.simd_bytes = simd_bytes;
  c.threads = 3;
  c.movers = 2;
  c.sched_chunk = 16;
  c.queue_capacity = 256;
  c.max_supersteps = kSupersteps;
  c.checkpoint.interval = kCkptInterval;
  return c;
}

/// Runs hetero PageRank with `plan` armed and asserts the fault-tolerance
/// contract: no deadlock (watchdog), no std::terminate, CPU-only failover
/// completes with correct values and fewer than kCkptInterval lost
/// supersteps; a fired plan is reported by the rank, and in the BSP phase,
/// it fired in. When the plan happens not to fire (a seeded plan can land
/// on a site the schedule never reaches), the run must simply be correct.
/// `dir` picks the CSB push path (the default) or the pull path with its
/// per-superstep share swap. A pulled run folds every vertex's shares in a
/// fixed order whichever rung finished it, so it must equal reference_run
/// bit for bit; a pushed run combines in arrival order and is only near.
void run_injected(const FaultPlan& plan, bool expect_fire,
                  int expected_rank = -1, const char* expected_phase = nullptr,
                  core::DirectionMode dir = core::DirectionMode::kForcePush) {
  const auto g = gen::pokec_like(/*n=*/1000, /*m=*/8000, /*seed=*/17);
  const apps::PageRank prog;
  fault::ScopedPlan armed(plan);
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));

  core::ClusterEngine<apps::PageRank> ce(
      g, partition::round_robin_partition_k(g, {1, 1}), prog,
      {fault_cfg(simd::kCpuSimdBytes, dir),
       fault_cfg(simd::kMicSimdBytes, dir)});
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  if (expect_fire) {
    EXPECT_EQ(res.failover.failed_over, 1u) << "plan did not fire";
    EXPECT_TRUE(res.fault.valid());
    if (expected_rank >= 0) {
      EXPECT_EQ(res.fault.rank, expected_rank);
    }
    if (expected_phase) {
      EXPECT_EQ(res.fault.phase, expected_phase);
    }
    EXPECT_LT(res.failover.lost_supersteps,
              static_cast<std::uint64_t>(kCkptInterval));
    EXPECT_GE(res.failover.recovery_ms, 0.0);
  }
  if (res.failover.failed_over) {
    EXPECT_LT(res.failover.lost_supersteps,
              static_cast<std::uint64_t>(kCkptInterval));
  }
  const auto classic = apps::classic_pagerank(g, kSupersteps);
  ASSERT_EQ(res.global_values.size(), classic.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(res.global_values[v], classic[v], 1e-3f * (1.0f + classic[v]))
        << "vertex " << v;
  if (dir != core::DirectionMode::kForcePush) {
    EXPECT_EQ(res.global_values, apps::reference_run(g, prog, kSupersteps));
  }
}

/// One injection: the point to fire and the BSP phase its report must name.
struct MatrixCase {
  const char* name;
  FaultSpec spec;
  const char* phase;
};

// gtest prints a parameter into the registered test name; the default byte
// dump of MatrixCase would carry the address of `name`, which changes from
// run to run.
void PrintTo(const MatrixCase& c, std::ostream* os) { *os << c.name; }

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& pi) {
  return pi.param.name;
}

class FaultMatrix : public ::testing::TestWithParam<MatrixCase> {};

// Every fault point, on both ranks, spread over first / middle / last
// supersteps. checkpoint.write only executes where (s + 1) % interval == 0,
// so its cases sit on those boundaries.
const MatrixCase kMatrix[] = {
    {"ExchangeDeposit_Cpu_First", {Point::kExchangeDeposit, 0, 0, 1},
     "exchange"},
    {"ExchangeDeposit_Mic_Last", {Point::kExchangeDeposit, 1, 7, 1},
     "exchange"},
    {"Generate_Cpu_Middle", {Point::kEngineGenerate, 0, 4, 1}, "generate"},
    {"Generate_Mic_First", {Point::kEngineGenerate, 1, 0, 1}, "generate"},
    {"Process_Cpu_Last", {Point::kEngineProcess, 0, 7, 1}, "process"},
    {"Process_Mic_Middle", {Point::kEngineProcess, 1, 4, 1}, "process"},
    {"Update_Cpu_First", {Point::kEngineUpdate, 0, 0, 1}, "update"},
    {"Update_Mic_Last", {Point::kEngineUpdate, 1, 7, 1}, "update"},
    {"MoverInsert_Cpu_Middle", {Point::kPipelineMoverInsert, 0, 4, 1},
     "generate"},
    {"MoverInsert_Mic_Early", {Point::kPipelineMoverInsert, 1, 2, 1},
     "generate"},
    {"CheckpointWrite_Cpu_Early", {Point::kCheckpointWrite, 0, 2, 1},
     "checkpoint"},
    {"CheckpointWrite_Mic_Late", {Point::kCheckpointWrite, 1, 5, 1},
     "checkpoint"},
    // Occurrence > 1: the Nth reach fires, not the first.
    {"Generate_Cpu_ThirdHit", {Point::kEngineGenerate, 0, 4, 3}, "generate"},
};

TEST_P(FaultMatrix, FailsOverWithoutDeadlockOrTerminate) {
  const auto& c = GetParam();
  FaultPlan plan;
  plan.arm(c.spec);
  run_injected(plan, /*expect_fire=*/true, c.spec.rank, c.phase);
}

INSTANTIATE_TEST_SUITE_P(AllPoints, FaultMatrix, ::testing::ValuesIn(kMatrix),
                         case_name);

// The pull path's sites on both ranks: the share swap (exchange.deposit,
// reported in the exchange phase although it runs inside generate), the
// gather (engine.generate) and the update.
class PulledFaultMatrix : public ::testing::TestWithParam<MatrixCase> {};

const MatrixCase kPulledMatrix[] = {
    {"ExchangeDeposit_Cpu_First", {Point::kExchangeDeposit, 0, 0, 1},
     "exchange"},
    {"ExchangeDeposit_Mic_Last", {Point::kExchangeDeposit, 1, 7, 1},
     "exchange"},
    {"Generate_Cpu_Middle", {Point::kEngineGenerate, 0, 4, 1}, "generate"},
    {"Generate_Mic_First", {Point::kEngineGenerate, 1, 0, 1}, "generate"},
    {"Update_Cpu_Last", {Point::kEngineUpdate, 0, 7, 1}, "update"},
    {"Update_Mic_Middle", {Point::kEngineUpdate, 1, 4, 1}, "update"},
};

TEST_P(PulledFaultMatrix, FailsOverWithoutDeadlockOrTerminate) {
  const auto& c = GetParam();
  FaultPlan plan;
  plan.arm(c.spec);
  run_injected(plan, /*expect_fire=*/true, c.spec.rank, c.phase,
               core::DirectionMode::kAuto);
}

INSTANTIATE_TEST_SUITE_P(PullPoints, PulledFaultMatrix,
                         ::testing::ValuesIn(kPulledMatrix), case_name);

// Seeded plans: the acceptance bar is ≥8 replayable schedules with zero
// deadlocks and zero std::terminate, whether or not the drawn site fires.
class SeededFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededFaults, RunsToCorrectValuesUnderSeededPlan) {
  const auto plan = FaultPlan::from_seed(GetParam(), kSupersteps - 1);
  run_injected(plan, /*expect_fire=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededFaults,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

// ---- k-shot firing semantics ------------------------------------------------

// A spec fires on reaches [occurrence, occurrence + shots), then goes quiet
// — the property the transient-retry tests lean on: a replayed superstep
// re-fires until the shots run out, after which the retry genuinely
// succeeds.
TEST(FaultShots, FiresForShotsConsecutiveReachesThenStops) {
  FaultPlan plan;
  plan.arm({Point::kEngineGenerate, /*rank=*/0, /*superstep=*/3,
            /*occurrence=*/2, fault::FaultKind::kTransient, /*shots=*/2});
  fault::ScopedPlan armed(plan);
  int fires = 0;
  for (int reach = 1; reach <= 6; ++reach) {
    try {
      PG_FAULT_POINT(kEngineGenerate, 0, 3);
    } catch (const fault::FaultInjected& e) {
      ++fires;
      EXPECT_TRUE(reach == 2 || reach == 3) << "fired on reach " << reach;
      EXPECT_EQ(e.kind, fault::FaultKind::kTransient);
    }
  }
  EXPECT_EQ(fires, 2);
  // Different (rank, superstep) coordinates never fire.
  EXPECT_NO_THROW(PG_FAULT_POINT(kEngineGenerate, 1, 3));
  EXPECT_NO_THROW(PG_FAULT_POINT(kEngineGenerate, 0, 4));
}

// ---- crash-consistent file checkpoints --------------------------------------

// A crash between the fsynced temp write and the atomic rename
// (checkpoint.rename) must leave BOTH existing slots valid — the torn write
// can invalidate neither — and once the fault clears the same superstep can
// be rewritten successfully.
TEST_F(FileCheckpointTest, RenameFaultCannotInvalidateEitherSlot) {
  CheckpointConfig cfg;
  cfg.interval = 2;
  cfg.file_backed = true;
  cfg.dir = dir_;
  CheckpointStore store(cfg, /*rank=*/0);
  store.write(make_frame(2));
  store.write(make_frame(4));
  {
    FaultPlan plan;
    plan.arm({Point::kCheckpointRename, /*rank=*/0, /*superstep=*/6, 1});
    fault::ScopedPlan armed(plan);
    EXPECT_THROW(store.write(make_frame(6)), fault::FaultInjected);
  }
  // The aborted write may not have touched either published slot, and its
  // temp file must have been cleaned up.
  EXPECT_EQ(store.valid_supersteps(), (std::vector<int>{4, 2}));
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "stray temp file: " << entry.path();
  // Fault cleared: the rewrite publishes normally.
  store.write(make_frame(6));
  EXPECT_EQ(store.valid_supersteps(), (std::vector<int>{6, 4}));
}

#endif  // PG_FAULTS_ENABLED

}  // namespace
