// Heterogeneous failover tests that need no fault build: a vertex program
// that throws mid-run stands in for a device failure. These pin down the
// contracts the fault-injection matrix relies on:
//
//  * a two-rank (CPU+MIC) ClusterEngine::run() survives an exception on
//    either rank's thread — the scope-guard joiner means no std::terminate
//    with a joinable thread — and finishes CPU-only instead of crashing;
//  * checkpointed recovery is exact: BFS levels after a mid-run MIC failure
//    are bit-identical to a fault-free single-device run (min-combine is
//    reduction-order independent);
//  * pulled PageRank folds in a fixed order at any rank and thread count,
//    so its recovery at every rung, from scratch or from a frame, ends
//    bit-identical to the sequential reference;
//  * lost work is bounded by the checkpoint interval, and a wedged rank is
//    caught by the exchange deadline;
//  * one device keeps the same contract: a throwing program ends
//    DeviceEngine::run() with a FaultReport, and a 1-rank ClusterEngine
//    recovers from it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/bfs.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/fault/fault.hpp"
#include "src/gen/generators.hpp"
#include "src/graph/paper_example.hpp"
#include "src/partition/partition.hpp"
#include "tests/watchdog.hpp"

namespace {

using namespace phigraph;
using core::EngineConfig;
using core::ExecMode;

/// Wraps a vertex program; update_vertex throws exactly once, process-wide,
/// when updating a vertex owned by `rank` during `superstep`. Because update
/// runs on the owning engine only, this kills precisely that rank. The
/// one-shot latch keeps the throw out of the recovery run (which covers all
/// partitions and would otherwise die at the same superstep again).
template <typename Base>
class ThrowOnRank : public Base {
 public:
  ThrowOnRank(Base base, std::shared_ptr<const std::vector<int>> owner,
              int rank, int superstep)
      : Base(std::move(base)),
        owner_(std::move(owner)),
        rank_(rank),
        superstep_(superstep),
        fired_(std::make_shared<std::atomic<bool>>(false)) {}

  template <typename View>
  bool update_vertex(const typename Base::message_t& msg, View& g,
                     vid_t u) const {
    if (g.superstep == superstep_ && (*owner_)[g.global_id[u]] == rank_ &&
        !fired_->exchange(true))
      throw std::runtime_error("synthetic rank failure");
    return Base::update_vertex(msg, g, u);
  }

 private:
  std::shared_ptr<const std::vector<int>> owner_;
  int rank_;
  int superstep_;
  std::shared_ptr<std::atomic<bool>> fired_;
};

/// Wraps a vertex program; update_vertex sleeps for `stall` exactly once,
/// process-wide, when updating a vertex owned by `rank` during `superstep`:
/// a wedged device rather than a crashed one, which only the exchange
/// deadline catches.
template <typename Base>
class StallOnRank : public Base {
 public:
  StallOnRank(Base base, std::shared_ptr<const std::vector<int>> owner,
              int rank, int superstep, std::chrono::milliseconds stall)
      : Base(std::move(base)),
        owner_(std::move(owner)),
        rank_(rank),
        superstep_(superstep),
        stall_(stall),
        fired_(std::make_shared<std::atomic<bool>>(false)) {}

  template <typename View>
  bool update_vertex(const typename Base::message_t& msg, View& g,
                     vid_t u) const {
    if (g.superstep == superstep_ && (*owner_)[g.global_id[u]] == rank_ &&
        !fired_->exchange(true))
      std::this_thread::sleep_for(stall_);
    return Base::update_vertex(msg, g, u);
  }

 private:
  std::shared_ptr<const std::vector<int>> owner_;
  int rank_;
  int superstep_;
  std::chrono::milliseconds stall_;
  std::shared_ptr<std::atomic<bool>> fired_;
};

std::shared_ptr<const std::vector<int>> round_robin_owner(const graph::Csr& g) {
  return std::make_shared<const std::vector<int>>(
      partition::round_robin_partition_k(g, {1, 1}));
}

EngineConfig cpu_cfg() {
  EngineConfig c;
  c.mode = ExecMode::kLocking;
  c.simd_bytes = simd::kCpuSimdBytes;
  c.threads = 3;
  c.sched_chunk = 16;
  return c;
}

EngineConfig mic_cfg() {
  EngineConfig c;
  c.mode = ExecMode::kPipelining;
  c.simd_bytes = simd::kMicSimdBytes;
  c.threads = 3;
  c.movers = 2;
  c.sched_chunk = 16;
  c.queue_capacity = 256;
  return c;
}

graph::Csr test_graph() { return gen::pokec_like(3000, 30000, 7); }

TEST(HeteroFailover, ThrowingProgramFailsOverInsteadOfTerminating) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = test_graph();
  auto owner = round_robin_owner(g);
  const ThrowOnRank<apps::PageRank> prog(apps::PageRank(), owner, /*rank=*/1,
                                         /*superstep=*/2);
  auto cc = cpu_cfg();
  auto mc = mic_cfg();
  cc.max_supersteps = mc.max_supersteps = 10;
  core::ClusterEngine<ThrowOnRank<apps::PageRank>> ce(g, *owner, prog,
                                                      {cc, mc});
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  EXPECT_EQ(res.fault.rank, 1);
  EXPECT_EQ(res.fault.superstep, 2);
  EXPECT_EQ(res.fault.phase, "update");
  // No checkpointing: recovery restarted from superstep 0.
  EXPECT_EQ(res.failover.lost_supersteps, 2u);
  const auto classic = apps::classic_pagerank(g, 10);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(res.global_values[v], classic[v], 1e-3f * (1.0f + classic[v]))
        << "vertex " << v;
  EXPECT_EQ(res.global_values, apps::reference_run(g, apps::PageRank(), 10));
}

TEST(HeteroFailover, BfsCheckpointRecoveryIsBitIdenticalToSingleDevice) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = test_graph();
  auto owner = round_robin_owner(g);
  const ThrowOnRank<apps::Bfs> prog(apps::Bfs(0), owner, /*rank=*/1,
                                    /*superstep=*/2);
  auto cc = cpu_cfg();
  auto mc = mic_cfg();
  cc.checkpoint.interval = mc.checkpoint.interval = 2;
  core::ClusterEngine<ThrowOnRank<apps::Bfs>> ce(g, *owner, prog, {cc, mc});
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  EXPECT_EQ(res.fault.rank, 1);
  EXPECT_LT(res.failover.lost_supersteps, 2u);

  // BFS levels reduce with min — order-independent — so the recovered values
  // must be *bit-identical* to a fault-free single-device run.
  const auto ref = core::ClusterEngine(g, apps::Bfs(0), {cpu_cfg()}).run();
  ASSERT_EQ(res.global_values.size(), ref.global_values.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], ref.global_values[v]) << "vertex " << v;
}

TEST(HeteroFailover, PageRankFromScratchRecoveryIsBitIdentical) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = graph::paper_example_graph();
  auto owner = round_robin_owner(g);
  // PageRank pulls, folding each vertex's in-neighbor shares in ascending
  // source order at any thread count, so the from-scratch CPU-only recovery
  // (its team sized from the combined budgets: 2 threads here) must
  // reproduce the 1-thread single-device run bit for bit.
  EngineConfig det;
  det.mode = ExecMode::kLocking;
  det.simd_bytes = simd::kCpuSimdBytes;
  det.threads = 1;
  det.max_supersteps = 12;
  const ThrowOnRank<apps::PageRank> prog(apps::PageRank(), owner, /*rank=*/1,
                                         /*superstep=*/3);
  core::ClusterEngine<ThrowOnRank<apps::PageRank>> ce(g, *owner, prog,
                                                      {det, det});
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  const auto ref = core::ClusterEngine(g, apps::PageRank(), {det}).run();
  ASSERT_EQ(res.global_values.size(), ref.global_values.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], ref.global_values[v]) << "vertex " << v;
}

TEST(HeteroFailover, LostSuperstepsAreBoundedByTheCheckpointInterval) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = test_graph();
  auto owner = round_robin_owner(g);
  constexpr int kInterval = 3;
  constexpr int kFaultAt = 7;  // checkpoints at 3, 6 -> resume 6, lose 1
  const ThrowOnRank<apps::PageRank> prog(apps::PageRank(), owner, /*rank=*/1,
                                         kFaultAt);
  auto cc = cpu_cfg();
  auto mc = mic_cfg();
  cc.max_supersteps = mc.max_supersteps = 10;
  cc.checkpoint.interval = mc.checkpoint.interval = kInterval;
  core::ClusterEngine<ThrowOnRank<apps::PageRank>> ce(g, *owner, prog,
                                                      {cc, mc});
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  EXPECT_EQ(res.failover.lost_supersteps, 1u);
  EXPECT_LT(res.failover.lost_supersteps,
            static_cast<std::uint64_t>(kInterval));
  EXPECT_GE(res.failover.recovery_ms, 0.0);
  const auto classic = apps::classic_pagerank(g, 10);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(res.global_values[v], classic[v], 1e-3f * (1.0f + classic[v]))
        << "vertex " << v;
  EXPECT_EQ(res.global_values, apps::reference_run(g, apps::PageRank(), 10));
}

// A rank that stalls in update_vertex without throwing never poisons the
// channels; its peer waits at the termination exchange until the deadline,
// declares it dead and poisons on its behalf. A missed deadline is
// transient, so rung 1 respawns the stalled rank from the newest common
// frame and the resumed run finishes on both ranks.
TEST(HeteroFailover, MissedExchangeDeadlineRespawnsTheStalledRank) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = test_graph();
  auto owner = round_robin_owner(g);
  const StallOnRank<apps::Bfs> prog(apps::Bfs(0), owner, /*rank=*/1,
                                    /*superstep=*/3, std::chrono::seconds(3));
  std::vector<EngineConfig> cfgs = {cpu_cfg(), mic_cfg()};
  for (EngineConfig& c : cfgs) {
    c.exchange_deadline_ms = 1000;
    c.checkpoint.interval = 2;  // frames at resume supersteps 2, 4, ...
    c.retry.backoff_ms = 0;
  }
  core::ClusterEngine<StallOnRank<apps::Bfs>> ce(g, *owner, prog, cfgs);
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.fault.rank, 1);
  EXPECT_EQ(res.fault.superstep, 3);
  EXPECT_EQ(res.fault.phase, "terminate");
  EXPECT_EQ(res.fault.kind, fault::FaultKind::kTransient);
  EXPECT_NE(res.fault.what.find("deadline"), std::string::npos)
      << res.fault.what;
  EXPECT_EQ(res.failover.rung, 1u);
  EXPECT_EQ(res.failover.attempts, 1u);
  EXPECT_EQ(res.failover.lost_supersteps, 1u);
  for (const auto& rr : res.ranks) EXPECT_FALSE(rr.failed);
  EXPECT_EQ(res.global_values, apps::classic_bfs(g, 0));
}

TEST(HeteroFailover, CpuFaultAlsoFailsOver) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = test_graph();
  auto owner = round_robin_owner(g);
  const ThrowOnRank<apps::Bfs> prog(apps::Bfs(0), owner, /*rank=*/0,
                                    /*superstep=*/1);
  core::ClusterEngine<ThrowOnRank<apps::Bfs>> ce(g, *owner, prog,
                                                 {cpu_cfg(), mic_cfg()});
  const auto res = ce.run();
  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  EXPECT_EQ(res.fault.rank, 0);
  const auto classic = apps::classic_bfs(g, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], classic[v]) << "vertex " << v;
}

// ---- N-rank kill matrix -----------------------------------------------------

/// K-shot thrower: fires at most `shots` times, process-wide, while updating
/// a vertex owned (in the ORIGINAL owner map) by `rank` during `superstep`.
/// A CAS loop caps the total fire count exactly, so a retried epoch re-hits
/// the fault until the shots run out — a transient fault that eventually
/// clears (transient=true, fault::TransientError) or a permanent one that
/// follows its vertices through a repartition (transient=false). Give the
/// firing rank a single-threaded config when a test needs exactly one fire
/// per epoch.
template <typename Base>
class ShotThrowOnRank : public Base {
 public:
  ShotThrowOnRank(Base base, std::shared_ptr<const std::vector<int>> owner,
                  int rank, int superstep, int shots, bool transient)
      : Base(std::move(base)),
        owner_(std::move(owner)),
        rank_(rank),
        superstep_(superstep),
        shots_(shots),
        transient_(transient),
        fired_(std::make_shared<std::atomic<int>>(0)) {}

  template <typename View>
  bool update_vertex(const typename Base::message_t& msg, View& g,
                     vid_t u) const {
    if (g.superstep == superstep_ && (*owner_)[g.global_id[u]] == rank_) {
      int n = fired_->load();
      bool won = false;
      while (n < shots_ && !(won = fired_->compare_exchange_weak(n, n + 1))) {
      }
      if (won) {
        if (transient_)
          throw fault::TransientError("synthetic transient fault");
        throw std::runtime_error("synthetic permanent fault");
      }
    }
    return Base::update_vertex(msg, g, u);
  }

 private:
  std::shared_ptr<const std::vector<int>> owner_;
  int rank_;
  int superstep_;
  int shots_;
  bool transient_;
  std::shared_ptr<std::atomic<int>> fired_;
};

// ---- recovery ladder rungs in isolation -------------------------------------

// Rung 1: a one-shot transient fault respawns the failed rank from the
// newest common checkpoint frame and resumes ALL THREE ranks — no
// repartition, no single-device rerun — and the resumed run's BFS levels
// are bit-identical to the fault-free answer.
void transient_fault_respawns_all_ranks(const EngineConfig& base) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(300));
  const auto g = test_graph();
  constexpr int kRanks = 3;
  constexpr int kInterval = 2;
  constexpr int kVictim = 1;
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    (*owner)[v] = static_cast<int>(v % kRanks);
  const ShotThrowOnRank<apps::Bfs> prog(apps::Bfs(0), owner, kVictim,
                                        /*superstep=*/3, /*shots=*/1,
                                        /*transient=*/true);
  std::vector<EngineConfig> cfgs;
  for (int r = 0; r < kRanks; ++r) {
    auto c = base;
    if (r == kVictim) c.threads = 1;  // exactly one fire per epoch
    c.checkpoint.interval = kInterval;
    c.retry.backoff_ms = 0;  // keep the test fast
    cfgs.push_back(c);
  }
  core::ClusterEngine<ShotThrowOnRank<apps::Bfs>> ce(g, *owner, prog, cfgs);
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  EXPECT_EQ(res.fault.rank, kVictim);
  EXPECT_EQ(res.fault.kind, fault::FaultKind::kTransient);
  EXPECT_EQ(res.failover.rung, 1u);
  EXPECT_EQ(res.failover.attempts, 1u);
  EXPECT_EQ(res.failover.epochs, 1u);
  EXPECT_EQ(res.failover.epoch_recovery_ms.size(), 1u);
  EXPECT_LT(res.failover.lost_supersteps,
            static_cast<std::uint64_t>(kInterval));
  // The resumed epoch ran on the FULL rank set: no survivor traces, no
  // single-device rerun, and every rank's final trace completed.
  EXPECT_TRUE(res.recovery_ranks.empty());
  EXPECT_EQ(res.recovery.supersteps, 0);
  ASSERT_EQ(res.ranks.size(), static_cast<std::size_t>(kRanks));
  for (const auto& rr : res.ranks) EXPECT_FALSE(rr.failed);

  const auto classic = apps::classic_bfs(g, 0);
  ASSERT_EQ(res.global_values.size(), classic.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.global_values[v], classic[v]) << "vertex " << v;
}

TEST(RecoveryLadder, TransientFaultRespawnsAllRanks) {
  transient_fault_respawns_all_ranks(cpu_cfg());
}

// The respawned ranks run on fresh host threads, and the thread driving a
// rank is slot 0 of its team, which is pipeline worker 0: the checked build
// holds the orchestrator and pipeline affinity contracts across the respawn.
TEST(RecoveryLadder, TransientFaultRespawnsPipeliningRanks) {
  transient_fault_respawns_all_ranks(mic_cfg());
}

// Retry budget: a transient fault that re-fires on every respawn exhausts
// RetryPolicy::max_attempts and falls down the ladder. With only two ranks
// rung 2 is impossible (no survivor pair), so the run finishes on rung 3's
// single-device engine.
TEST(RecoveryLadder, ExhaustedRetryBudgetFallsToSingleDevice) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(300));
  const auto g = test_graph();
  constexpr int kRanks = 2;
  constexpr int kVictim = 1;
  constexpr int kMaxAttempts = 2;
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    (*owner)[v] = static_cast<int>(v % kRanks);
  // One more shot than the budget: both respawned epochs re-fault, the
  // budget runs dry, and the last shot is consumed before rung 3 runs.
  const ShotThrowOnRank<apps::Bfs> prog(apps::Bfs(0), owner, kVictim,
                                        /*superstep=*/2,
                                        /*shots=*/kMaxAttempts + 1,
                                        /*transient=*/true);
  std::vector<EngineConfig> cfgs;
  for (int r = 0; r < kRanks; ++r) {
    auto c = cpu_cfg();
    if (r == kVictim) c.threads = 1;
    c.retry.max_attempts = kMaxAttempts;
    c.retry.backoff_ms = 0;
    cfgs.push_back(c);
  }
  core::ClusterEngine<ShotThrowOnRank<apps::Bfs>> ce(g, *owner, prog, cfgs);
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  EXPECT_EQ(res.failover.attempts, static_cast<std::uint64_t>(kMaxAttempts));
  EXPECT_EQ(res.failover.rung, 3u);
  // Two rung-1 respawns + the final rung-3 epoch.
  EXPECT_EQ(res.failover.epochs, 3u);
  EXPECT_EQ(res.failover.epoch_recovery_ms.size(), 3u);
  EXPECT_GT(res.recovery.supersteps, 0);

  const auto classic = apps::classic_bfs(g, 0);
  ASSERT_EQ(res.global_values.size(), classic.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.global_values[v], classic[v]) << "vertex " << v;
}

// Rung 2 -> rung 3 handoff: a permanent fault repartitions onto the
// survivors, a SECOND permanent fault (following the dead rank's vertices to
// their new owner) kills the survivor run too, and rung 3 finishes the job
// from the SURVIVORS' checkpoint stores.
TEST(RecoveryLadder, RepartitionFaultFallsToSingleDevice) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(300));
  const auto g = test_graph();
  constexpr int kRanks = 4;
  constexpr int kInterval = 2;
  constexpr int kVictim = 2;
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    (*owner)[v] = static_cast<int>(v % kRanks);
  const ShotThrowOnRank<apps::Bfs> prog(apps::Bfs(0), owner, kVictim,
                                        /*superstep=*/3, /*shots=*/2,
                                        /*transient=*/false);
  std::vector<EngineConfig> cfgs;
  for (int r = 0; r < kRanks; ++r) {
    auto c = cpu_cfg();
    if (r == kVictim) c.threads = 1;
    c.checkpoint.interval = kInterval;
    c.retry.backoff_ms = 0;
    cfgs.push_back(c);
  }
  core::ClusterEngine<ShotThrowOnRank<apps::Bfs>> ce(g, *owner, prog, cfgs);
  const auto res = ce.run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.failover.failed_over, 1u);
  EXPECT_EQ(res.fault.kind, fault::FaultKind::kPermanent);
  EXPECT_EQ(res.failover.attempts, 0u);  // permanent faults get no retries
  EXPECT_EQ(res.failover.rung, 3u);
  EXPECT_EQ(res.failover.epochs, 2u);  // rung-2 epoch + rung-3 epoch
  EXPECT_EQ(res.recovery_ranks.size(), static_cast<std::size_t>(kRanks - 1));
  EXPECT_GT(res.recovery.supersteps, 0);
  EXPECT_LT(res.failover.lost_supersteps,
            static_cast<std::uint64_t>(kInterval));

  const auto classic = apps::classic_bfs(g, 0);
  ASSERT_EQ(res.global_values.size(), classic.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.global_values[v], classic[v]) << "vertex " << v;
}

// The rung-3 engine's thread team is sized from the COMBINED rank budgets
// (the dead cluster's whole allotment is free).
TEST(RecoveryLadder, RecoveryEngineSizesThreadsFromCombinedBudgets) {
  const auto g = graph::paper_example_graph();
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    (*owner)[v] = static_cast<int>(v % 2);
  // cpu_cfg: 3 threads (locking); mic_cfg: 3 workers + 2 movers (pipelining)
  // -> combined budget 8. Rank 0 is locking, so the recovery engine gets all
  // 8 as workers.
  core::ClusterEngine<apps::Bfs> ce(g, *owner, apps::Bfs(0),
                                    {cpu_cfg(), mic_cfg()});
  EXPECT_EQ(ce.recovery_config().threads, 8);
  EXPECT_EQ(ce.recovery_config().checkpoint.interval, 0);
}

// Kill each rank of a 4-rank cluster exactly once with a PERMANENT fault.
// The ladder's rung 2 writes the victim off: its vertices are repartitioned
// over the three survivors, which restore from the newest superstep present
// in *all* checkpoint stores and finish the run on N-1 ranks. Lost work
// stays under the checkpoint interval, and BFS levels (min-combine,
// order-independent) are bit-identical to the fault-free answer.
TEST(ClusterFailover, KillEachRankRecoversBitIdentical) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(300));
  const auto g = test_graph();
  constexpr int kRanks = 4;
  constexpr int kInterval = 2;
  constexpr int kFaultAt = 3;  // checkpoint at 2 -> resume 2, lose 1
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    (*owner)[v] = static_cast<int>(v % kRanks);
  const auto classic = apps::classic_bfs(g, 0);

  for (int victim = 0; victim < kRanks; ++victim) {
    const ThrowOnRank<apps::Bfs> prog(apps::Bfs(0), owner, victim, kFaultAt);
    std::vector<EngineConfig> cfgs;
    for (int r = 0; r < kRanks; ++r) {
      auto c = r % 2 == 0 ? cpu_cfg() : mic_cfg();
      c.checkpoint.interval = kInterval;
      cfgs.push_back(c);
    }
    core::ClusterEngine<ThrowOnRank<apps::Bfs>> ce(g, *owner, prog, cfgs);
    const auto res = ce.run();

    ASSERT_TRUE(res.completed)
        << "victim " << victim << ": " << res.fault.to_string();
    EXPECT_EQ(res.failover.failed_over, 1u) << "victim " << victim;
    EXPECT_EQ(res.fault.rank, victim) << "origin report names wrong rank";
    EXPECT_EQ(res.fault.superstep, kFaultAt) << "victim " << victim;
    EXPECT_EQ(res.fault.phase, "update") << "victim " << victim;
    // A permanent fault with a known culprit and 3 survivors stops at rung 2
    // (survivor repartition); no retry attempts are spent on it.
    EXPECT_EQ(res.failover.rung, 2u) << "victim " << victim;
    EXPECT_EQ(res.failover.attempts, 0u) << "victim " << victim;
    EXPECT_EQ(res.failover.epochs, 1u) << "victim " << victim;
    EXPECT_EQ(res.recovery_ranks.size(), static_cast<std::size_t>(kRanks - 1))
        << "victim " << victim;
    for (const auto& rr : res.recovery_ranks)
      EXPECT_FALSE(rr.failed) << "victim " << victim;
    EXPECT_LT(res.failover.lost_supersteps,
              static_cast<std::uint64_t>(kInterval))
        << "victim " << victim;
    ASSERT_EQ(res.global_values.size(), classic.size());
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(res.global_values[v], classic[v])
          << "victim " << victim << " vertex " << v;
  }
}

// Pulled PageRank folds every vertex's in-neighbor shares in ascending
// source order at any rank and thread count, so a recovery that resumes
// from the right values, active flags and superstep ends bit-identical to
// the fault-free reference. A one-shot fault on rank 2 at superstep 3
// resumes from the frame at superstep 2: a transient one on all four ranks
// (rung 1, the survivors restoring in place), a permanent one on the three
// survivors of a repartition (rung 2).
TEST(ClusterFailover, PulledPageRankRecoversExactlyAtRungsOneAndTwo) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(300));
  const auto g = test_graph();
  constexpr int kRanks = 4;
  constexpr int kSteps = 10;
  constexpr int kVictim = 2;
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    (*owner)[v] = static_cast<int>(v % kRanks);
  std::vector<EngineConfig> cfgs;
  for (int r = 0; r < kRanks; ++r) {
    auto c = r % 2 == 0 ? cpu_cfg() : mic_cfg();
    c.max_supersteps = kSteps;
    c.checkpoint.interval = 2;  // frames at resume supersteps 2, 4, ...
    c.retry.backoff_ms = 0;
    cfgs.push_back(c);
  }
  const auto ref = apps::reference_run(g, apps::PageRank(), kSteps);

  for (const bool transient : {true, false}) {
    SCOPED_TRACE(transient ? "transient" : "permanent");
    const ShotThrowOnRank<apps::PageRank> prog(apps::PageRank(), owner,
                                               kVictim, /*superstep=*/3,
                                               /*shots=*/1, transient);
    core::ClusterEngine<ShotThrowOnRank<apps::PageRank>> ce(g, *owner, prog,
                                                            cfgs);
    const auto res = ce.run();

    ASSERT_TRUE(res.completed) << res.fault.to_string();
    EXPECT_EQ(res.fault.rank, kVictim);
    EXPECT_EQ(res.fault.superstep, 3);
    EXPECT_EQ(res.fault.kind, transient ? fault::FaultKind::kTransient
                                        : fault::FaultKind::kPermanent);
    EXPECT_EQ(res.failover.rung, transient ? 1u : 2u);
    EXPECT_EQ(res.failover.attempts, transient ? 1u : 0u);
    EXPECT_EQ(res.failover.epochs, 1u);
    EXPECT_EQ(res.failover.lost_supersteps, 1u);
    EXPECT_EQ(res.recovery_ranks.size(),
              transient ? 0u : static_cast<std::size_t>(kRanks - 1));
    EXPECT_EQ(res.global_values, ref);
  }
}

// Without peers there is no channel to poison, but the contract is the
// same: the fault ends run() with `failed` set and a report naming rank 0,
// the superstep and the phase, instead of escaping as an exception.
TEST(SingleDeviceFaults, ThrowingProgramEndsTheRunWithAFaultReport) {
  const auto g = graph::paper_example_graph();
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices(), 0);
  const ThrowOnRank<apps::PageRank> prog(apps::PageRank(), owner, /*rank=*/0,
                                         /*superstep=*/1);
  EngineConfig cfg = cpu_cfg();
  cfg.max_supersteps = 5;
  core::DeviceEngine<ThrowOnRank<apps::PageRank>> engine(
      core::LocalGraph::whole(g), prog, cfg);
  const auto res = engine.run();

  ASSERT_TRUE(res.failed);
  EXPECT_EQ(res.fault.rank, 0);
  EXPECT_EQ(res.fault.superstep, 1);
  EXPECT_EQ(res.fault.phase, "update");
  EXPECT_EQ(res.fault.kind, fault::FaultKind::kPermanent);
  EXPECT_EQ(res.fault.what, "synthetic rank failure");
  EXPECT_EQ(res.supersteps, 1);  // superstep 1 never completed
}

// A 1-rank cluster puts that engine behind the recovery ladder. A permanent
// fault leaves no survivors to repartition over, so rung 3 reruns the whole
// graph from superstep 0 (the one-shot latch keeps the rerun clean).
TEST(SingleDeviceFaults, OneRankClusterRecoversAtRungThree) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = test_graph();
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices(), 0);
  constexpr int kSteps = 10;
  const ThrowOnRank<apps::PageRank> prog(apps::PageRank(), owner, /*rank=*/0,
                                         /*superstep=*/3);
  EngineConfig cfg = cpu_cfg();
  cfg.max_supersteps = kSteps;
  const auto res = core::ClusterEngine(g, prog, {cfg}).run();

  ASSERT_TRUE(res.completed) << res.fault.to_string();
  EXPECT_EQ(res.fault.rank, 0);
  EXPECT_EQ(res.fault.superstep, 3);
  EXPECT_EQ(res.fault.phase, "update");
  EXPECT_EQ(res.fault.kind, fault::FaultKind::kPermanent);
  EXPECT_EQ(res.failover.rung, 3u);
  EXPECT_EQ(res.failover.attempts, 0u);
  EXPECT_EQ(res.failover.epochs, 1u);
  EXPECT_EQ(res.failover.lost_supersteps, 3u);
  EXPECT_EQ(res.recovery.supersteps, kSteps);
  EXPECT_EQ(res.global_values,
            apps::reference_run(g, apps::PageRank(), kSteps));
}

// A 1-rank cluster resumes from its own checkpoint like any rank set. With
// frames every 2 supersteps, a one-shot fault at superstep 3 resumes from
// superstep 2: in a respawned engine for a transient fault (rung 1), in
// rung 3's fresh whole-graph engine for a permanent one. Pulled PageRank
// ends bit-identical to the fault-free reference either way.
TEST(SingleDeviceFaults, OneRankClusterResumesFromItsCheckpoint) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  const auto g = test_graph();
  auto owner = std::make_shared<std::vector<int>>(g.num_vertices(), 0);
  constexpr int kSteps = 10;
  EngineConfig cfg = cpu_cfg();
  cfg.max_supersteps = kSteps;
  cfg.checkpoint.interval = 2;
  cfg.retry.backoff_ms = 0;
  const auto ref = apps::reference_run(g, apps::PageRank(), kSteps);

  for (const bool transient : {true, false}) {
    SCOPED_TRACE(transient ? "transient" : "permanent");
    const ShotThrowOnRank<apps::PageRank> prog(apps::PageRank(), owner,
                                               /*rank=*/0, /*superstep=*/3,
                                               /*shots=*/1, transient);
    const auto res = core::ClusterEngine(g, prog, {cfg}).run();

    ASSERT_TRUE(res.completed) << res.fault.to_string();
    EXPECT_EQ(res.fault.rank, 0);
    EXPECT_EQ(res.fault.superstep, 3);
    EXPECT_EQ(res.failover.rung, transient ? 1u : 3u);
    EXPECT_EQ(res.failover.attempts, transient ? 1u : 0u);
    EXPECT_EQ(res.failover.epochs, 1u);
    EXPECT_EQ(res.failover.lost_supersteps, 1u);
    EXPECT_EQ(transient ? res.ranks[0].supersteps : res.recovery.supersteps,
              kSteps);
    EXPECT_EQ(res.global_values, ref);
  }
}

}  // namespace
