// Seeded chaos soak for the recovery ladder (fault builds only): N-rank BFS
// clusters under chaos_from_seed plans — 1–3 specs mixing transient and
// permanent kinds with 1–2 shots each — across rank counts {2, 3, 4} and a
// spread of seeds, some with file-backed checkpoint stores. Every schedule
// is replayable (same seed, same plan) and runs under a watchdog, so a
// deadlocked recovery path aborts instead of hanging the suite.
//
// The contract each run must hold, whatever the plan drew:
//  * no deadlock (watchdog) and no std::terminate;
//  * when any spec fired, the ladder accounting is coherent: a valid origin
//    report, epochs >= 1 with one recovery_ms sample per epoch, and the
//    deepest rung in [1, 3];
//  * when the run completed, BFS levels (min-combine, order-independent) are
//    bit-identical to the fault-free answer — whichever rung finished the
//    job — and lost work stays under the checkpoint interval for every
//    recovery epoch (lost_supersteps is the max over epochs);
//  * the ONLY tolerated non-completion is the last-resort rung itself being
//    shot down by a fresh injected fault — there is nothing below rung 3 to
//    fall to, and the failure must say so rather than crash.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/apps/bfs.hpp"
#include "src/apps/reference.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/fault/fault_injection.hpp"
#include "src/gen/generators.hpp"
#include "tests/watchdog.hpp"

namespace {

using namespace phigraph;

#if !PG_FAULTS_ENABLED

TEST(ChaosSoak, SkippedWithoutFaultBuild) {
  GTEST_SKIP() << "the chaos soak requires -DPHIGRAPH_FAULTS=ON "
                  "(the `faults` preset)";
}

#else

constexpr int kInterval = 2;
constexpr int kMaxFaultSuperstep = 6;

core::EngineConfig chaos_cfg(int rank, const std::string& ckpt_dir) {
  core::EngineConfig c;
  // Alternate locking/pipelining so both phase machines soak.
  c.mode = rank % 2 == 0 ? core::ExecMode::kLocking
                         : core::ExecMode::kPipelining;
  c.simd_bytes = rank % 2 == 0 ? simd::kCpuSimdBytes : simd::kMicSimdBytes;
  c.threads = 2;
  c.movers = 1;
  c.sched_chunk = 16;
  c.queue_capacity = 256;
  c.checkpoint.interval = kInterval;
  if (!ckpt_dir.empty()) {
    c.checkpoint.file_backed = true;
    c.checkpoint.dir = ckpt_dir;
  }
  c.retry.backoff_ms = 0;  // retry immediately; the soak is about coverage
  return c;
}

void soak(int nranks, std::uint64_t seed, bool file_backed) {
  SCOPED_TRACE("nranks=" + std::to_string(nranks) + " seed=" +
               std::to_string(seed) +
               (file_backed ? " file-backed" : " in-memory"));
  const auto g = gen::pokec_like(/*n=*/1000, /*m=*/8000, /*seed=*/17);
  const auto classic = apps::classic_bfs(g, 0);

  std::string dir;
  if (file_backed) {
    dir = (std::filesystem::temp_directory_path() /
           ("pg_chaos_r" + std::to_string(nranks) + "_s" +
            std::to_string(seed)))
              .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }

  const auto plan =
      fault::FaultPlan::chaos_from_seed(seed, kMaxFaultSuperstep, nranks);
  fault::ScopedPlan armed(plan);

  std::vector<int> owner(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    owner[v] = static_cast<int>(v) % nranks;
  std::vector<core::EngineConfig> cfgs;
  for (int r = 0; r < nranks; ++r) cfgs.push_back(chaos_cfg(r, dir));

  core::ClusterEngine<apps::Bfs> ce(g, owner, apps::Bfs(0), cfgs);
  const auto res = ce.run();

  std::printf("   [chaos] N=%d seed=%llu%s: fired=%llu rung=%llu epochs=%llu "
              "attempts=%llu lost=%llu completed=%d\n",
              nranks, static_cast<unsigned long long>(seed),
              file_backed ? " (file)" : "",
              static_cast<unsigned long long>(res.failover.failed_over),
              static_cast<unsigned long long>(res.failover.rung),
              static_cast<unsigned long long>(res.failover.epochs),
              static_cast<unsigned long long>(res.failover.attempts),
              static_cast<unsigned long long>(res.failover.lost_supersteps),
              res.completed ? 1 : 0);

  if (res.failover.failed_over) {
    EXPECT_TRUE(res.fault.valid()) << "fired plan must leave an origin report";
    EXPECT_GE(res.failover.epochs, 1u);
    EXPECT_EQ(res.failover.epoch_recovery_ms.size(), res.failover.epochs);
    EXPECT_GE(res.failover.rung, 1u);
    EXPECT_LE(res.failover.rung, 3u);
  } else {
    // The drawn sites were never reached (e.g. a superstep past BFS
    // termination): a plain fault-free run.
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.failover.epochs, 0u);
  }
  if (res.completed) {
    if (res.failover.failed_over) {
      EXPECT_LT(res.failover.lost_supersteps,
                static_cast<std::uint64_t>(kInterval));
    }
    ASSERT_EQ(res.global_values.size(), classic.size());
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(res.global_values[v], classic[v]) << "vertex " << v;
  } else {
    // Only the bottom rung may sink the run: an injected fault inside the
    // single-device rerun has nothing left to fall back to.
    EXPECT_NE(res.fault.what.find("recovery also failed"), std::string::npos)
        << res.fault.to_string();
  }

  if (!dir.empty()) std::filesystem::remove_all(dir);
}

class ChaosSoak : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSoak, SeededMixedFaultsDegradeGracefully) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(480));
  const int nranks = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    soak(nranks, seed, /*file_backed=*/false);
  // A couple of file-backed schedules per rank count: the crash-consistent
  // write path (temp + fsync + rename) rides the same recovery ladder.
  soak(nranks, 9, /*file_backed=*/true);
  soak(nranks, 10, /*file_backed=*/true);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ChaosSoak, ::testing::Values(2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           return "N" + std::to_string(pi.param);
                         });

#endif  // PG_FAULTS_ENABLED

}  // namespace
