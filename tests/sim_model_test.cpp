// Performance-model tests: the model is calibrated, but its *structure* must
// obey sanity invariants (monotonicity, device relationships, accounting).
#include <gtest/gtest.h>

#include "src/metrics/counters.hpp"
#include "src/sim/device_spec.hpp"
#include "src/sim/model.hpp"

namespace {

using namespace phigraph;
using core::ExecMode;
using metrics::SuperstepCounters;
using sim::DeviceSpec;
using sim::ExecProfile;

SuperstepCounters pagerank_like_superstep() {
  SuperstepCounters c;
  c.active_vertices = 100'000;
  c.edges_scanned = 2'000'000;
  c.msgs_local = 2'000'000;
  c.columns_allocated = 100'000;
  c.column_conflicts = 1'900'000;
  c.vector_rows = 160'000;
  c.padded_cells = 500'000;
  c.verts_updated = 100'000;
  c.sched_retrievals = 2'000;
  return c;
}

ExecProfile profile(ExecMode mode, int threads, int movers = 0) {
  ExecProfile p;
  p.mode = mode;
  p.threads = threads;
  p.movers = movers;
  p.lanes = 16;
  p.num_vertices = 100'000;
  return p;
}

TEST(DeviceSpec, EffectiveParallelismShape) {
  const auto mic = sim::xeon_phi_se10p();
  // More threads never reduce throughput; 240 threads = 60 core-equivalents.
  double prev = 0;
  for (int t : {1, 60, 120, 180, 240}) {
    const double p = mic.effective_parallelism(t);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(mic.effective_parallelism(240), 60.0);
  // One in-order thread achieves well under half a core.
  EXPECT_LT(mic.effective_parallelism(1), 0.5);

  const auto cpu = sim::xeon_e5_2680();
  EXPECT_DOUBLE_EQ(cpu.effective_parallelism(16), 16.0);
}

TEST(DeviceSpec, SequentialGapMatchesPaperBand) {
  // "even though the clock frequency of a CPU core is only 2.4 times faster
  //  than a core on MIC, a CPU core runs the same sequential code around
  //  11x faster" — our constants must land in that neighbourhood (5-16x).
  const auto cpu = sim::xeon_e5_2680();
  const auto mic = sim::xeon_phi_se10p();
  metrics::RunTrace trace{pagerank_like_superstep()};
  ExecProfile p = profile(ExecMode::kLocking, 1);
  const double tc = sim::model_sequential(trace, cpu, p);
  const double tm = sim::model_sequential(trace, mic, p);
  EXPECT_GT(tm / tc, 5.0);
  EXPECT_LT(tm / tc, 16.0);
}

TEST(Model, MoreThreadsNeverSlower) {
  const auto mic = sim::xeon_phi_se10p();
  const auto c = pagerank_like_superstep();
  double prev = 1e30;
  for (int t : {8, 32, 60, 120, 240}) {
    const double sec =
        sim::model_superstep(c, mic, profile(ExecMode::kLocking, t)).execution();
    EXPECT_LE(sec, prev * 1.0001) << t << " threads";
    prev = sec;
  }
}

TEST(Model, ContentionGrowsWithHotness) {
  const auto mic = sim::xeon_phi_se10p();
  auto cold = pagerank_like_superstep();
  cold.columns_allocated = cold.msgs_local;  // h = 1
  cold.column_conflicts = 0;
  auto hot = pagerank_like_superstep();
  hot.columns_allocated = 500;  // h = 4000 (TopoSort-like funnel)

  const auto p = profile(ExecMode::kLocking, 240);
  EXPECT_GT(sim::model_superstep(hot, mic, p).generation,
            1.5 * sim::model_superstep(cold, mic, p).generation);
}

TEST(Model, PipeliningBeatsLockingUnderContention) {
  const auto mic = sim::xeon_phi_se10p();
  const auto c = pagerank_like_superstep();
  const double lock =
      sim::model_superstep(c, mic, profile(ExecMode::kLocking, 240))
          .generation;
  const double pipe =
      sim::model_superstep(c, mic, profile(ExecMode::kPipelining, 180, 60))
          .generation;
  EXPECT_GT(lock, pipe);
}

TEST(Model, OmpPaysMoreThanFrameworkLockingAtHighHotness) {
  const auto mic = sim::xeon_phi_se10p();
  auto c = pagerank_like_superstep();
  c.columns_allocated = 500;  // funnel
  const double lock =
      sim::model_superstep(c, mic, profile(ExecMode::kLocking, 240))
          .generation;
  const double omp =
      sim::model_superstep(c, mic, profile(ExecMode::kOmpStyle, 240))
          .generation;
  EXPECT_GT(omp, lock);
}

TEST(Model, ExchangeOnlyWithLinkAndTraffic) {
  const auto cpu = sim::xeon_e5_2680();
  auto c = pagerank_like_superstep();
  const auto p = profile(ExecMode::kLocking, 16);
  EXPECT_EQ(sim::model_superstep(c, cpu, p, nullptr).exchange, 0.0);
  sim::LinkSpec link;
  EXPECT_EQ(sim::model_superstep(c, cpu, p, &link).exchange, 0.0);  // no bytes
  c.bytes_sent = 8'000'000;
  c.msgs_received = 200'000;
  c.bytes_received = 1'600'000;
  const double ex = sim::model_superstep(c, cpu, p, &link).exchange;
  EXPECT_GT(ex, 8e6 / (link.bandwidth_gbs * 1e9));  // at least the wire time
}

TEST(Model, HeteroLockstepTakesTheSlowerDevice) {
  const auto cpu = sim::xeon_e5_2680();
  const auto mic = sim::xeon_phi_se10p();
  metrics::RunTrace big{pagerank_like_superstep()};
  SuperstepCounters tiny_c;
  tiny_c.msgs_local = 10;
  tiny_c.columns_allocated = 10;
  tiny_c.active_vertices = 10;
  tiny_c.edges_scanned = 10;
  metrics::RunTrace tiny{tiny_c};

  const auto est = sim::model_cluster(
      {{&big, cpu, profile(ExecMode::kLocking, 16)},
       {&tiny, mic, profile(ExecMode::kPipelining, 180, 60)}},
      sim::LinkSpec{});
  const auto cpu_alone =
      sim::model_run(big, cpu, profile(ExecMode::kLocking, 16));
  // All the work is on the CPU: lockstep time ~= CPU execution time.
  EXPECT_NEAR(est.execution_seconds, cpu_alone.execution(),
              0.1 * cpu_alone.execution());
}

TEST(Model, SimdProfileSpeedsUpProcessing) {
  const auto mic = sim::xeon_phi_se10p();
  // Vectorized trace: rows instead of scalar messages.
  auto vec = pagerank_like_superstep();
  auto novec = pagerank_like_superstep();
  novec.vector_rows = 0;
  novec.padded_cells = 0;
  novec.scalar_msgs = novec.msgs_local;
  const auto p = profile(ExecMode::kLocking, 240);
  const double tv = sim::model_superstep(vec, mic, p).processing;
  const double ts = sim::model_superstep(novec, mic, p).processing;
  EXPECT_GT(ts / tv, 3.0);  // paper: 5.16-7.85x on MIC
}

TEST(Model, BranchyAppsPenalizedMoreOnMic) {
  const auto cpu = sim::xeon_e5_2680();
  const auto mic = sim::xeon_phi_se10p();
  auto c = pagerank_like_superstep();
  c.scalar_msgs = c.msgs_local;
  c.vector_rows = c.padded_cells = 0;

  auto plain = profile(ExecMode::kLocking, 240);
  auto branchy = plain;
  branchy.combine_weight = 20;
  branchy.branchy = true;
  auto plain_cpu = profile(ExecMode::kLocking, 16);
  auto branchy_cpu = plain_cpu;
  branchy_cpu.combine_weight = 20;
  branchy_cpu.branchy = true;

  const double mic_ratio = sim::model_superstep(c, mic, branchy).processing /
                           sim::model_superstep(c, mic, plain).processing;
  const double cpu_ratio =
      sim::model_superstep(c, cpu, branchy_cpu).processing /
      sim::model_superstep(c, cpu, plain_cpu).processing;
  EXPECT_GT(mic_ratio, cpu_ratio);  // in-order core suffers more
}

TEST(Model, PhaseTimesAccumulate) {
  sim::PhaseTimes a;
  a.generation = 1;
  a.processing = 2;
  a.update = 3;
  a.overhead = 4;
  a.exchange = 5;
  sim::PhaseTimes b = a;
  b += a;
  EXPECT_DOUBLE_EQ(a.execution(), 10.0);
  EXPECT_DOUBLE_EQ(a.total(), 15.0);
  EXPECT_DOUBLE_EQ(b.total(), 30.0);
}

}  // namespace
