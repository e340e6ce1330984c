// Direction-optimizing traversal: the alpha/beta switch rule, the pull
// kernel's counter contract, the mode-independence of the direction
// schedule, and the sim layer that predicts the schedule from a forced-push
// probe trace.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/apps/bfs.hpp"
#include "src/apps/connected_components.hpp"
#include "src/apps/sssp.hpp"
#include "src/core/direction.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/sim/model.hpp"

namespace {

using namespace phigraph;
using core::Direction;
using core::DirectionMode;
using core::DirectionPolicy;
using core::EngineConfig;
using core::ExecMode;

EngineConfig cfg(ExecMode mode, DirectionMode dir) {
  EngineConfig c;
  c.mode = mode;
  c.direction_mode = dir;
  c.threads = 3;
  c.movers = 2;
  c.simd_bytes = 64;
  return c;
}

graph::Csr social_graph() {
  auto g = gen::pokec_like(4000, 60000, 29);
  gen::add_random_weights(g, 11);
  return g;
}

// ---------------------------------------------------------------------------
// The policy itself.
// ---------------------------------------------------------------------------

TEST(DirectionPolicy, AlphaBetaRuleWithHysteresis) {
  DirectionPolicy p;
  p.alpha = 14.0;
  p.beta = 24.0;
  const std::uint64_t n = 2400, m = 100000;

  // Tiny frontier, almost everything unexplored: push.
  EXPECT_EQ(p.decide(1, 10, m, n), Direction::kPush);
  // Frontier edge mass above unexplored/alpha: switch to pull.
  EXPECT_EQ(p.decide(500, 9000, 90000, n), Direction::kPull);
  // Hysteresis: the same frontier that was too small to *trigger* pull does
  // not immediately revert it — only the beta rule does.
  EXPECT_EQ(p.decide(400, 10, 50000, n), Direction::kPull);
  // Frontier below n/beta (= 100): back to push.
  EXPECT_EQ(p.decide(99, 10, 50000, n), Direction::kPush);

  p.reset();
  EXPECT_EQ(p.current, Direction::kPush);
}

TEST(DirectionPolicy, ZeroThresholdsDisableSwitching) {
  DirectionPolicy never_pull;
  never_pull.alpha = 0.0;  // push->pull trigger disabled
  EXPECT_EQ(never_pull.decide(1000, 1000000, 0, 1000), Direction::kPush);

  DirectionPolicy sticky_pull;
  sticky_pull.alpha = 1e9;  // switches to pull immediately...
  sticky_pull.beta = 0.0;   // ...and the pull->push trigger is disabled
  EXPECT_EQ(sticky_pull.decide(1, 1, 1000, 1000), Direction::kPull);
  EXPECT_EQ(sticky_pull.decide(0, 0, 0, 1000), Direction::kPull);
}

// ---------------------------------------------------------------------------
// Counter contract of a live auto run.
// ---------------------------------------------------------------------------

TEST(Direction, AutoRunCounterContract) {
  const auto g = social_graph();
  const auto res =
      core::ClusterEngine(
          g, apps::Bfs{0}, {cfg(ExecMode::kLocking, DirectionMode::kAuto)})
          .run();
  std::uint64_t pulls = 0;
  for (const auto& c : res.ranks[0].trace) {
    EXPECT_EQ(c.push_supersteps + c.pull_supersteps, 1u);
    EXPECT_EQ(c.dense_supersteps + c.sparse_supersteps + c.pull_supersteps, 1u);
    if (c.pull_supersteps > 0) {
      ++pulls;
      // Push counters stay push-only on a pull superstep.
      EXPECT_EQ(c.edges_scanned, 0u);
      EXPECT_EQ(c.msgs_local, 0u);
      EXPECT_EQ(c.groups_dirty, 0u);
      EXPECT_EQ(c.queue_pushes, 0u);
      EXPECT_GT(c.pull_edges_scanned, 0u);
      // Pull supersteps report the frontier they were decided on.
      EXPECT_EQ(c.active_vertices, c.frontier_size);
    } else {
      EXPECT_EQ(c.pull_edges_scanned, 0u);
    }
  }
  // A power-law BFS must actually take the bottom-up path in its dense
  // middle, and the BFS first-hit early exit must fire there.
  EXPECT_GT(pulls, 0u);
  const auto t = metrics::totals(res.ranks[0].trace);
  EXPECT_GT(t.pull_early_exits, 0u);
  EXPECT_GE(t.direction_flips, 2u);  // push -> pull -> push at minimum
}

// The direction schedule and the pull kernel's work are structural: every
// execution mode probes the same in-edges and takes the same early exits.
TEST(Direction, PullScheduleIsModeIndependent) {
  const auto g = social_graph();
  const apps::Sssp prog(0);
  const auto omp =
      core::ClusterEngine(
          g, prog, {cfg(ExecMode::kOmpStyle, DirectionMode::kForcePull)})
          .run();
  const auto lock =
      core::ClusterEngine(
          g, prog, {cfg(ExecMode::kLocking, DirectionMode::kForcePull)})
          .run();
  const auto pipe =
      core::ClusterEngine(
          g, prog, {cfg(ExecMode::kPipelining, DirectionMode::kForcePull)})
          .run();
  EXPECT_EQ(omp.global_values, lock.global_values);
  EXPECT_EQ(omp.global_values, pipe.global_values);
  ASSERT_EQ(omp.ranks[0].trace.size(), lock.ranks[0].trace.size());
  ASSERT_EQ(omp.ranks[0].trace.size(), pipe.ranks[0].trace.size());
  for (std::size_t s = 0; s < omp.ranks[0].trace.size(); ++s) {
    const auto& a = omp.ranks[0].trace[s];
    const auto& b = lock.ranks[0].trace[s];
    const auto& c = pipe.ranks[0].trace[s];
    EXPECT_EQ(a.pull_supersteps, b.pull_supersteps);
    EXPECT_EQ(a.pull_supersteps, c.pull_supersteps);
    EXPECT_EQ(a.pull_edges_scanned, b.pull_edges_scanned);
    EXPECT_EQ(a.pull_edges_scanned, c.pull_edges_scanned);
    EXPECT_EQ(a.pull_early_exits, b.pull_early_exits);
    EXPECT_EQ(a.pull_early_exits, c.pull_early_exits);
    EXPECT_EQ(a.verts_updated, b.verts_updated);
    EXPECT_EQ(a.verts_updated, c.verts_updated);
  }
}

// ---------------------------------------------------------------------------
// Predicted vs actual direction mix: the sim replays the engine's policy
// from a forced-push probe and must land on the same schedule the auto
// engine takes.
// ---------------------------------------------------------------------------

TEST(Direction, PredictedMixMatchesAutoEngine) {
  const auto g = social_graph();
  const apps::Bfs prog{0};
  const auto probe =
      core::ClusterEngine(
          g, prog, {cfg(ExecMode::kLocking, DirectionMode::kForcePush)})
          .run();
  const auto live =
      core::ClusterEngine(
          g, prog, {cfg(ExecMode::kLocking, DirectionMode::kAuto)})
          .run();
  EXPECT_EQ(probe.global_values, live.global_values);
  ASSERT_EQ(probe.ranks[0].trace.size(), live.ranks[0].trace.size());

  const auto mix = sim::predict_direction_mix(
      probe.ranks[0].trace, g.num_vertices(), g.num_edges());
  ASSERT_EQ(mix.directions.size(), live.ranks[0].trace.size());
  for (std::size_t s = 0; s < live.ranks[0].trace.size(); ++s) {
    const bool pulled = live.ranks[0].trace[s].pull_supersteps > 0;
    EXPECT_EQ(mix.directions[s] == Direction::kPull, pulled)
        << "superstep " << s;
  }
  const auto t = metrics::totals(live.ranks[0].trace);
  EXPECT_EQ(mix.pull_supersteps, t.pull_supersteps);
  EXPECT_EQ(mix.push_supersteps, t.push_supersteps);
  EXPECT_EQ(mix.flips, t.direction_flips);
  EXPECT_GT(mix.pull_supersteps, 0u);
}

}  // namespace
