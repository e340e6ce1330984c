// Tests for the extension features beyond the paper's evaluation:
// Connected Components (additional application) and the auto-tuner (the
// paper's named future work).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>

#include "src/apps/connected_components.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/apps/sssp.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/tune/autotune.hpp"

namespace {

using namespace phigraph;

/// Union-find ground truth for component labels (min vertex id).
std::vector<std::int32_t> classic_components(const graph::Csr& g) {
  std::vector<vid_t> parent(g.num_vertices());
  std::iota(parent.begin(), parent.end(), vid_t{0});
  std::function<vid_t(vid_t)> find = [&](vid_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (vid_t u = 0; u < g.num_vertices(); ++u)
    for (vid_t v : g.out_neighbors(u)) {
      const vid_t ru = find(u), rv = find(v);
      if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
    }
  std::vector<std::int32_t> label(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    label[v] = static_cast<std::int32_t>(find(v));
  return label;
}

core::EngineConfig cc_cfg(core::ExecMode mode, int simd_bytes) {
  core::EngineConfig cfg;
  cfg.mode = mode;
  cfg.simd_bytes = simd_bytes;
  cfg.threads = 3;
  cfg.movers = 2;
  return cfg;
}

TEST(ConnectedComponents, MatchesUnionFindOnCommunityGraph) {
  // dblp_like is symmetric by construction (undirected edges duplicated).
  const auto g = gen::dblp_like(3000, 5000, 15);
  const auto truth = classic_components(g);
  for (auto mode : {core::ExecMode::kOmpStyle, core::ExecMode::kLocking,
                    core::ExecMode::kPipelining}) {
    for (int simd_bytes : {16, 64}) {
      if (mode == core::ExecMode::kOmpStyle && simd_bytes == 64) continue;
      const auto res = core::ClusterEngine(g, apps::ConnectedComponents{},
                                           {cc_cfg(mode, simd_bytes)})
                           .run();
      for (vid_t v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(res.global_values[v], truth[v])
            << "vertex " << v << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(ConnectedComponents, HeterogeneousMatchesSingleDevice) {
  const auto g = gen::dblp_like(2000, 4000, 16);
  const auto truth = classic_components(g);
  core::ClusterEngine<apps::ConnectedComponents> ce(
      g, partition::round_robin_partition_k(g, {1, 1}),
      apps::ConnectedComponents{},
      {cc_cfg(core::ExecMode::kLocking, 16),
       cc_cfg(core::ExecMode::kPipelining, 64)});
  auto res = ce.run();
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], truth[v]);
}

TEST(ConnectedComponents, IsolatedVerticesKeepOwnLabel) {
  const auto g = graph::Csr::from_edges(
      5, std::vector<std::pair<vid_t, vid_t>>{{0, 1}, {1, 0}});
  const auto res =
      core::ClusterEngine(g, apps::ConnectedComponents{},
                          {cc_cfg(core::ExecMode::kLocking, 64)})
          .run();
  EXPECT_EQ(res.global_values[0], 0);
  EXPECT_EQ(res.global_values[1], 0);
  EXPECT_EQ(res.global_values[2], 2);
  EXPECT_EQ(res.global_values[3], 3);
  EXPECT_EQ(res.global_values[4], 4);
}

// ---------------------------------------------------------------------------
// Auto-tuner.
// ---------------------------------------------------------------------------

TEST(AutoTune, MoverSplitPicksAValidOptimum) {
  // Probe run: SSSP on a skewed graph, pipelined.
  auto g = gen::pokec_like(5000, 80000, 20);
  gen::add_random_weights(g, 4);
  core::DeviceEngine<apps::Sssp> engine(
      core::LocalGraph::whole(g), apps::Sssp{0},
      cc_cfg(core::ExecMode::kPipelining, 64));
  const auto run = engine.run();

  sim::ExecProfile profile;
  profile.lanes = 16;
  profile.num_vertices = g.num_vertices();
  const auto choice =
      tune::tune_mover_split(run.trace, sim::xeon_phi_se10p(), profile, 240,
                             /*step=*/10);
  EXPECT_EQ(choice.workers + choice.movers, 240);
  EXPECT_GE(choice.movers, 1);
  EXPECT_GT(choice.modeled_seconds, 0.0);

  // The chosen split must beat both extremes.
  auto cost_of = [&](int movers) {
    sim::ExecProfile p = profile;
    p.mode = core::ExecMode::kPipelining;
    p.threads = 240 - movers;
    p.movers = movers;
    return sim::model_run(run.trace, sim::xeon_phi_se10p(), p).execution();
  };
  EXPECT_LE(choice.modeled_seconds, cost_of(1) + 1e-12);
  EXPECT_LE(choice.modeled_seconds, cost_of(231) + 1e-12);
}

TEST(AutoTune, RatioSweepPrefersBalanceMatchingDeviceSpeeds) {
  auto g = gen::pokec_like(8000, 120000, 22);
  const apps::PageRank prog;

  tune::TuneDevice cpu;
  cpu.engine = cc_cfg(core::ExecMode::kLocking, 16);
  cpu.engine.max_supersteps = 5;
  cpu.spec = sim::xeon_e5_2680();
  cpu.profile.mode = core::ExecMode::kLocking;
  cpu.profile.threads = 16;
  cpu.profile.lanes = 4;

  tune::TuneDevice mic;
  mic.engine = cc_cfg(core::ExecMode::kPipelining, 64);
  mic.engine.max_supersteps = 5;
  mic.spec = sim::xeon_phi_se10p();
  mic.profile.mode = core::ExecMode::kPipelining;
  mic.profile.threads = 180;
  mic.profile.movers = 60;
  mic.profile.lanes = 16;

  const auto bp = partition::blocked_min_cut(g, {.num_blocks = 64, .seed = 2});
  const std::vector<partition::RankWeights> candidates = {
      {1, 15}, {1, 3}, {1, 1}, {3, 1}, {15, 1}};
  const auto choice =
      tune::tune_partition_ratio(g, prog, bp, candidates, {cpu, mic});

  // Both devices are within ~2x of each other for PageRank, so the extreme
  // one-sided splits must not win.
  ASSERT_EQ(choice.weights.size(), 2u);
  const bool extreme = choice.weights == partition::RankWeights{1, 15} ||
                       choice.weights == partition::RankWeights{15, 1};
  EXPECT_FALSE(extreme) << choice.weights[0] << ":" << choice.weights[1];
  EXPECT_GT(choice.modeled_seconds, 0.0);
}

}  // namespace
