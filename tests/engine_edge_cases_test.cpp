// Engine edge cases and configuration sweeps beyond the happy path.
#include <gtest/gtest.h>

#include "src/apps/bfs.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"

namespace {

using namespace phigraph;
using core::EngineConfig;
using core::ExecMode;

EngineConfig small_cfg(ExecMode mode = ExecMode::kLocking) {
  EngineConfig cfg;
  cfg.mode = mode;
  cfg.threads = 3;
  cfg.movers = 2;
  cfg.sched_chunk = 8;
  return cfg;
}

TEST(EngineEdge, EmptyGraph) {
  const auto g = graph::Csr::from_edges(0, {});
  auto res = core::ClusterEngine(g, apps::PageRank{}, {small_cfg()}).run();
  EXPECT_TRUE(res.global_values.empty());
}

TEST(EngineEdge, SingleVertexNoEdges) {
  const auto g = graph::Csr::from_edges(1, {});
  auto res = core::ClusterEngine(g, apps::Bfs{0}, {small_cfg()}).run();
  EXPECT_EQ(res.global_values[0], 0);
  EXPECT_LE(res.ranks[0].supersteps, 2);
}

TEST(EngineEdge, SelfLoopTerminates) {
  // A self-loop relaxation must not reactivate forever (msg >= own value).
  std::vector<std::pair<vid_t, vid_t>> edges = {{0, 0}, {0, 1}};
  auto g = graph::Csr::from_edges(2, edges);
  g.set_edge_values({1.0f, 2.0f});
  auto res = core::ClusterEngine(g, apps::Sssp{0}, {small_cfg()}).run();
  EXPECT_FLOAT_EQ(res.global_values[0], 0.0f);
  EXPECT_FLOAT_EQ(res.global_values[1], 2.0f);
  EXPECT_LT(res.ranks[0].supersteps, 10);
}

TEST(EngineEdge, DisconnectedComponentsStayUntouched) {
  // Two components; BFS from component A must leave B at -1.
  std::vector<std::pair<vid_t, vid_t>> edges = {{0, 1}, {1, 2}, {3, 4}};
  const auto g = graph::Csr::from_edges(5, edges);
  auto res = core::ClusterEngine(g, apps::Bfs{0}, {small_cfg()}).run();
  EXPECT_EQ(res.global_values[2], 2);
  EXPECT_EQ(res.global_values[3], -1);
  EXPECT_EQ(res.global_values[4], -1);
}

TEST(EngineEdge, MaxSuperstepsCapIsHonored) {
  const auto g = gen::pokec_like(1000, 10000, 4);
  auto cfg = small_cfg();
  cfg.max_supersteps = 3;
  auto res = core::ClusterEngine(g, apps::PageRank{}, {cfg}).run();
  EXPECT_EQ(res.ranks[0].supersteps, 3);
  EXPECT_EQ(res.ranks[0].trace.size(), 3u);
}

TEST(EngineEdge, SingleThreadSingleMover) {
  auto g = gen::pokec_like(800, 8000, 6);
  gen::add_random_weights(g, 1);
  EngineConfig cfg;
  cfg.mode = ExecMode::kPipelining;
  cfg.threads = 1;
  cfg.movers = 1;
  const apps::Sssp prog(0);
  const auto res = core::ClusterEngine(g, prog, {cfg}).run();
  EXPECT_EQ(res.global_values, apps::reference_run(g, prog));
}

TEST(EngineEdge, OneToOneColumnModeMatchesDynamic) {
  auto g = gen::pokec_like(2000, 20000, 8);
  gen::add_random_weights(g, 2);
  auto dyn_cfg = small_cfg();
  dyn_cfg.column_mode = buffer::ColumnMode::kDynamic;
  auto o2o_cfg = small_cfg();
  o2o_cfg.column_mode = buffer::ColumnMode::kOneToOne;
  const apps::Sssp prog(0);
  const auto a = core::ClusterEngine(g, prog, {dyn_cfg}).run();
  const auto b = core::ClusterEngine(g, prog, {o2o_cfg}).run();
  EXPECT_EQ(a.global_values, b.global_values);
  // One-to-one pads far more lanes (Fig. 3(a) vs 3(b)).
  EXPECT_GT(metrics::totals(b.ranks[0].trace).padded_cells,
            metrics::totals(a.ranks[0].trace).padded_cells);
}

TEST(EngineEdge, CsbKSweepKeepsResults) {
  auto g = gen::pokec_like(1500, 15000, 9);
  gen::add_random_weights(g, 3);
  const apps::Sssp prog(0);
  const auto ref = apps::reference_run(g, prog);
  for (int k : {1, 2, 4, 8}) {
    auto cfg = small_cfg();
    cfg.csb_k = k;
    const auto res = core::ClusterEngine(g, prog, {cfg}).run();
    EXPECT_EQ(res.global_values, ref) << "k = " << k;
  }
}

TEST(EngineEdge, ChunkSizeSweepKeepsResults) {
  const auto g = gen::dag_like(800, 30000, 10, 12);
  const auto ref = apps::reference_run(g, apps::TopoSort{});
  for (std::size_t chunk : {1, 7, 64, 4096}) {
    auto cfg = small_cfg(ExecMode::kPipelining);
    cfg.sched_chunk = chunk;
    const auto res = core::ClusterEngine(g, apps::TopoSort{}, {cfg}).run();
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(res.global_values[v].order, ref[v].order) << "chunk " << chunk;
  }
}

TEST(EngineEdge, TinyQueueCapacityStillLossless) {
  const auto g = gen::pokec_like(1000, 20000, 11);
  auto cfg = small_cfg(ExecMode::kPipelining);
  cfg.queue_capacity = 4;  // maximal backpressure
  auto res = core::ClusterEngine(g, apps::Bfs{0}, {cfg}).run();
  const auto classic = apps::classic_bfs(g, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.global_values[v], classic[v]);
  EXPECT_GT(metrics::totals(res.ranks[0].trace).queue_full_spins, 0u);
}

TEST(EngineEdge, ManyMoversFewWorkers) {
  const auto g = gen::pokec_like(1000, 10000, 12);
  auto cfg = small_cfg(ExecMode::kPipelining);
  cfg.threads = 1;
  cfg.movers = 5;
  auto res = core::ClusterEngine(g, apps::Bfs{0}, {cfg}).run();
  const auto classic = apps::classic_bfs(g, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.global_values[v], classic[v]);
}

TEST(EngineEdge, HeteroWithAllVerticesOnOneDevice) {
  const auto g = gen::pokec_like(500, 5000, 13);
  core::ClusterEngine<apps::Bfs> ce(g, std::vector<int>(g.num_vertices(), 0),
                                    apps::Bfs{0}, {small_cfg(), small_cfg()});
  auto res = ce.run();
  const auto classic = apps::classic_bfs(g, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], classic[v]);
}

}  // namespace
