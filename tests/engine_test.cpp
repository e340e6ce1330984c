// End-to-end engine tests: every application, every execution scheme, both
// device SIMD profiles, single-device and heterogeneous — all validated
// against the sequential reference (same BSP semantics) and, where one
// exists, against an independent classical algorithm.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <type_traits>

#include "src/apps/bfs.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/apps/semiclustering.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/graph/paper_example.hpp"
#include "src/partition/partition.hpp"

namespace {

using namespace phigraph;
using core::EngineConfig;
using core::ExecMode;

// gtest names each instance after a byte dump of its parameter, so the tail
// after `use_simd` is an explicit zeroed member: left as compiler padding it
// held stack garbage and the test names changed from run to run.
struct ModeParam {
  ExecMode mode;
  int simd_bytes;
  bool use_simd;
  std::uint8_t zero[3] = {};
};
static_assert(std::has_unique_object_representations_v<ModeParam>);

std::string mode_name(const ::testing::TestParamInfo<ModeParam>& info) {
  const auto& p = info.param;
  std::string s = core::exec_mode_name(p.mode);
  s += p.simd_bytes == 64 ? "_MIC" : "_CPU";
  if (!p.use_simd) s += "_novec";
  return s;
}

EngineConfig make_config(const ModeParam& p) {
  EngineConfig cfg;
  cfg.mode = p.mode;
  cfg.simd_bytes = p.simd_bytes;
  cfg.use_simd = p.use_simd;
  cfg.threads = 4;
  cfg.movers = 2;
  cfg.sched_chunk = 16;
  cfg.queue_capacity = 256;
  return cfg;
}

graph::Csr test_graph() {
  auto g = gen::pokec_like(/*n=*/3000, /*m=*/30000, /*seed=*/7);
  gen::add_random_weights(g, 11);
  return g;
}

class EngineModes : public ::testing::TestWithParam<ModeParam> {};

TEST_P(EngineModes, SsspMatchesReferenceAndDijkstra) {
  const auto g = test_graph();
  const apps::Sssp prog(0);
  auto res = core::ClusterEngine(g, prog, {make_config(GetParam())}).run();

  const auto ref = apps::reference_run(g, prog);
  const auto dij = apps::classic_dijkstra(g, 0);
  ASSERT_EQ(res.global_values.size(), ref.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(res.global_values[v], ref[v]) << "vertex " << v;
    if (dij[v] == apps::Sssp::kInfinity) {
      EXPECT_EQ(res.global_values[v], apps::Sssp::kInfinity);
    } else {
      EXPECT_NEAR(res.global_values[v], dij[v], 1e-3f * (1.0f + dij[v]));
    }
  }
}

TEST_P(EngineModes, BfsMatchesClassic) {
  const auto g = test_graph();
  const apps::Bfs prog(0);
  auto res = core::ClusterEngine(g, prog, {make_config(GetParam())}).run();
  const auto classic = apps::classic_bfs(g, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], classic[v]) << "vertex " << v;
}

TEST_P(EngineModes, PageRankMatchesClassic) {
  const auto g = test_graph();
  const apps::PageRank prog;
  auto cfg = make_config(GetParam());
  cfg.max_supersteps = 15;
  auto res = core::ClusterEngine(g, prog, {cfg}).run();
  const auto classic = apps::classic_pagerank(g, 15);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(res.global_values[v], classic[v], 1e-3f * (1.0f + classic[v]))
        << "vertex " << v;
}

TEST_P(EngineModes, TopoSortMatchesKahnLevels) {
  const auto g = gen::dag_like(/*n=*/2000, /*m=*/20000, /*seed=*/3);
  const apps::TopoSort prog;
  auto res = core::ClusterEngine(g, prog, {make_config(GetParam())}).run();
  const auto levels = apps::classic_topo_levels(g);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(res.global_values[v].remaining, 0) << "vertex " << v;
    EXPECT_EQ(res.global_values[v].order, levels[v]) << "vertex " << v;
  }
  // The orders form a valid topological order: every edge increases it.
  for (vid_t u = 0; u < g.num_vertices(); ++u)
    for (vid_t v : g.out_neighbors(u))
      EXPECT_LT(res.global_values[u].order, res.global_values[v].order);
}

TEST_P(EngineModes, SemiClusteringMatchesReference) {
  const auto g = gen::dblp_like(/*n=*/400, /*m=*/1200, /*seed=*/5);
  const apps::SemiClustering prog;
  auto cfg = make_config(GetParam());
  cfg.max_supersteps = 6;
  const auto res = core::ClusterEngine(g, prog, {cfg}).run();
  const auto& got = res.global_values;
  const auto ref = apps::reference_run(g, prog, 6);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(got[v].count, ref[v].count) << "vertex " << v;
    for (std::uint32_t c = 0; c < ref[v].count; ++c) {
      EXPECT_TRUE(got[v].clusters[c].same_members(ref[v].clusters[c]))
          << "vertex " << v << " cluster " << c;
      EXPECT_FLOAT_EQ(got[v].clusters[c].score, ref[v].clusters[c].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EngineModes,
    ::testing::Values(ModeParam{ExecMode::kOmpStyle, 16, false},
                      ModeParam{ExecMode::kLocking, 16, true},
                      ModeParam{ExecMode::kLocking, 64, true},
                      ModeParam{ExecMode::kLocking, 64, false},
                      ModeParam{ExecMode::kPipelining, 16, true},
                      ModeParam{ExecMode::kPipelining, 64, true}),
    mode_name);

// ---------------------------------------------------------------------------
// Heterogeneous CPU+MIC runs: a two-rank cluster, CPU = rank 0.
// ---------------------------------------------------------------------------

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
  return c;
}

TEST(HeteroCluster, SsspMatchesReference) {
  const auto g = test_graph();
  const apps::Sssp prog(0);
  core::ClusterEngine<apps::Sssp> ce(
      g, partition::round_robin_partition_k(g, {1, 1}), prog,
      {cpu_cfg(), mic_cfg()});
  auto res = ce.run();
  const auto ref = apps::reference_run(g, prog);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], ref[v]) << "vertex " << v;
}

TEST(HeteroCluster, PageRankMatchesClassic) {
  const auto g = test_graph();
  const apps::PageRank prog;
  auto cc = cpu_cfg();
  auto mc = mic_cfg();
  cc.max_supersteps = mc.max_supersteps = 10;
  core::ClusterEngine<apps::PageRank> ce(
      g, partition::round_robin_partition_k(g, {3, 5}), prog, {cc, mc});
  auto res = ce.run();
  EXPECT_EQ(res.ranks[0].supersteps, 10);
  EXPECT_EQ(res.ranks[1].supersteps, 10);
  const auto classic = apps::classic_pagerank(g, 10);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(res.global_values[v], classic[v], 1e-3f * (1.0f + classic[v]));
}

// A pulling rank swaps shares over the data channel on which a pushing rank
// ships messages, so PageRank ranks must agree on whether they pull.
TEST(HeteroCluster, PageRankRanksThatDisagreeOnPullingAreRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto g = gen::pokec_like(2000, 20000, 7);
  const auto owner = partition::round_robin_partition_k(g, {1, 1});
  EngineConfig push;
  EngineConfig pull;
  push.threads = pull.threads = 1;
  push.max_supersteps = pull.max_supersteps = 5;
  push.direction_mode = core::DirectionMode::kForcePush;
  pull.direction_mode = core::DirectionMode::kAuto;
  for (const auto& cfgs : {std::vector{push, pull}, std::vector{pull, push}})
    EXPECT_DEATH(
        {
          core::ClusterEngine<apps::PageRank> ce(g, owner, apps::PageRank{},
                                                 cfgs);
          (void)ce.run();
        },
        "ranks must agree on whether they pull");
}

TEST(HeteroCluster, BfsMatchesClassicUnderSkewedPartition) {
  const auto g = test_graph();
  const apps::Bfs prog(5);
  core::ClusterEngine<apps::Bfs> ce(
      g, partition::round_robin_partition_k(g, {1, 4}), prog,
      {cpu_cfg(), mic_cfg()});
  auto res = ce.run();
  const auto classic = apps::classic_bfs(g, 5);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v], classic[v]) << "vertex " << v;
}

TEST(HeteroCluster, TopoSortMatchesKahn) {
  const auto g = gen::dag_like(1500, 15000, 9);
  const apps::TopoSort prog;
  core::ClusterEngine<apps::TopoSort> ce(
      g, partition::round_robin_partition_k(g, {1, 1}), prog,
      {cpu_cfg(), mic_cfg()});
  auto res = ce.run();
  const auto levels = apps::classic_topo_levels(g);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(res.global_values[v].order, levels[v]);
}

TEST(HeteroCluster, CommunicationCountersAreConsistent) {
  const auto g = test_graph();
  const apps::Sssp prog(0);
  core::ClusterEngine<apps::Sssp> ce(
      g, partition::round_robin_partition_k(g, {1, 1}), prog,
      {cpu_cfg(), mic_cfg()});
  auto res = ce.run();
  // What one device sends, the other receives, superstep by superstep.
  const auto& cpu = res.ranks[0].trace;
  const auto& mic = res.ranks[1].trace;
  ASSERT_EQ(cpu.size(), mic.size());
  for (std::size_t s = 0; s < cpu.size(); ++s) {
    EXPECT_EQ(cpu[s].bytes_sent, mic[s].bytes_received);
    EXPECT_EQ(mic[s].bytes_sent, cpu[s].bytes_received);
  }
}

// ---------------------------------------------------------------------------
// Counter invariants on single-device runs.
// ---------------------------------------------------------------------------

TEST(EngineCounters, MessageConservationAndSimdWork) {
  const auto g = test_graph();
  const apps::Sssp prog(0);
  EngineConfig cfg = make_config({ExecMode::kLocking, 64, true});
  // Push pinned: these are the push path's CSB conservation laws (a pull
  // superstep updates vertices without allocating columns).
  cfg.direction_mode = core::DirectionMode::kForcePush;
  core::DeviceEngine<apps::Sssp> engine(core::LocalGraph::whole(g), prog, cfg);
  auto run = engine.run();

  const auto t = metrics::totals(run.trace);
  // Every scanned edge produced exactly one message, all of them local.
  EXPECT_EQ(t.edges_scanned, t.msgs_local);
  EXPECT_EQ(t.msgs_remote, 0u);
  EXPECT_EQ(t.msgs_received, 0u);
  // Each distinct destination was updated exactly once per superstep.
  EXPECT_EQ(t.columns_allocated, t.verts_updated);
  // Conflicts + allocations account for every local message.
  EXPECT_EQ(t.column_conflicts + t.columns_allocated, t.msgs_local);
  // SIMD work happened (MIC profile, reducible app).
  EXPECT_GT(t.vector_rows, 0u);
  EXPECT_EQ(t.scalar_msgs, 0u);
}

TEST(EngineCounters, PipeliningMovesEveryLocalMessageThroughQueues) {
  const auto g = test_graph();
  const apps::Sssp prog(0);
  EngineConfig cfg = make_config({ExecMode::kPipelining, 64, true});
  core::DeviceEngine<apps::Sssp> engine(core::LocalGraph::whole(g), prog, cfg);
  auto run = engine.run();
  const auto t = metrics::totals(run.trace);
  EXPECT_EQ(t.queue_pushes, t.msgs_local);
  EXPECT_EQ(t.edges_scanned, t.msgs_local);
}

TEST(EngineCounters, NovecUsesScalarPathOnly) {
  const auto g = test_graph();
  const apps::Sssp prog(0);
  EngineConfig cfg = make_config({ExecMode::kLocking, 64, false});
  core::DeviceEngine<apps::Sssp> engine(core::LocalGraph::whole(g), prog, cfg);
  auto run = engine.run();
  const auto t = metrics::totals(run.trace);
  EXPECT_EQ(t.vector_rows, 0u);
  EXPECT_GT(t.scalar_msgs, 0u);
}

TEST(EngineCounters, PaperExampleSuperstepTrace) {
  // Run SSSP from vertex 6 on the paper's 16-vertex graph and check the
  // first superstep's counters by hand: vertex 6 has one out-edge (to 2).
  auto g = graph::paper_example_graph();
  std::vector<float> w(g.num_edges(), 1.0f);
  g.set_edge_values(std::move(w));
  const apps::Sssp prog(6);
  EngineConfig cfg = make_config({ExecMode::kLocking, 16, true});
  core::DeviceEngine<apps::Sssp> engine(core::LocalGraph::whole(g), prog, cfg);
  auto run = engine.run();
  ASSERT_GE(run.trace.size(), 1u);
  EXPECT_EQ(run.trace[0].active_vertices, 1u);
  EXPECT_EQ(run.trace[0].msgs_local, 1u);
  EXPECT_EQ(run.trace[0].columns_allocated, 1u);
  EXPECT_EQ(run.trace[0].verts_updated, 1u);
}

}  // namespace
