// Deep counter-accounting tests: the performance model is only as good as
// the counters, so the counters themselves are pinned down here across
// execution modes and device profiles.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/apps/bfs.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/graph/io.hpp"
#include "src/partition/partition.hpp"
#include "src/pipeline/message_pipeline.hpp"

namespace {

using namespace phigraph;
using core::EngineConfig;
using core::ExecMode;

EngineConfig cfg(ExecMode mode, int simd_bytes = 64) {
  EngineConfig c;
  c.mode = mode;
  c.simd_bytes = simd_bytes;
  c.threads = 3;
  c.movers = 2;
  return c;
}

graph::Csr weighted_graph() {
  auto g = gen::pokec_like(4000, 60000, 31);
  gen::add_random_weights(g, 6);
  return g;
}

TEST(EngineCounters, StructuralCountersAreModeIndependent) {
  // Messages, destinations, conflicts, active vertices and updates are
  // functions of graph + algorithm, not of the execution scheme — the
  // property the auto-tuner and the bench methodology rely on.
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  const auto lock =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking)}).run();
  const auto pipe =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kPipelining)}).run();
  const auto omp =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kOmpStyle, 16)}).run();

  ASSERT_EQ(lock.ranks[0].trace.size(), pipe.ranks[0].trace.size());
  ASSERT_EQ(lock.ranks[0].trace.size(), omp.ranks[0].trace.size());
  for (std::size_t s = 0; s < lock.ranks[0].trace.size(); ++s) {
    const auto& a = lock.ranks[0].trace[s];
    const auto& b = pipe.ranks[0].trace[s];
    const auto& c = omp.ranks[0].trace[s];
    EXPECT_EQ(a.active_vertices, b.active_vertices);
    EXPECT_EQ(a.active_vertices, c.active_vertices);
    EXPECT_EQ(a.edges_scanned, b.edges_scanned);
    EXPECT_EQ(a.msgs_local, b.msgs_local);
    EXPECT_EQ(a.msgs_local, c.msgs_local);
    EXPECT_EQ(a.columns_allocated, b.columns_allocated);
    EXPECT_EQ(a.columns_allocated, c.columns_allocated);
    EXPECT_EQ(a.column_conflicts, b.column_conflicts);
    EXPECT_EQ(a.verts_updated, b.verts_updated);
    EXPECT_EQ(a.verts_updated, c.verts_updated);
  }
}

TEST(EngineCounters, LaneWidthChangesRowsNotMessages) {
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  // Push pinned: lane-width accounting of the CSB reduction is the subject;
  // pull supersteps would bypass the CSB entirely.
  auto cpu_cfg = cfg(ExecMode::kLocking, 16);
  auto mic_cfg = cfg(ExecMode::kLocking, 64);
  cpu_cfg.direction_mode = core::DirectionMode::kForcePush;
  mic_cfg.direction_mode = core::DirectionMode::kForcePush;
  const auto cpu = core::ClusterEngine(g, prog, {cpu_cfg}).run();
  const auto mic = core::ClusterEngine(g, prog, {mic_cfg}).run();
  const auto tc = metrics::totals(cpu.ranks[0].trace);
  const auto tm = metrics::totals(mic.ranks[0].trace);
  EXPECT_EQ(tc.msgs_local, tm.msgs_local);
  // Wider lanes -> fewer rows to reduce, but more padded bubble cells.
  EXPECT_GT(tc.vector_rows, tm.vector_rows);
  EXPECT_LT(tc.padded_cells, tm.padded_cells);
}

TEST(EngineCounters, BfsSkipsReductionEntirely) {
  const auto g = gen::pokec_like(3000, 30000, 12);
  const auto res =
      core::ClusterEngine(g, apps::Bfs{0}, {cfg(ExecMode::kLocking)}).run();
  const auto t = metrics::totals(res.ranks[0].trace);
  EXPECT_EQ(t.vector_rows, 0u);   // no SIMD reduction sub-step
  EXPECT_EQ(t.scalar_msgs, 0u);   // no scalar reduction either
  EXPECT_GT(t.msgs_local, 0u);
}

TEST(EngineCounters, PageRankScansEveryEdgeEverySuperstep) {
  const auto g = gen::pokec_like(2000, 24000, 14);
  auto c = cfg(ExecMode::kLocking);
  c.max_supersteps = 4;
  // Push pinned: the CSB path's per-message accounting is the subject; a
  // single-device PageRank pulls by default.
  c.direction_mode = core::DirectionMode::kForcePush;
  const auto res = core::ClusterEngine(g, apps::PageRank{}, {c}).run();
  for (const auto& step : res.ranks[0].trace) {
    EXPECT_EQ(step.active_vertices, g.num_vertices());
    EXPECT_EQ(step.edges_scanned, g.num_edges());
    EXPECT_EQ(step.msgs_local, g.num_edges());
  }
}

// The counter contract of an engine that can never push: single-device
// PageRank under auto direction, and any pullable program forced to pull.
// It allocates no CSB, every superstep pulls, and each pull superstep
// gathers over every in-edge exactly once.
TEST(EngineCounters, PullOnlyEngineAllocatesNoCsbAndScansEveryInEdge) {
  const auto g = gen::pokec_like(2000, 24000, 14);
  for (ExecMode mode :
       {ExecMode::kLocking, ExecMode::kPipelining, ExecMode::kOmpStyle}) {
    auto c = cfg(mode, mode == ExecMode::kOmpStyle ? 16 : 64);
    c.max_supersteps = 4;
    core::DeviceEngine<apps::PageRank> e(core::LocalGraph::whole(g),
                                         apps::PageRank{}, c);
    EXPECT_EQ(e.csb(), nullptr) << core::exec_mode_name(mode);
    const auto res = e.run();
    ASSERT_EQ(res.supersteps, 4);
    const auto t = metrics::totals(res.trace);
    EXPECT_EQ(t.push_supersteps, 0u);
    EXPECT_EQ(t.pull_supersteps, static_cast<std::uint64_t>(res.supersteps));
    EXPECT_EQ(t.direction_flips, 1u) << "one flip: into pull, then stay";
    for (const auto& step : res.trace) {
      EXPECT_EQ(step.pull_edges_scanned, g.num_edges());
      EXPECT_EQ(step.active_vertices, g.num_vertices());
      EXPECT_EQ(step.edges_scanned, 0u);
      EXPECT_EQ(step.msgs_local, 0u);
      EXPECT_EQ(step.lock_acquisitions, 0u);
      EXPECT_EQ(step.queue_pushes, 0u);
      EXPECT_EQ(step.groups_dirty, 0u);
    }
  }

  // A traversal forced to pull never pushes either; pinned to push, the
  // same program keeps its CSB.
  auto c = cfg(ExecMode::kLocking);
  c.direction_mode = core::DirectionMode::kForcePull;
  core::DeviceEngine<apps::Bfs> pull(core::LocalGraph::whole(g), apps::Bfs{0},
                                     c);
  EXPECT_EQ(pull.csb(), nullptr);
  c.direction_mode = core::DirectionMode::kForcePush;
  core::DeviceEngine<apps::PageRank> push(core::LocalGraph::whole(g),
                                          apps::PageRank{}, c);
  EXPECT_NE(push.csb(), nullptr);
}

// Ranks with peers pull PageRank too. Neither rank allocates a CSB or
// pushes a message; together they gather over every in-edge once per
// superstep, and the wire carries exactly one share envelope per (owned
// vertex, peer holding one of its out-neighbors) per superstep.
TEST(EngineCounters, ClusterPullShipsOneSharePerBoundaryVertex) {
  const auto g = gen::pokec_like(2000, 24000, 14);
  const auto owner = partition::round_robin_partition_k(g, {1, 1});
  auto lock = cfg(ExecMode::kLocking, 16);
  auto pipe = cfg(ExecMode::kPipelining, 64);
  lock.max_supersteps = pipe.max_supersteps = 4;
  core::ClusterEngine<apps::PageRank> ce(g, owner, apps::PageRank{},
                                         {lock, pipe});
  EXPECT_EQ(ce.engine(0).csb(), nullptr);
  EXPECT_EQ(ce.engine(1).csb(), nullptr);
  const auto res = ce.run();
  ASSERT_TRUE(res.completed);

  std::uint64_t boundary = 0;  // two ranks: one peer per vertex at most
  for (vid_t u = 0; u < g.num_vertices(); ++u)
    for (const vid_t v : g.out_neighbors(u))
      if (owner[v] != owner[u]) {
        ++boundary;
        break;
      }
  metrics::SuperstepCounters t;
  for (const auto& r : res.ranks) t += metrics::totals(r.trace);
  EXPECT_EQ(t.pull_supersteps, 2u * 4u);
  EXPECT_EQ(t.msgs_local, 0u);
  EXPECT_EQ(t.msgs_remote, 0u);
  EXPECT_EQ(t.msgs_received, 0u);
  EXPECT_EQ(t.pull_edges_scanned, g.num_edges() * 4);
  const std::uint64_t bytes =
      boundary * 4 * sizeof(pipeline::Envelope<apps::PageRank::message_t>);
  EXPECT_EQ(t.bytes_sent, bytes);
  EXPECT_EQ(t.bytes_received, bytes);
}

TEST(EngineCounters, TopoSortMessageTotalEqualsEdges) {
  // Every edge delivers exactly one "decrement" message over the whole run.
  const auto g = gen::dag_like(600, 40000, 15, 12);
  const auto res =
      core::ClusterEngine(g, apps::TopoSort{}, {cfg(ExecMode::kPipelining)})
          .run();
  EXPECT_EQ(metrics::totals(res.ranks[0].trace).msgs_local, g.num_edges());
}

TEST(EngineCounters, HeteroSplitsMessagesByOwnership) {
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  // Single-device totals for comparison — push pinned, because the split
  // run below always pushes (a traversal with a peer does) and msgs_local
  // counts pushed messages only.
  auto solo_cfg = cfg(ExecMode::kLocking);
  solo_cfg.direction_mode = core::DirectionMode::kForcePush;
  const auto solo = core::ClusterEngine(g, prog, {solo_cfg}).run();
  const auto solo_msgs = metrics::totals(solo.ranks[0].trace).msgs_local;

  core::ClusterEngine<apps::Sssp> ce(
      g, partition::round_robin_partition_k(g, {1, 1}), prog,
      {cfg(ExecMode::kLocking, 16), cfg(ExecMode::kLocking, 64)});
  auto res = ce.run();
  const auto tc = metrics::totals(res.ranks[0].trace);
  const auto tm = metrics::totals(res.ranks[1].trace);

  // Local + remote generation covers every edge-message exactly once.
  EXPECT_EQ(tc.msgs_local + tc.msgs_remote + tm.msgs_local + tm.msgs_remote,
            solo_msgs);
  // Remote messages are combined: fewer arrive than were deposited.
  EXPECT_LE(tc.msgs_received, tm.msgs_remote);
  EXPECT_LE(tm.msgs_received, tc.msgs_remote);
  EXPECT_GT(tc.msgs_received, 0u);
  // Each device updated only its own vertices.
  EXPECT_GT(tc.verts_updated, 0u);
  EXPECT_GT(tm.verts_updated, 0u);
}

TEST(EngineCounters, LockAccountingPerMode) {
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  const auto lock =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking)}).run();
  const auto pipe =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kPipelining)}).run();
  const auto tl = metrics::totals(lock.ranks[0].trace);
  const auto tp = metrics::totals(pipe.ranks[0].trace);
  // Locking: >= one column-lock acquisition per message (+ allocations).
  EXPECT_GE(tl.lock_acquisitions, tl.msgs_local);
  // Pipelining: locks only for column allocation — far fewer.
  EXPECT_LT(tp.lock_acquisitions, tp.msgs_local / 2);
  EXPECT_EQ(tp.queue_pushes, tp.msgs_local);
}

TEST(EngineCounters, FileRoundTripProducesIdenticalRun) {
  // Save to the binary format (bit-exact weights), reload, rerun: identical
  // trace and results (the whole-pipeline determinism guarantee).
  const auto g = weighted_graph();
  const auto path =
      (std::filesystem::temp_directory_path() / "pg_counters_rt.pgb").string();
  graph::save_binary(g, path);
  const auto g2 = graph::load_binary(path);
  std::filesystem::remove(path);

  const apps::Sssp prog(0);
  const auto a = core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking)}).run();
  const auto b = core::ClusterEngine(g2, prog, {cfg(ExecMode::kLocking)}).run();
  EXPECT_EQ(a.global_values, b.global_values);
  ASSERT_EQ(a.ranks[0].trace.size(), b.ranks[0].trace.size());
  for (std::size_t s = 0; s < a.ranks[0].trace.size(); ++s)
    EXPECT_EQ(a.ranks[0].trace[s].msgs_local, b.ranks[0].trace[s].msgs_local);
}

}  // namespace
