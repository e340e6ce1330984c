// Sparse-frontier execution tests: the active-list (sparse) and bitmap
// (dense) generation paths must be result-identical for every scheme, and
// the new frontier / dirty-group counters must obey their invariants.
#include <gtest/gtest.h>

#include "src/apps/bfs.hpp"
#include "src/apps/connected_components.hpp"
#include "src/apps/reference.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/partition/partition.hpp"
#include "src/simd/bitset.hpp"

namespace {

using namespace phigraph;
using core::EngineConfig;
using core::ExecMode;

constexpr double kAlwaysDense = 0.0;   // frontier_size < 0 never holds
constexpr double kAlwaysSparse = 1.0;  // frontier_size < n (near-)always holds

EngineConfig cfg(ExecMode mode, double frontier_switch, int simd_bytes = 64) {
  EngineConfig c;
  c.mode = mode;
  c.simd_bytes = simd_bytes;
  c.threads = 3;
  c.movers = 2;
  c.sched_chunk = 16;
  c.sparse_iteration_threshold = frontier_switch;
  return c;
}

/// Same, but with the traversal direction pinned to push — for the tests
/// that assert on dense/sparse PUSH iteration counters, which a pull
/// superstep would be excluded from.
EngineConfig push_cfg(ExecMode mode, double frontier_switch,
                      int simd_bytes = 64) {
  EngineConfig c = cfg(mode, frontier_switch, simd_bytes);
  c.direction_mode = core::DirectionMode::kForcePush;
  return c;
}

graph::Csr weighted_graph() {
  auto g = gen::pokec_like(3000, 30000, 21);
  gen::add_random_weights(g, 4);
  return g;
}

struct FrontierModes
    : public ::testing::TestWithParam<std::pair<ExecMode, int>> {};

TEST_P(FrontierModes, BfsIdenticalAcrossDenseSparseAndAuto) {
  const auto [mode, simd_bytes] = GetParam();
  const auto g = weighted_graph();
  const apps::Bfs prog(0);
  // Direction pinned to push: the iteration SHAPE (list vs bitmap) is the
  // knob under test, and the forced-path counter checks below require every
  // superstep to be a push superstep.
  const auto dense =
      core::ClusterEngine(g, prog, {push_cfg(mode, kAlwaysDense, simd_bytes)})
          .run();
  const auto sparse =
      core::ClusterEngine(g, prog, {push_cfg(mode, kAlwaysSparse, simd_bytes)})
          .run();
  EngineConfig auto_cfg = cfg(mode, 0.05, simd_bytes);
  const auto autosw = core::ClusterEngine(g, prog, {auto_cfg}).run();

  EXPECT_EQ(dense.global_values, sparse.global_values);
  EXPECT_EQ(dense.global_values, autosw.global_values);
  const auto ref = apps::reference_run(g, prog);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(dense.global_values[v], ref[v]) << "vertex " << v;

  // The forced paths really took the paths they were forced onto.
  const auto td = metrics::totals(dense.ranks[0].trace);
  const auto ts = metrics::totals(sparse.ranks[0].trace);
  EXPECT_EQ(td.sparse_supersteps, 0u);
  EXPECT_EQ(td.dense_supersteps, dense.ranks[0].trace.size());
  EXPECT_EQ(ts.dense_supersteps, 0u);
  EXPECT_EQ(ts.sparse_supersteps, sparse.ranks[0].trace.size());
  // Structural counters are path-independent.
  EXPECT_EQ(td.msgs_local, ts.msgs_local);
  EXPECT_EQ(td.verts_updated, ts.verts_updated);
  EXPECT_EQ(td.frontier_size, ts.frontier_size);
}

TEST_P(FrontierModes, SsspIdenticalAcrossDenseSparseAndAuto) {
  const auto [mode, simd_bytes] = GetParam();
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  const auto dense =
      core::ClusterEngine(g, prog, {push_cfg(mode, kAlwaysDense, simd_bytes)})
          .run();
  const auto sparse =
      core::ClusterEngine(g, prog, {push_cfg(mode, kAlwaysSparse, simd_bytes)})
          .run();
  const auto autosw =
      core::ClusterEngine(g, prog, {cfg(mode, 0.05, simd_bytes)}).run();

  EXPECT_EQ(dense.global_values, sparse.global_values);
  EXPECT_EQ(dense.global_values, autosw.global_values);
  const auto ref = apps::reference_run(g, prog);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(dense.global_values[v], ref[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, FrontierModes,
    ::testing::Values(std::pair{ExecMode::kOmpStyle, 16},
                      std::pair{ExecMode::kLocking, 16},
                      std::pair{ExecMode::kLocking, 64},
                      std::pair{ExecMode::kPipelining, 64}),
    [](const ::testing::TestParamInfo<std::pair<ExecMode, int>>& pi) {
      std::string s = core::exec_mode_name(pi.param.first);
      s += pi.param.second == 64 ? "_MIC" : "_CPU";
      return s;
    });

TEST(Frontier, CountersTrackActiveSetExactly) {
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  const auto res =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking, 0.05)}).run();
  ASSERT_FALSE(res.ranks[0].trace.empty());
  for (const auto& c : res.ranks[0].trace) {
    // The compact list mirrors the bitmap: its size is the number of
    // vertices that drove generation (push: ran generate_messages; pull:
    // were scanned against as the frontier bitmap).
    EXPECT_EQ(c.frontier_size, c.active_vertices);
    // Every superstep is exactly one of push/pull, and dense/sparse
    // classify only the push iteration shapes.
    EXPECT_EQ(c.push_supersteps + c.pull_supersteps, 1u);
    EXPECT_EQ(c.dense_supersteps + c.sparse_supersteps + c.pull_supersteps,
              1u);
  }
  // Superstep 0: a single-source frontier is far below 5% density.
  EXPECT_EQ(res.ranks[0].trace[0].frontier_size, 1u);
  EXPECT_EQ(res.ranks[0].trace[0].sparse_supersteps, 1u);
}

TEST(Frontier, DirtyGroupTrackingSkipsUntouchedGroups) {
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  const auto res =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking, 0.05)}).run();
  const std::size_t num_groups =
      res.ranks[0].trace[0].groups_dirty + res.ranks[0].trace[0].groups_skipped;
  ASSERT_GT(num_groups, 0u);
  std::uint64_t best_skip_ratio = 0;
  for (const auto& c : res.ranks[0].trace) {
    // dirty + skipped always partitions the group set.
    EXPECT_EQ(c.groups_dirty + c.groups_skipped, num_groups);
    // A group only gets dirty if some message landed in it.
    if (c.msgs_local == 0) {
      EXPECT_EQ(c.groups_dirty, 0u);
    }
    if (c.groups_dirty > 0)
      best_skip_ratio =
          std::max(best_skip_ratio, c.groups_skipped / c.groups_dirty);
  }
  // Low-frontier supersteps skip the overwhelming majority of groups — the
  // >=10x CSB task-count reduction the sparse path exists for.
  EXPECT_GE(best_skip_ratio, 10u);
}

TEST(Frontier, ConnectedComponentsIdenticalDenseAndSparse) {
  // CC starts all-active (every vertex is a frontier member in superstep 0)
  // and shrinks — exercises the density switch in both directions.
  auto g = gen::dblp_like(2000, 6000, 17);
  const apps::ConnectedComponents prog;
  const auto dense =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking, kAlwaysDense)})
          .run();
  const auto sparse =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking, kAlwaysSparse)})
          .run();
  const auto autosw =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking, 0.05)}).run();
  EXPECT_EQ(dense.global_values, sparse.global_values);
  EXPECT_EQ(dense.global_values, autosw.global_values);
}

TEST(Frontier, BitmapActiveListRoundTripAtDirectionBoundary) {
  // Direction boundary plumbing: a push superstep produces the next frontier
  // as per-thread compact lists merged into frontier_ plus the active_ byte
  // map; a pull superstep consumes the byte map via a word-packed bitmap and
  // produces the next frontier through the same activate() path. Crossing
  // push -> pull -> push must therefore preserve the frontier exactly, which
  // this asserts end-to-end: an auto run that demonstrably switched both
  // ways computes the same values as a never-switching push run.
  const auto g = weighted_graph();
  const apps::Bfs prog(0);
  const auto pushed =
      core::ClusterEngine(g, prog, {push_cfg(ExecMode::kLocking, 0.05)}).run();
  const auto autosw =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kLocking, 0.05)}).run();
  EXPECT_EQ(pushed.global_values, autosw.global_values);

  const auto ta = metrics::totals(autosw.ranks[0].trace);
  const auto tp = metrics::totals(pushed.ranks[0].trace);
  // The auto run really crossed the boundary (power-law BFS: the dense
  // middle pulls, the sparse tail pushes again) and the forced run never did.
  EXPECT_GE(ta.pull_supersteps, 1u);
  EXPECT_GE(ta.direction_flips, 2u);
  EXPECT_EQ(tp.pull_supersteps, 0u);
  EXPECT_EQ(tp.push_supersteps, pushed.ranks[0].trace.size());
  EXPECT_EQ(tp.direction_flips, 0u);
  // Pull work is accounted on its own counters, never on the push ones.
  EXPECT_EQ(tp.pull_edges_scanned, 0u);
  EXPECT_GT(ta.pull_edges_scanned, 0u);
  for (const auto& c : autosw.ranks[0].trace)
    if (c.pull_supersteps) {
      EXPECT_EQ(c.edges_scanned, 0u);
      EXPECT_EQ(c.msgs_local, 0u);
      EXPECT_EQ(c.active_vertices, c.frontier_size);
    }
}

TEST(Frontier, DenseBitsetRoundTripsByteMaps) {
  // The pull kernel's word-packed bitmap is rebuilt from the engine's
  // byte-per-vertex active map every pull superstep (AVX2 fast path when
  // available) — bytes -> bits -> bytes must be the identity for sizes that
  // exercise the 32-byte vector blocks, the word boundaries and the scalar
  // tail.
  for (std::size_t n : {1u, 31u, 32u, 33u, 64u, 100u, 257u, 4096u, 5000u}) {
    std::vector<std::uint8_t> bytes(n, 0);
    // Deterministic mixed pattern, including values > 1 and >= 0x80 (any
    // nonzero byte counts as active).
    for (std::size_t i = 0; i < n; ++i)
      bytes[i] = (i % 3 == 0) ? static_cast<std::uint8_t>(1 + (i * 37) % 255)
                              : 0;
    simd::DenseBitset bits(n);
    bits.assign_bytes(bytes.data(), n);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits.test(i), bytes[i] != 0) << "n=" << n << " i=" << i;
      if (bytes[i]) ++expected;
    }
    EXPECT_EQ(bits.count(), expected);
    std::vector<std::uint8_t> back(n, 0xee);
    bits.to_bytes(back.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(back[i], bytes[i] ? 1 : 0) << "n=" << n << " i=" << i;
    // Re-assigning an inverted pattern fully overwrites stale bits.
    for (std::size_t i = 0; i < n; ++i) bytes[i] = bytes[i] ? 0 : 0x80;
    bits.assign_bytes(bytes.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits.test(i), bytes[i] != 0) << "inverted n=" << n << " i=" << i;
  }
}

TEST(Frontier, ToposortIdenticalDenseAndSparse) {
  const auto g = gen::dag_like(1500, 15000, 23);
  const apps::TopoSort prog;
  const auto dense =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kPipelining, kAlwaysDense)})
          .run();
  const auto sparse =
      core::ClusterEngine(g, prog, {cfg(ExecMode::kPipelining, kAlwaysSparse)})
          .run();
  const auto& d = dense.global_values;
  const auto& s = sparse.global_values;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(d[v].order, s[v].order);
    EXPECT_EQ(d[v].remaining, s[v].remaining);
  }
}

// ---------------------------------------------------------------------------
// With a peer device: frontier switching on both ranks, remote combine
// through the sharded buffer, parallel exchange drain.
// ---------------------------------------------------------------------------

TEST(FrontierHetero, BfsIdenticalAcrossThresholdsWithPeer) {
  const auto g = weighted_graph();
  const apps::Bfs prog(3);
  const auto classic = apps::classic_bfs(g, 3);

  for (double thresh : {kAlwaysDense, kAlwaysSparse, 0.05}) {
    core::ClusterEngine<apps::Bfs> ce(
        g, partition::round_robin_partition_k(g, {1, 2}), prog,
        {cfg(ExecMode::kLocking, thresh, 16),
         cfg(ExecMode::kPipelining, thresh, 64)});
    auto res = ce.run();
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(res.global_values[v], classic[v])
          << "vertex " << v << " threshold " << thresh;
  }
}

TEST(FrontierHetero, SsspShardedRemoteCombineMatchesReference) {
  const auto g = weighted_graph();
  const apps::Sssp prog(0);
  const auto ref = apps::reference_run(g, prog);

  auto cpu = cfg(ExecMode::kLocking, kAlwaysSparse, 16);
  auto mic = cfg(ExecMode::kLocking, kAlwaysSparse, 64);
  cpu.remote_shards = 4;  // force multi-entry shards
  mic.remote_shards = 4;
  core::ClusterEngine<apps::Sssp> ce(
      g, partition::round_robin_partition_k(g, {1, 1}), prog, {cpu, mic});
  auto res = ce.run();
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(res.global_values[v], ref[v]) << "vertex " << v;
}

}  // namespace
