// Quickstart: Single-Source Shortest Paths on a small graph — the paper's
// running example (§III, Listing 1), using the public PhiGraph API.
//
//   $ ./quickstart
//
// Walks through the full workflow: build a graph, pick an engine
// configuration (execution scheme + SIMD profile), run, read results.
#include <cstdio>

#include "src/apps/sssp.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/graph/csr.hpp"

int main() {
  using namespace phigraph;

  // 1. A small weighted directed graph (edge list -> CSR).
  //        0 --1.0--> 1 --2.0--> 3
  //        0 --4.0--> 2 --1.5--> 3 --0.5--> 4
  const std::vector<std::pair<vid_t, vid_t>> edges = {
      {0, 1}, {1, 3}, {0, 2}, {2, 3}, {3, 4}};
  auto g = graph::Csr::from_edges(5, edges);
  // Edge values are stored in CSR order (edges grouped by source):
  //   0->1: 1.0   0->2: 4.0   1->3: 2.0   2->3: 1.5   3->4: 0.5
  g.set_edge_values({1.0f, 4.0f, 2.0f, 1.5f, 0.5f});

  // 2. Engine configuration: the locking scheme on the "MIC" SIMD profile
  //    (16-float lanes). Swap kLocking for kPipelining to use worker/mover
  //    message generation, or simd::kCpuSimdBytes for SSE-width lanes.
  core::EngineConfig cfg;
  cfg.mode = core::ExecMode::kLocking;
  cfg.simd_bytes = simd::kMicSimdBytes;
  cfg.threads = 2;

  // 3. The vertex program: SSSP from vertex 0 (user-defined functions
  //    generate_messages / process_messages / update_vertex live in
  //    src/apps/sssp.hpp and follow the paper's Listing 1).
  const apps::Sssp program(/*source=*/0);

  // 4. Run to convergence and read the per-vertex distances. One config is
  //    one device; give one config per rank to split the graph over ranks.
  const auto result = core::ClusterEngine(g, program, {cfg}).run();

  std::printf("SSSP from vertex 0 (%d supersteps):\n",
              result.ranks[0].supersteps);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (result.global_values[v] == apps::Sssp::kInfinity)
      std::printf("  vertex %u: unreachable\n", v);
    else
      std::printf("  vertex %u: distance %.1f\n", v, result.global_values[v]);
  }

  // Expected: 0 -> 0.0, 1 -> 1.0, 2 -> 4.0, 3 -> 3.0, 4 -> 3.5
  return 0;
}
