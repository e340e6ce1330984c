// Rank-partition tests: LocalGraph::whole must borrow the graph, and
// LocalGraph::split_n must conserve every edge and expose correct ownership
// maps.
#include <gtest/gtest.h>

#include <set>

#include "src/core/local_graph.hpp"
#include "src/gen/generators.hpp"
#include "src/partition/partition.hpp"

namespace {

using namespace phigraph;
using core::LocalGraph;

// whole(g) borrows g: its CSR is g itself, its in-degrees are g's own
// cached array, and it builds no id maps (every local id is its global id).
TEST(LocalGraph, WholeKeepsEverything) {
  const auto g = gen::pokec_like(500, 5000, 3);
  const auto lg = LocalGraph::whole(g);
  EXPECT_EQ(lg.rank, 0);
  EXPECT_EQ(lg.nranks, 1);
  EXPECT_TRUE(lg.is_whole());
  EXPECT_EQ(&lg.local(), &g);
  EXPECT_EQ(lg.num_local_vertices(), g.num_vertices());
  EXPECT_EQ(lg.in_degree().data(), g.in_degrees().data());
  EXPECT_EQ(lg.in_degree().size(), std::size_t{g.num_vertices()});
  EXPECT_TRUE(lg.global_id.empty());
  EXPECT_EQ(lg.owner_rank, nullptr);
  EXPECT_EQ(lg.local_of, nullptr);
  for (vid_t v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(lg.global_of(v), v);
}

TEST(LocalGraph, SplitConservesEdgesAndValues) {
  auto g = gen::pokec_like(800, 8000, 5);
  gen::add_random_weights(g, 9);
  const auto parts =
      LocalGraph::split_n(g, partition::round_robin_partition_k(g, {2, 3}), 2);

  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].rank, 0);
  EXPECT_EQ(parts[1].rank, 1);
  EXPECT_EQ(parts[0].num_local_vertices() + parts[1].num_local_vertices(),
            g.num_vertices());
  EXPECT_EQ(parts[0].local().num_edges() + parts[1].local().num_edges(),
            g.num_edges());

  // Every local vertex's out-edges match the global graph exactly,
  // including weights.
  for (const auto& lg : parts) {
    for (vid_t u = 0; u < lg.num_local_vertices(); ++u) {
      const vid_t gu = lg.global_id[u];
      const auto local_nbrs = lg.local().out_neighbors(u);
      const auto global_nbrs = g.out_neighbors(gu);
      ASSERT_EQ(local_nbrs.size(), global_nbrs.size());
      for (std::size_t i = 0; i < local_nbrs.size(); ++i) {
        EXPECT_EQ(local_nbrs[i], global_nbrs[i]);
        EXPECT_EQ(lg.local().out_edge_values(u)[i], g.out_edge_values(gu)[i]);
      }
      // In-degree comes from the FULL graph, not the local one.
      EXPECT_EQ(lg.in_degree()[u], g.in_degrees()[gu]);
    }
  }
}

TEST(LocalGraph, OwnershipMapsAreConsistent) {
  const auto g = gen::erdos_renyi(300, 2000, 7);
  const auto owner = partition::continuous_partition_k(g, {1, 2});
  const auto parts = LocalGraph::split_n(g, owner, 2);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto& lg = parts[static_cast<std::size_t>(owner[v])];
    const vid_t local = (*lg.local_of)[v];
    ASSERT_LT(local, lg.num_local_vertices());
    EXPECT_EQ(lg.global_id[local], v);
    EXPECT_EQ((*lg.owner_rank)[v], owner[v]);
  }
}

TEST(LocalGraph, EmptySideIsFine) {
  const auto g = gen::erdos_renyi(100, 500, 2);
  const auto parts =
      LocalGraph::split_n(g, std::vector<int>(g.num_vertices(), 0), 2);
  EXPECT_EQ(parts[0].num_local_vertices(), 100u);
  EXPECT_EQ(parts[1].num_local_vertices(), 0u);
  EXPECT_EQ(parts[1].local().num_edges(), 0u);
}

TEST(LocalGraph, CrossEdgeCount) {
  const auto g = graph::Csr::from_edges(
      4, std::vector<std::pair<vid_t, vid_t>>{{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const std::vector<int> owner = {0, 0, 1, 1};
  // Cross: 1->2 and 3->0.
  EXPECT_EQ(partition::evaluate_partition_k(g, owner, 2).cross_edges, 2u);
}

}  // namespace
