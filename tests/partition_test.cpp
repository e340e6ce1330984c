// Partitioning tests: the three schemes' balance/communication trade-offs
// (the mechanism behind Fig. 6) plus blocked-partitioner quality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "src/gen/generators.hpp"
#include "src/partition/partition.hpp"

namespace {

using namespace phigraph;
using partition::BlockedOptions;
using partition::RankWeights;

graph::Csr skewed_graph() {
  // Pokec-like: hubs at the front — what breaks continuous partitioning.
  return gen::pokec_like(/*n=*/20000, /*m=*/200000, /*seed=*/17);
}

TEST(Partition, ContinuousSplitsByVertexCount) {
  const auto g = skewed_graph();
  const auto owner = partition::continuous_partition_k(g, {3, 5});
  const auto s = partition::evaluate_partition_k(g, owner, 2);
  EXPECT_NEAR(static_cast<double>(s.verts[0]) / g.num_vertices(), 3.0 / 8, 1e-3);
  // ... but the EDGE split is far off the requested 3:5 because the hubs
  // cluster in the CPU's range (the paper's §IV-E observation).
  EXPECT_GT(s.balance_error({3, 5}), 0.5);
}

TEST(Partition, RoundRobinBalancesEdgesButCutsEverything) {
  const auto g = skewed_graph();
  const auto rr = partition::round_robin_partition_k(g, {1, 1});
  const auto s = partition::evaluate_partition_k(g, rr, 2);
  EXPECT_LT(s.balance_error({1, 1}), 0.05);
  // Interleaved vertices cut roughly half of all edges at 1:1.
  EXPECT_GT(static_cast<double>(s.cross_edges) / g.num_edges(), 0.4);
}

TEST(Partition, HybridIsBalancedAndCutsLessThanRoundRobin) {
  const auto g = skewed_graph();
  BlockedOptions opt;
  opt.num_blocks = 64;
  const auto bp = partition::blocked_min_cut(g, opt);
  for (const RankWeights& w :
       {RankWeights{1, 1}, RankWeights{3, 5}, RankWeights{2, 1},
        RankWeights{1, 4}}) {
    const auto sh = partition::evaluate_partition_k(
        g, partition::hybrid_partition_k(bp, w), 2);
    const auto sr = partition::evaluate_partition_k(
        g, partition::round_robin_partition_k(g, w), 2);
    EXPECT_LT(sh.balance_error(w), 0.2)  // 64 lumpy blocks: coarse granularity
        << "ratio " << w[0] << ":" << w[1];
    EXPECT_LT(sh.cross_edges, sr.cross_edges)
        << "ratio " << w[0] << ":" << w[1];
  }
}

TEST(Partition, BlockedPartitionReusableAcrossRatios) {
  // The paper: "Our method is able to reuse the blocked partitioning results
  // of Metis for different partitioning ratios."
  const auto g = gen::dblp_like(5000, 15000, 3);
  const auto bp = partition::blocked_min_cut(g, {.num_blocks = 32, .seed = 5});
  const auto s1 = partition::evaluate_partition_k(
      g, partition::hybrid_partition_k(bp, {1, 1}), 2);
  const auto s2 = partition::evaluate_partition_k(
      g, partition::hybrid_partition_k(bp, {1, 3}), 2);
  EXPECT_LT(s1.balance_error({1, 1}), 0.2);
  EXPECT_LT(s2.balance_error({1, 3}), 0.2);
}

TEST(Partition, BlockedMinCutQualityOnCommunityGraph) {
  // On a strong community graph the multilevel partitioner should cut far
  // fewer edges than a random blocking of equal arity.
  const auto g = gen::dblp_like(4000, 12000, 9, /*p_intra=*/0.95);
  BlockedOptions opt;
  opt.num_blocks = 16;
  const auto bp = partition::blocked_min_cut(g, opt);

  eid_t random_cut = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u)
    for (vid_t v : g.out_neighbors(u))
      if (u % 16 != v % 16) ++random_cut;

  EXPECT_LT(bp.cut_edges, random_cut / 2);

  // Every vertex has a block; block sizes respect the balance tolerance
  // loosely (initial growing + refinement can overshoot slightly).
  vid_t total = 0;
  for (int b = 0; b < bp.num_blocks; ++b) total += bp.block_verts[b];
  EXPECT_EQ(total, g.num_vertices());
}

TEST(Partition, DegenerateSmallGraph) {
  const auto g = gen::erdos_renyi(10, 20, 1);
  const auto bp = partition::blocked_min_cut(g, {.num_blocks = 16});
  // One vertex per block when blocks >= vertices.
  std::set<vid_t> used(bp.block_of.begin(), bp.block_of.end());
  EXPECT_EQ(used.size(), 10u);
  const auto owner = partition::hybrid_partition_k(bp, {1, 1});
  const auto s = partition::evaluate_partition_k(g, owner, 2);
  EXPECT_EQ(s.verts[0] + s.verts[1], 10u);
}

TEST(Partition, FileRoundTrip) {
  const auto g = gen::erdos_renyi(100, 300, 2);
  const auto owner = partition::round_robin_partition_k(g, {2, 3, 1});
  const auto path =
      (std::filesystem::temp_directory_path() / "pg_part_test.txt").string();
  partition::save_partition(owner, path);
  const auto loaded = partition::load_partition(path, g.num_vertices(), 3);
  EXPECT_EQ(owner, loaded);
  std::filesystem::remove(path);
}

// ---- partition file loader hardening ----------------------------------------
//
// Each rejection names the file and the 1-based line instead of loading a
// silently wrong owner map.

/// Writes `text` as a partition file, expects loading it for `n` vertices
/// and 2 ranks to abort with a diagnostic matching `message`.
void expect_rejected(const std::string& text, vid_t n, const char* message) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const auto path =
      (std::filesystem::temp_directory_path() / ("pg_part_" + name + ".txt"))
          .string();
  {
    std::ofstream out(path);
    out << text;
  }
  EXPECT_DEATH((void)partition::load_partition(path, n, 2), message);
  std::filesystem::remove(path);
}

TEST(PartitionFile, RejectsMissingHeader) {
  expect_rejected("\n\n", 5, "missing vertex-count header");
}

TEST(PartitionFile, RejectsNonNumericHeader) {
  expect_rejected("abc\n", 5, ":1: non-numeric vertex-count token 'abc'");
}

TEST(PartitionFile, RejectsVertexCountMismatch) {
  expect_rejected("2\n0\n1\n", 5,
                  ":1: partition covers 2 vertices, the graph has 5");
}

TEST(PartitionFile, RejectsNonNumericEntry) {
  expect_rejected("3\n0\nx\n1\n", 3, ":3: non-numeric rank token 'x'");
}

TEST(PartitionFile, RejectsOutOfRangeRank) {
  expect_rejected("3\n0\n7\n1\n", 3, ":3: rank 7 outside");
}

TEST(PartitionFile, RejectsTruncatedFile) {
  expect_rejected("3\n0\n1\n", 3, "truncated after line 3: 2 of 3 entries");
}

TEST(PartitionFile, RejectsTrailingTokens) {
  expect_rejected("2\n0\n1\n1\n0\n7\n", 2,
                  ":4: trailing token '1' after 2 entries");
}

// ---- k-way (N-rank) schemes -------------------------------------------------

// The k-way properties the cluster engine relies on: for every rank count,
// round-robin balances vertices within 5% of each rank's share (its actual,
// degree-oblivious guarantee — on a flat-degree graph that makes the edge
// shares land within 5% too), and the hybrid min-cut assignment never cuts
// more edges than plain round-robin.
TEST(PartitionKway, RoundRobinBalancedAndHybridCutsNoWorse) {
  const auto uniform = gen::erdos_renyi(4000, 40000, 17);
  const auto power = gen::pokec_like(4000, 40000, 11);
  for (int k : {2, 3, 4, 8}) {
    const partition::RankWeights w(static_cast<std::size_t>(k), 1);
    const auto vertex_balance_error = [&](const partition::KwayStats& s) {
      double worst = 0;
      for (vid_t c : s.verts) {
        const double want =
            static_cast<double>(power.num_vertices()) / static_cast<double>(k);
        worst = std::max(worst, std::abs(static_cast<double>(c) - want) / want);
      }
      return worst;
    };

    const auto us = partition::evaluate_partition_k(
        uniform, partition::round_robin_partition_k(uniform, w), k);
    EXPECT_LE(us.balance_error(w), 0.05) << "k=" << k << " (uniform degrees)";

    const auto rr = partition::round_robin_partition_k(power, w);
    const auto rs = partition::evaluate_partition_k(power, rr, k);
    EXPECT_LE(vertex_balance_error(rs), 0.05) << "k=" << k;
    // Preferential attachment front-loads the hubs onto small ids, which
    // alias with the deal period, so the edge shares are only loosely
    // balanced — bound the skew rather than pretend it isn't there.
    EXPECT_LE(rs.balance_error(w), 0.10) << "k=" << k << " (power-law)";
    vid_t verts = 0;
    for (vid_t c : rs.verts) verts += c;
    EXPECT_EQ(verts, power.num_vertices()) << "k=" << k;

    const auto hy = partition::hybrid_partition_k(
        power, w, {.num_blocks = 256, .seed = 42});
    const auto hs = partition::evaluate_partition_k(power, hy, k);
    EXPECT_LE(hs.cross_edges, rs.cross_edges)
        << "k=" << k << ": min-cut blocks must not cut more than round-robin";
    eid_t edges = 0;
    for (eid_t c : hs.edges) edges += c;
    EXPECT_EQ(edges, power.num_edges()) << "k=" << k;
  }
}

TEST(PartitionKway, HybridRespectsUnequalWeights) {
  const auto g = gen::pokec_like(4000, 40000, 13);
  const partition::RankWeights w{3, 1, 1, 3};
  const auto hy = partition::hybrid_partition_k(
      g, w, {.num_blocks = 256, .seed = 7});
  const auto s =
      partition::evaluate_partition_k(g, hy, static_cast<int>(w.size()));
  // 256 blocks over 4 ranks: LPT gets each rank's edge share within ~15% of
  // its weight even on a heavy-tailed block-size distribution.
  EXPECT_LE(s.balance_error(w), 0.15);
}

TEST(PartitionKway, ZeroWeightRankReceivesNothing) {
  const auto g = gen::erdos_renyi(500, 2500, 21);
  const partition::RankWeights w{1, 0, 1};
  for (const auto& owner :
       {partition::continuous_partition_k(g, w),
        partition::round_robin_partition_k(g, w),
        partition::hybrid_partition_k(g, w, {.num_blocks = 32})}) {
    const auto s = partition::evaluate_partition_k(g, owner, 3);
    EXPECT_EQ(s.edges[1], 0u);
  }
}

TEST(Partition, ExtremeRatios) {
  const auto g = gen::erdos_renyi(1000, 5000, 4);
  for (int r : partition::continuous_partition_k(g, {1, 0})) EXPECT_EQ(r, 0);
  for (int r : partition::continuous_partition_k(g, {0, 1})) EXPECT_EQ(r, 1);
  for (int r : partition::hybrid_partition_k(g, {1, 0}, {.num_blocks = 8}))
    EXPECT_EQ(r, 0);
}

}  // namespace
