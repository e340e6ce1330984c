// Graph partitioning over ranks (paper §IV-E, generalized to N ranks).
//
// Three vertex→rank schemes, compared in Fig. 6 (the paper's CPU+MIC run is
// the two-rank case, weights {cpu, mic}, CPU = rank 0):
//   * continuous  — rank r takes the next w[r]/sum(w) of the vertex ids.
//     Cheap, but power-law graphs concentrate hubs at the front, so edge
//     workload is imbalanced.
//   * round-robin — interleave vertices; balanced, but maximizes cross
//     edges (communication).
//   * hybrid      — partition the graph into many min-cut blocks (the paper
//     uses Metis' min-connectivity-volume mode with 256 partitions; we ship
//     our own multilevel partitioner) and deal the *blocks* to ranks so the
//     cumulative edge counts track the requested weights. Low cut AND
//     balanced. The blocked partition is computed once per graph and reused
//     for any weights — the property the paper highlights over GPS.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/graph/csr.hpp"

namespace phigraph::partition {

// ---- blocked min-cut partitioning (the Metis substitute) ---------------------

struct BlockedPartition {
  int num_blocks = 0;
  std::vector<vid_t> block_of;     // vertex -> block
  std::vector<eid_t> block_edges;  // cumulative out-degree per block
  std::vector<vid_t> block_verts;  // vertices per block
  eid_t cut_edges = 0;             // directed edges crossing blocks
};

struct BlockedOptions {
  int num_blocks = 256;  // the paper's configuration
  std::uint64_t seed = 1;
  int refine_passes = 4;     // boundary refinement sweeps per level
  double balance_tol = 0.1;  // blocks may exceed average weight by 10%
};

/// Multilevel min-cut partitioner: heavy-edge-matching coarsening, greedy
/// BFS growing on the coarsest graph, boundary (KL/FM-style) refinement on
/// every uncoarsening level.
[[nodiscard]] BlockedPartition blocked_min_cut(const graph::Csr& g,
                                               const BlockedOptions& opt = {});

// ---- vertex -> rank schemes ------------------------------------------------
//
// weights[r] is rank r's relative workload share ("relative amounts of
// computation assigned to devices" — user-specified, e.g. {3, 5} for
// PageRank in the paper). They return vertex -> rank assignments for
// ClusterEngine / LocalGraph::split_n.

using RankWeights = std::vector<int>;

[[nodiscard]] std::vector<int> continuous_partition_k(const graph::Csr& g,
                                                      const RankWeights& w);
[[nodiscard]] std::vector<int> round_robin_partition_k(const graph::Csr& g,
                                                       const RankWeights& w);

/// Hybrid scheme over k ranks: deal min-cut blocks heaviest-first to the
/// rank whose normalized load (assigned edges / weight share) is lowest.
[[nodiscard]] std::vector<int> hybrid_partition_k(const BlockedPartition& bp,
                                                  const RankWeights& w);

/// Convenience: blocked_min_cut + k-way hybrid assignment in one call.
[[nodiscard]] std::vector<int> hybrid_partition_k(
    const graph::Csr& g, const RankWeights& w, const BlockedOptions& opt = {});

struct KwayStats {
  std::vector<vid_t> verts;  // per rank
  std::vector<eid_t> edges;  // cumulative out-degree per rank
  eid_t cross_edges = 0;     // directed edges crossing rank boundaries

  /// Mean ranks hosting each vertex when edges are placed on their source's
  /// rank: a vertex is "present" on its own rank plus every rank that owns
  /// an in-neighbor. 1 = no replication, nranks = fully replicated. This is
  /// the same edge-placement metric VertexCut reports, so streaming and
  /// static schemes compare on one scale. 0 when nranks > 64 (mask width).
  double replication_factor = 0;

  /// Max per-rank edge load over the mean (unweighted): 1 = perfectly
  /// balanced, 2 = the worst rank carries twice the average. 0 if no edges.
  double load_imbalance = 0;

  /// Largest relative error of any rank's achieved edge share vs. its
  /// requested share: 0 = perfect. Ranks with zero requested share are
  /// skipped (they should also receive ~nothing, which cross-checks below).
  [[nodiscard]] double balance_error(const RankWeights& w) const noexcept {
    double total = 0, wsum = 0;
    for (eid_t e : edges) total += static_cast<double>(e);
    for (int x : w) wsum += x;
    if (total == 0 || wsum == 0) return 0;
    double worst = 0;
    for (std::size_t r = 0; r < edges.size() && r < w.size(); ++r) {
      const double want = static_cast<double>(w[r]) / wsum;
      if (want == 0) continue;
      const double got = static_cast<double>(edges[r]) / total;
      const double err = (got - want) / want;
      worst = std::max(worst, err < 0 ? -err : err);
    }
    return worst;
  }
};

[[nodiscard]] KwayStats evaluate_partition_k(const graph::Csr& g,
                                             std::span<const int> owner_rank,
                                             int nranks);

/// Survivor repartitioning (recovery ladder rung 2, DESIGN.md §12): rebuild
/// an owner map after rank `dead` is written off. Surviving ranks keep their
/// vertices — their checkpointed local state stays valid — with rank ids
/// compacted to [0, nranks-1), and the dead rank's vertices are dealt
/// heaviest-first to the survivor whose normalized load (assigned edges /
/// weight share) is lowest, the same LPT rule hybrid_partition_k uses for
/// blocks. `w` holds one weight per *surviving* rank, indexed by compacted
/// rank id.
[[nodiscard]] std::vector<int> reassign_after_loss(
    const graph::Csr& g, std::span<const int> owner_rank, int nranks, int dead,
    const RankWeights& w);

// ---- partition file IO (the paper's "graph partitioning file") ----------------
//
// Text format: the vertex count on the first line, then one rank per vertex.

void save_partition(std::span<const int> owner_rank, const std::string& path);

/// Strict loader: aborts with a `file:line` diagnostic on a missing or
/// non-numeric header, a vertex count other than `num_vertices`, a
/// non-numeric entry or one outside [0, nranks), a truncated file, or
/// tokens after the last entry.
[[nodiscard]] std::vector<int> load_partition(const std::string& path,
                                              vid_t num_vertices, int nranks);

}  // namespace phigraph::partition
