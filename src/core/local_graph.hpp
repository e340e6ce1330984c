// Device-local graph partition.
//
// The paper loads the graph distributed by a partitioning file "indicating
// which device each vertex belongs to". A LocalGraph holds one rank's share:
// a CSR over local source vertices whose edge targets remain global ids, the
// local→global id map, shared global owner / global→local tables, and each
// local vertex's in-degree in the FULL graph (the CSB is sized by how many
// messages a vertex can receive from anywhere).
//
// Ownership is rank-based: the paper's two-rank configuration (CPU = rank 0,
// MIC = rank 1) is the nranks == 2 special case of split_n().
#pragma once

#include <memory>
#include <vector>

#include "src/common/types.hpp"
#include "src/graph/csr.hpp"

namespace phigraph::core {

struct LocalGraph {
  int rank = 0;    // this partition's rank
  int nranks = 1;  // ranks in the split this partition came from
  vid_t global_num_vertices = 0;

  graph::Csr local;                // local source id -> global targets
  std::vector<vid_t> global_id;    // local -> global
  std::vector<vid_t> in_degree;    // local vertex's in-degree in full graph

  // Shared between every partition of a cluster run.
  std::shared_ptr<const std::vector<int>> owner_rank;  // global -> rank
  std::shared_ptr<const std::vector<vid_t>> local_of;  // global -> local id

  [[nodiscard]] vid_t num_local_vertices() const noexcept {
    return local.num_vertices();
  }

  /// Whole graph on a single device (single-device executions).
  static LocalGraph whole(const graph::Csr& g);

  /// N-rank split: owner_rank[v] in [0, nranks) gives each global vertex's
  /// rank. Every rank gets a partition (possibly empty).
  static std::vector<LocalGraph> split_n(const graph::Csr& g,
                                         std::vector<int> owner_rank,
                                         int nranks);
};

}  // namespace phigraph::core
