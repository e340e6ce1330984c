// Device-local graph partition.
//
// The paper loads the graph distributed by a partitioning file "indicating
// which device each vertex belongs to". A LocalGraph holds one rank's share:
// a CSR over local source vertices whose edge targets remain global ids, the
// local→global id map, shared global owner / global→local tables, and each
// local vertex's in-degree in the FULL graph (the CSB is sized by how many
// messages a vertex can receive from anywhere).
//
// The whole graph on one device is no partition at all: whole(g) borrows g,
// its in-degrees and (through the engine) its transpose, and every local id
// is its own global id, so it builds no id maps. g must outlive every
// LocalGraph and engine built over it, and must not change while they live.
//
// Ownership is rank-based: the paper's two-rank configuration (CPU = rank 0,
// MIC = rank 1) is the nranks == 2 special case of split_n().
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/graph/csr.hpp"

namespace phigraph::core {

struct LocalGraph {
  int rank = 0;    // this partition's rank
  int nranks = 1;  // ranks in the split this partition came from
  vid_t global_num_vertices = 0;

  // A split part's maps (all empty on the whole graph): local -> global, and
  // shared between every partition of a cluster run, global -> rank and
  // global -> local.
  std::vector<vid_t> global_id;
  std::shared_ptr<const std::vector<int>> owner_rank;
  std::shared_ptr<const std::vector<vid_t>> local_of;

  /// Local source id -> global targets: the borrowed graph itself, or a
  /// split part's own rows.
  [[nodiscard]] const graph::Csr& local() const noexcept {
    return whole_ ? *whole_ : part_;
  }
  /// Each local vertex's in-degree in the full graph.
  [[nodiscard]] std::span<const vid_t> in_degree() const {
    if (whole_) return whole_->in_degrees();
    return part_in_degree_;
  }
  [[nodiscard]] vid_t global_of(vid_t u) const noexcept {
    return whole_ ? u : global_id[u];
  }
  /// Whether this is whole(g): local ids are global ids.
  [[nodiscard]] bool is_whole() const noexcept { return whole_ != nullptr; }
  [[nodiscard]] vid_t num_local_vertices() const noexcept {
    return local().num_vertices();
  }

  /// Whole graph on a single device (single-device executions); borrows g.
  static LocalGraph whole(const graph::Csr& g);

  /// N-rank split: owner_rank[v] in [0, nranks) gives each global vertex's
  /// rank. Every rank gets a partition (possibly empty).
  static std::vector<LocalGraph> split_n(const graph::Csr& g,
                                         std::vector<int> owner_rank,
                                         int nranks);

 private:
  const graph::Csr* whole_ = nullptr;
  graph::Csr part_;
  std::vector<vid_t> part_in_degree_;
};

}  // namespace phigraph::core
