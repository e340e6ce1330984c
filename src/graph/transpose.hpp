// Parallel CSR transpose for the engine's pull path.
//
// Over the whole graph it produces exactly the arrays of Csr::reversed() —
// the same offsets, the same in-neighbor order (ascending source id,
// parallel edges in out-edge order) and the same edge values — using every
// slot of a ThreadTeam. The graph builds that whole transpose once and
// shares it (Csr::transpose). A rank of a cluster builds only the rows of
// the vertices it owns: a row map sends each destination to its local row or
// drops it, and the sources stay global ids in the same ascending order.
// The row range is split into one contiguous slice per thread, balanced by
// in-edge count; each thread scans all out-edges in source order and fills
// only the slots of its own slice, so no thread needs private count arrays
// and the output order is the sequential one by construction.
//
// The arrays are allocated uninitialized and first written by the threads
// that fill them: a zero-filled std::vector would spend a serial pass (and
// all the page faults) on memory that is overwritten anyway.
#pragma once

#include <memory>
#include <span>

#include "src/common/types.hpp"
#include "src/graph/csr.hpp"
#include "src/sched/thread_team.hpp"

namespace phigraph::graph {

/// In-edges of every row vertex: sources(v) are v's in-neighbors in
/// ascending id order, edge_values() the values of those edges (empty if
/// unweighted).
class Transpose {
 public:
  [[nodiscard]] vid_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] eid_t num_edges() const noexcept { return m_; }
  [[nodiscard]] bool has_edge_values() const noexcept {
    return values_ != nullptr;
  }
  [[nodiscard]] std::span<const eid_t> offsets() const noexcept {
    return {offsets_.get(), static_cast<std::size_t>(n_) + 1};
  }
  [[nodiscard]] std::span<const vid_t> sources() const noexcept {
    return {sources_.get(), static_cast<std::size_t>(m_)};
  }
  [[nodiscard]] std::span<const float> edge_values() const noexcept {
    return {values_.get(), values_ ? static_cast<std::size_t>(m_) : 0};
  }

 private:
  friend Transpose parallel_transpose(const Csr&, std::span<const vid_t>,
                                      sched::ThreadTeam&,
                                      std::span<const vid_t>);

  vid_t n_ = 0;
  eid_t m_ = 0;
  std::unique_ptr<eid_t[]> offsets_;
  std::unique_ptr<vid_t[]> sources_;
  std::unique_ptr<float[]> values_;
};

/// The transpose of `g` (targets in g's own vertex space), built on `team`.
/// With an empty `row_of` every vertex of g is a row. Otherwise the edge
/// (u, v) lands in row row_of[v], or nowhere when row_of[v] is
/// kInvalidVertex; `row_of` then holds one entry per vertex of g.
/// `in_degree[r]` must be the number of edges landing in row r; it sizes the
/// output offsets and gives the row count.
[[nodiscard]] Transpose parallel_transpose(const Csr& g,
                                           std::span<const vid_t> in_degree,
                                           sched::ThreadTeam& team,
                                           std::span<const vid_t> row_of = {});

}  // namespace phigraph::graph
