// Compressed Sparse Row graph storage (paper §II-B, Fig. 1).
//
// Directed graph: offsets_ has num_vertices()+1 entries (the paper calls the
// last one the "dummy vertex, offset = num_edges"); targets_ lists out-edge
// destinations. Optional per-edge float values (SSSP weights, SC interaction
// frequencies) ride alongside in edge_values_.
//
// What depends only on these arrays — the in-degrees and the whole-graph
// transpose the pull path reads — is built on first use and kept with the
// graph, so every engine over one graph shares one copy (DESIGN.md §5c).
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/expect.hpp"
#include "src/common/types.hpp"

namespace phigraph::sched {
class ThreadTeam;
}

namespace phigraph::graph {

class Transpose;

class Csr {
 public:
  Csr() = default;

  /// target_space: the id space edge targets live in. 0 (default) means
  /// targets are vertices of this graph; a device-local partition passes the
  /// GLOBAL vertex count because its edge targets stay global ids.
  Csr(std::vector<eid_t> offsets, std::vector<vid_t> targets,
      std::vector<float> edge_values = {}, vid_t target_space = 0);

  /// A copy shares the source's in-degrees and transpose. A moved-from graph
  /// is empty and fully usable.
  Csr(const Csr&) = default;
  Csr& operator=(const Csr&) = default;
  Csr(Csr&& o) noexcept;
  Csr& operator=(Csr&& o) noexcept;

  /// Build from an (unsorted) edge list; edges are counting-sorted by source.
  /// Parallel edges and self-loops are kept unless dedup is requested.
  static Csr from_edges(vid_t num_vertices,
                        std::span<const std::pair<vid_t, vid_t>> edges,
                        bool dedup = false);

  [[nodiscard]] vid_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<vid_t>(offsets_.size() - 1);
  }
  [[nodiscard]] eid_t num_edges() const noexcept {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  [[nodiscard]] bool has_edge_values() const noexcept {
    return !edge_values_.empty();
  }

  [[nodiscard]] eid_t out_degree(vid_t u) const noexcept {
    PG_DCHECK(u < num_vertices());
    return offsets_[u + 1] - offsets_[u];
  }

  [[nodiscard]] std::span<const vid_t> out_neighbors(vid_t u) const noexcept {
    PG_DCHECK(u < num_vertices());
    return {targets_.data() + offsets_[u],
            static_cast<std::size_t>(out_degree(u))};
  }

  [[nodiscard]] std::span<const float> out_edge_values(vid_t u) const noexcept {
    PG_DCHECK(u < num_vertices() && has_edge_values());
    return {edge_values_.data() + offsets_[u],
            static_cast<std::size_t>(out_degree(u))};
  }

  // Raw arrays — the paper's user functions index g->vertices[] / g->edges[]
  // / g->edge_value[] directly, so we expose them.
  [[nodiscard]] const std::vector<eid_t>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<vid_t>& targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] const std::vector<float>& edge_values() const noexcept {
    return edge_values_;
  }

  /// Replaces the edge values and drops the in-degrees and transpose built
  /// so far; the next caller rebuilds them.
  void set_edge_values(std::vector<float> values);

  /// In-degree of every vertex: one counting pass over targets_ on the first
  /// call, shared by every later call and by copies.
  [[nodiscard]] const std::vector<vid_t>& in_degrees() const;

  /// The whole-graph transpose, exactly the arrays of reversed(): built in
  /// parallel on `team` by the first caller, then shared read-only by every
  /// later caller and by copies. Callers on several threads at once get one
  /// build. The graph keeps it until set_edge_values() or its destruction.
  [[nodiscard]] std::shared_ptr<const Transpose> transpose(
      sched::ThreadTeam& team) const;

  /// Transposed graph; edge values (if any) follow their edge.
  [[nodiscard]] Csr reversed() const;

  /// Structural checks: monotone offsets, targets in range, matching
  /// edge-value length. Aborts via PG_CHECK on violation.
  void validate() const;

  /// Compares the arrays (what is built from them follows).
  [[nodiscard]] bool operator==(const Csr& o) const noexcept;

 private:
  struct Derived;  // in-degrees + transpose, built once under a mutex
  /// The Derived of the empty graph: default-constructed and moved-from
  /// graphs share it, so a move needs no allocation.
  static std::shared_ptr<Derived> empty_derived() noexcept;

  std::vector<eid_t> offsets_;
  std::vector<vid_t> targets_;
  std::vector<float> edge_values_;
  vid_t target_space_ = 0;  // 0 = targets are local vertices
  std::shared_ptr<Derived> derived_ = empty_derived();
};

/// Summary statistics used by generators' tests and the partitioner.
struct DegreeStats {
  eid_t min_out = 0;
  eid_t max_out = 0;
  double mean_out = 0;
  vid_t zero_in = 0;   // vertices with in-degree 0
  vid_t zero_out = 0;  // vertices with out-degree 0
};

[[nodiscard]] DegreeStats degree_stats(const Csr& g);

}  // namespace phigraph::graph
