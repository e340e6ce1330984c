// The graph view handed to user-defined functions.
//
// Field names follow the paper's Listing 1 (g->vertices, g->edges,
// g->edge_value, g->vertex_value): users index the raw CSR arrays of their
// device-local partition. Edge targets are GLOBAL vertex ids (what
// send_messages expects); every other array is indexed by LOCAL id.
#pragma once

#include <span>

#include "src/common/types.hpp"

namespace phigraph::core {

/// Local id -> global id: a rank's map, or none on the whole graph, where
/// every local id is its own global id.
struct GlobalIds {
  const vid_t* map = nullptr;
  [[nodiscard]] vid_t operator[](vid_t u) const noexcept {
    return map ? map[u] : u;
  }
};

template <typename VertexValue>
struct GraphView {
  std::span<const eid_t> vertices;      // local CSR offsets (n_local + 1)
  std::span<const vid_t> edges;         // out-edge targets, global ids
  std::span<const float> edge_value;    // optional per-edge values
  std::span<VertexValue> vertex_value;  // local vertex values (mutable)
  std::span<const vid_t> in_degree;     // in-degree in the FULL graph
  GlobalIds global_id;                  // local id -> global id
  int superstep = 0;                    // current BSP iteration (0-based)

  [[nodiscard]] vid_t num_local_vertices() const noexcept {
    return static_cast<vid_t>(vertex_value.size());
  }
  [[nodiscard]] eid_t out_degree(vid_t u) const noexcept {
    return vertices[u + 1] - vertices[u];
  }
};

}  // namespace phigraph::core
