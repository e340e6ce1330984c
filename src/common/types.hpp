// Fundamental identifier and size types shared across PhiGraph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace phigraph {

/// Vertex identifier. 32 bits covers every graph in the paper's evaluation
/// (largest: Pokec, 1.6M vertices) with room to spare.
using vid_t = std::uint32_t;

/// Edge identifier / edge-array index. 64 bits: the TopoSort input in the
/// paper has 200M edges, and generated full-scale inputs may exceed 2^32.
using eid_t = std::uint64_t;

/// Sentinel for "no vertex".
inline constexpr vid_t kInvalidVertex = std::numeric_limits<vid_t>::max();

}  // namespace phigraph
