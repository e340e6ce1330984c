// Partition scheme selection — a dependency-light header that names the
// schemes without pulling in the graph/partitioner machinery.
//
// The static schemes (continuous / round-robin / hybrid) are the paper's
// Fig. 6 trio; kHdrf and kDbh are the streaming vertex-cut partitioners
// (DESIGN.md §14) that assign *edges* in a single pass and derive the
// vertex owner map from the resulting replica sets.
#pragma once

#include <cstddef>
#include <cstdint>

namespace phigraph::partition {

enum class Scheme : std::uint8_t {
  kContinuous = 0,
  kRoundRobin = 1,
  kHybrid = 2,
  kHdrf = 3,  // greedy streaming vertex-cut, replication-aware (λ balance knob)
  kDbh = 4,   // degree-based hashing: edge -> hash of its lower-degree endpoint
};

[[nodiscard]] constexpr const char* scheme_name(Scheme s) noexcept {
  switch (s) {
    case Scheme::kContinuous: return "continuous";
    case Scheme::kRoundRobin: return "round_robin";
    case Scheme::kHybrid: return "hybrid";
    case Scheme::kHdrf: return "hdrf";
    case Scheme::kDbh: return "dbh";
  }
  return "?";
}

/// Knobs for the streaming vertex-cut schemes. Ignored by the static trio.
struct StreamOptions {
  /// HDRF balance-term weight λ: 0 = pure replication greed, larger values
  /// trade replication factor for tighter edge balance.
  double lambda = 1.1;

  /// Hard per-rank load cap as a multiple of the rank's fair share:
  /// load[r] <= ceil(balance_slack * m * w[r] / Σw). Must be >= 1.
  double balance_slack = 1.1;

  /// Seed for the degree hash (DBH) and any tie-break salting.
  std::uint64_t seed = 1;

  /// Edges per streamed chunk (the mmap batch size). Assignments are
  /// chunk-size independent; this only sets I/O granularity.
  std::size_t chunk_edges = 65536;
};

}  // namespace phigraph::partition
