// Structured fault descriptions shared by the comm poison protocol, the
// engine's failure paths, and the heterogeneous failover machinery.
//
// A FaultReport answers "which rank died, in which superstep, in which BSP
// phase, and why" — it is what a failing rank hands its peer through
// AllToAll::poison() so the survivor wakes immediately with a diagnosis
// instead of timing out against a dead condition variable.
//
// Reports also carry a FaultKind so the recovery ladder in ClusterEngine can
// choose a rung: transient faults (timeouts, injected soft errors, anything
// throwing fault::TransientError) are worth retrying from a checkpoint with
// the full rank set; permanent faults (user-code exceptions, repeated
// failures past the RetryPolicy budget) write the rank off and repartition
// its vertices over the survivors.
#pragma once

#include <stdexcept>
#include <string>

namespace phigraph::fault {

/// Classification of a fault, driving the recovery-ladder rung choice.
enum class FaultKind : int {
  kUnknown = 0,    // legacy / unclassified — treated as permanent
  kTransient = 1,  // worth retrying with the same rank set
  kPermanent = 2,  // rank is written off; repartition over survivors
};

constexpr const char* kind_name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kUnknown: return "unknown";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kPermanent: return "permanent";
  }
  return "?";
}

/// Marker exception: user programs (and the injector) throw this to signal a
/// fault that is expected to succeed on retry — a dropped message, a soft
/// ECC error, a flaky device. The engine classifies it kTransient; every
/// other exception type is classified kPermanent.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Retry budget for the transient rung of the recovery ladder: up to
/// max_attempts respawn-and-resume cycles, sleeping backoff_ms before the
/// first and growing by backoff_factor (capped at max_backoff_ms) between
/// attempts so a persistently sick device doesn't busy-loop the cluster.
struct RetryPolicy {
  int max_attempts = 2;
  int backoff_ms = 10;
  double backoff_factor = 2.0;
  int max_backoff_ms = 250;
};

struct FaultReport {
  int rank = -1;       // failing rank (0 = CPU, 1 = MIC); -1 = no fault
  int superstep = -1;  // superstep the fault occurred in
  std::string phase;   // BSP phase or component ("generate", "exchange", ...)
  std::string what;    // exception message / diagnostic
  FaultKind kind = FaultKind::kUnknown;  // transient vs permanent

  [[nodiscard]] bool valid() const noexcept { return rank >= 0; }

  [[nodiscard]] std::string to_string() const {
    if (!valid()) return "no fault";
    return "rank " + std::to_string(rank) + " failed in superstep " +
           std::to_string(superstep) + " (phase: " + phase +
           ", kind: " + kind_name(kind) + "): " + what;
  }
};

}  // namespace phigraph::fault
