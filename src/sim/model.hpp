// The performance model: measured counters -> modeled device seconds.
//
// The engine is real; only the clock is synthetic. For every superstep the
// engine records what happened (messages, conflicts, SIMD rows, padded
// cells, bytes exchanged, ...) and the model prices those events for a
// DeviceSpec under the execution scheme that produced them. Phase times are
// the max of a compute estimate and a memory-bandwidth estimate, mirroring
// the paper's observation that message processing "can become memory bound
// after a certain point".
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/config.hpp"
#include "src/metrics/counters.hpp"
#include "src/sim/device_spec.hpp"

namespace phigraph::sim {

/// Facts about the execution that produced a trace.
struct ExecProfile {
  core::ExecMode mode = core::ExecMode::kLocking;
  int threads = 1;      // workers (pipelining) or whole team
  int movers = 0;       // pipelining only
  bool use_simd = true;
  int lanes = 1;        // CSB lane count (w / msg_size)
  std::size_t msg_bytes = 4;
  std::size_t value_bytes = 4;

  /// Vertices hosted by this device — used to judge how saturated a
  /// generation phase is (messages per superstep relative to graph size).
  vid_t num_vertices = 1;

  /// Application cost weights relative to a basic arithmetic reduction:
  /// SemiClustering's cluster merge (combine) and extension scoring (update)
  /// are two orders of magnitude heavier than a float min, and branchy
  /// (which the in-order MIC core additionally dislikes).
  double combine_weight = 1.0;
  double update_weight = 1.0;
  bool branchy = false;

  [[nodiscard]] int total_threads() const noexcept {
    return mode == core::ExecMode::kPipelining ? threads + movers : threads;
  }
};

struct PhaseTimes {
  double generation = 0;
  double exchange = 0;   // PCIe transfer + received-message insertion
  double processing = 0;
  double update = 0;
  double overhead = 0;   // barriers, scheduler, buffer resets

  [[nodiscard]] double execution() const noexcept {
    return generation + processing + update + overhead;
  }
  [[nodiscard]] double total() const noexcept { return execution() + exchange; }

  PhaseTimes& operator+=(const PhaseTimes& o) noexcept {
    generation += o.generation;
    exchange += o.exchange;
    processing += o.processing;
    update += o.update;
    overhead += o.overhead;
    return *this;
  }
};

/// Model one superstep on one device.
[[nodiscard]] PhaseTimes model_superstep(const metrics::SuperstepCounters& c,
                                         const DeviceSpec& dev,
                                         const ExecProfile& prof,
                                         const LinkSpec* link = nullptr);

/// Model a whole single-device run.
[[nodiscard]] PhaseTimes model_run(const metrics::RunTrace& trace,
                                   const DeviceSpec& dev,
                                   const ExecProfile& prof,
                                   const LinkSpec* link = nullptr);

struct HeteroEstimate {
  double execution_seconds = 0;  // max over devices, superstep by superstep
  double comm_seconds = 0;       // PCIe exchange time
  [[nodiscard]] double total() const noexcept {
    return execution_seconds + comm_seconds;
  }
};

/// One rank's inputs to the N-rank cluster model: its measured trace plus
/// the device it is priced for.
struct RankModelInput {
  const metrics::RunTrace* trace = nullptr;
  DeviceSpec dev;
  ExecProfile prof;
};

/// Model an N-rank run: all ranks proceed in BSP lockstep, so each superstep
/// costs the slowest rank's execution time plus the slowest exchange. The
/// paper's CPU+MIC run is the two-rank case.
[[nodiscard]] HeteroEstimate model_cluster(
    const std::vector<RankModelInput>& ranks, const LinkSpec& link);

/// Model the same workload executed by clean sequential code (one thread,
/// no framework machinery) — Table II's "CPU Seq" / "MIC Seq" baselines.
[[nodiscard]] double model_sequential(const metrics::RunTrace& trace,
                                      const DeviceSpec& dev,
                                      const ExecProfile& prof);

/// Per-superstep traversal-direction schedule replayed from a forced-push
/// probe trace (see core/direction.hpp).
struct DirectionMix {
  std::vector<core::Direction> directions;       // one entry per superstep
  std::vector<std::uint64_t> unexplored_edges;   // estimate fed to the policy
  std::size_t push_supersteps = 0;
  std::size_t pull_supersteps = 0;
  std::size_t flips = 0;
};

/// Replays the engine's hysteretic DirectionPolicy over a forced-push probe
/// trace. A push superstep scans exactly the frontier's out-edges, so the
/// probe's edges_scanned is the frontier edge mass the live engine feeds its
/// policy and its active_vertices is the frontier size — the replay predicts
/// the direction schedule an auto run of the same workload will take (the
/// frontier schedule itself is direction-independent because forced-push,
/// forced-pull and auto runs are bit-identical).
[[nodiscard]] DirectionMix predict_direction_mix(
    const metrics::RunTrace& push_trace, vid_t num_vertices,
    std::uint64_t num_edges, double alpha = core::DirectionPolicy{}.alpha,
    double beta = core::DirectionPolicy{}.beta);

}  // namespace phigraph::sim
