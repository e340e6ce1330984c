// Auto-tuning — the paper's named future work (§VII): "auto-tuning for
// deciding the optimal number of worker/mover threads, as well as the
// partitioning ratio between CPU and MIC".
//
// Both tuners exploit a property of the runtime: the engine's event
// counters are *structural* (messages, destinations, rows — functions of
// graph and algorithm, not of the thread layout), so a single probe run
// prices every candidate configuration through the performance model. The
// ratio tuner additionally reuses one blocked partition across all ratios,
// the same reuse the paper highlights over GPS.
#pragma once

#include <span>
#include <vector>

#include "src/common/expect.hpp"
#include "src/core/engine.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/metrics/counters.hpp"
#include "src/partition/partition.hpp"
#include "src/sim/model.hpp"

namespace phigraph::tune {

struct MoverChoice {
  int workers = 0;
  int movers = 0;
  double modeled_seconds = 0;
};

/// Picks the worker/mover split of a pipelined device: evaluates every split
/// of `total_threads` (movers in [1, total-1]) against a measured trace.
/// `profile` supplies everything but the thread split (device lanes, message
/// sizes, app weights).
[[nodiscard]] inline MoverChoice tune_mover_split(
    const metrics::RunTrace& trace, const sim::DeviceSpec& dev,
    sim::ExecProfile profile, int total_threads, int step = 1) {
  PG_CHECK(total_threads >= 2 && step >= 1);
  profile.mode = core::ExecMode::kPipelining;
  MoverChoice best;
  best.modeled_seconds = std::numeric_limits<double>::max();
  for (int movers = 1; movers < total_threads; movers += step) {
    profile.threads = total_threads - movers;
    profile.movers = movers;
    const double sec = sim::model_run(trace, dev, profile).execution();
    if (sec < best.modeled_seconds)
      best = {profile.threads, movers, sec};
  }
  return best;
}

struct DirectionChoice {
  double alpha = 0.0;  // 0 encodes "never pull" (the all-push baseline won)
  double beta = 0.0;
  double modeled_seconds = 0;
  double push_only_seconds = 0;
};

/// Picks the traversal-direction thresholds (core/direction.hpp) from one
/// forced-push probe run. For every candidate (alpha, beta) pair the probe's
/// frontier trace is replayed through the hysteretic DirectionPolicy
/// (sim::predict_direction_mix) and the resulting mixed schedule is priced
/// through the model: push supersteps keep their measured counters, pull
/// supersteps are re-priced from synthetic ones — the in-edge mass a pull
/// kernel scans is at most the still-unexplored edges plus the frontier's
/// own out-edge mass, and all push-side work (messages, columns, rows,
/// queues) vanishes. The result is never modeled slower than all-push:
/// alpha = beta = 0 keeps the push→pull trigger disabled and is the default
/// winner.
[[nodiscard]] inline DirectionChoice tune_direction_thresholds(
    const metrics::RunTrace& push_trace, vid_t num_vertices,
    std::uint64_t num_edges, const sim::DeviceSpec& dev,
    const sim::ExecProfile& profile, std::span<const double> alphas = {},
    std::span<const double> betas = {}) {
  static constexpr double kDefaultAlphas[] = {2, 6, 14, 24, 48};
  static constexpr double kDefaultBetas[] = {8, 16, 24, 48, 96};
  if (alphas.empty()) alphas = kDefaultAlphas;
  if (betas.empty()) betas = kDefaultBetas;

  const double push_only = sim::model_run(push_trace, dev, profile).execution();
  DirectionChoice best{0.0, 0.0, push_only, push_only};
  for (const double a : alphas)
    for (const double b : betas) {
      const auto mix =
          sim::predict_direction_mix(push_trace, num_vertices, num_edges, a, b);
      if (mix.pull_supersteps == 0) continue;  // indistinguishable from push
      double sec = 0;
      for (std::size_t s = 0; s < push_trace.size(); ++s) {
        metrics::SuperstepCounters c = push_trace[s];
        if (mix.directions[s] == core::Direction::kPull) {
          c.pull_supersteps = 1;
          c.push_supersteps = 0;
          c.pull_edges_scanned = std::min(
              num_edges, mix.unexplored_edges[s] + c.edges_scanned);
          c.edges_scanned = 0;
          c.msgs_local = 0;
          c.columns_allocated = 0;
          c.column_conflicts = 0;
          c.lock_acquisitions = 0;
          c.queue_pushes = 0;
          c.vector_rows = 0;
          c.padded_cells = 0;
          c.scalar_msgs = 0;
          c.dense_supersteps = 0;
          c.sparse_supersteps = 0;
          c.groups_dirty = 0;
        }
        sec += sim::model_superstep(c, dev, profile).execution();
      }
      if (sec < best.modeled_seconds) best = {a, b, sec, push_only};
    }
  return best;
}

struct RatioChoice {
  partition::RankWeights weights;
  double modeled_seconds = 0;  // execution + communication
};

/// Configuration of one rank (device) for ratio tuning.
struct TuneDevice {
  core::EngineConfig engine;
  sim::ExecProfile profile;
  sim::DeviceSpec spec;
};

/// Picks the workload ratio between ranks (CPU:MIC in the paper):
/// partitions the blocked decomposition at each candidate weight vector,
/// runs the cluster engine once per candidate (probe runs on the host), and
/// keeps the weights whose modeled lockstep time is lowest. The blocked
/// partition is computed once and reused. Every candidate holds one weight
/// per entry of `ranks`.
template <core::VertexProgram Program>
[[nodiscard]] RatioChoice tune_partition_ratio(
    const graph::Csr& g, const Program& prog,
    const partition::BlockedPartition& bp,
    std::span<const partition::RankWeights> candidates,
    std::vector<TuneDevice> ranks, const sim::LinkSpec& link = {}) {
  PG_CHECK(!candidates.empty());
  std::vector<core::EngineConfig> cfgs;
  for (TuneDevice& d : ranks) {
    d.profile.msg_bytes = sizeof(typename Program::message_t);
    d.profile.value_bytes = sizeof(typename Program::vertex_value_t);
    cfgs.push_back(d.engine);
  }

  RatioChoice best;
  best.modeled_seconds = std::numeric_limits<double>::max();
  for (const auto& w : candidates) {
    PG_CHECK(w.size() == ranks.size());
    auto owner = partition::hybrid_partition_k(bp, w);
    std::vector<vid_t> verts(ranks.size(), 0);
    for (const int r : owner) ++verts[static_cast<std::size_t>(r)];

    core::ClusterEngine<Program> engine(g, std::move(owner), prog, cfgs);
    const auto res = engine.run();
    std::vector<sim::RankModelInput> in;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      in.push_back({&res.ranks[r].trace, ranks[r].spec, ranks[r].profile});
      in.back().prof.num_vertices = std::max<vid_t>(1, verts[r]);
    }
    const auto est = sim::model_cluster(in, link);
    if (est.total() < best.modeled_seconds) best = {w, est.total()};
  }
  return best;
}

}  // namespace phigraph::tune
