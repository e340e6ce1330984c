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
