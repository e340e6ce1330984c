#include "src/sim/model.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/expect.hpp"

namespace phigraph::sim {

namespace {

constexpr double kGiga = 1e9;

double mem_seconds(double bytes, const DeviceSpec& dev, int threads) {
  return bytes / (dev.effective_bandwidth(threads) * kGiga);
}

double stream_seconds(double bytes, const DeviceSpec& dev, int threads) {
  return bytes / (dev.effective_stream_bandwidth(threads) * kGiga);
}

/// Destination hotness: average messages per distinct destination this
/// superstep, counting remote-destined messages and their combined slots —
/// splitting a graph across devices does not cool its hubs down.
/// 1 = every receiver gets one message (BFS frontier); thousands = dense
/// convergence (TopoSort's DAG).
double hotness(const metrics::SuperstepCounters& c, double env_bytes) {
  const double sent_envelopes =
      static_cast<double>(c.bytes_sent) / env_bytes;
  const double dests = static_cast<double>(c.columns_allocated) + sent_envelopes;
  if (dests == 0) return 0.0;
  return static_cast<double>(c.msgs_local + c.msgs_remote) / dests;
}

/// Contention multiplier for a lock protecting per-destination state.
///
/// Two ingredients, both required for real queueing to build up:
///  * hotness excess — below ~3 messages per destination collisions are
///    rare; beyond that the penalty grows with log2(hotness);
///  * saturation s in [0,1] — how hard the phase hammers the memory system,
///    the max of volume pressure (messages per superstep relative to graph
///    size: PageRank sends along every edge every superstep, SSSP waves are
///    small) and hotness saturation (TopoSort funnels everything into a few
///    vertices regardless of volume).
double lock_factor(double h, double msgs, double n, double beta, double cap) {
  constexpr double kFreeHotness = 3.0;
  constexpr double kHotSat = 50.0;
  constexpr double kVolumePerVertex = 20.0;
  const double excess =
      std::max(0.0, std::log2(1.0 + h) - std::log2(1.0 + kFreeHotness));
  const double u = msgs / (msgs + kVolumePerVertex * n);
  const double sat = std::max(u, h / (h + kHotSat));
  return std::min(cap, 1.0 + beta * excess * sat);
}

}  // namespace

PhaseTimes model_superstep(const metrics::SuperstepCounters& c,
                           const DeviceSpec& dev, const ExecProfile& prof,
                           const LinkSpec* link) {
  PG_CHECK(prof.threads >= 1);
  PhaseTimes t;

  const double msgs = static_cast<double>(c.msgs_local);
  const double env_bytes =
      static_cast<double>(std::max<std::size_t>(8, 4 + prof.msg_bytes));
  const double h = hotness(c, env_bytes);
  // Volume pressure also counts remote-destined messages.
  const double gen_msgs =
      static_cast<double>(c.msgs_local + c.msgs_remote);
  const double n_local = static_cast<double>(prof.num_vertices);
  const double branch = prof.branchy ? dev.branch_penalty : 1.0;
  const double combine_cyc = dev.cyc_scalar_reduce * prof.combine_weight * branch;
  const double update_cyc = dev.cyc_update * prof.update_weight * branch;
  // Remote-destined messages are combined into the remote buffer under a
  // per-slot lock by the generating thread, in every execution mode; the
  // slots contend just like local columns do.
  const double remote_cyc =
      static_cast<double>(c.msgs_remote) *
      (dev.cyc_spinlock *
           lock_factor(h, gen_msgs, n_local, dev.spin_beta, dev.spin_cap) +
       combine_cyc);

  // ---- generation -----------------------------------------------------------
  if (c.pull_supersteps > 0) {
    // Bottom-up pull superstep: no message insertion of any kind — every
    // thread folds its own destinations' in-edges locally, so the lock, CSB
    // and queue terms vanish (and with them the processing sub-step: the
    // counters carry no rows or scalar messages on a pull superstep). What
    // remains: the candidate scan over every hosted vertex, the in-edge walk
    // with an inline combine per probed edge, and streaming the frontier
    // bitmap build (a byte read per vertex in, a bit written out).
    const double pull_edges = static_cast<double>(c.pull_edges_scanned);
    const double cyc = n_local * dev.cyc_vertex_gen +
                       pull_edges * (dev.cyc_edge_gen + combine_cyc);
    const double bytes =
        pull_edges * (sizeof(vid_t) + prof.msg_bytes) +
        n_local * (1.0 + 1.0 / 8.0);
    const int threads = prof.total_threads();
    const double p = dev.effective_parallelism(threads);
    t.generation = std::max(dev.cycles_to_seconds(cyc / p),
                            mem_seconds(bytes, dev, threads));
  } else {
  const double compute_cyc =
      static_cast<double>(c.active_vertices) * dev.cyc_vertex_gen +
      static_cast<double>(c.edges_scanned) * dev.cyc_edge_gen;
  // CSR walk streams; message insertion scatters (a cache line per message).
  // Finding the active vertices costs a full bitmap sweep (one flag byte per
  // hosted vertex) on dense supersteps, but only the compact active list
  // (one vid per active vertex) on sparse ones — the frontier win the
  // engine's active lists buy. Traces from before frontier tracking carry
  // neither flag and price as before.
  const double frontier_bytes =
      c.dense_supersteps > 0
          ? n_local
          : (c.sparse_supersteps > 0
                 ? static_cast<double>(c.frontier_size) * sizeof(vid_t)
                 : 0.0);
  const double gen_bytes =
      static_cast<double>(c.edges_scanned) * sizeof(vid_t) +
      msgs * dev.scatter_bytes + frontier_bytes;

  switch (prof.mode) {
    case core::ExecMode::kOmpStyle: {
      // Inline combine under a heavyweight per-vertex lock. The critical
      // section is long (lock + combine + unlock), so it queues badly when
      // destinations are hot.
      const double lock_cyc =
          dev.cyc_omp_lock *
          lock_factor(h, gen_msgs, n_local, dev.omp_beta, dev.omp_cap);
      const double cyc =
          compute_cyc + remote_cyc + msgs * (lock_cyc + combine_cyc);
      const double p = dev.effective_parallelism(prof.threads);
      t.generation = std::max(dev.cycles_to_seconds(cyc / p),
                              mem_seconds(gen_bytes, dev, prof.threads));
      break;
    }
    case core::ExecMode::kLocking: {
      // Direct CSB insertion: one atomic column lock per message (expensive
      // on the MIC ring even uncontended) + allocation locks.
      const double lock_cyc =
          dev.cyc_spinlock *
          lock_factor(h, gen_msgs, n_local, dev.spin_beta, dev.spin_cap);
      const double cyc =
          compute_cyc + remote_cyc + msgs * (lock_cyc + dev.cyc_insert) +
          static_cast<double>(c.columns_allocated) * dev.cyc_spinlock;
      const double p = dev.effective_parallelism(prof.threads);
      t.generation = std::max(dev.cycles_to_seconds(cyc / p),
                              mem_seconds(gen_bytes, dev, prof.threads));
      break;
    }
    case core::ExecMode::kPipelining: {
      // Workers compute + enqueue (plain SPSC stores, no atomics); movers
      // dequeue + insert without column locks. The two sides overlap, so
      // the phase costs the slower of the two; core throughput is shared in
      // proportion to the thread split.
      const int total = prof.total_threads();
      const double p_total = dev.effective_parallelism(total);
      const double p_work = p_total * prof.threads / total;
      const double p_move =
          std::max(0.25, p_total * prof.movers / std::max(1, total));
      // Note: measured queue_full_spins are a host-scheduling artifact (the
      // bench host may starve movers); backpressure on the modeled device is
      // already captured by the max() of the worker and mover sides.
      const double worker_cyc = compute_cyc + remote_cyc + msgs * dev.cyc_queue_op;
      const double mover_cyc =
          msgs * (dev.cyc_queue_op + dev.cyc_insert) +
          static_cast<double>(c.columns_allocated) * dev.cyc_spinlock;
      const double sec = std::max(dev.cycles_to_seconds(worker_cyc / p_work),
                                  dev.cycles_to_seconds(mover_cyc / p_move));
      t.generation = std::max(sec, mem_seconds(gen_bytes, dev, total)) +
                     dev.pipeline_overhead_us * 1e-6;
      break;
    }
  }
  }

  // ---- exchange --------------------------------------------------------------
  if (link != nullptr &&
      (c.bytes_sent + c.bytes_received + c.msgs_received) > 0) {
    const double wire_bytes =
        static_cast<double>(std::max(c.bytes_sent, c.bytes_received));
    const double wire = wire_bytes / (link->bandwidth_gbs * kGiga) +
                        link->latency_us * 1e-6;
    const double insert_cyc = static_cast<double>(c.msgs_received) *
                              (dev.cyc_insert + dev.cyc_spinlock);
    t.exchange = wire + dev.cycles_to_seconds(
                            insert_cyc /
                            dev.effective_parallelism(prof.total_threads()));
  }

  // ---- processing -------------------------------------------------------------
  {
    const int threads = prof.total_threads();
    const double p = dev.effective_parallelism(threads);
    const double cyc =
        static_cast<double>(c.vector_rows) * dev.cyc_vector_row +
        static_cast<double>(c.padded_cells) * dev.cyc_pad +
        static_cast<double>(c.scalar_msgs) * combine_cyc;
    // Vector arrays stream; scalar columns stride but stay within a group.
    const double bytes =
        static_cast<double>(c.vector_rows) * dev.simd_bytes +
        static_cast<double>(c.padded_cells + c.scalar_msgs) * prof.msg_bytes;
    t.processing = std::max(dev.cycles_to_seconds(cyc / p),
                            stream_seconds(bytes, dev, threads));
  }

  // ---- update -----------------------------------------------------------------
  {
    const int threads = prof.total_threads();
    const double p = dev.effective_parallelism(threads);
    const double cyc = static_cast<double>(c.verts_updated) * update_cyc;
    const double bytes = static_cast<double>(c.verts_updated) *
                         (prof.msg_bytes + prof.value_bytes + 2.0);
    t.update = std::max(dev.cycles_to_seconds(cyc / p),
                        stream_seconds(bytes, dev, threads));
  }

  // ---- fixed costs ---------------------------------------------------------------
  {
    const int threads = prof.total_threads();
    const double p = dev.effective_parallelism(threads);
    // Buffer reset (index arrays to -1) + scheduler chunk retrievals +
    // barrier/fork-join overhead per superstep.
    const double reset_cyc =
        prof.mode == core::ExecMode::kOmpStyle
            ? 0.0
            : static_cast<double>(c.columns_allocated) * dev.cyc_reset_column;
    const double sched_cyc =
        static_cast<double>(c.sched_retrievals) * dev.cyc_sched;
    t.overhead = dev.cycles_to_seconds((reset_cyc + sched_cyc) / p) +
                 dev.superstep_overhead_us * 1e-6;
  }

  return t;
}

PhaseTimes model_run(const metrics::RunTrace& trace, const DeviceSpec& dev,
                     const ExecProfile& prof, const LinkSpec* link) {
  PhaseTimes total;
  for (const auto& c : trace) total += model_superstep(c, dev, prof, link);
  return total;
}

HeteroEstimate model_cluster(const std::vector<RankModelInput>& ranks,
                             const LinkSpec& link) {
  PG_CHECK(!ranks.empty());
  const std::size_t steps = ranks[0].trace->size();
  for (const auto& r : ranks)
    PG_CHECK(r.trace != nullptr && r.trace->size() == steps);
  HeteroEstimate est;
  for (std::size_t s = 0; s < steps; ++s) {
    // BSP lockstep: every rank waits on the slowest one each superstep.
    double exec = 0, comm = 0;
    for (const auto& r : ranks) {
      const auto t = model_superstep((*r.trace)[s], r.dev, r.prof, &link);
      exec = std::max(exec, t.execution());
      comm = std::max(comm, t.exchange);
    }
    est.execution_seconds += exec;
    est.comm_seconds += comm;
  }
  return est;
}

double model_sequential(const metrics::RunTrace& trace, const DeviceSpec& dev,
                        const ExecProfile& prof) {
  // Clean sequential code: no locks, no buffers, no scheduler — per-vertex
  // scan, per-edge relaxation applied straight to a destination accumulator,
  // per-receiver update. One thread (smt_yield[0] of one core).
  const double branch = prof.branchy ? dev.branch_penalty : 1.0;
  const double combine_cyc = dev.cyc_scalar_reduce * prof.combine_weight * branch;
  const double update_cyc = dev.cyc_update * prof.update_weight * branch;
  double cyc = 0;
  double bytes = 0;
  for (const auto& c : trace) {
    cyc += static_cast<double>(c.active_vertices) * dev.cyc_vertex_gen +
           static_cast<double>(c.edges_scanned) * dev.cyc_edge_gen +
           static_cast<double>(c.msgs_local + c.msgs_remote) * combine_cyc +
           static_cast<double>(c.verts_updated) * update_cyc;
    bytes += static_cast<double>(c.edges_scanned) * sizeof(vid_t) +
             static_cast<double>(c.msgs_local + c.msgs_remote) *
                 dev.scatter_bytes +
             static_cast<double>(c.verts_updated) * prof.value_bytes;
  }
  const double p = dev.effective_parallelism(1);
  return std::max(dev.cycles_to_seconds(cyc / p), mem_seconds(bytes, dev, 1));
}

DirectionMix predict_direction_mix(const metrics::RunTrace& push_trace,
                                   vid_t num_vertices, std::uint64_t num_edges,
                                   double alpha, double beta) {
  DirectionMix mix;
  mix.directions.reserve(push_trace.size());
  mix.unexplored_edges.reserve(push_trace.size());
  core::DirectionPolicy policy;
  policy.alpha = alpha;
  policy.beta = beta;
  core::Direction prev = core::Direction::kPush;
  std::uint64_t explored = 0;
  for (const auto& c : push_trace) {
    // Mirror of DeviceEngine::decide_direction: the explored-edge estimate
    // accumulates the frontier's out-edge mass every superstep (capped at m),
    // and the policy sees the unexplored remainder *after* this frontier.
    const std::uint64_t frontier_edges = c.edges_scanned;
    const std::uint64_t cap = std::min(num_edges, explored + frontier_edges);
    const std::uint64_t unexplored = num_edges - cap;
    const core::Direction dir = policy.decide(
        c.active_vertices, frontier_edges, unexplored, num_vertices);
    explored = cap;
    mix.directions.push_back(dir);
    mix.unexplored_edges.push_back(unexplored);
    if (dir == core::Direction::kPull)
      ++mix.pull_supersteps;
    else
      ++mix.push_supersteps;
    if (dir != prev) ++mix.flips;
    prev = dir;
  }
  return mix;
}

}  // namespace phigraph::sim
