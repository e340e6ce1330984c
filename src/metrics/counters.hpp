// Per-superstep event counters.
//
// The engine is the measurement instrument: every execution mode emits the
// same counter stream, and the performance model (src/sim) converts counters
// into device seconds for the paper's CPU / MIC specs. Counters are also
// asserted on directly by tests (e.g. message conservation: generated ==
// inserted + remote).
#pragma once

#include <cstdint>
#include <vector>

namespace phigraph::metrics {

/// Flags a counter whose value depends on thread timing (which thread won a
/// column, how full a queue ran), not only on graph, program and config.
inline constexpr bool kTimingDependent = true;

/// a += b over every field in T's field list.
template <typename T>
constexpr void add_fields(T& a, const T& b) noexcept {
  T::fields([&](const char*, auto m, auto...) { a.*m += b.*m; });
}

struct SuperstepCounters {
  std::uint64_t superstep = 0;         // row index, not a counter
  std::uint64_t active_vertices = 0;   // vertices that ran generate_messages
  std::uint64_t edges_scanned = 0;     // out-edges of active vertices
  std::uint64_t msgs_local = 0;        // inserted into the local CSB
  std::uint64_t msgs_remote = 0;       // destined for the other device
  std::uint64_t msgs_received = 0;     // arrived from the other device
  std::uint64_t columns_allocated = 0; // distinct destinations this superstep
  std::uint64_t column_conflicts = 0;  // insertions hitting an occupied column
  std::uint64_t lock_acquisitions = 0; // column/group locks taken (locking mode)
  std::uint64_t queue_pushes = 0;      // pipelining: worker -> queue
  std::uint64_t queue_full_spins = 0;  // pipelining backpressure events
  std::uint64_t vector_rows = 0;       // SIMD rows processed
  std::uint64_t padded_cells = 0;      // identity fills (lane bubbles)
  std::uint64_t scalar_msgs = 0;       // messages processed on the scalar path
  std::uint64_t verts_updated = 0;     // update_vertex invocations
  std::uint64_t sched_retrievals = 0;  // dynamic-scheduler chunk grabs
  std::uint64_t bytes_sent = 0;        // exchange traffic to the peer
  std::uint64_t bytes_received = 0;
  // Sparse-frontier execution (active lists + dirty-group CSB tracking).
  std::uint64_t frontier_size = 0;     // active vertices at generation start
  std::uint64_t dense_supersteps = 0;  // 1 if generate scanned the bitmap
  std::uint64_t sparse_supersteps = 0; // 1 if generate walked the active list
  std::uint64_t groups_dirty = 0;      // CSB groups that received messages
  std::uint64_t groups_skipped = 0;    // CSB groups process/update never visited
  // Direction-optimizing traversal (core/direction.hpp). Push counters above
  // (edges_scanned, msgs_local, dense/sparse_supersteps) stay push-only so
  // their invariants (e.g. edges_scanned == msgs_local for single-device
  // SSSP) are unchanged; pull work is counted separately. Per superstep:
  // push_supersteps + pull_supersteps == 1, and dense + sparse + pull == 1.
  std::uint64_t push_supersteps = 0;    // 1 if this superstep pushed
  std::uint64_t pull_supersteps = 0;    // 1 if this superstep pulled
  std::uint64_t direction_flips = 0;    // 1 if the direction changed here
  std::uint64_t pull_edges_scanned = 0; // in-edges probed by the pull kernel
  std::uint64_t pull_early_exits = 0;   // pull scans cut short at first hit

  /// Every counter once, as f(json_name, member[, kTimingDependent]):
  /// operator+=, the engine's per-thread tallies and the bench JSON all
  /// follow this list.
  template <typename F>
  static constexpr void fields(F&& f) {
    using S = SuperstepCounters;
    f("active_vertices", &S::active_vertices);
    f("edges_scanned", &S::edges_scanned);
    f("msgs_local", &S::msgs_local);
    f("msgs_remote", &S::msgs_remote);
    f("msgs_received", &S::msgs_received);
    f("columns_allocated", &S::columns_allocated);
    f("column_conflicts", &S::column_conflicts);
    f("lock_acquisitions", &S::lock_acquisitions, kTimingDependent);
    f("queue_pushes", &S::queue_pushes);
    f("queue_full_spins", &S::queue_full_spins, kTimingDependent);
    f("vector_rows", &S::vector_rows, kTimingDependent);
    f("padded_cells", &S::padded_cells, kTimingDependent);
    f("scalar_msgs", &S::scalar_msgs);
    f("verts_updated", &S::verts_updated);
    f("sched_retrievals", &S::sched_retrievals);
    f("bytes_sent", &S::bytes_sent);
    f("bytes_received", &S::bytes_received);
    f("frontier_size", &S::frontier_size);
    f("dense_supersteps", &S::dense_supersteps);
    f("sparse_supersteps", &S::sparse_supersteps);
    f("groups_dirty", &S::groups_dirty);
    f("groups_skipped", &S::groups_skipped);
    f("push_supersteps", &S::push_supersteps);
    f("pull_supersteps", &S::pull_supersteps);
    f("direction_flips", &S::direction_flips);
    f("pull_edges_scanned", &S::pull_edges_scanned);
    f("pull_early_exits", &S::pull_early_exits);
  }

  SuperstepCounters& operator+=(const SuperstepCounters& o) noexcept {
    add_fields(*this, o);
    return *this;
  }
};

/// Fault-tolerance outcome of a cluster run (DESIGN.md §6/§12). All zero on
/// a fault-free run; filled by the recovery ladder in ClusterEngine when a
/// rank fault triggered recovery. Surfaced in the bench JSON next to the
/// superstep counters.
///
/// `rung` records how far down the ladder the run had to go:
///   0 = no fault; 1 = transient respawn (all N ranks resumed);
///   2 = survivor repartition (N-1 ranks finished the run);
///   3 = single-device rerun (the pre-ladder behaviour).
struct FailoverStats {
  std::uint64_t failed_over = 0;     // 1 if the run completed via recovery
  std::uint64_t attempts = 0;        // transient respawn attempts consumed
  std::uint64_t epochs = 0;          // recovery epochs entered (all rungs)
  std::uint64_t rung = 0;            // deepest ladder rung reached (0-3)
  std::uint64_t lost_supersteps = 0; // max over epochs: fault - resume
  double recovery_ms = 0;            // total rebuild + restore wall time
  std::vector<double> epoch_recovery_ms;  // per-epoch rebuild + restore time

  template <typename F>
  static constexpr void fields(F&& f) {
    using S = FailoverStats;
    f("failed_over", &S::failed_over);
    f("attempts", &S::attempts);
    f("epochs", &S::epochs);
    f("rung", &S::rung);
    f("lost_supersteps", &S::lost_supersteps);
    f("recovery_ms", &S::recovery_ms);
    f("epoch_recovery_ms", &S::epoch_recovery_ms);
  }
};

/// Per-peer exchange traffic of one rank across a whole run, indexed by the
/// other rank's id (the self entry stays zero — a rank never ships bytes to
/// itself). Conservation across a fault-free N-rank run:
///   ranks[a].io.bytes_to[b] == ranks[b].io.bytes_from[a]  for every (a, b),
/// which the differential battery asserts pairwise.
struct RankIo {
  std::vector<std::uint64_t> bytes_to;    // [dst rank] -> bytes this rank sent
  std::vector<std::uint64_t> bytes_from;  // [src rank] -> bytes received

  explicit RankIo(std::size_t nranks = 0)
      : bytes_to(nranks, 0), bytes_from(nranks, 0) {}
};

/// Host-measured wall seconds of one superstep's phases, recorded by the
/// engine in every build (a handful of clock reads per superstep — the
/// *span-level* tracing is what the PHIGRAPH_TRACE gate controls). The
/// exclusive phases tile the superstep: their sum must track `wall` minus
/// loop bookkeeping (frontier swap, counter collection), an invariant the
/// differential tests check.
struct PhaseSeconds {
  double prepare = 0;
  double generate = 0;
  double exchange = 0;   // heterogeneous runs only (0 single-device)
  double process = 0;
  double update = 0;
  double terminate = 0;  // termination-control exchange (hetero only)
  double checkpoint = 0;
  double wall = 0;       // whole superstep on the orchestrator

  [[nodiscard]] double phase_sum() const noexcept {
    return prepare + generate + exchange + process + update + terminate +
           checkpoint;
  }

  template <typename F>
  static constexpr void fields(F&& f) {
    using S = PhaseSeconds;
    f("prepare", &S::prepare);
    f("generate", &S::generate);
    f("exchange", &S::exchange);
    f("process", &S::process);
    f("update", &S::update);
    f("terminate", &S::terminate);
    f("checkpoint", &S::checkpoint);
    f("wall", &S::wall);
  }

  PhaseSeconds& operator+=(const PhaseSeconds& o) noexcept {
    add_fields(*this, o);
    return *this;
  }
};

/// One entry per executed superstep, parallel to RunTrace.
using PhaseTrace = std::vector<PhaseSeconds>;

/// Sum of a phase trace.
inline PhaseSeconds phase_totals(const PhaseTrace& phases) noexcept {
  PhaseSeconds t;
  for (const auto& p : phases) t += p;
  return t;
}

/// Full run trace: one entry per executed superstep.
using RunTrace = std::vector<SuperstepCounters>;

/// Sum of a trace (superstep field meaningless in the result).
inline SuperstepCounters totals(const RunTrace& trace) noexcept {
  SuperstepCounters t;
  for (const auto& c : trace) t += c;
  return t;
}

}  // namespace phigraph::metrics
