// Engine configuration: execution scheme, thread layout, device SIMD profile.
#pragma once

#include <cstddef>

#include "src/buffer/csb.hpp"
#include "src/core/direction.hpp"
#include "src/fault/checkpoint.hpp"
#include "src/fault/fault.hpp"
#include "src/simd/simd.hpp"

namespace phigraph::core {

/// The three execution schemes compared throughout the paper's Fig. 5.
enum class ExecMode {
  kOmpStyle,    // "OMP": scalar accumulators + per-vertex heavyweight locks,
                //        no CSB, no SIMD — what OpenMP-on-sequential-code does
  kLocking,     // "Lock": direct CSB insertion with per-column locking
  kPipelining,  // "Pipe": worker/mover pipelined CSB insertion
};

constexpr const char* exec_mode_name(ExecMode m) noexcept {
  switch (m) {
    case ExecMode::kOmpStyle: return "OMP";
    case ExecMode::kLocking: return "Lock";
    case ExecMode::kPipelining: return "Pipe";
  }
  return "?";
}

struct EngineConfig {
  ExecMode mode = ExecMode::kLocking;

  /// Computation threads. In pipelining mode these are the workers and
  /// `movers` more threads are added (paper's MIC sweet spot: 180 workers +
  /// 60 movers); in the other modes this is the whole team. The thread that
  /// drives run() is slot 0 of the team's total_threads() slots (worker 0
  /// when pipelining), so an engine starts total_threads() - 1 team threads.
  int threads = 4;
  int movers = 2;

  /// SIMD register width in bytes: 16 = CPU profile (SSE4.2),
  /// 64 = MIC profile (KNC). Determines CSB lane count per message type.
  int simd_bytes = simd::kMicSimdBytes;

  /// false = the Fig. 5(f) "novec" ablation: scalar message processing.
  bool use_simd = true;

  /// CSB geometry: vector arrays per vertex group (the paper's k).
  int csb_k = 2;
  buffer::ColumnMode column_mode = buffer::ColumnMode::kDynamic;

  /// Dynamic-scheduler chunk: "a thread can obtain multiple tasks each time".
  std::size_t sched_chunk = 64;

  /// SPSC queue capacity per (worker, mover) pair, in messages.
  std::size_t queue_capacity = 1024;

  /// Superstep cap (PageRank runs exactly this many; traversals usually
  /// terminate earlier on their own).
  int max_supersteps = 1000;

  /// Sparse-ITERATION switch (push supersteps only): generation walks the
  /// compact active list when frontier_size < sparse_iteration_threshold *
  /// num_vertices, and falls back to the dense bitmap scan above that
  /// density. This picks the iteration SHAPE of a push superstep — it does
  /// NOT choose traversal direction (see direction_mode below). 0.0 forces
  /// the dense path every superstep; 1.0 forces the sparse path. Ignored by
  /// kAllActive programs (PageRank), which are always dense.
  double sparse_iteration_threshold = 0.05;

  /// Traversal direction (push vs pull) for programs that declare
  /// kPullable (BFS/SSSP/CC/PageRank). kAuto applies the alpha/beta rule
  /// per superstep, except that all-active programs (PageRank) pull every
  /// superstep at any rank count; kForcePush reproduces the pre-direction
  /// engine exactly (the CSB path); kForcePull pulls every superstep.
  /// Non-pullable programs always push, and so do traversals in a cluster
  /// of two or more ranks (a gather there would need remote frontier
  /// bits); a 1-rank cluster is one device and pulls like one.
  DirectionMode direction_mode = DirectionMode::kAuto;

  /// Shards for the remote buffer's touched lists: deposits contend per
  /// shard and the exchange drain parallelizes over shards. Rounded up to a
  /// power of two (per destination rank on N-rank runs).
  std::size_t remote_shards = 32;

  /// Send-side message combining (paper §IV-A / Pregel combiners). true =
  /// remote messages are reduced per destination in the remote buffer before
  /// the exchange (the paper's behavior, and the default); false = messages
  /// ship individually and the receiver reduces them on arrival — the
  /// combiner-off ablation the cross-rank byte counters are measured
  /// against. Programs declaring CombinerKind::kNone always ship
  /// individually regardless of this flag.
  bool combine_remote = true;

  /// Deadline for each peer exchange (data and termination control) in
  /// heterogeneous runs. A peer that misses the deadline is declared dead:
  /// the waiting rank poisons the channels and fails over (see DESIGN.md
  /// §6). Generous by default — failing ranks poison their peer *immediately*
  /// via AllToAll::poison, so the deadline only catches wedged (not crashed)
  /// devices.
  int exchange_deadline_ms = 30000;

  /// Superstep checkpointing (fault tolerance): interval 0 disables it.
  /// In a heterogeneous run both devices must use the same interval so their
  /// frames land on the same superstep boundaries.
  fault::CheckpointConfig checkpoint;

  /// Transient-fault retry budget for the recovery ladder (DESIGN.md §12).
  /// Read from rank 0's config by ClusterEngine; per-rank values are
  /// meaningless (recovery is a cluster-level decision).
  fault::RetryPolicy retry;

  /// Multi-query serving (core/query_engine.hpp). The admission queue is
  /// bounded: submit() blocks — never drops — once serve_queue_capacity jobs
  /// are waiting (backpressure propagates to the callers). The dispatcher
  /// closes a batch at serve_batch_max lanes (<= 64, one bit / float lane
  /// per query) or when the oldest waiting job has aged
  /// serve_batch_wait_ms, whichever comes first — the classic
  /// throughput-vs-latency knob pair.
  std::size_t serve_queue_capacity = 256;
  int serve_batch_max = 64;
  int serve_batch_wait_ms = 2;

  /// Fixed superstep count for personalized-PageRank jobs (PPR terminates by
  /// iteration count, like PageRank).
  int serve_ppr_supersteps = 10;

  [[nodiscard]] int total_threads() const noexcept {
    return mode == ExecMode::kPipelining ? threads + movers : threads;
  }
};

}  // namespace phigraph::core
