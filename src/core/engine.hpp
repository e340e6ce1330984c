// DeviceEngine — one device's BSP superstep loop (paper §IV-A, Fig. 2).
//
// Per superstep:
//   1. prepare   — reset CSB bookkeeping and the next-active flags
//   2. generate  — user generate_messages() for each active vertex; messages
//                  are routed to the local CSB (locking or pipelined) or to
//                  the remote buffer (combined)
//   3. exchange  — all-to-all swap of per-peer remote batches (combined at
//                  the send side unless the program's combiner is kNone or
//                  combining is switched off) and insertion of received
//                  messages into the local CSB
//   4. process   — SIMD (or scalar) reduction of each vector array
//   5. update    — user update_vertex() per message-receiving vertex
//   6. terminate — exchange next-active counts; stop when globally idle
//
// Pullable programs may run generate bottom-up instead: each vertex gathers
// from its in-neighbors over a transposed CSR and nothing enters the CSB. A
// single device reads the graph's own transpose, built in parallel by the
// first engine over that graph and shared by every later one. On a single
// device traversals choose per superstep; all-active programs (PageRank)
// pull every superstep at any rank count. A rank with peers holds the
// in-edges of the vertices it owns, with global sources, and swaps its
// boundary shares with the other ranks before each gather. An engine that
// can never push allocates no CSB (and, with peers, no remote buffer) at
// all.
//
// The same code runs as the paper's "CPU" and "MIC" instances — only the
// EngineConfig (thread layout, SIMD profile, execution scheme) differs —
// and generalizes to any rank count: the peer wiring is an N-rank AllToAll
// channel pair, with the paper's two-rank configuration as nranks == 2.
// Every phase runs under dynamic chunk scheduling (§IV-D) on a persistent
// thread team, and every phase streams event counters into the run trace
// consumed by the performance model.
//
// Fault tolerance (DESIGN.md §6): an exception escaping one of the three
// user callbacks on any team slot leaves ThreadTeam::run() on the
// orchestrator once the other slots have joined. The orchestrator turns any
// such fault into a structured FaultReport, and run() returns with
// RunResult::failed set instead of throwing; an engine with peers also
// poisons the AllToAll channels, so they wake immediately. Peer exchanges
// are deadline-bounded, and an optional checkpoint store snapshots
// values + active flags + superstep at BSP boundaries for the recovery
// ladder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/buffer/csb.hpp"
#include "src/buffer/vmsg_array.hpp"
#include "src/comm/exchange.hpp"
#include "src/comm/remote_buffer.hpp"
#include "src/common/audit.hpp"
#include "src/common/expect.hpp"
#include "src/common/timer.hpp"
#include "src/common/types.hpp"
#include "src/core/config.hpp"
#include "src/core/direction.hpp"
#include "src/core/graph_view.hpp"
#include "src/core/local_graph.hpp"
#include "src/core/program_traits.hpp"
#include "src/graph/transpose.hpp"
#include "src/fault/checkpoint.hpp"
#include "src/fault/fault.hpp"
#include "src/fault/fault_injection.hpp"
#include "src/metrics/counters.hpp"
#include "src/metrics/histogram.hpp"
#include "src/metrics/trace.hpp"
#include "src/pipeline/message_pipeline.hpp"
#include "src/sched/dynamic_scheduler.hpp"
#include "src/sched/thread_team.hpp"
#include "src/simd/bitset.hpp"
#include "src/simd/simd.hpp"

namespace phigraph::core {

/// Outcome of a run: superstep count, the counter trace, and host-side phase
/// times (the *modeled* device times come from src/sim, not from here).
struct RunResult {
  int supersteps = 0;
  metrics::RunTrace trace;
  /// Host wall seconds per superstep, phase-resolved; parallel to `trace`
  /// (same length, same superstep order). Always collected — it costs a few
  /// clock reads per superstep; the span-level tracing is what PHIGRAPH_TRACE
  /// gates.
  metrics::PhaseTrace phases;
  double host_seconds = 0;
  double gen_seconds = 0;
  double exchange_seconds = 0;
  double process_seconds = 0;
  double update_seconds = 0;
  /// Per-peer exchange traffic (bytes to / from each other rank), sized by
  /// the run's rank count. Single-device runs carry one all-zero entry.
  metrics::RankIo io;
  /// A device fault — this rank's own, or a peer's observed through the
  /// exchange — ended the run early. `fault` names the origin rank either
  /// way (rank 0 on an engine without peers).
  bool failed = false;
  fault::FaultReport fault;
};

template <VertexProgram Program>
class DeviceEngine {
 public:
  using Msg = typename Program::message_t;
  using Value = typename Program::vertex_value_t;
  using Batch = std::vector<pipeline::Envelope<Msg>>;

  /// Wiring to the other ranks of a heterogeneous / cluster run: this
  /// engine's rank, the run-wide all-to-all channels (data batches and
  /// termination-control words), and the whole graph the partitions were
  /// split from, which a pulling rank transposes for its owned vertices.
  /// The paper's CPU+MIC configuration is the num_ranks() == 2 case with
  /// rank 0 = CPU, rank 1 = MIC.
  struct PeerLink {
    int rank = 0;
    comm::AllToAll<Batch>* data = nullptr;
    comm::AllToAll<std::uint64_t>* control = nullptr;
    const graph::Csr* graph = nullptr;
  };

  DeviceEngine(LocalGraph lg, Program prog, EngineConfig cfg,
               std::optional<PeerLink> peer = std::nullopt)
      : lg_(std::move(lg)),
        prog_(std::move(prog)),
        cfg_(cfg),
        peer_(peer),
        lanes_(simd::lanes_for<Msg>(cfg.simd_bytes)),
        nranks_(peer ? peer->data->num_ranks() : 1),
        combine_enabled_(cfg.combine_remote &&
                         combiner_kind<Program>() != CombinerKind::kNone),
        bytes_to_(static_cast<std::size_t>(nranks_), 0),
        bytes_from_(static_cast<std::size_t>(nranks_), 0) {
    PG_CHECK_MSG(cfg_.mode != ExecMode::kOmpStyle || !peer_,
                 "the OMP baseline is single-device only (as in the paper)");
    if (peer_) {
      PG_CHECK_MSG(peer_->rank >= 0 && peer_->rank < nranks_,
                   "PeerLink rank outside the channel's rank count");
      PG_CHECK_MSG(peer_->control->num_ranks() == nranks_,
                   "data and control channels disagree on the rank count");
      PG_CHECK_MSG(peer_->graph != nullptr &&
                       peer_->graph->num_vertices() == lg_.global_num_vertices,
                   "PeerLink needs the graph the partition was split from");
    }
    // Single-device engines address vertices by global id directly (see
    // local_id()), which is only sound on the whole graph; ranks with peers
    // look ids up in their split's maps.
    PG_CHECK_MSG(lg_.is_whole() == !peer_,
                 peer_ ? "a rank with peers needs a split part "
                         "(LocalGraph::split_n)"
                       : "a single-device engine needs the whole graph "
                         "(LocalGraph::whole)");
    const vid_t n = lg_.num_local_vertices();
    values_.resize(n);
    active_.assign(n, 0);
    next_active_.assign(n, 0);
    // Pull state: a single device pulls any pullable program; a rank with
    // peers pulls only what pulls_with_peers() admits, so kForcePull on a
    // traversal with a peer degrades to push.
    pull_ready_ =
        cfg_.direction_mode != DirectionMode::kForcePush &&
        (peer_ ? pulls_with_peers<Program>() : is_pullable<Program>());
    // Push state: an engine that can never push — it pulls every superstep,
    // all-active under kAuto or forced to — builds no CSB, no OMP vertex
    // locks and no remote buffer.
    const bool pulls_only =
        pull_ready_ && (Program::kAllActive ||
                        cfg_.direction_mode == DirectionMode::kForcePull);
    const bool omp_pushes = !pulls_only && cfg_.mode == ExecMode::kOmpStyle;
    if (omp_pushes) {
      vertex_locks_ = std::make_unique<sched::SpinLock[]>(n);
    } else if (!pulls_only) {
      typename buffer::Csb<Msg>::Config bc;
      bc.lanes = lanes_;
      bc.k = cfg_.csb_k;
      bc.mode = cfg_.column_mode;
      csb_.emplace(lg_.in_degree(), bc);
    }
    if (peer_ && !pulls_only)
      remote_.emplace(lg_.global_num_vertices, cfg_.remote_shards, nranks_);
    if (cfg_.checkpoint.enabled())
      ckpt_.emplace(cfg_.checkpoint, peer_ ? peer_->rank : 0);
    if (cfg_.mode == ExecMode::kPipelining)
      pipe_.emplace(cfg_.threads, cfg_.movers, cfg_.queue_capacity);
    team_.emplace(cfg_.total_threads());
#if PG_TRACE_ENABLED
    sched_.set_chunk_histogram(&hist_chunk_);
    if (pipe_) pipe_->set_drain_histogram(&hist_drain_);
#endif
    tstats_.resize(static_cast<std::size_t>(cfg_.total_threads()));
    if constexpr (!Program::kAllActive)
      tl_frontier_.resize(static_cast<std::size_t>(cfg_.total_threads()));
    if (pull_ready_) {
      if (peer_)
        build_owned_in_edges();
      else
        in_edges_ = lg_.local().transpose(*team_);
      // The build ran on this thread; run() may be driven from another.
      team_->rebind_orchestrator();
      if constexpr (!Program::kAllActive)
        pull_frontier_.resize(static_cast<std::size_t>(n));
      if constexpr (HasPullSource<Program>)
        pull_src_.resize(lg_.global_num_vertices);
    }
    if (pull_ready_ || omp_pushes) {
      acc_.resize(n);
      has_acc_.assign(n, 0);
    }
    init_vertices();
  }

  [[nodiscard]] std::span<const Value> values() const noexcept {
    return values_;
  }
  [[nodiscard]] const LocalGraph& local_graph() const noexcept { return lg_; }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }
  /// The message buffer, or nullptr on an engine that never pushes.
  [[nodiscard]] const buffer::Csb<Msg>* csb() const noexcept {
    return csb_ ? &*csb_ : nullptr;
  }
  /// The in-edges the pull kernel reads, or nullptr on an engine that never
  /// pulls.
  [[nodiscard]] const graph::Transpose* in_edges() const noexcept {
    return in_edges_.get();
  }

  /// This device's MPI-style rank (0 when running single-device).
  [[nodiscard]] int rank() const noexcept { return peer_ ? peer_->rank : 0; }

  /// Ranks participating in this run (1 when running single-device).
  [[nodiscard]] int num_ranks() const noexcept { return nranks_; }

  /// Whether remote messages are combined before the send for this run
  /// (program combiner kind x EngineConfig::combine_remote).
  [[nodiscard]] bool combining_remote() const noexcept {
    return combine_enabled_;
  }

  /// The checkpoint store, or nullptr when checkpointing is disabled.
  [[nodiscard]] const fault::CheckpointStore* checkpoint_store() const noexcept {
    return ckpt_ ? &*ckpt_ : nullptr;
  }

  /// Reload state from a checkpoint snapshot (local-indexed values + active
  /// flags) and arrange for run() to resume at `superstep`. Valid on a
  /// freshly constructed engine (a rank the recovery ladder rebuilt) and on
  /// an engine whose previous run() already returned — rung 1 restores the
  /// surviving ranks in place, so every trace of the aborted epoch is
  /// discarded here: buffered remote deposits, accumulated traffic
  /// counters, and (via the next prepare()) the dirtied CSB groups. If a
  /// checkpoint store is attached, the restored state is written back as a
  /// frame at `superstep`, so the cluster keeps a common resume point for
  /// any *subsequent* fault.
  void restore(std::span<const Value> values,
               std::span<const std::uint8_t> active, int superstep) {
    PG_CHECK_MSG(values.size() == values_.size() &&
                     active.size() == active_.size(),
                 "checkpoint snapshot does not match this engine's partition");
    PG_CHECK(superstep >= 0);
    std::copy(values.begin(), values.end(), values_.begin());
    std::copy(active.begin(), active.end(), active_.begin());
    std::fill(next_active_.begin(), next_active_.end(), 0);
    if constexpr (!Program::kAllActive) {
      frontier_.clear();
      prev_frontier_.clear();
      for (auto& b : tl_frontier_) b.clear();
      for (vid_t u = 0; u < static_cast<vid_t>(active_.size()); ++u)
        if (active_[u]) frontier_.push_back(u);
    }
    // Direction state restarts conservatively: the policy resumes in push
    // with a cold unexplored-edge estimate (correctness is direction-
    // independent; only the first post-resume decisions may differ).
    dir_policy_.reset();
    last_direction_ = Direction::kPush;
    explored_edges_est_ = 0;
    // Epoch hygiene for in-place restores: half-staged remote messages and
    // pull results from the aborted superstep must not leak into the resumed
    // run, and traffic accounting restarts (the aborted epoch's RunResult
    // already reported its bytes).
    if (remote_) remote_->advance_epoch();
    std::fill(has_acc_.begin(), has_acc_.end(), 0);
    std::fill(bytes_to_.begin(), bytes_to_.end(), 0);
    std::fill(bytes_from_.begin(), bytes_from_.end(), 0);
    // The resumed run may be driven by a freshly spawned cluster thread;
    // let the checked build re-bind its one-orchestrator invariant to it.
    if (team_) team_->rebind_orchestrator();
    start_superstep_ = superstep;
    if (ckpt_) ckpt_->write(make_frame(superstep));
  }

#if PG_AUDIT_ENABLED
  /// Current BSP phase (audit builds only; kIdle outside run()).
  [[nodiscard]] audit::BspPhase audit_phase() const noexcept {
    return bsp_phase_.current();
  }
#endif

  /// Executes supersteps to completion and returns the run trace.
  ///
  /// Never throws: a fault in this engine ends the run with `failed` set and
  /// a FaultReport naming this rank (and poisons the channels when it has
  /// peers); a fault in a peer is observed through the exchange and likewise
  /// returns with `failed` set, carrying the peer's FaultReport.
  RunResult run() {
    PG_TRACE_THREAD_NAME(rank() == 0   ? "cpu-orchestrator"
                         : rank() == 1 ? "mic-orchestrator"
                                       : "rank-orchestrator");
    Timer total;
    RunResult res;

    int s = start_superstep_;
    for (; s < cfg_.max_supersteps; ++s) {
      StepOutcome out;
      // Classification (DESIGN.md §12): injected faults carry their armed
      // kind; fault::TransientError marks retryable failures; every other
      // exception is permanent. Catch order matters — both special types
      // derive from std::exception.
      try {
        out = superstep(s, res);
      } catch (const fault::FaultInjected& e) {
        fail_run(res, s, e.what(), e.kind);
        break;
      } catch (const fault::TransientError& e) {
        fail_run(res, s, e.what(), fault::FaultKind::kTransient);
        break;
      } catch (const std::exception& e) {
        fail_run(res, s, e.what(), fault::FaultKind::kPermanent);
        break;
      } catch (...) {
        fail_run(res, s, "unknown exception", fault::FaultKind::kPermanent);
        break;
      }
      if (out == StepOutcome::kPeerFailed) break;
      if (out == StepOutcome::kTerminated) {
        ++s;
        break;
      }
    }

#if PG_AUDIT_ENABLED
    // A faulted run is torn down mid-phase; the ordinary update -> idle edge
    // never fires, so force the machine to rest before anyone inspects it.
    if (res.failed)
      bsp_phase_.abort_to_idle();
    else
      PG_AUDIT_PHASE_ENTER(bsp_phase_, kIdle);
#else
    PG_AUDIT_PHASE_ENTER(bsp_phase_, kIdle);
#endif
    res.supersteps = s;
    res.host_seconds = total.seconds();
    res.io.bytes_to = bytes_to_;
    res.io.bytes_from = bytes_from_;
    const metrics::PhaseSeconds tot = metrics::phase_totals(res.phases);
    res.gen_seconds = tot.generate;
    res.exchange_seconds = tot.exchange;
    res.process_seconds = tot.process;
    res.update_seconds = tot.update;
    return res;
  }

#if PG_TRACE_ENABLED
  /// Shape statistics, trace builds only: dynamic-scheduler chunk sizes,
  /// mover drain-batch depths, and CSB column message depths. Cumulative
  /// over the engine's lifetime.
  [[nodiscard]] metrics::HistogramData chunk_histogram() const noexcept {
    return hist_chunk_.snapshot();
  }
  [[nodiscard]] metrics::HistogramData drain_histogram() const noexcept {
    return hist_drain_.snapshot();
  }
  [[nodiscard]] metrics::HistogramData column_depth_histogram() const noexcept {
    return hist_col_depth_.snapshot();
  }
  /// Edges probed per pull superstep (empty for push-only runs).
  [[nodiscard]] metrics::HistogramData pull_scan_histogram() const noexcept {
    return hist_pull_scan_.snapshot();
  }
#endif

 private:
  enum class StepOutcome { kContinue, kTerminated, kPeerFailed };

  StepOutcome superstep(int s, RunResult& res) {
    for (auto& t : tstats_) t = ThreadStats{};
    cur_superstep_ = s;
    Timer wall;
    metrics::PhaseSeconds ps;
    PG_TRACE_SCOPE(kSuperstep, s, rank());

    {
      phase_ = "prepare";
      PG_AUDIT_PHASE_ENTER(bsp_phase_, kPrepare);
      PG_TRACE_SCOPE(kPrepare, s, rank());
      Timer t;
      prepare();
      ps.prepare = t.seconds();
    }

    {
      phase_ = "generate";
      PG_AUDIT_PHASE_ENTER(bsp_phase_, kGenerate);
      {
        PG_TRACE_SCOPE(kGenerate, s, rank());
        Timer t;
        generate(s);
        ps.generate = t.seconds();
      }
      // generate() only readied a pull superstep's operands; the gather
      // follows. Ranks with peers first swap their boundary shares: that
      // swap stays inside the generate phase (nothing reaches a CSB), but
      // its time and any fault it meets belong to the exchange.
      if (superstep_direction_ == Direction::kPull) {
        if (peer_) {
          phase_ = "exchange";
          Timer t;
          bool ok;
          {
            PG_TRACE_SCOPE(kExchange, s, rank());
            ok = swap_shares(s, res);
          }
          ps.exchange = t.seconds();
          if (!ok) return StepOutcome::kPeerFailed;
          phase_ = "generate";
        }
        PG_TRACE_SCOPE(kGenerate, s, rank());
        Timer t;
        gather(s);
        ps.generate += t.seconds();
      }
    }

    if (peer_ && superstep_direction_ == Direction::kPush) {
      phase_ = "exchange";
      PG_AUDIT_PHASE_ENTER(bsp_phase_, kExchange);
      Timer t;
      bool ok;
      {
        PG_TRACE_SCOPE(kExchange, s, rank());
        ok = exchange_messages(s, res);
      }
      ps.exchange = t.seconds();
      if (!ok) return StepOutcome::kPeerFailed;
    }

    if (csb_ && Program::kNeedsReduction) {
      phase_ = "process";
      PG_AUDIT_PHASE_ENTER(bsp_phase_, kProcess);
      PG_TRACE_SCOPE(kProcess, s, rank());
      Timer t;
      process(s);
      ps.process = t.seconds();
    }

    {
      phase_ = "update";
      PG_AUDIT_PHASE_ENTER(bsp_phase_, kUpdate);
      PG_TRACE_SCOPE(kUpdate, s, rank());
      Timer t;
      update(s);
      ps.update = t.seconds();
    }

#if PG_TRACE_ENABLED
    record_csb_depths();
#endif
    res.trace.push_back(collect_counters(s));
    // Terminate / checkpoint seconds are patched into the entry below; the
    // invariant is phases.size() == trace.size() on every exit path that
    // pushed a trace entry.
    ps.wall = wall.seconds();
    res.phases.push_back(ps);

    std::swap(active_, next_active_);
    advance_frontier();
#if PG_AUDIT_ENABLED
    audit_validate_frontier();
#endif

    std::uint64_t next = 0;
    for (const auto& t : tstats_) next += t.next_active;
    if (peer_) {
      phase_ = "terminate";
      Timer t;
      typename comm::AllToAll<std::uint64_t>::Result r;
      {
        PG_TRACE_SCOPE(kTerminate, s, rank());
        // Broadcast this rank's next-active count to every peer; the global
        // count is the sum over all ranks, so all of them agree on
        // termination within the same superstep.
        r = peer_->control->exchange_for(
            rank(),
            std::vector<std::uint64_t>(static_cast<std::size_t>(nranks_),
                                       next),
            exchange_deadline());
      }
      res.phases.back().terminate = t.seconds();
      res.phases.back().wall = wall.seconds();
      if (r.status != comm::ExchangeStatus::kOk)
        return handle_peer_down(r.status, r.fault, s, res);
      for (int src = 0; src < nranks_; ++src)
        if (src != rank()) next += r.values[static_cast<std::size_t>(src)];
    }
    if (!Program::kAllActive && next == 0) {
      res.phases.back().wall = wall.seconds();
      return StepOutcome::kTerminated;
    }

    {
      Timer t;
      maybe_checkpoint(s);
      res.phases.back().checkpoint = t.seconds();
    }
    res.phases.back().wall = wall.seconds();
    return StepOutcome::kContinue;
  }

#if PG_TRACE_ENABLED
  /// Record this superstep's CSB column message depths (the per-destination
  /// load distribution) before the counters reset them. Dirty groups only —
  /// clean groups hold no messages.
  void record_csb_depths() {
    if (!csb_) return;
    const vid_t width = static_cast<vid_t>(csb_->group_width());
    const vid_t n = lg_.num_local_vertices();
    const std::size_t dirty = csb_->num_dirty_groups();
    for (std::size_t i = 0; i < dirty; ++i) {
      const std::size_t g = csb_->dirty_group(i);
      const vid_t base = static_cast<vid_t>(g) * width;
      const vid_t cols = std::min(width, n - base);
      for (vid_t c = 0; c < cols; ++c) {
        const std::uint32_t cnt = csb_->column_count(g, c);
        if (cnt > 0) hist_col_depth_.record(cnt);
      }
    }
  }
#endif

  /// Convert a fault on this rank into a failed RunResult (and a peer
  /// poison, when there are peers to wake).
  void fail_run(RunResult& res, int s, const char* what,
                fault::FaultKind kind) {
    fault::FaultReport rep;
    rep.rank = rank();
    rep.superstep = s;
    rep.phase = phase_;
    rep.what = what;
    rep.kind = kind;
    if (peer_) {
      peer_->data->poison(rank(), rep);
      peer_->control->poison(rank(), rep);
    }
    res.failed = true;
    res.fault = std::move(rep);
  }

  /// A peer poisoned the channel (we carry its report onward) or missed the
  /// exchange deadline (we declare it dead and poison on its behalf so a
  /// merely-wedged peer also wakes to a structured failure). On a timeout
  /// the channel names the first peer whose contribution was missing; the
  /// two-rank fallback is the only other rank.
  StepOutcome handle_peer_down(comm::ExchangeStatus status,
                               const fault::FaultReport& fault, int s,
                               RunResult& res) {
    if (status == comm::ExchangeStatus::kPeerFailed) {
      res.fault = fault;
    } else {
      fault::FaultReport rep;
      rep.rank = fault.rank >= 0          ? fault.rank
                 : nranks_ == 2           ? 1 - rank()
                                          : -1;
      rep.superstep = s;
      rep.phase = phase_;
      rep.what = "exchange deadline exceeded: peer did not arrive within " +
                 std::to_string(cfg_.exchange_deadline_ms) + " ms";
      // A missed deadline says nothing definitive about the peer — it may be
      // wedged, slow, or dead. Classify transient so the ladder gives it a
      // bounded second chance before writing the rank off.
      rep.kind = fault::FaultKind::kTransient;
      peer_->data->poison(rank(), rep);
      peer_->control->poison(rank(), rep);
      res.fault = std::move(rep);
    }
    res.failed = true;
    return StepOutcome::kPeerFailed;
  }

  [[nodiscard]] std::chrono::milliseconds exchange_deadline() const noexcept {
    return std::chrono::milliseconds(cfg_.exchange_deadline_ms);
  }

  /// Snapshot values + active bitmap + frontier at the BSP boundary after
  /// superstep `s` completed (resume point s + 1). No messages are in
  /// flight here, so the snapshot is the device's complete state.
  void maybe_checkpoint(int s) {
    if (!ckpt_) return;
    if ((s + 1) % cfg_.checkpoint.interval != 0) return;
    phase_ = "checkpoint";
    PG_TRACE_SCOPE(kCheckpoint, s, rank());
    PG_FAULT_POINT(kCheckpointWrite, rank(), s);
    ckpt_->write(make_frame(s + 1));
  }

  /// A sealed frame of the engine's current state, resuming at
  /// `resume_superstep`.
  [[nodiscard]] fault::CheckpointFrame make_frame(int resume_superstep) const {
    static_assert(std::is_trivially_copyable_v<Value>,
                  "checkpointing snapshots vertex values bytewise");
    fault::CheckpointFrame f;
    f.superstep = resume_superstep;
    f.values.resize(values_.size() * sizeof(Value));
    if (!values_.empty())
      std::memcpy(f.values.data(), values_.data(), f.values.size());
    f.active = active_;
    f.seal();
    return f;
  }

  // Per-thread counters, cache-line separated. The CSB tallies its inserts
  // in `ins`; collect_counters() folds them into the superstep's counters.
  struct alignas(64) ThreadStats {
    metrics::SuperstepCounters c;
    buffer::InsertStats ins;
    std::uint64_t next_active = 0;
  };

  // ---- message sinks ---------------------------------------------------------

  /// send_messages() backend for the locking scheme: direct CSB insertion.
  struct LockingSink {
    DeviceEngine* e;
    ThreadStats* ts;
    void send(vid_t global_dst, const Msg& m) {
      if (e->is_local(global_dst)) {
        e->csb_->insert(e->local_id(global_dst), m, ts->ins);
      } else {
        e->deposit_remote(global_dst, m, *ts);
      }
    }
    void send_messages(vid_t dst, const Msg& m) { send(dst, m); }  // paper name
  };

  /// send_messages() backend for the pipelining scheme: workers enqueue;
  /// movers (elsewhere) perform the insertion.
  struct PipelineSink {
    DeviceEngine* e;
    ThreadStats* ts;
    int worker;
    void send(vid_t global_dst, const Msg& m) {
      if (e->is_local(global_dst)) {
        ts->c.queue_full_spins +=
            e->pipe_->push(worker, e->local_id(global_dst), m);
        ++ts->c.queue_pushes;
      } else {
        e->deposit_remote(global_dst, m, *ts);
      }
    }
    void send_messages(vid_t dst, const Msg& m) { send(dst, m); }
  };

  /// send_messages() backend for the OMP baseline: combine directly into a
  /// per-vertex accumulator under a per-vertex lock — the synchronization
  /// structure of the paper's "OpenMP directives on sequential code".
  struct OmpSink {
    DeviceEngine* e;
    ThreadStats* ts;
    void send(vid_t global_dst, const Msg& m) {
      const vid_t u = e->local_id(global_dst);
      e->vertex_locks_[u].lock();
      ++ts->ins.lock_acquisitions;
      if (e->has_acc_[u]) {
        e->acc_[u] = e->prog_.combine(e->acc_[u], m);
        ++ts->ins.conflicts;
      } else {
        e->acc_[u] = m;
        e->has_acc_[u] = 1;
        ++ts->ins.columns_allocated;
      }
      e->vertex_locks_[u].unlock();
      ++ts->ins.inserted;
      ++ts->c.scalar_msgs;  // reduction work happens inline, scalar
    }
    void send_messages(vid_t dst, const Msg& m) { send(dst, m); }
  };

  // ---- helpers -------------------------------------------------------------------

  [[nodiscard]] bool is_local(vid_t global) const noexcept {
    return !peer_ || (*lg_.owner_rank)[global] == lg_.rank;
  }
  [[nodiscard]] int owner_rank_of(vid_t global) const noexcept {
    return (*lg_.owner_rank)[global];
  }
  /// Without a peer the partition is the whole graph (checked at
  /// construction), so local ids are global ids and the sinks skip the
  /// per-message local_of lookup.
  [[nodiscard]] vid_t local_id(vid_t global) const noexcept {
    return peer_ ? (*lg_.local_of)[global] : global;
  }
  [[nodiscard]] vid_t global_of(vid_t local) const noexcept {
    return peer_ ? lg_.global_id[local] : local;
  }

  /// Pull state of a rank with peers: the in-edges of its owned vertices,
  /// transposed from the whole graph with global sources, and for every
  /// peer the owned vertices (global ids, ascending) with an out-neighbor
  /// there — the shares that peer's gathers read. The rank keeps its own
  /// contiguous rows rather than indexing the graph's shared transpose by
  /// global id, which scatters every gather over the whole graph's rows.
  void build_owned_in_edges() {
    const vid_t n = lg_.num_local_vertices();
    {
      std::vector<vid_t> row_of(lg_.global_num_vertices, kInvalidVertex);
      for (vid_t u = 0; u < n; ++u) row_of[lg_.global_id[u]] = u;
      in_edges_ = std::make_shared<const graph::Transpose>(
          graph::parallel_transpose(*peer_->graph, lg_.in_degree(), *team_,
                                    row_of));
    }
    boundary_.resize(static_cast<std::size_t>(nranks_));
    std::vector<vid_t> last(static_cast<std::size_t>(nranks_), kInvalidVertex);
    for (vid_t u = 0; u < n; ++u)
      for (const vid_t t : lg_.local().out_neighbors(u)) {
        const auto r = static_cast<std::size_t>(owner_rank_of(t));
        if (static_cast<int>(r) == rank() || last[r] == u) continue;
        last[r] = u;
        boundary_[r].push_back(lg_.global_id[u]);
      }
  }

  void deposit_remote(vid_t global_dst, const Msg& m, ThreadStats& ts) {
    const int dst_rank = owner_rank_of(global_dst);
    if (combine_enabled_) {
      remote_->deposit(global_dst, dst_rank, m,
                       [this](const Msg& a, const Msg& b) {
#if PG_AUDIT_ENABLED
                         // The audit build spot-checks a declared
                         // commutative combiner on the real message pairs it
                         // reduces: a lying kSum/kMin declaration would make
                         // results depend on arrival order.
                         if constexpr (combiner_claims_commutative<Program>()) {
                           const Msg ab = prog_.combine(a, b);
                           const Msg ba = prog_.combine(b, a);
                           PG_AUDIT_FMT(
                               std::memcmp(&ab, &ba, sizeof(Msg)) == 0,
                               "combiner-commutativity",
                               "program declares a %s combiner but "
                               "combine(a,b) != combine(b,a) on a real "
                               "message pair",
                               combiner_kind_name(combiner_kind<Program>()));
                           return ab;
                         }
#endif
                         return prog_.combine(a, b);
                       });
    } else {
      remote_->deposit_raw(global_dst, dst_rank, m);
    }
    ++ts.c.msgs_remote;
  }

  GraphView<Value> view(int superstep) {
    GraphView<Value> v;
    const graph::Csr& csr = lg_.local();
    v.vertices = csr.offsets();
    v.edges = csr.targets();
    v.edge_value = csr.edge_values();
    v.vertex_value = values_;
    v.in_degree = lg_.in_degree();
    v.global_id.map = peer_ ? lg_.global_id.data() : nullptr;
    v.superstep = superstep;
    return v;
  }

  void init_vertices() {
    const graph::Csr& csr = lg_.local();
    const std::span<const vid_t> in_degree = lg_.in_degree();
    const bool weighted = csr.has_edge_values();
    for (vid_t u = 0; u < csr.num_vertices(); ++u) {
      InitInfo info{in_degree[u], csr.out_degree(u), 0.f};
      if (weighted)
        for (float w : csr.out_edge_values(u)) info.out_weight += w;
      bool act = false;
      prog_.init_vertex(global_of(u), values_[u], act, info);
      active_[u] = act ? 1 : 0;
      if constexpr (!Program::kAllActive)
        if (act) frontier_.push_back(u);
    }
  }

  /// After the active/next-active swap: remember the frontier that just ran
  /// (its bits now live in next_active_ and must be cleared by the next
  /// prepare()), and assemble the next frontier from the per-thread buffers
  /// filled by update(). kAllActive programs never consult the frontier.
  void advance_frontier() {
    if constexpr (!Program::kAllActive) {
      prev_frontier_.swap(frontier_);
      frontier_.clear();
      for (auto& buf : tl_frontier_) {
        frontier_.insert(frontier_.end(), buf.begin(), buf.end());
        buf.clear();
      }
    }
  }

#if PG_AUDIT_ENABLED
  /// Post-superstep check (after the active/next-active swap and
  /// advance_frontier): the compact active list must mirror the active
  /// bitmap exactly — the sparse-frontier fast paths from the active-list
  /// work assume each vertex appears at most once and only with its bit set.
  void audit_validate_frontier() const {
    if constexpr (!Program::kAllActive) {
      std::vector<std::uint8_t> seen(active_.size(), 0);
      for (const vid_t u : frontier_) {
        PG_AUDIT_FMT(static_cast<std::size_t>(u) < active_.size(),
                     "frontier-bitmap-consistency",
                     "active list holds out-of-range vertex %u (%zu local "
                     "vertices)",
                     u, active_.size());
        PG_AUDIT_FMT(!seen[u], "frontier-bitmap-consistency",
                     "vertex %u appears twice in the active list", u);
        seen[u] = 1;
        PG_AUDIT_FMT(active_[u] == 1, "frontier-bitmap-consistency",
                     "vertex %u is on the active list but its bitmap bit is "
                     "clear",
                     u);
      }
      std::size_t bits = 0;
      for (const std::uint8_t b : active_) bits += b;
      PG_AUDIT_FMT(bits == frontier_.size(), "frontier-bitmap-consistency",
                   "active bitmap has %zu set bits but the active list holds "
                   "%zu vertices",
                   bits, frontier_.size());
    }
  }
#endif

  /// Sparse-frontier rule: walk the compact active list when it is small
  /// relative to the vertex count; scan the dense bitmap otherwise.
  [[nodiscard]] bool use_sparse_frontier() const noexcept {
    if constexpr (Program::kAllActive) return false;
    const double n = static_cast<double>(lg_.num_local_vertices());
    return static_cast<double>(frontier_.size()) <
           cfg_.sparse_iteration_threshold * n;
  }

  /// Pick this superstep's traversal direction. Engines that cannot pull
  /// (see pull_ready_) always push; all-active programs and kForcePull
  /// always pull. Otherwise kAuto feeds the frontier's vertex/edge mass and
  /// the unexplored-edge estimate into the alpha/beta policy. The
  /// explored-edge estimate accumulates the frontier's out-edge mass every
  /// superstep regardless of the chosen direction — exactly what
  /// sim::predict_direction_mix replays from a forced-push probe trace
  /// (where edges_scanned == frontier edge mass).
  [[nodiscard]] Direction decide_direction() {
    if (!pull_ready_) return Direction::kPush;
    if (Program::kAllActive ||
        cfg_.direction_mode == DirectionMode::kForcePull)
      return Direction::kPull;
    if constexpr (is_pullable<Program>() && !Program::kAllActive) {
      const graph::Csr& csr = lg_.local();
      std::uint64_t frontier_edges = 0;
      for (const vid_t u : frontier_) frontier_edges += csr.out_degree(u);
      const std::uint64_t m = csr.num_edges();
      const std::uint64_t cap =
          std::min(m, explored_edges_est_ + frontier_edges);
      const Direction d = dir_policy_.decide(
          frontier_.size(), frontier_edges, m - cap,
          static_cast<std::uint64_t>(lg_.num_local_vertices()));
      explored_edges_est_ = cap;
      return d;
    }
    return Direction::kPush;
  }

  // ---- phases -------------------------------------------------------------------

  void prepare() {
    // Cost proportional to last superstep's work, not graph size: reset only
    // the CSB groups dirtied by the previous generation/exchange and clear
    // only the next-active bits the previous update actually set (their
    // owners are exactly prev_frontier_; has_acc_ is cleared inline by
    // update()).
    const std::size_t dirty = csb_ ? csb_->num_dirty_groups() : 0;
    const std::size_t nverts =
        Program::kAllActive ? 0 : prev_frontier_.size();
    sched_.reset(dirty + nverts, cfg_.sched_chunk);
    team_->run([&](int) {
      while (auto r = sched_.next_chunk()) {
        for (std::size_t i = r->begin; i < r->end; ++i) {
          if (i < dirty) {
            csb_->reset_group(csb_->dirty_group(i));
          } else {
            next_active_[prev_frontier_[i - dirty]] = 0;
          }
        }
      }
    });
    if (csb_) csb_->clear_dirty();
  }

  void generate(int superstep) {
    const Direction dir = decide_direction();
    direction_flipped_ = dir != last_direction_;
    last_direction_ = dir;
    superstep_direction_ = dir;
    if (dir == Direction::kPull) {
      load_pull_operands();
      return;
    }
    const vid_t n = lg_.num_local_vertices();
    const bool sparse = use_sparse_frontier();
    superstep_sparse_ = sparse;
    superstep_frontier_size_ =
        Program::kAllActive ? static_cast<std::uint64_t>(n)
                            : static_cast<std::uint64_t>(frontier_.size());
    sched_.reset(sparse ? frontier_.size() : static_cast<std::size_t>(n),
                 cfg_.sched_chunk);
    auto v = view(superstep);
    const graph::Csr& csr = lg_.local();

    auto worker_body = [&](int tid, auto&& sink) {
      auto& ts = tstats_[static_cast<std::size_t>(tid)];
      while (auto r = sched_.next_chunk()) {
        for (std::size_t i = r->begin; i < r->end; ++i) {
          vid_t u;
          if (!Program::kAllActive && sparse) {
            u = frontier_[i];  // active by construction
          } else {
            u = static_cast<vid_t>(i);
            if (!Program::kAllActive && !active_[u]) continue;
          }
          ++ts.c.active_vertices;
          ts.c.edges_scanned += csr.out_degree(u);
          PG_AUDIT_PHASE_EXPECT(bsp_phase_, kGenerate, "generate_messages()");
          PG_FAULT_POINT(kEngineGenerate, rank(), superstep);
          prog_.generate_messages(u, v, sink);
        }
      }
    };

    switch (cfg_.mode) {
      case ExecMode::kLocking:
        team_->run([&](int tid) {
          LockingSink sink{this, &tstats_[static_cast<std::size_t>(tid)]};
          worker_body(tid, sink);
        });
        break;
      case ExecMode::kPipelining:
        pipe_->reset();
        team_->run([&](int tid) {
          auto& ts = tstats_[static_cast<std::size_t>(tid)];
          if (tid < cfg_.threads) {
            PipelineSink sink{this, &ts, tid};
            // A worker dying without worker_done() would spin the movers
            // forever inside this very team run — always signal completion,
            // then let run() surface the fault.
            try {
              worker_body(tid, sink);
            } catch (...) {
              pipe_->worker_done();
              throw;
            }
            pipe_->worker_done();
          } else {
            const int mover = tid - cfg_.threads;
            // The drain loop runs for the whole generate phase on this team
            // thread — the worker/mover overlap the pipelining scheme buys.
            PG_TRACE_SCOPE(kPipelineDrain, cur_superstep_, rank());
            try {
              pipe_->mover_loop(mover, [&](const pipeline::Envelope<Msg>& env) {
                PG_FAULT_POINT(kPipelineMoverInsert, rank(), cur_superstep_);
                csb_->insert_owned(env.dst, env.value, ts.ins);
              });
            } catch (...) {
              // A dead mover means workers block on its full queues; keep
              // draining (discarding — the run is aborting anyway) until the
              // workers finish, then surface the fault.
              pipe_->mover_loop(mover, [](const pipeline::Envelope<Msg>&) {});
              throw;
            }
          }
        });
        break;
      case ExecMode::kOmpStyle:
        team_->run([&](int tid) {
          OmpSink sink{this, &tstats_[static_cast<std::size_t>(tid)]};
          worker_body(tid, sink);
        });
        break;
    }
    tstats_[0].c.sched_retrievals += sched_.retrievals();
  }

  /// Bottom-up generation (paper-external: Beamer-style direction switch),
  /// first step: ready what the gather reads — the word-packed frontier
  /// bitmap of a traversal, and the pull_source operand of every owned
  /// vertex, filed under its global id. All-active programs have no
  /// frontier, and the bitmap is never built.
  void load_pull_operands() {
    if constexpr (is_pullable<Program>()) {
      const vid_t n = lg_.num_local_vertices();
      superstep_sparse_ = false;
      if constexpr (Program::kAllActive) {
        superstep_frontier_size_ = static_cast<std::uint64_t>(n);
      } else {
        superstep_frontier_size_ =
            static_cast<std::uint64_t>(frontier_.size());
        pull_frontier_.assign_bytes(active_.data(), active_.size());
        // Tail-word audit: when |V| is not a multiple of 64, the bits past
        // n in the bitmap's last word must be dead — a stale tail bit would
        // let the pull kernel treat a nonexistent vertex as frontier (and,
        // for the 64-lane batch programs, answer query lanes nobody
        // submitted).
        PG_AUDIT_FMT(pull_frontier_.tail_bits() == 0, "frontier-tail-word",
                     "pull frontier bitmap carries %llu stale tail bit(s) "
                     "past |V|=%u",
                     static_cast<unsigned long long>(
                         __builtin_popcountll(pull_frontier_.tail_bits())),
                     static_cast<unsigned>(n));
      }
      if constexpr (HasPullSource<Program>) {
        const graph::Csr& csr = lg_.local();
        sched_.reset(static_cast<std::size_t>(n), cfg_.sched_chunk);
        team_->run([&](int) {
          while (auto r = sched_.next_chunk())
            for (std::size_t i = r->begin; i < r->end; ++i) {
              const vid_t u = static_cast<vid_t>(i);
              pull_src_[global_of(u)] =
                  prog_.pull_source(values_[u], csr.out_degree(u));
            }
        });
        tstats_[0].c.sched_retrievals += sched_.retrievals();
      }
    } else {
      PG_CHECK_MSG(false, "pull superstep on a non-pullable program");
    }
  }

  /// Second step of a pull superstep: every vertex still lacking a result
  /// scans its in-neighbors (against the frontier bitmap, for traversals),
  /// feeding pull_message() results into a private accumulator slot — the
  /// owning thread is the only writer, so there are no locks, no CSB
  /// traffic and no queue traffic. process() naturally no-ops afterwards
  /// (no CSB group is dirtied) and update() drains the accumulator slots.
  void gather(int superstep) {
    const bool weighted = in_edges_->has_edge_values();
    sched_.reset(static_cast<std::size_t>(lg_.num_local_vertices()),
                 cfg_.sched_chunk);
    team_->run([&](int tid) {
      auto& ts = tstats_[static_cast<std::size_t>(tid)];
      PG_TRACE_SCOPE(kPullScan, superstep, rank());
      while (auto r = sched_.next_chunk()) {
        for (std::size_t i = r->begin; i < r->end; ++i)
          pull_vertex(static_cast<vid_t>(i), weighted, superstep, ts);
      }
    });
    tstats_[0].c.sched_retrievals += sched_.retrievals();
#if PG_TRACE_ENABLED
    std::uint64_t scanned = 0;
    for (const auto& t : tstats_) scanned += t.c.pull_edges_scanned;
    hist_pull_scan_.record(scanned);
#endif
  }

  /// The share swap of a pull superstep on a rank with peers: each peer
  /// gets the pull operands (shares) of the owned vertices with an
  /// out-neighbor on it, as (global id, share) envelopes over the data
  /// channel, and the received shares are filed under their global ids for
  /// the gather. Same fault point, deadline, poison handling and byte
  /// accounting as exchange_messages(). Returns false when a peer is down
  /// (RunResult filled via handle_peer_down); true on a completed swap.
  bool swap_shares(int superstep, RunResult& res) {
    PG_FAULT_POINT(kExchangeDeposit, rank(), superstep);
    if constexpr (pulls_with_peers<Program>()) {
      std::vector<Batch> outgoing(static_cast<std::size_t>(nranks_));
      for (int r = 0; r < nranks_; ++r) {
        const auto& ids = boundary_[static_cast<std::size_t>(r)];
        Batch& out = outgoing[static_cast<std::size_t>(r)];
        out.resize(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i)
          out[i] = {ids[i], pull_src_[ids[i]]};
      }
      return exchange_batches(std::move(outgoing), superstep, res,
                              [this](const Batch& in) {
                                for (const auto& env : in)
                                  pull_src_[env.dst] = env.value;
                              });
    } else {
      (void)res;
      PG_CHECK_MSG(false, "share swap on a program ranks cannot pull");
      return false;
    }
  }

  /// One candidate's bottom-up scan. Non-reducing programs (BFS: every
  /// frontier neighbor offers the same level) stop at the first frontier
  /// in-neighbor; reducing programs (SSSP/CC: exact min-combine, order-
  /// independent) fold every frontier in-neighbor, vectorized when the
  /// program supplies pull_message_vec and the profile enables SIMD.
  /// All-active programs (PageRank) fold every in-neighbor as a scalar
  /// left fold in ascending global source order, the reference's order.
  void pull_vertex(vid_t u, bool weighted, int superstep, ThreadStats& ts) {
    (void)superstep;  // only consumed by the audit/fault macros
    if constexpr (is_pullable<Program>()) {
      if constexpr (HasPullCandidate<Program>) {
        if (!prog_.pull_candidate(values_[u])) return;
      }
      const eid_t lo = in_edges_->offsets()[u];
      const eid_t hi = in_edges_->offsets()[u + 1];
      if (lo == hi) return;
      PG_AUDIT_PHASE_EXPECT(bsp_phase_, kGenerate, "pull_message()");
      PG_FAULT_POINT(kEngineGenerate, rank(), superstep);
      if constexpr (!Program::kAllActive && Program::kNeedsReduction &&
                    Program::kSimdReduce && simd::is_simd_basic_v<Msg> &&
                    std::is_same_v<Msg, Value>) {
        if constexpr (HasVecPullMessage<Program, simd::Vec<Msg, 8>,
                                        simd::Vec<float, 8>>) {
          if (cfg_.use_simd && lanes_ > 1) {
            switch (lanes_) {
              case 4:  pull_vertex_vec<4>(u, lo, hi, weighted, ts);  return;
              case 8:  pull_vertex_vec<8>(u, lo, hi, weighted, ts);  return;
              case 16: pull_vertex_vec<16>(u, lo, hi, weighted, ts); return;
              default: break;  // unusual profile: scalar below
            }
          }
        }
      }
      pull_vertex_scalar(u, lo, hi, weighted, ts);
    }
  }

  /// The operand pull_message reads for in-neighbor src: the per-superstep
  /// pull_source array when the program has one, else src's value.
  [[nodiscard]] const Value& pull_operand(vid_t src) const noexcept {
    if constexpr (HasPullSource<Program>)
      return pull_src_[src];
    else
      return values_[src];
  }

  void pull_vertex_scalar(vid_t u, eid_t lo, eid_t hi, bool weighted,
                          ThreadStats& ts) {
    if constexpr (is_pullable<Program>()) {
      const vid_t* srcs = in_edges_->sources().data();
      const float* wv = weighted ? in_edges_->edge_values().data() : nullptr;
      Msg acc{};
      bool found = false;
      std::uint64_t scanned = 0;
      for (eid_t e = lo; e < hi; ++e) {
        ++scanned;
        const vid_t src = srcs[e];
        if constexpr (!Program::kAllActive)
          if (!pull_frontier_.test(src)) continue;
        const Msg m =
            prog_.pull_message(pull_operand(src), wv ? wv[e] : 0.0f);
        if (found)
          acc = prog_.combine(acc, m);
        else {
          acc = m;
          found = true;
        }
        if constexpr (!Program::kNeedsReduction) {
          // Any frontier parent yields the same result — stop scanning.
          if (e + 1 < hi) ++ts.c.pull_early_exits;
          break;
        }
      }
      ts.c.pull_edges_scanned += scanned;
      if (found) {
        acc_[u] = acc;
        has_acc_[u] = 1;
      }
    }
  }

  /// Lane-parallel pull scan: gather W in-neighbor values + edge weights,
  /// build the frontier mask from the bitmap, evaluate pull_message_vec on
  /// all lanes and blend non-frontier lanes to the reduction identity
  /// (neutral by the kSimdReduce contract — the same padding trick the CSB
  /// process path uses), then fold through the program's own SIMD
  /// process_messages.
  template <int W>
  void pull_vertex_vec(vid_t u, eid_t lo, eid_t hi, bool weighted,
                       ThreadStats& ts) {
    if constexpr (is_pullable<Program>() && !Program::kAllActive &&
                  Program::kNeedsReduction && Program::kSimdReduce &&
                  simd::is_simd_basic_v<Msg> && std::is_same_v<Msg, Value>) {
      using V = simd::Vec<Msg, W>;
      using VF = simd::Vec<float, W>;
      const vid_t* srcs = in_edges_->sources().data();
      const float* wv = weighted ? in_edges_->edge_values().data() : nullptr;
      const Msg ident = prog_.identity();
      V vacc(ident);
      bool found = false;
      eid_t e = lo;
      for (; e + W <= hi; e += W) {
        typename simd::Mask<W>::bits_type bits = 0;
        V vsrc;
        VF vweights;
        for (int l = 0; l < W; ++l) {
          const vid_t src = srcs[e + static_cast<eid_t>(l)];
          vsrc[l] = values_[src];
          vweights[l] = wv ? wv[e + static_cast<eid_t>(l)] : 0.0f;
          if (pull_frontier_.test(src))
            bits |= typename simd::Mask<W>::bits_type{1} << l;
        }
        if (bits == 0) continue;
        found = true;
        const V vm = prog_.pull_message_vec(vsrc, vweights);
        V folded[2] = {vacc, simd::blend(simd::Mask<W>(bits), vm, V(ident))};
        buffer::VMsgArray<V> varr(folded, 2);
        prog_.process_messages(varr);
        vacc = folded[0];
      }
      // Horizontal fold + scalar tail.
      Msg acc = vacc[0];
      for (int l = 1; l < W; ++l) acc = prog_.combine(acc, vacc[l]);
      for (; e < hi; ++e) {
        const vid_t src = srcs[e];
        if (!pull_frontier_.test(src)) continue;
        found = true;
        acc = prog_.combine(acc,
                            prog_.pull_message(values_[src], wv ? wv[e] : 0.0f));
      }
      ts.c.pull_edges_scanned += hi - lo;
      if (found) {
        acc_[u] = acc;
        has_acc_[u] = 1;
      }
    }
  }

  /// One round of the data channel, shared by the push exchange and the
  /// pull share swap: ship one batch per peer, account the wire bytes (per
  /// peer into the RankIo totals and into this superstep's bytes_sent /
  /// bytes_received), and hand each received batch to `on_batch`. Returns
  /// false when a peer is down (RunResult filled via handle_peer_down).
  template <typename OnBatch>
  bool exchange_batches(std::vector<Batch> outgoing, int superstep,
                        RunResult& res, OnBatch&& on_batch) {
    constexpr std::uint64_t kEnvelope = sizeof(pipeline::Envelope<Msg>);
    for (int r = 0; r < nranks_; ++r) {
      const std::uint64_t b =
          outgoing[static_cast<std::size_t>(r)].size() * kEnvelope;
      tstats_[0].c.bytes_sent += b;
      bytes_to_[static_cast<std::size_t>(r)] += b;
    }
    auto ex = peer_->data->exchange_for(rank(), std::move(outgoing),
                                        exchange_deadline());
    if (ex.status != comm::ExchangeStatus::kOk) {
      handle_peer_down(ex.status, ex.fault, superstep, res);
      return false;
    }
    for (int src = 0; src < nranks_; ++src) {
      if (src == rank()) continue;
      Batch& in = ex.values[static_cast<std::size_t>(src)];
      const std::uint64_t b = in.size() * kEnvelope;
      tstats_[0].c.bytes_received += b;
      bytes_from_[static_cast<std::size_t>(src)] += b;
      on_batch(in);
    }
    return true;
  }

  /// Returns false when a peer is down (RunResult filled via
  /// handle_peer_down); true on a completed exchange.
  bool exchange_messages(int superstep, RunResult& res) {
    PG_FAULT_POINT(kExchangeDeposit, rank(), superstep);
    // Serialize the buffered remote messages in parallel: shard sizes are
    // known up front, so each shard drains into its own slice of its
    // destination rank's batch. Destination rank r owns the contiguous
    // shard range [r * spr, (r + 1) * spr), so the per-peer batches fall
    // out of the global shard order with no extra routing pass.
    const std::size_t nshards = remote_->num_shards();
    const std::size_t spr = remote_->shards_per_rank();
    std::vector<std::size_t> offset(nshards + 1, 0);
    for (std::size_t s = 0; s < nshards; ++s)
      offset[s + 1] = offset[s] + remote_->shard_touched_count(s);
    std::vector<Batch> outgoing(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
      const std::size_t lo = static_cast<std::size_t>(r) * spr;
      outgoing[static_cast<std::size_t>(r)].resize(offset[lo + spr] -
                                                   offset[lo]);
    }
    sched_.reset(nshards, 1);
    team_->run([&](int) {
      while (auto r = sched_.next_chunk()) {
        for (std::size_t s = r->begin; s < r->end; ++s) {
          const std::size_t dst_rank = s / spr;
          Batch& out = outgoing[dst_rank];
          std::size_t i = offset[s] - offset[dst_rank * spr];
          remote_->drain_shard(s, [&](vid_t dst, const Msg& m) {
            out[i++] = {dst, m};
          });
        }
      }
    });
    return exchange_batches(std::move(outgoing), superstep, res,
                            [this](Batch& in) { insert_incoming(in); });
  }

  /// Insert one source rank's batch into the local CSB (an engine with peers
  /// never runs the OMP baseline). When send-side combining is off but the
  /// program does declare a combiner, the batch is first pre-combined per
  /// destination — sequentially, folding in arrival order, which reproduces
  /// the sender's combine exactly — so a combined and an uncombined run
  /// insert identical message sets and differ only in wire bytes /
  /// received-message counts.
  void insert_incoming(Batch& incoming) {
    tstats_[0].c.msgs_received += incoming.size();
    if (!combine_enabled_ && combiner_kind<Program>() != CombinerKind::kNone)
      precombine(incoming);

    sched_.reset(incoming.size(), cfg_.sched_chunk);
    team_->run([&](int tid) {
      auto& ts = tstats_[static_cast<std::size_t>(tid)];
      while (auto r = sched_.next_chunk()) {
        for (std::size_t i = r->begin; i < r->end; ++i) {
          const auto& env = incoming[i];
          buffer::InsertStats dummy;
          csb_->insert(local_id(env.dst), env.value, dummy);
          ts.ins.conflicts += dummy.conflicts;
          ts.ins.columns_allocated += dummy.columns_allocated;
          ts.ins.lock_acquisitions += dummy.lock_acquisitions;
        }
      }
    });
  }

  /// Reduce a raw (uncombined) batch per destination in place. Destination
  /// order is first-touch order and each destination folds left in arrival
  /// order — with a single sending thread this is byte-for-byte the batch
  /// the sender-side combiner would have produced.
  void precombine(Batch& b) {
    std::unordered_map<vid_t, std::size_t> at;
    at.reserve(b.size());
    std::size_t n = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      auto [it, fresh] = at.emplace(b[i].dst, n);
      if (fresh)
        b[n++] = b[i];
      else
        b[it->second].value = prog_.combine(b[it->second].value, b[i].value);
    }
    b.resize(n);
  }

  void process(int superstep) {
    (void)superstep;
    // Only groups that received messages this superstep hold work.
    const std::size_t tasks = csb_->num_dirty_array_tasks();
    sched_.reset(tasks, cfg_.sched_chunk);
    team_->run([&](int tid) {
      auto& ts = tstats_[static_cast<std::size_t>(tid)];
      while (auto r = sched_.next_chunk()) {
        for (std::size_t t = r->begin; t < r->end; ++t) {
          const std::size_t g =
              csb_->dirty_group(t / static_cast<std::size_t>(cfg_.csb_k));
          const int a = static_cast<int>(t % static_cast<std::size_t>(cfg_.csb_k));
          process_array(g, a, ts);
        }
      }
    });
    tstats_[0].c.sched_retrievals += sched_.retrievals();
  }

  void process_array(std::size_t g, int a, ThreadStats& ts) {
    const int cols = csb_->array_cols(g, a);
    if (cols == 0) return;
    const std::uint32_t rows = csb_->array_rows(g, a);
    if (rows <= 1) return;  // 0 or 1 message per column: nothing to reduce

    if (cfg_.use_simd && lanes_ > 1) {
      if constexpr (simd::is_simd_basic_v<Msg>) {
        ts.c.padded_cells += csb_->pad_array(g, a, rows, prog_.identity());
        switch (lanes_) {
          case 4:  vec_reduce<4>(g, a, rows, ts);  return;
          case 8:  vec_reduce<8>(g, a, rows, ts);  return;
          case 16: vec_reduce<16>(g, a, rows, ts); return;
          default: break;  // unusual profile: fall through to scalar
        }
      }
    }
    scalar_reduce(g, a, cols, ts);
  }

  template <int W>
  void vec_reduce(std::size_t g, int a, std::uint32_t rows, ThreadStats& ts) {
    using V = simd::Vec<Msg, W>;
    auto* base = reinterpret_cast<V*>(csb_->array_base(g, a));
    buffer::VMsgArray<V> vmsgs(base, rows);
    PG_AUDIT_PHASE_EXPECT(bsp_phase_, kProcess, "process_messages()");
    PG_FAULT_POINT(kEngineProcess, rank(), cur_superstep_);
    prog_.process_messages(vmsgs);
    ts.c.vector_rows += rows;
  }

  void scalar_reduce(std::size_t g, int a, int cols, ThreadStats& ts) {
    PG_AUDIT_PHASE_EXPECT(bsp_phase_, kProcess,
                          "combine() (scalar message reduction)");
    PG_FAULT_POINT(kEngineProcess, rank(), cur_superstep_);
    for (int c = 0; c < cols; ++c) {
      const vid_t col = static_cast<vid_t>(a * lanes_ + c);
      const std::uint32_t cnt = csb_->column_count(g, col);
      if (cnt <= 1) continue;
      Msg res = csb_->cell(g, col, 0);
      for (std::uint32_t rrow = 1; rrow < cnt; ++rrow)
        res = prog_.combine(res, csb_->cell(g, col, rrow));
      csb_->cell(g, col, 0) = res;
      ts.c.scalar_msgs += cnt;
    }
  }

  /// Flag u for the next superstep: set its bit and append it to the
  /// calling thread's next-frontier buffer (each receiver is visited at most
  /// once per update phase, so no duplicates arise).
  void activate(vid_t u, int tid, ThreadStats& ts) {
    next_active_[u] = 1;
    ++ts.next_active;
    if constexpr (!Program::kAllActive)
      tl_frontier_[static_cast<std::size_t>(tid)].push_back(u);
  }

  void update(int superstep) {
    auto v = view(superstep);
    if (superstep_direction_ == Direction::kPull ||
        cfg_.mode == ExecMode::kOmpStyle) {
      // Pull results and the OMP baseline's pushes sit in the per-vertex
      // accumulator slots, not the CSB: scan all n, skip slots without a
      // result, and clear each flag here so prepare() need not scan all n.
      const vid_t n = lg_.num_local_vertices();
      sched_.reset(n, cfg_.sched_chunk);
      team_->run([&](int tid) {
        auto& ts = tstats_[static_cast<std::size_t>(tid)];
        while (auto r = sched_.next_chunk()) {
          for (std::size_t i = r->begin; i < r->end; ++i) {
            const vid_t u = static_cast<vid_t>(i);
            if (!has_acc_[u]) continue;
            has_acc_[u] = 0;
            ++ts.c.verts_updated;
            PG_AUDIT_PHASE_EXPECT(bsp_phase_, kUpdate, "update_vertex()");
            PG_FAULT_POINT(kEngineUpdate, rank(), superstep);
            if (prog_.update_vertex(acc_[u], v, u)) activate(u, tid, ts);
          }
        }
      });
    } else {
      const std::size_t tasks = csb_->num_dirty_array_tasks();
      sched_.reset(tasks, cfg_.sched_chunk);
      team_->run([&](int tid) {
        auto& ts = tstats_[static_cast<std::size_t>(tid)];
        while (auto r = sched_.next_chunk()) {
          for (std::size_t t = r->begin; t < r->end; ++t) {
            const std::size_t g =
                csb_->dirty_group(t / static_cast<std::size_t>(cfg_.csb_k));
            const int a = static_cast<int>(t % static_cast<std::size_t>(cfg_.csb_k));
            const int cols = csb_->array_cols(g, a);
            for (int c = 0; c < cols; ++c) {
              const vid_t col = static_cast<vid_t>(a * lanes_ + c);
              if (csb_->column_count(g, col) == 0) continue;
              const vid_t u = csb_->column_vertex(g, col);
              PG_DCHECK(u != kInvalidVertex);
              ++ts.c.verts_updated;
              PG_AUDIT_PHASE_EXPECT(bsp_phase_, kUpdate, "update_vertex()");
              PG_FAULT_POINT(kEngineUpdate, rank(), superstep);
              if (prog_.update_vertex(csb_->cell(g, col, 0), v, u))
                activate(u, tid, ts);
            }
          }
        }
      });
    }
    tstats_[0].c.sched_retrievals += sched_.retrievals();
  }

  metrics::SuperstepCounters collect_counters(int superstep) const {
    metrics::SuperstepCounters c;
    for (const auto& t : tstats_) {
      c += t.c;
      c.msgs_local += t.ins.inserted;
      c.columns_allocated += t.ins.columns_allocated;
      c.column_conflicts += t.ins.conflicts;
      c.lock_acquisitions += t.ins.lock_acquisitions;
    }
    c.superstep = static_cast<std::uint64_t>(superstep);
    c.frontier_size = superstep_frontier_size_;
    const bool pulled = superstep_direction_ == Direction::kPull;
    c.push_supersteps = pulled ? 0 : 1;
    c.pull_supersteps = pulled ? 1 : 0;
    c.direction_flips = direction_flipped_ ? 1 : 0;
    if (pulled) {
      // No push worker ran, so active_vertices stayed zero; the frontier that
      // drove the pull is the active set. Dense/sparse classify only push
      // iteration shapes: a pull superstep is neither.
      c.active_vertices = superstep_frontier_size_;
      c.dense_supersteps = 0;
      c.sparse_supersteps = 0;
    } else {
      c.dense_supersteps = superstep_sparse_ ? 0 : 1;
      c.sparse_supersteps = superstep_sparse_ ? 1 : 0;
    }
    if (csb_) {
      c.groups_dirty = csb_->num_dirty_groups();
      c.groups_skipped = csb_->num_groups() - c.groups_dirty;
    }
    return c;
  }

  LocalGraph lg_;
  Program prog_;
  EngineConfig cfg_;
  std::optional<PeerLink> peer_;
  int lanes_;
  int nranks_;
  bool combine_enabled_;
  // Per-peer exchange traffic, accumulated across the run (see RankIo).
  std::vector<std::uint64_t> bytes_to_;
  std::vector<std::uint64_t> bytes_from_;

  std::vector<Value> values_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> next_active_;

  // Compact active lists mirroring the bitmaps (unused for kAllActive
  // programs): frontier_ holds the vertices whose bits are set in active_;
  // prev_frontier_ holds the bits still set in next_active_ (cleared by the
  // next prepare()); tl_frontier_ are per-thread append buffers merged by
  // advance_frontier() after each update phase.
  std::vector<vid_t> frontier_;
  std::vector<vid_t> prev_frontier_;
  std::vector<std::vector<vid_t>> tl_frontier_;
  std::uint64_t superstep_frontier_size_ = 0;
  bool superstep_sparse_ = false;

  // Direction-optimizing pull state (engaged only when pull_ready_): the
  // in-edges of the owned vertices (sources as global ids; the graph's
  // shared transpose on a single device, the rank's own rows with peers),
  // the word-packed frontier bitmap rebuilt from active_ each pull superstep
  // (not for all-active programs), the pull_source operands indexed by
  // global id (programs that declare one; a rank with peers fills the remote
  // entries its gathers read from the share swap, whose per-peer send lists
  // are boundary_). The pull kernel writes its results, owner-thread-only,
  // into the accumulator slots below. The policy/estimate pair drives the
  // kAuto decision.
  bool pull_ready_ = false;
  std::shared_ptr<const graph::Transpose> in_edges_;
  simd::DenseBitset pull_frontier_;
  std::vector<Value> pull_src_;
  std::vector<std::vector<vid_t>> boundary_;
  DirectionPolicy dir_policy_;
  Direction superstep_direction_ = Direction::kPush;
  Direction last_direction_ = Direction::kPush;
  bool direction_flipped_ = false;
  std::uint64_t explored_edges_est_ = 0;

  std::optional<buffer::Csb<Msg>> csb_;
  std::optional<comm::RemoteBuffer<Msg>> remote_;
  std::optional<pipeline::MessagePipeline<Msg>> pipe_;
  std::optional<sched::ThreadTeam> team_;
  sched::DynamicScheduler sched_;

  // Per-vertex accumulator slots (engines that can pull, or push in OMP
  // mode): a pull superstep's results, or the OMP baseline's combined
  // messages, drained and cleared by update(). A superstep runs in one
  // direction, so one pair serves both. The locks guard OMP-mode combines.
  std::vector<Msg> acc_;
  std::vector<std::uint8_t> has_acc_;
  std::unique_ptr<sched::SpinLock[]> vertex_locks_;

  std::vector<ThreadStats> tstats_;

  // Fault tolerance: optional checkpoint store (engaged when
  // cfg_.checkpoint.enabled()), the superstep run() resumes at after
  // restore(), and bookkeeping for FaultReports — the superstep and BSP
  // phase currently executing, read when an exception or fault-injection
  // point tears the run down.
#if PG_TRACE_ENABLED
  // Shape statistics (trace builds only); see the accessors next to run().
  metrics::Histogram hist_chunk_;
  metrics::Histogram hist_drain_;
  metrics::Histogram hist_col_depth_;
  metrics::Histogram hist_pull_scan_;
#endif

  std::optional<fault::CheckpointStore> ckpt_;
  int start_superstep_ = 0;
  int cur_superstep_ = -1;
  const char* phase_ = "idle";

#if PG_AUDIT_ENABLED
  // Checked build only: asserts the prepare -> generate -> [exchange] ->
  // [process] -> update superstep order and guards every user-callback site.
  audit::PhaseMachine bsp_phase_;
#endif
};

}  // namespace phigraph::core
