// Multi-rank symmetric execution (paper §IV-A/E, generalized to N ranks).
//
// Symmetric DeviceEngine instances — "Symmetric runtime instances on the
// CPU and the Xeon Phi share the same source code and thus the same
// structure, though parameters such as numbers of threads running on each
// device are separately configured" — wired by an all-to-all data exchange
// and a termination-control exchange, rank 0 running on the calling thread
// and every other rank on its own host thread. The paper's CPU+MIC
// configuration is the two-rank case (CPU = rank 0, MIC = rank 1). A 1-rank
// cluster is one DeviceEngine over the whole graph with no peer link: it
// runs, pulls, counts and fails exactly like that engine.
//
// Fault tolerance (DESIGN.md §6/§12): DeviceEngine::run() never throws, and
// the spawned rank threads are std::jthreads, joined on every exit path.
// When any rank faults, run() walks a graceful-degradation recovery ladder
// instead of collapsing straight to one device. Every rung resumes through
// one move, reseat(): the newest checkpoint frame that CRC-validates on ALL
// ranks of the failed set is scattered through global vertex ids onto a
// rank set, or the run restarts from superstep 0 when there is none.
//
//   rung 1 — transient respawn: for a fault classified kTransient (timeouts,
//     fault::TransientError, injected transient specs), rebuild the failed
//     rank's engine, reseat the cluster onto itself (survivors restore in
//     place), advance the channels' recovery epoch, and resume all N ranks.
//     Bounded by fault::RetryPolicy (max attempts, exponential backoff).
//   rung 2 — survivor repartition: for a permanent fault (or an exhausted
//     retry budget) with a known culprit and at least two survivors, deal
//     the dead rank's vertices over the N-1 survivors (reweighted by their
//     thread budgets), reseat onto that rank set, and finish on N-1 ranks.
//   rung 3 — single-device rerun: reseat onto a one-rank set (one engine
//     over the whole graph, the combined thread budget) and finish there.
//
// The outcome — origin FaultReport, attempts, epochs, deepest rung, lost
// supersteps, per-epoch recovery wall time — is reported in
// Result::failover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/comm/exchange.hpp"
#include "src/common/audit.hpp"
#include "src/common/timer.hpp"
#include "src/core/engine.hpp"
#include "src/core/local_graph.hpp"
#include "src/fault/checkpoint.hpp"
#include "src/fault/fault.hpp"
#include "src/metrics/counters.hpp"
#include "src/partition/partition.hpp"

namespace phigraph::core {

/// N symmetric runtime instances over one graph: rank r owns the vertices
/// with owner_rank[v] == r and runs under its own EngineConfig (the rank
/// count is cfgs.size()). nranks == 2 is exactly the paper's CPU+MIC
/// configuration; nranks == 1 is a single device: one engine over the whole
/// graph, no peer link, values gathered by a plain copy.
template <VertexProgram Program>
class ClusterEngine {
 public:
  using Msg = typename Program::message_t;
  using Value = typename Program::vertex_value_t;
  using Engine = DeviceEngine<Program>;

  struct Result {
    std::vector<RunResult> ranks;      // per-rank traces, indexed by rank
    std::vector<Value> global_values;  // gathered over every rank

    // Fault-tolerance outcome. On a fault-free run: completed == true,
    // failover all-zero, fault invalid, recovery empty. After a rank fault:
    // `fault` is the origin report (the FIRST fault of the run),
    // `failover` records the ladder walk; `recovery_ranks` holds the
    // survivors' traces when rung 2 finished the run, `recovery` the
    // CPU-only rerun's trace when rung 3 did. After a successful rung-1
    // respawn, `ranks` holds the final (resumed) traces of all N ranks.
    // completed is false only if every rung failed.
    bool completed = true;
    fault::FaultReport fault;
    RunResult recovery;
    std::vector<RunResult> recovery_ranks;
    metrics::FailoverStats failover;
  };

  /// owner_rank[v] in [0, cfgs.size()) assigns each global vertex to a rank
  /// (from src/partition).
  ClusterEngine(const graph::Csr& g, std::vector<int> owner_rank, Program prog,
                std::vector<EngineConfig> cfgs)
      : graph_(&g),
        prog_(prog),
        nranks_(static_cast<int>(cfgs.size())),
        recovery_cfg_(cfgs.empty() ? EngineConfig{} : cfgs.front()),
        retry_(cfgs.empty() ? fault::RetryPolicy{} : cfgs.front().retry),
        cluster_(std::move(owner_rank), std::move(cfgs)) {
    const std::vector<EngineConfig>& rank_cfgs = cluster_.cfgs;
    PG_CHECK_MSG(!rank_cfgs.empty(), "ClusterEngine needs at least one rank");
    const auto pushes = [](const EngineConfig& c) {
      return c.direction_mode == DirectionMode::kForcePush;
    };
    for (const EngineConfig& c : rank_cfgs) {
      PG_CHECK_MSG(
          c.checkpoint.interval == rank_cfgs.front().checkpoint.interval,
          "all ranks must checkpoint at the same interval so their frames "
          "land on the same superstep boundaries");
      // A pulling rank swaps shares over the data channel on which a
      // pushing rank ships messages; each would misfile the other's batch.
      PG_CHECK_MSG(!pulls_with_peers<Program>() ||
                       pushes(c) == pushes(rank_cfgs.front()),
                   "ranks must agree on whether they pull: give every rank "
                   "direction_mode kForcePush, or none");
    }
    // The recovery engine runs single-device after the fault; it must not
    // trip armed fault-injection specs at checkpoint.write or overwrite the
    // frames being recovered from.
    recovery_cfg_.checkpoint = {};
    // Size the rerun's team from the whole cluster's thread budget — the
    // dead cluster's full allotment is free, so the single-device fallback
    // should use the whole machine, not rank 0's slice of it.
    {
      int combined = 0;
      for (const EngineConfig& c : rank_cfgs) combined += c.total_threads();
      recovery_cfg_.threads =
          recovery_cfg_.mode == ExecMode::kPipelining
              ? std::max(1, combined - recovery_cfg_.movers)
              : std::max(1, combined);
    }
    build(cluster_);
  }

  /// No explicit owner map: vertices are dealt round-robin, each rank
  /// weighted by its thread budget (the same weighting the recovery
  /// ladder's survivor repartition uses). With one config this is a
  /// single-device run.
  ClusterEngine(const graph::Csr& g, Program prog,
                const std::vector<EngineConfig>& cfgs)
      : ClusterEngine(g, budget_owner(g, cfgs), std::move(prog), cfgs) {}

  Result run() {
    Result res;
    int backoff_ms = retry_.backoff_ms;
    for (;;) {
      res.ranks = run_ranks(cluster_);
      fault::FaultReport epoch_fault;
      if (!collect_failure(res.ranks, epoch_fault)) {
        finish_full_cluster(res);
        return res;
      }
      // The origin report of the whole run is the FIRST epoch's fault;
      // later epochs update only the ladder statistics.
      if (!res.fault.valid()) res.fault = epoch_fault;
      res.failover.failed_over = 1;
      // Rung 1: bounded transient respawn with exponential backoff.
      if (epoch_fault.kind == fault::FaultKind::kTransient &&
          static_cast<int>(res.failover.attempts) < retry_.max_attempts) {
        if (backoff_ms > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(
            retry_.max_backoff_ms,
            std::max(backoff_ms + 1,
                     static_cast<int>(static_cast<double>(backoff_ms) *
                                      retry_.backoff_factor)));
        ++res.failover.attempts;
        if (try_respawn(epoch_fault, res)) continue;
        // Respawn itself failed (e.g. a fault point fired while restoring):
        // fall through the remaining rungs.
      }
      // Rung 2: repartition over the survivors. Finalizes res on its own
      // (including the rung-3 fallback from *its* checkpoints if the
      // survivor run faults again); returns false only when repartitioning
      // is impossible here.
      if (try_repartition(res, epoch_fault)) return res;
      // Rung 3: the single-device rerun, reseated from the old rank set.
      fail_over(res, epoch_fault, cluster_.engines);
      return res;
    }
  }

  [[nodiscard]] int num_ranks() const noexcept { return nranks_; }
  [[nodiscard]] const Engine& engine(int r) const {
    PG_CHECK(r >= 0 && r < nranks_);
    return *cluster_.engines[static_cast<std::size_t>(r)];
  }

  /// The effective config of the rung-3 single-device recovery engine
  /// (checkpointing stripped, team sized from the combined rank budgets).
  [[nodiscard]] const EngineConfig& recovery_config() const noexcept {
    return recovery_cfg_;
  }

 private:
  using Engines = std::vector<std::unique_ptr<Engine>>;

  static std::vector<int> budget_owner(const graph::Csr& g,
                                       const std::vector<EngineConfig>& cfgs) {
    PG_CHECK_MSG(!cfgs.empty(), "ClusterEngine needs at least one rank");
    partition::RankWeights w;
    w.reserve(cfgs.size());
    for (const EngineConfig& c : cfgs) w.push_back(c.total_threads());
    return partition::round_robin_partition_k(g, w);
  }

  /// A set of ranks over the graph: its partition, each rank's config, the
  /// channels that wire the ranks together, and their engines. The full
  /// cluster is one; the survivors of a rung-2 repartition and rung 3's
  /// single device are others.
  struct RankSet {
    RankSet(std::vector<int> owner_rank, std::vector<EngineConfig> configs)
        : owner(std::move(owner_rank)),
          cfgs(std::move(configs)),
          data(static_cast<int>(cfgs.size())),
          control(static_cast<int>(cfgs.size())) {}

    std::vector<int> owner;
    std::vector<EngineConfig> cfgs;
    comm::AllToAll<typename Engine::Batch> data;
    comm::AllToAll<std::uint64_t> control;
    Engines engines;
  };

  /// Build every engine of `rs` from its partition, or only rank `only`'s
  /// (the others keep theirs); each joins rs's channels. A lone rank is one
  /// device: the whole graph, no peer link.
  void build(RankSet& rs, int only = -1) const {
    const int n = static_cast<int>(rs.cfgs.size());
    rs.engines.resize(static_cast<std::size_t>(n));
    if (n == 1) {
      rs.engines[0] = std::make_unique<Engine>(LocalGraph::whole(*graph_),
                                               prog_, rs.cfgs[0]);
      return;
    }
    auto parts = LocalGraph::split_n(*graph_, rs.owner, n);
    for (int r = 0; r < n; ++r) {
      if (only >= 0 && r != only) continue;
      const auto i = static_cast<std::size_t>(r);
      rs.engines[i] = std::make_unique<Engine>(
          std::move(parts[i]), prog_, rs.cfgs[i],
          typename Engine::PeerLink{r, &rs.data, &rs.control, graph_});
    }
  }

  /// One BSP epoch over a rank set: rank 0 on the calling thread, every
  /// other rank on its own host thread, joined when `threads` goes out of
  /// scope.
  static std::vector<RunResult> run_ranks(const RankSet& rs) {
    const Engines& engines = rs.engines;
    std::vector<RunResult> out(engines.size());
    {
      std::vector<std::jthread> threads;
      threads.reserve(engines.size() - 1);
      for (std::size_t r = 1; r < engines.size(); ++r)
        threads.emplace_back(
            [&out, &engines, r] { out[r] = engines[r]->run(); });
      out[0] = engines[0]->run();
    }
    return out;
  }

  /// True if any rank failed; fills `out` with this epoch's origin report:
  /// the first failed rank carrying a valid fault (a rank that observed a
  /// peer failure carries the origin's report, so any valid one names the
  /// true culprit), falling back to the first failure.
  static bool collect_failure(const std::vector<RunResult>& ranks,
                              fault::FaultReport& out) {
    bool failed = false;
    for (const RunResult& r : ranks) failed = failed || r.failed;
    if (!failed) return false;
    for (const RunResult& r : ranks)
      if (r.failed && r.fault.valid()) {
        out = r.fault;
        return true;
      }
    for (const RunResult& r : ranks)
      if (r.failed) {
        out = r.fault;
        break;
      }
    return true;
  }

  /// Scatter the vertex values of every rank of `rs` into `out`, indexed by
  /// global id. A lone rank holds the whole graph: a plain copy.
  void gather(const RankSet& rs, std::vector<Value>& out) const {
    if (rs.engines.size() == 1) {
      const auto vals = rs.engines[0]->values();
      out.assign(vals.begin(), vals.end());
      return;
    }
    out.resize(graph_->num_vertices());
    for (const auto& e : rs.engines) {
      const auto& lg = e->local_graph();
      const auto vals = e->values();
      for (vid_t u = 0; u < lg.num_local_vertices(); ++u)
        out[lg.global_of(u)] = vals[u];
    }
  }

  /// Success path for the full rank set (fault-free run or a completed
  /// rung-1 respawn): consistency checks + gather.
  void finish_full_cluster(Result& res) {
    for (const RunResult& r : res.ranks)
      PG_CHECK_MSG(r.supersteps == res.ranks[0].supersteps,
                   "ranks must execute the same superstep count");
#if PG_AUDIT_ENABLED
    // Every per-rank phase machine must have come to rest before the gather
    // reads its vertex values (a rank mid-phase here would mean the control
    // exchange let one side run ahead).
    for (int r = 0; r < nranks_; ++r)
      PG_AUDIT_FMT(
          cluster_.engines[static_cast<std::size_t>(r)]->audit_phase() ==
              audit::BspPhase::kIdle,
          "hetero-devices-idle",
          "gather started while rank %d is mid-superstep (phase: %s)", r,
          audit::phase_name(
              cluster_.engines[static_cast<std::size_t>(r)]->audit_phase()));
#endif
    gather(cluster_, res.global_values);
  }

  /// Account one recovery epoch: bump the epoch count, track the deepest
  /// rung, and record its rebuild+restore wall time and superstep loss
  /// (epoch fault superstep minus the resume point it restored from).
  void record_epoch(Result& res, const fault::FaultReport& epoch_fault,
                    int resume, std::uint64_t rung, double ms) {
    ++res.failover.epochs;
    res.failover.rung = std::max(res.failover.rung, rung);
    res.failover.epoch_recovery_ms.push_back(ms);
    res.failover.recovery_ms += ms;
    const std::uint64_t lost = static_cast<std::uint64_t>(
        epoch_fault.superstep > resume ? epoch_fault.superstep - resume : 0);
    res.failover.lost_supersteps = std::max(res.failover.lost_supersteps, lost);
  }

  /// The ladder's one recovery move: resume the run on rank set `to` from the
  /// checkpoints of `from`, the engines of the rank set that failed.
  ///  1. Scatter the newest superstep whose frame CRC-validates in EVERY
  ///     store of `from` into global-indexed values and active flags. A
  ///     frame corrupted on any rank (torn write, injected fault, bit flip)
  ///     drops that superstep and the search falls back to the previous one;
  ///     a frame that does not match its partition's shape (a structurally
  ///     damaged but CRC-lucky file) leaves no usable frame.
  ///  2. Build `to`: only rank `only` when a frame was scattered (the other
  ///     engines restore in place), every rank otherwise.
  ///  3. Restore every engine of `to` through its global ids.
  /// Returns the superstep the run resumes at: 0, with nothing restored, when
  /// no frame is usable (frames land at supersteps >= 1). `from` may be
  /// `to.engines` itself (rung 1); it is read in full before the build
  /// replaces an engine.
  int reseat(RankSet& to, const Engines& from, int only) const {
    bool stored = true;
    for (const auto& e : from)
      stored = stored && e->checkpoint_store() != nullptr;
    const std::vector<int> newest_first =
        stored ? from[0]->checkpoint_store()->valid_supersteps()
               : std::vector<int>{};
    int resume = 0;
    std::vector<fault::CheckpointFrame> frames;
    for (int s : newest_first) {
      frames.clear();
      for (const auto& e : from) {
        auto f = e->checkpoint_store()->frame_at(s);
        if (!f) break;
        frames.push_back(std::move(*f));
      }
      if (frames.size() == from.size()) {
        resume = s;
        break;
      }
    }
    std::vector<Value> vals(resume > 0 ? graph_->num_vertices() : 0);
    std::vector<std::uint8_t> act(vals.size());
    for (std::size_t r = 0; resume > 0 && r < from.size(); ++r) {
      const fault::CheckpointFrame& f = frames[r];
      const LocalGraph& lg = from[r]->local_graph();
      const vid_t n = lg.num_local_vertices();
      if (f.values.size() != std::size_t{n} * sizeof(Value) ||
          f.active.size() != n) {
        resume = 0;
        break;
      }
      for (vid_t u = 0; u < n; ++u) {
        const vid_t v = lg.global_of(u);
        std::memcpy(&vals[v], f.values.data() + std::size_t{u} * sizeof(Value),
                    sizeof(Value));
        act[v] = f.active[u];
      }
    }

    build(to, resume > 0 ? only : -1);
    if (resume == 0) return 0;
    for (const auto& e : to.engines) {
      const LocalGraph& lg = e->local_graph();
      const vid_t n = lg.num_local_vertices();
      std::vector<Value> lv(n);
      std::vector<std::uint8_t> la(n);
      for (vid_t u = 0; u < n; ++u) {
        lv[u] = vals[lg.global_of(u)];
        la[u] = act[lg.global_of(u)];
      }
      e->restore(lv, la, resume);
    }
    return resume;
  }

  /// Ladder rung 1: respawn the failed rank's engine and reseat the cluster
  /// onto itself, so the surviving ranks restore in place (with no usable
  /// frame, or an unidentified culprit, every rank is rebuilt and the run
  /// restarts from superstep 0), then open a fresh channel epoch so nothing
  /// staged in the aborted round can leak into the resumed one. Returns
  /// false when the respawn itself fails — the caller falls further down
  /// the ladder.
  bool try_respawn(const fault::FaultReport& epoch_fault, Result& res) {
    PG_TRACE_SCOPE(kRecovery, -1, 0);
    Timer rec;
    try {
      const int dead = epoch_fault.rank;
      const int resume = reseat(cluster_, cluster_.engines,
                                dead >= 0 && dead < nranks_ ? dead : -1);
      cluster_.data.advance_epoch();
      cluster_.control.advance_epoch();
      record_epoch(res, epoch_fault, resume, /*rung=*/1, rec.millis());
      return true;
    } catch (...) {
      return false;
    }
  }

  /// Ladder rung 2: write the dead rank off and finish on the N-1 survivors.
  /// The dead rank's vertices are dealt over the survivors weighted by their
  /// thread budgets (partition::reassign_after_loss), and the old rank set
  /// is reseated onto the survivors' fresh channels and engines.
  ///
  /// Finalizes `res` on success AND when the survivor run faults again (that
  /// falls to rung 3 using the survivors' own checkpoint stores, so progress
  /// made on N-1 ranks is not thrown away). Returns false only when
  /// repartitioning is impossible — fewer than two survivors, an
  /// unidentified culprit, or a failure while rebuilding — in which case
  /// `res` is untouched and the caller runs rung 3 from the old rank set.
  bool try_repartition(Result& res, const fault::FaultReport& epoch_fault) {
    const int dead = epoch_fault.rank;
    if (nranks_ < 3 || dead < 0 || dead >= nranks_) return false;
    PG_TRACE_SCOPE(kRecovery, -1, 0);
    Timer rec;
    const int m = nranks_ - 1;
    std::optional<RankSet> survivors;
    int resume = 0;
    try {
      partition::RankWeights w;
      std::vector<EngineConfig> scfgs;
      w.reserve(static_cast<std::size_t>(m));
      scfgs.reserve(static_cast<std::size_t>(m));
      for (int r = 0; r < nranks_; ++r) {
        if (r == dead) continue;
        const EngineConfig& c = cluster_.cfgs[static_cast<std::size_t>(r)];
        scfgs.push_back(c);
        w.push_back(std::max(1, c.total_threads()));
      }
      survivors.emplace(partition::reassign_after_loss(
                            *graph_, cluster_.owner, nranks_, dead, w),
                        std::move(scfgs));
      resume = reseat(*survivors, cluster_.engines, /*only=*/-1);
    } catch (...) {
      return false;  // rebuilding failed: rung 3 from the old rank set
    }
    record_epoch(res, epoch_fault, resume, /*rung=*/2, rec.millis());

    res.recovery_ranks = run_ranks(*survivors);
    fault::FaultReport f2;
    if (collect_failure(res.recovery_ranks, f2)) {
      // The survivors checkpointed their own progress; rung 3 resumes from
      // THEIR newest common frame, not the pre-repartition one.
      fail_over(res, f2, survivors->engines);
      return true;
    }
    gather(*survivors, res.global_values);
    return true;
  }

  /// Ladder rung 3 — single-device failover: reseat `from` onto a one-rank
  /// set (one engine over the whole graph, under recovery_cfg_) and run it
  /// to completion.
  void fail_over(Result& res, const fault::FaultReport& epoch_fault,
                 const Engines& from) {
    PG_TRACE_SCOPE(kRecovery, -1, 0);
    Timer rec;
    RankSet single(std::vector<int>(graph_->num_vertices(), 0),
                   {recovery_cfg_});
    const int resume = reseat(single, from, /*only=*/-1);
    record_epoch(res, epoch_fault, resume, /*rung=*/3, rec.millis());

    res.recovery = std::move(run_ranks(single).front());
    if (res.recovery.failed) {
      res.completed = false;
      res.fault.what += "; recovery also failed: " + res.recovery.fault.what;
      return;
    }
    gather(single, res.global_values);
  }

  const graph::Csr* graph_;
  Program prog_;
  int nranks_;
  EngineConfig recovery_cfg_;
  fault::RetryPolicy retry_;
  RankSet cluster_;  // partition and configs kept for rebuilds
};

}  // namespace phigraph::core
