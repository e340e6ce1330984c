// Multi-query serving layer: a bounded admission queue in front of the BSP
// engine, executing batches of point queries as shared bit-parallel runs.
//
// The ROADMAP north star is serving heavy concurrent query traffic over one
// resident graph. The engine answers a *single* traversal per run; this
// layer multiplexes: jobs (BFS distances, SSSP distances, component
// membership, personalized PageRank) are admitted into a bounded queue, the
// dispatcher groups up to 64 compatible jobs into a batch, and the batch
// executes as ONE run of the matching multi-source program
// (apps/multi_source.hpp) — 64 sources per uint64_t frontier word for
// BFS/components, 64 float lanes for SSSP/PPR — so one CSB edge scan
// answers the whole batch. All of the existing machinery is reused
// unchanged: sparse frontiers and the CSB (PR 1), combiners and the
// AllToAll exchange when serving over N ranks (PR 5), and the
// direction-optimizing pull kernel, whose whole-word masking the batch
// programs rely on (PR 6).
//
// Admission semantics (the stress battery's contract):
//   * submit() BLOCKS when serve_queue_capacity jobs are waiting —
//     backpressure propagates to callers, nothing is ever dropped;
//   * a batch closes at serve_batch_max lanes or when the oldest waiting
//     job has aged serve_batch_wait_ms, whichever comes first;
//   * shutdown() (and the destructor) drains every admitted job before the
//     dispatcher exits — a ticket obtained from submit() is always
//     fulfilled; submit() after shutdown returns nullptr.
//
// Results are delivered through tickets: submit() returns a
// std::shared_ptr<QueryTicket> whose get() blocks until the batch that
// carried the job completes. Per-job latency and admission-queue depth are
// recorded in metrics:: histograms (p50/p99 via quantile_bound), and every
// batch is wrapped in a kServeBatch trace span in trace builds.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/multi_source.hpp"
#include "src/common/expect.hpp"
#include "src/common/sync.hpp"
#include "src/core/config.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/metrics/histogram.hpp"
#include "src/metrics/trace.hpp"
#include "src/partition/partition.hpp"

namespace phigraph::core {

enum class QueryKind : std::uint8_t {
  kBfs = 0,    // BFS levels from the source (-1 unreached)
  kSssp,       // shortest-path distances (requires edge values)
  kComponent,  // membership bitmap: reachable-from-source; equals connected
               // component membership when the served graph is symmetrized
  kPpr,        // personalized PageRank mass (fixed superstep count)
};

constexpr const char* query_kind_name(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::kBfs: return "bfs";
    case QueryKind::kSssp: return "sssp";
    case QueryKind::kComponent: return "component";
    case QueryKind::kPpr: return "ppr";
  }
  return "?";
}

struct QueryJob {
  QueryKind kind = QueryKind::kBfs;
  vid_t source = 0;
};

/// One job's answer. Exactly one of the per-kind vectors is filled (indexed
/// by global vertex id); the rest stay empty.
struct QueryResult {
  QueryKind kind = QueryKind::kBfs;
  vid_t source = 0;
  std::vector<std::int32_t> level;     // kBfs
  std::vector<float> dist;             // kSssp
  std::vector<std::uint8_t> member;    // kComponent (1 = reachable)
  std::vector<float> rank;             // kPpr

  int batch_lanes = 0;   // lanes in the batch that served this job
  int supersteps = 0;    // supersteps of the shared run
  double latency_ms = 0; // submit() -> fulfillment
};

/// Whole-engine serving statistics, snapshotted by stats().
struct ServingStats {
  std::uint64_t jobs = 0;           // jobs fulfilled
  std::uint64_t batches = 0;        // shared runs executed
  std::uint64_t lanes = 0;          // sum of batch lane counts (== jobs)
  std::uint64_t edges_scanned = 0;  // push + pull edge scans of all batches
  std::uint64_t max_queue_depth = 0;
  metrics::HistogramData latency_us;   // per-job submit->fulfill latency
  metrics::HistogramData queue_depth;  // queue length sampled at each submit
};

/// Handle to one submitted job. get() blocks until the batch completes;
/// tickets are fulfilled exactly once, shutdown included.
class QueryTicket {
 public:
  QueryTicket() = default;
  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  [[nodiscard]] const QueryResult& get() {
    std::unique_lock<sync::Mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_; });
    return res_;
  }

  [[nodiscard]] bool ready() {
    std::unique_lock<sync::Mutex> lk(mu_);
    return done_;
  }

 private:
  friend class QueryEngine;

  void fulfill(QueryResult&& r) {
    {
      std::unique_lock<sync::Mutex> lk(mu_);
      PG_CHECK_MSG(!done_, "query ticket fulfilled twice");
      res_ = std::move(r);
      done_ = true;
    }
    cv_.notify_all();
  }

  sync::Mutex mu_;
  sync::CondVar cv_;
  bool done_ = false;
  QueryResult res_;
};

class QueryEngine {
 public:
  using Clock = std::chrono::steady_clock;

  /// Serve `g` with one engine per rank config: each batch runs on a fresh
  /// round-robin partitioned ClusterEngine, exactly like a standalone run
  /// (one config is one device). The admission knobs
  /// (serve_queue_capacity / serve_batch_max / serve_batch_wait_ms /
  /// serve_ppr_supersteps) are read from cfgs[0].
  QueryEngine(const graph::Csr& g, std::vector<EngineConfig> cfgs)
      : g_(&g), cfgs_(std::move(cfgs)) {
    PG_CHECK_MSG(!cfgs_.empty(), "QueryEngine needs at least one rank config");
    PG_CHECK_MSG(cfgs_.front().serve_batch_max >= 1 &&
                     cfgs_.front().serve_batch_max <= apps::kMaxQueryLanes,
                 "serve_batch_max must be in [1, 64]");
    PG_CHECK_MSG(cfgs_.front().serve_queue_capacity >= 1,
                 "serve_queue_capacity must be >= 1");
    owner_ = partition::round_robin_partition_k(
        g, partition::RankWeights(cfgs_.size(), 1));
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  }

  QueryEngine(const graph::Csr& g, const EngineConfig& cfg)
      : QueryEngine(g, std::vector<EngineConfig>{cfg}) {}

  ~QueryEngine() { shutdown(); }
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admit one job. Blocks while the queue is at capacity (backpressure —
  /// jobs are never dropped); returns nullptr iff the engine is shutting
  /// down. The returned ticket is always eventually fulfilled.
  std::shared_ptr<QueryTicket> submit(const QueryJob& job) {
    PG_CHECK_MSG(job.source < g_->num_vertices(),
                 "query source outside the served graph");
    PG_CHECK_MSG(job.kind != QueryKind::kSssp || g_->has_edge_values(),
                 "SSSP queries need an edge-weighted graph");
    auto ticket = std::make_shared<QueryTicket>();
    {
      std::unique_lock<sync::Mutex> lk(mu_);
      cv_space_.wait(lk, [&] {
        return stopping_ || queue_.size() < cfgs_.front().serve_queue_capacity;
      });
      if (stopping_) return nullptr;
      queue_.push_back(Pending{job, ticket, Clock::now()});
      const auto depth = static_cast<std::uint64_t>(queue_.size());
      if (depth > max_depth_) max_depth_ = depth;
      hist_depth_.record(depth);
    }
    cv_nonempty_.notify_all();
    return ticket;
  }

  /// Stop admitting, drain every queued job through the dispatcher, join it.
  /// Idempotent; called by the destructor.
  void shutdown() {
    {
      std::unique_lock<sync::Mutex> lk(mu_);
      stopping_ = true;
    }
    cv_nonempty_.notify_all();
    cv_space_.notify_all();
    if (dispatcher_.joinable()) dispatcher_.join();
  }

  [[nodiscard]] ServingStats stats() const {
    ServingStats s;
    {
      std::unique_lock<sync::Mutex> lk(mu_);
      s.jobs = jobs_;
      s.batches = batches_;
      s.lanes = lanes_;
      s.edges_scanned = edges_scanned_;
      s.max_queue_depth = max_depth_;
    }
    s.latency_us = hist_latency_.snapshot();
    s.queue_depth = hist_depth_.snapshot();
    return s;
  }

  [[nodiscard]] int num_ranks() const noexcept {
    return static_cast<int>(cfgs_.size());
  }

 private:
  struct Pending {
    QueryJob job;
    std::shared_ptr<QueryTicket> ticket;
    Clock::time_point enqueue;
  };

  void dispatch_loop() {
    std::unique_lock<sync::Mutex> lk(mu_);
    for (;;) {
      cv_nonempty_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      const auto want =
          static_cast<std::size_t>(cfgs_.front().serve_batch_max);
      if (!stopping_) {
        // Batch formation: hold the batch open until it fills or the oldest
        // job ages out. During shutdown the wait is skipped — drain fast.
        const auto deadline =
            queue_.front().enqueue +
            std::chrono::milliseconds(cfgs_.front().serve_batch_wait_ms);
        cv_nonempty_.wait_until(lk, deadline, [&] {
          return stopping_ || queue_.size() >= want;
        });
      }
      // Group compatible jobs: the oldest job picks the kind, and up to
      // `want` jobs of that kind leave the queue in admission order (other
      // kinds keep their relative order for the next batch).
      std::vector<Pending> batch;
      batch.reserve(want);
      const QueryKind kind = queue_.front().job.kind;
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < want;) {
        if (it->job.kind == kind) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      cv_space_.notify_all();
      lk.unlock();
      run_batch(kind, batch);
      lk.lock();
      jobs_ += batch.size();
      lanes_ += batch.size();
      ++batches_;
    }
  }

  /// Execute `prog` over the served graph on a fresh round-robin
  /// ClusterEngine. Returns the global values; accumulates edge scans and
  /// supersteps.
  template <VertexProgram Program>
  std::vector<typename Program::vertex_value_t> execute(
      const Program& prog, int max_supersteps, int& supersteps_out,
      std::uint64_t& scans_out) {
    std::vector<EngineConfig> cfgs = cfgs_;
    for (EngineConfig& c : cfgs) c.max_supersteps = max_supersteps;
    ClusterEngine<Program> ce(*g_, owner_, prog, std::move(cfgs));
    auto res = ce.run();
    PG_CHECK_MSG(res.completed, "serving batch cluster run failed");
    scans_out = 0;
    for (const RunResult& r : res.ranks) {
      const auto t = metrics::totals(r.trace);
      scans_out += t.edges_scanned + t.pull_edges_scanned;
    }
    supersteps_out = res.ranks.empty() ? 0 : res.ranks.front().supersteps;
    return std::move(res.global_values);
  }

  void run_batch(QueryKind kind, std::vector<Pending>& batch) {
    PG_TRACE_SCOPE(kServeBatch, -1, 0);
    apps::SourceBatch sources;
    sources.count = static_cast<int>(batch.size());
    for (std::size_t l = 0; l < batch.size(); ++l)
      sources.source[l] = batch[l].job.source;

    const vid_t n = g_->num_vertices();
    int supersteps = 0;
    std::uint64_t scans = 0;
    std::vector<QueryResult> results(batch.size());
    switch (kind) {
      case QueryKind::kBfs:
      case QueryKind::kComponent: {
        const auto values = execute(apps::MsBfs(sources),
                                    cfgs_.front().max_supersteps, supersteps,
                                    scans);
        for (std::size_t l = 0; l < batch.size(); ++l) {
          if (kind == QueryKind::kBfs) {
            results[l].level.resize(n);
            for (vid_t v = 0; v < n; ++v)
              results[l].level[v] = values[v].level[l];
          } else {
            results[l].member.resize(n);
            for (vid_t v = 0; v < n; ++v)
              results[l].member[v] =
                  static_cast<std::uint8_t>((values[v].seen >> l) & 1u);
          }
        }
        break;
      }
      case QueryKind::kSssp: {
        const auto values = execute(apps::MsSssp(sources),
                                    cfgs_.front().max_supersteps, supersteps,
                                    scans);
        for (std::size_t l = 0; l < batch.size(); ++l) {
          results[l].dist.resize(n);
          for (vid_t v = 0; v < n; ++v) results[l].dist[v] = values[v].v[l];
        }
        break;
      }
      case QueryKind::kPpr: {
        const auto values =
            execute(apps::MsPpr(sources), cfgs_.front().serve_ppr_supersteps,
                    supersteps, scans);
        for (std::size_t l = 0; l < batch.size(); ++l) {
          results[l].rank.resize(n);
          for (vid_t v = 0; v < n; ++v) results[l].rank[v] = values[v].rank[l];
        }
        break;
      }
    }
    {
      std::unique_lock<sync::Mutex> lk(mu_);
      edges_scanned_ += scans;
    }
    const auto done = Clock::now();
    for (std::size_t l = 0; l < batch.size(); ++l) {
      QueryResult& r = results[l];
      r.kind = kind;
      r.source = batch[l].job.source;
      r.batch_lanes = static_cast<int>(batch.size());
      r.supersteps = supersteps;
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          done - batch[l].enqueue)
                          .count();
      r.latency_ms = static_cast<double>(us) / 1000.0;
      hist_latency_.record(static_cast<std::uint64_t>(us));
      batch[l].ticket->fulfill(std::move(r));
    }
  }

  const graph::Csr* g_;
  std::vector<EngineConfig> cfgs_;
  std::vector<int> owner_;  // round-robin rank owner

  mutable sync::Mutex mu_;
  sync::CondVar cv_nonempty_;  // queue gained a job (or stopping)
  sync::CondVar cv_space_;     // queue lost a job (or stopping)
  std::deque<Pending> queue_;
  bool stopping_ = false;

  // Serving statistics (guarded by mu_ except the concurrent histograms).
  std::uint64_t jobs_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t lanes_ = 0;
  std::uint64_t edges_scanned_ = 0;
  std::uint64_t max_depth_ = 0;
  metrics::Histogram hist_latency_;
  metrics::Histogram hist_depth_;

  std::thread dispatcher_;
};

}  // namespace phigraph::core
