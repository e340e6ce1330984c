// Shared bench harness: workload construction at a configurable scale, the
// paper's device/thread setups, engine runs that produce counter traces, and
// the modeled CPU / MIC / CPU-MIC timings printed by each figure bench (the
// CPU-MIC run is a two-rank cluster, CPU = rank 0).
//
// The engines execute for real on the host (with a modest host thread
// count); the *modeled* times price the measured traces for the paper's
// devices and thread configurations (16 threads on the Xeon E5-2680;
// 240 threads, or 180 workers + 60 movers, on the Xeon Phi SE10P).
//
// Environment knobs:
//   PHIGRAPH_SCALE        = tiny | small (default) | paper
//   PHIGRAPH_HOST_THREADS = engine worker threads on this host (default 4)
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/metrics/counters.hpp"
#include "src/partition/partition.hpp"
#include "src/sim/device_spec.hpp"
#include "src/sim/model.hpp"

namespace phigraph::bench {

// ---- scale -----------------------------------------------------------------

struct Scale {
  std::string name;
  vid_t pokec_n;
  eid_t pokec_m;
  vid_t dblp_n;
  eid_t dblp_m;  // undirected edges (doubled when converted)
  vid_t dag_n;
  eid_t dag_m;
  int dag_levels;
  int pagerank_iters;
  int sc_iters;
};

/// Scale from PHIGRAPH_SCALE. "paper" reproduces the paper's dataset sizes
/// (Pokec 1.6M/31M, DBLP 436K/1.1M, DAG 40K/200M) — slow on small hosts.
[[nodiscard]] Scale get_scale();

[[nodiscard]] int host_threads();

// ---- workloads ----------------------------------------------------------------

/// Pokec stand-in (PageRank, BFS, SSSP; SSSP adds random weights).
[[nodiscard]] graph::Csr make_pokec(const Scale& s, bool weighted);
/// DBLP stand-in (SemiClustering).
[[nodiscard]] graph::Csr make_dblp(const Scale& s);
/// Dense random DAG (TopoSort).
[[nodiscard]] graph::Csr make_dag(const Scale& s);

// ---- device setups ----------------------------------------------------------------

/// Engine configuration (host-sized threads) plus the modeled device and
/// thread profile (paper-sized threads).
struct DeviceSetup {
  core::EngineConfig engine;
  sim::ExecProfile profile;
  sim::DeviceSpec spec;
};

[[nodiscard]] DeviceSetup cpu_setup(core::ExecMode mode, bool use_simd = true);
[[nodiscard]] DeviceSetup mic_setup(core::ExecMode mode, bool use_simd = true);

/// Whole-run summary of a serving bench (fig 7): throughput, the shared
/// scan's edge savings against the sequential baseline, and tail latency
/// from the QueryEngine's histograms. Mirrors metrics::FailoverStats' role
/// for the failover object — plain data the JSON gate can schema-check.
struct ServingSummary {
  std::uint64_t jobs = 0;
  std::uint64_t batches = 0;
  std::uint64_t lanes = 0;
  double jobs_per_sec = 0;
  std::uint64_t edge_scans_sequential = 0;
  std::uint64_t edge_scans_batched = 0;
  double scan_reduction = 0;  // sequential / batched edge scans
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  std::uint64_t max_queue_depth = 0;

  template <typename F>
  static constexpr void fields(F&& f) {
    using S = ServingSummary;
    f("jobs", &S::jobs);
    f("batches", &S::batches);
    f("lanes", &S::lanes);
    f("jobs_per_sec", &S::jobs_per_sec);
    f("edge_scans_sequential", &S::edge_scans_sequential);
    f("edge_scans_batched", &S::edge_scans_batched);
    f("scan_reduction", &S::scan_reduction);
    f("p50_latency_ms", &S::p50_latency_ms);
    f("p99_latency_ms", &S::p99_latency_ms);
    f("max_queue_depth", &S::max_queue_depth);
  }
};

/// Whole-run summary of the streaming vertex-cut comparison (fig 6, k-way
/// block): HDRF's partition quality and measured cross-rank traffic side by
/// side with round-robin's, the acceptance baseline. All-zero for benches
/// that never run the comparison — the JSON gate checks the schema of every
/// bench output, like the failover and serving objects.
struct PartitionSummary {
  std::uint64_t ranks = 0;
  double replication_factor = 0;   // HDRF vertex-cut RF
  double load_imbalance = 0;       // HDRF max normalized load / mean
  std::uint64_t cut_bytes = 0;     // cross-rank bytes of a BFS under HDRF
  double round_robin_replication_factor = 0;
  std::uint64_t round_robin_cut_bytes = 0;

  template <typename F>
  static constexpr void fields(F&& f) {
    using S = PartitionSummary;
    f("ranks", &S::ranks);
    f("replication_factor", &S::replication_factor);
    f("load_imbalance", &S::load_imbalance);
    f("cut_bytes", &S::cut_bytes);
    f("round_robin_replication_factor", &S::round_robin_replication_factor);
    f("round_robin_cut_bytes", &S::round_robin_cut_bytes);
  }
};

/// Per-application cost weights for the performance model (see
/// sim::ExecProfile): 1/1/false for the arithmetic-reduction apps;
/// SemiClustering's merge/scoring is far heavier and branchy.
struct AppCost {
  double combine_weight = 1.0;
  double update_weight = 1.0;
  bool branchy = false;
};

inline DeviceSetup with_cost(DeviceSetup d, const AppCost& cost) {
  d.profile.combine_weight = cost.combine_weight;
  d.profile.update_weight = cost.update_weight;
  d.profile.branchy = cost.branchy;
  return d;
}

/// Same setup with a forced (or auto) traversal direction — used by the
/// direction benches to measure push vs pull vs hybrid on one config.
inline DeviceSetup with_direction(DeviceSetup d, core::DirectionMode dir) {
  d.engine.direction_mode = dir;
  return d;
}

/// The direction the paper-reproduction versions run in. All-active
/// programs (PageRank) are pinned to the CSB push path the paper's
/// OMP/Lock/Pipe/novec and partitioning comparisons measure; at any rank
/// count they would otherwise pull. Traversals keep the default kAuto.
template <core::VertexProgram Program>
[[nodiscard]] constexpr core::DirectionMode paper_direction() noexcept {
  return Program::kAllActive ? core::DirectionMode::kForcePush
                             : core::DirectionMode::kAuto;
}


// ---- runs ----------------------------------------------------------------------

template <core::VertexProgram Program>
struct DeviceRunResult {
  metrics::RunTrace trace;
  metrics::PhaseTrace phases;  // host phase seconds, parallel to trace
  sim::PhaseTimes modeled;
  double host_seconds = 0;
  int supersteps = 0;
};

template <core::VertexProgram Program>
DeviceRunResult<Program> run_device(const graph::Csr& g, const Program& prog,
                                    DeviceSetup setup, int max_supersteps) {
  setup.engine.max_supersteps = max_supersteps;
  setup.profile.msg_bytes = sizeof(typename Program::message_t);
  setup.profile.value_bytes = sizeof(typename Program::vertex_value_t);
  setup.profile.num_vertices = g.num_vertices();
  core::DeviceEngine<Program> engine(core::LocalGraph::whole(g), prog,
                                     setup.engine);
  auto run = engine.run();
  PG_CHECK_MSG(!run.failed, "bench device run failed");
  DeviceRunResult<Program> out;
  out.modeled = sim::model_run(run.trace, setup.spec, setup.profile);
  out.trace = std::move(run.trace);
  out.phases = std::move(run.phases);
  out.host_seconds = run.host_seconds;
  out.supersteps = run.supersteps;
  return out;
}

struct ClusterRunResult {
  std::vector<core::RunResult> ranks;  // per-rank traces, phases and RankIo
  sim::HeteroEstimate modeled;
  metrics::FailoverStats failover;
};

/// Runs `prog` on a ClusterEngine with one rank per setup (the paper's
/// CPU-MIC run is {cpu, mic}) and prices the rank traces in lockstep.
template <core::VertexProgram Program>
ClusterRunResult run_cluster(const graph::Csr& g, const Program& prog,
                             std::vector<int> owner,
                             std::vector<DeviceSetup> ranks,
                             int max_supersteps,
                             const sim::LinkSpec& link = {}) {
  std::vector<vid_t> verts(ranks.size(), 0);
  for (const int r : owner) ++verts[static_cast<std::size_t>(r)];
  std::vector<core::EngineConfig> cfgs;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    DeviceSetup& s = ranks[r];
    s.engine.max_supersteps = max_supersteps;
    s.profile.msg_bytes = sizeof(typename Program::message_t);
    s.profile.value_bytes = sizeof(typename Program::vertex_value_t);
    s.profile.num_vertices = std::max<vid_t>(1, verts[r]);
    cfgs.push_back(s.engine);
  }
  core::ClusterEngine<Program> ce(g, std::move(owner), prog, std::move(cfgs));
  auto res = ce.run();
  std::vector<sim::RankModelInput> in;
  for (std::size_t r = 0; r < ranks.size(); ++r)
    in.push_back({&res.ranks[r].trace, ranks[r].spec, ranks[r].profile});
  ClusterRunResult out;
  out.modeled = sim::model_cluster(in, link);
  out.ranks = std::move(res.ranks);
  out.failover = res.failover;
  return out;
}

// ---- printing --------------------------------------------------------------------

// ---- span tracing (trace builds) -------------------------------------------------

/// Reset the span collector so the coming runs start a fresh timeline.
/// No-op unless built with PHIGRAPH_TRACE.
void trace_run_begin();

/// Export the collected spans as Chrome-trace JSON when the
/// PHIGRAPH_TRACE_JSON environment variable is set ("1" for the working
/// directory, anything else is an output directory); the file is named
/// TRACE_<fig_slug>.json and loads in chrome://tracing. No-op unless built
/// with PHIGRAPH_TRACE.
void trace_run_end(const std::string& figure);

void print_header(const std::string& title, const graph::Csr& g,
                  const Scale& s);
void print_row(const std::string& version, double exec_s, double comm_s = 0);
void print_ratio(const std::string& label, double ratio,
                 const std::string& paper_band);
void print_footer();

// ---- machine-readable output -----------------------------------------------------

/// Per-run JSON emitter so the perf trajectory is machine-readable: when the
/// PHIGRAPH_BENCH_JSON environment variable is set ("1" for the working
/// directory, anything else is treated as an output directory), the
/// destructor writes BENCH_<fig>.json containing, per engine version, the
/// modeled times, whole-run counter totals ("totals" holds the counters that
/// are a pure function of graph, program and config, "timing_totals" the
/// kTimingDependent ones), a row of every counter per superstep, and the
/// host phase seconds. Every object is written from its struct's field
/// list. Disabled, every call is a no-op.
class JsonEmitter {
 public:
  JsonEmitter(const std::string& figure, const std::string& app,
              const graph::Csr& g, const Scale& s);
  ~JsonEmitter();
  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;

  void add_version(const std::string& name, double exec_s, double comm_s,
                   const metrics::RunTrace& trace,
                   const metrics::PhaseTrace& phases = {});

  /// Record the cluster run's failover counters, the serving bench's
  /// summary and the streaming vertex-cut comparison; emitted as top-level
  /// "failover", "serving" and "partition" objects. One never set is
  /// written from its all-zero default, so every bench JSON carries the
  /// keys the compare gate checks.
  void set_failover(const metrics::FailoverStats& f) { failover_ = f; }
  void set_serving(const ServingSummary& s) { serving_ = s; }
  void set_partition(const PartitionSummary& p) { partition_ = p; }

  /// Record per-rank exchange traffic (bytes to / from every peer rank) of
  /// a heterogeneous / cluster run; emitted as a top-level "ranks" array.
  /// ranks[r] is rank r's RankIo from its RunResult.
  void set_ranks(const std::vector<metrics::RankIo>& io);

  [[nodiscard]] static bool enabled();

 private:
  void append_phases(const metrics::PhaseTrace& phases);

  bool enabled_ = false;
  std::string path_;
  std::string body_;
  metrics::FailoverStats failover_;
  ServingSummary serving_;
  PartitionSummary partition_;
  std::string ranks_json_;
  bool first_version_ = true;
};

}  // namespace phigraph::bench
