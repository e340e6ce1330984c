// End-to-end benchmark: one workload per process, measured from outside the
// library by timing calls into its public API.
//
//   phigraph_bench --workload=NAME --seed=S --seconds=T --graphs=DIR
//                  [--trace=FILE] [--tiny]
//   phigraph_bench --generate --workload=NAME --seed=S --graphs=DIR [--tiny]
//
// --generate writes the workload's seeded input graphs into DIR as .pgb files
// keyed by (generator, n, m, seed); a measuring run only loads them, so graph
// generation is never timed and never counts toward the measuring process's
// peak RSS. The seed drives graph generation, source choice and arrival
// times; the library only ever sees the generated inputs.
//
// Every line of stdout but the last is "name value unit"; the last is one
// JSON object {"workload", "seed", "correct", "attempted", "failed",
// "metrics"} that bench/e2e/run.py reads. Correctness checks run outside the
// timed regions. --trace=FILE records a span around every call into a layer
// (plus the engine's own per-superstep phase times as derived child spans),
// writes them to FILE at exit, and adds the per-layer metrics to the report.
//
// The workloads, their metrics and why each exists are documented in
// bench/e2e/README.md.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/bfs.hpp"
#include "src/apps/multi_source.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/apps/sssp.hpp"
#include "src/common/rng.hpp"
#include "src/core/engine.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/core/query_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/graph/io.hpp"
#include "src/partition/partition.hpp"

namespace {

using namespace phigraph;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

TimePoint after(TimePoint t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "phigraph_bench: %s\n", msg.c_str());
  std::exit(2);
}

// ---- statistics ---------------------------------------------------------------

/// Linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// CPUs this process may run on, counted as nproc counts them: from the
/// affinity mask, which a cgroup cpuset or taskset narrows, rather than from
/// the machine's hardware thread count.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return static_cast<int>(std::thread::hardware_concurrency());
  return CPU_COUNT(&set);
}

/// Peak resident set size of this process (the kernel's high-water mark).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

// ---- results ------------------------------------------------------------------

/// Every measured number, in emission order, printed as "name value unit"
/// lines and then as the final JSON object. Metrics named "info.*" are
/// printed for people and left out of BENCHMARK.json.
class Report {
 public:
  /// Adds the metric, or overwrites an earlier value of the same name.
  void put(const std::string& name, double value, const char* unit) {
    for (auto& m : metrics_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics_.push_back({name, value, unit});
  }

  void print(const std::string& workload, std::uint64_t seed, bool correct,
             std::uint64_t attempted, std::uint64_t failed) const {
    for (const auto& m : metrics_)
      std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
        workload.c_str(), static_cast<unsigned long long>(seed),
        correct ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Operations attempted and failed. A failure is an output that fails
/// validation, a failed or incomplete run, or a refused query.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool setup_ok = true;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void setup_check(bool ok, const std::string& what) {
    if (ok) return;
    setup_ok = false;
    std::fprintf(stderr, "SETUP CHECK FAILED: %s\n", what.c_str());
  }
  [[nodiscard]] bool correct() const { return setup_ok && failed == 0; }
};

// ---- spans --------------------------------------------------------------------

/// In-memory span log, written at exit. Not thread-safe: one thread records
/// at a time (while a serving step runs, only its collector records). A
/// disabled tracer records nothing and returns -1 ids.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  int add(const char* name, TimePoint start, TimePoint end, int parent = -1,
          std::int64_t request = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent, request, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(const char* name, TimePoint start, int parent = -1,
           std::int64_t request = -1) {
    return add(name, start, start, parent, request);
  }
  void close(int id, TimePoint end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }

  /// Child spans of one engine.run span, laid out from the engine's own
  /// per-superstep phase seconds (the phases tile each superstep in this
  /// order). Marked derived: their durations are measured, their placement
  /// is reconstructed.
  void add_phases(const metrics::PhaseTrace& phases, TimePoint run_start,
                  int parent, std::int64_t request) {
    if (!enabled_) return;
    TimePoint at = run_start;
    auto put = [&](const char* name, double s) {
      if (s <= 0) return;
      const TimePoint end = after(at, s);
      spans_.push_back({name, at, end, parent, request, true});
      at = end;
    };
    for (const auto& p : phases) {
      const TimePoint step_start = at;
      put("core.prepare", p.prepare);
      put("core.generate", p.generate);
      put("comm.exchange", p.exchange);
      put("core.process", p.process);
      put("core.update", p.update);
      put("comm.terminate", p.terminate);
      put("fault.checkpoint", p.checkpoint);
      at = after(step_start, p.wall);
    }
  }

  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) die("cannot write trace file " + path);
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld%s}",
                   i ? ",\n" : "", i, s.name, us(s.start), us(s.end), s.parent,
                   static_cast<long long>(s.request),
                   s.derived ? ", \"derived\": true" : "");
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) die("cannot write trace file " + path);
  }

  /// Cost of recording one span, measured on a scratch tracer. A traced
  /// run's overhead is this times the spans it recorded.
  static double seconds_per_span() {
    constexpr int kSamples = 100000;
    Tracer scratch(true);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSamples; ++i) {
      const auto now = Clock::now();
      scratch.add("calibrate", now, now, -1, i);
    }
    return seconds_between(t0, Clock::now()) / kSamples;
  }

 private:
  struct Span {
    const char* name;
    TimePoint start;
    TimePoint end;
    int parent;
    std::int64_t request;
    bool derived;
  };

  [[nodiscard]] double us(TimePoint t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  TimePoint origin_;
  std::vector<Span> spans_;
};

// ---- per-layer accounting -----------------------------------------------------

/// Per-layer totals over the measured runs of a workload, read from the
/// RunResult each run() returns: phase seconds from rank 0 (the orchestrator
/// whose return ends the run), counters summed over all ranks.
struct LayerAcc {
  int ops = 0;
  std::vector<double> build_s;
  std::vector<double> run_s;
  metrics::PhaseSeconds phases;
  metrics::SuperstepCounters counters;
  std::uint64_t supersteps = 0;
  double vector_cells = 0;  // SIMD rows x lanes, padding included
  double rank_skew_sum = 0;

  void add(double build, double run, const std::vector<core::RunResult>& ranks,
           int simd_lanes) {
    ++ops;
    build_s.push_back(build);
    run_s.push_back(run);
    if (ranks.empty()) return;
    phases += metrics::phase_totals(ranks.front().phases);
    supersteps += static_cast<std::uint64_t>(ranks.front().supersteps);
    double gen_max = 0, gen_sum = 0;
    for (const auto& r : ranks) {
      const auto t = metrics::totals(r.trace);
      counters += t;
      vector_cells += static_cast<double>(t.vector_rows) * simd_lanes;
      gen_max = std::max(gen_max, r.gen_seconds);
      gen_sum += r.gen_seconds;
    }
    rank_skew_sum +=
        ratio(gen_max, gen_sum / static_cast<double>(ranks.size()));
  }

  void emit(Report& rep) const {
    const double n = std::max(1, ops);
    const double run_total = sum(run_s);
    const double phase_total = phases.phase_sum();
    const auto& c = counters;
    const double generated = static_cast<double>(c.msgs_local + c.msgs_remote);
    const double reduced = static_cast<double>(c.msgs_local + c.msgs_received);
    const double vec_msgs = vector_cells - static_cast<double>(c.padded_cells);
    const double steps =
        static_cast<double>(std::max<std::uint64_t>(1, supersteps));
    const double scanned =
        static_cast<double>(c.edges_scanned + c.pull_edges_scanned);

    rep.put("core.build_s", median(build_s), "s");
    std::vector<double> share;
    for (std::size_t i = 0; i < build_s.size(); ++i)
      share.push_back(ratio(build_s[i], build_s[i] + run_s[i]));
    rep.put("core.build_share", median(share), "frac");
    rep.put("core.prepare_s", phases.prepare / n, "s");
    rep.put("core.generate_s", phases.generate / n, "s");
    rep.put("core.process_s", phases.process / n, "s");
    rep.put("core.update_s", phases.update / n, "s");
    rep.put("core.residual_s", (run_total - phase_total) / n, "s");
    rep.put("core.phase_coverage", ratio(phase_total, run_total), "frac");
    rep.put("core.supersteps_per_op", static_cast<double>(supersteps) / n,
            "count");

    rep.put("buffer.msgs", reduced / n, "count");
    rep.put("buffer.ns_per_msg", ratio(phases.generate * 1e9, generated), "ns");
    rep.put("buffer.conflict_frac",
            ratio(static_cast<double>(c.column_conflicts), reduced), "frac");
    rep.put("buffer.groups_skipped_frac",
            ratio(static_cast<double>(c.groups_skipped),
                  static_cast<double>(c.groups_skipped + c.groups_dirty)),
            "frac");

    rep.put("simd.lane_fill", ratio(vec_msgs, vector_cells), "frac");
    rep.put("simd.vector_msg_frac",
            ratio(vec_msgs, vec_msgs + static_cast<double>(c.scalar_msgs)),
            "frac");
    rep.put("simd.ns_per_msg", ratio(phases.process * 1e9, reduced), "ns");

    rep.put("core.direction.pull_step_frac",
            static_cast<double>(c.pull_supersteps) / steps, "frac");
    rep.put("core.direction.edges_per_op", scanned / n, "count");
    rep.put("core.direction.flips_per_op",
            static_cast<double>(c.direction_flips) / n, "count");
    rep.put("core.frontier.sparse_step_frac",
            static_cast<double>(c.sparse_supersteps) / steps, "frac");

    rep.put("comm.exchange_share", ratio(phases.exchange, phases.wall), "frac");
    rep.put("comm.terminate_share", ratio(phases.terminate, phases.wall),
            "frac");
    rep.put("comm.bytes", static_cast<double>(c.bytes_sent) / n, "bytes");
    rep.put("comm.bytes_per_edge",
            ratio(static_cast<double>(c.bytes_sent), scanned), "bytes/edge");
    rep.put("comm.rank_skew", rank_skew_sum / n, "ratio");
    rep.put("info.comm.exchange_s", phases.exchange / n, "s");
    rep.put("info.comm.terminate_s", phases.terminate / n, "s");
  }
};

// ---- inputs -------------------------------------------------------------------

struct GraphSpec {
  const char* gen;  // "pokec", "pokec-sym" (symmetrized) or "dblp"
  vid_t n;
  eid_t m;          // generator edges: before symmetrization; undirected for dblp
  bool weighted;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ull ^ salt).next();
}

std::string graph_prefix(const GraphSpec& s) {
  return std::string(s.gen) + (s.weighted ? "-w" : "") + "-n" +
         std::to_string(s.n) + "-m" + std::to_string(s.m) + "-s";
}

std::string graph_file(const std::string& dir, const GraphSpec& s,
                       std::uint64_t seed) {
  return dir + "/" + graph_prefix(s) + std::to_string(seed) + ".pgb";
}

/// Every edge in both directions: component membership is only meaningful
/// on an undirected graph.
graph::Csr symmetrize(const graph::Csr& d) {
  std::vector<std::pair<vid_t, vid_t>> edges;
  edges.reserve(2 * d.num_edges());
  for (vid_t u = 0; u < d.num_vertices(); ++u)
    for (vid_t v : d.out_neighbors(u)) {
      edges.emplace_back(u, v);
      edges.emplace_back(v, u);
    }
  return graph::Csr::from_edges(d.num_vertices(), edges);
}

graph::Csr generate(const GraphSpec& s, std::uint64_t seed) {
  const std::string family = s.gen;
  graph::Csr g;
  if (family == "dblp") {
    // Structure only: dblp_like attaches interaction weights.
    const auto d = gen::dblp_like(s.n, s.m, mix_seed(seed, 0xDB19));
    g = graph::Csr(d.offsets(), d.targets());
  } else {
    g = gen::pokec_like(s.n, s.m, mix_seed(seed, 0x90CEC));
    if (family == "pokec-sym") g = symmetrize(g);
  }
  if (s.weighted) gen::add_random_weights(g, mix_seed(seed, 0xED6E));
  return g;
}

/// Generates the file unless it is cached, then keeps only the newest few
/// inputs of the same (generator, n, m) so seed sweeps do not fill the disk.
void ensure_graph(const std::string& dir, const GraphSpec& s,
                  std::uint64_t seed) {
  namespace fs = std::filesystem;
  const std::string path = graph_file(dir, s, seed);
  if (fs::exists(path)) return;
  fs::create_directories(dir);
  const std::string tmp = path + ".tmp";
  graph::save_binary(generate(s, seed), tmp);
  fs::rename(tmp, path);

  constexpr std::size_t kKeep = 3;
  const std::string prefix = graph_prefix(s);
  std::vector<std::pair<fs::file_time_type, fs::path>> same;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && e.path().extension() == ".pgb")
      same.emplace_back(fs::last_write_time(e.path()), e.path());
  }
  std::sort(same.begin(), same.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = kKeep; i < same.size(); ++i)
    if (same[i].second != fs::path(path)) fs::remove(same[i].second);
}

double csr_mb(const graph::Csr& g) {
  return static_cast<double>(g.offsets().size() * sizeof(eid_t) +
                             g.targets().size() * sizeof(vid_t) +
                             g.edge_values().size() * sizeof(float)) /
         (1024.0 * 1024.0);
}

/// Reference BFS from a source: levels, plus the out-edges of every reached
/// vertex — the edges a traversal from that source must scan.
struct Reach {
  std::vector<std::int32_t> level;
  vid_t vertices = 0;
  eid_t edges = 0;
};

Reach reach_from(const graph::Csr& g, vid_t src) {
  Reach r;
  r.level = apps::classic_bfs(g, src);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    if (r.level[v] >= 0) {
      ++r.vertices;
      r.edges += g.out_degree(v);
    }
  return r;
}

/// Seeded traversal sources, each accepted only if its reference BFS reaches
/// at least 1% of the vertices. A source outside the giant component runs a
/// few supersteps over a few edges, so its query measures engine
/// construction alone.
struct SourcePool {
  std::vector<vid_t> source;
  std::vector<Reach> reach;
  std::uint64_t rejected = 0;
};

SourcePool pick_sources(const graph::Csr& g, std::size_t count,
                        std::uint64_t seed) {
  SourcePool pool;
  Rng rng(mix_seed(seed, 0x5005CE));
  const vid_t n = g.num_vertices();
  const vid_t min_reach = std::max<vid_t>(1, n / 100);
  std::set<vid_t> tried;
  while (pool.source.size() < count) {
    const auto v = static_cast<vid_t>(rng.below(n));
    if (!tried.insert(v).second) continue;
    if (tried.size() > 64 * count + 1024)
      die("source picker: too few vertices reach 1% of the graph");
    Reach r = reach_from(g, v);
    if (r.vertices < min_reach) {
      ++pool.rejected;
      continue;
    }
    pool.source.push_back(v);
    pool.reach.push_back(std::move(r));
  }
  return pool;
}

/// The differential battery's tolerance for float sums in a different order.
bool near(float got, float ref) {
  return std::fabs(got - ref) <= 1e-3f * (1.0f + std::fabs(ref));
}

template <typename Got, typename Ref>
bool all_near(const Got& got, const Ref& ref) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (!near(got[i], ref[i])) return false;
  return true;
}

/// EngineConfig{} defaults (Lock mode) except thread count and superstep cap.
core::EngineConfig engine_config(int threads, int max_supersteps) {
  core::EngineConfig c;
  c.threads = threads;
  c.max_supersteps = max_supersteps;
  return c;
}

// ---- options ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string graphs = ".";
  std::string trace;
  bool tiny = false;
  bool generate = false;
};

/// Set-ups per run (setup_s is their median) and the fewest timed operations
/// a run makes whatever --seconds says.
struct Plan {
  int setups;
  int min_ops;
};

Plan plan_for(const Options& opt) { return opt.tiny ? Plan{1, 1} : Plan{3, 2}; }

void put_graph(Report& rep, const std::vector<double>& load_s,
               const graph::Csr& g, double mb) {
  rep.put("graph.load_s", median(load_s), "s");
  rep.put("graph.csr_mb", mb, "MB");
  rep.put("info.graph.vertices", g.num_vertices(), "count");
  rep.put("info.graph.edges", static_cast<double>(g.num_edges()), "count");
}

/// The end-to-end metrics every workload shares. `setup_rss_mb` is the
/// resident high-water mark when set-up and warm-up end: the loaded graph
/// plus a built, warmed engine. The whole run's high-water mark adds what the
/// allocator retains from short-lived per-query engines, which glibc's
/// dynamic mmap threshold and per-thread arenas make bimodal from run to
/// run, so it is printed but not gated.
void put_end_to_end(Report& rep, const std::vector<double>& ms,
                 const std::vector<double>& setup_s, double setup_rss_mb) {
  rep.put("setup_s", median(setup_s), "s");
  rep.put("peak_rss_mb", setup_rss_mb, "MB");
  rep.put("info.peak_rss_run_mb", peak_rss_mb(), "MB");
  rep.put("op_ms_p50", median(ms), "ms");
  rep.put("op_ms_p90", quantile(ms, 0.9), "ms");
  rep.put("info.op_ms_q1", quantile(ms, 0.25), "ms");
  rep.put("info.op_ms_q3", quantile(ms, 0.75), "ms");
  rep.put("info.samples.op", static_cast<double>(ms.size()), "count");
  rep.put("info.samples.setup", static_cast<double>(setup_s.size()), "count");
}

// ---- PageRank (single device and cluster) ---------------------------------------

struct PageRankSpec {
  GraphSpec graph;
  int supersteps;
  int nranks;   // 1 = one DeviceEngine; more = a ClusterEngine
  int threads;  // per rank
  int blocks;   // hybrid-partition blocks (cluster only)
};

struct PrTrial {
  double build_s = 0;
  double run_s = 0;
  std::vector<core::RunResult> ranks;
  std::vector<float> values;
  bool completed = false;
  int lanes = 1;
};

/// pagerank-paper and cluster-pagerank: set-ups (load [+ partition] + first
/// engine build, whose run is the warm-up), then timed trials (build + run
/// each) until --seconds of run() time have been measured.
void pagerank_workload(const Options& opt, const PageRankSpec& spec,
                       Report& rep, Outcome& out, Tracer& tr) {
  const Plan plan = plan_for(opt);
  const std::string path = graph_file(opt.graphs, spec.graph, opt.seed);
  const bool cluster = spec.nranks > 1;

  std::optional<graph::Csr> g;
  std::vector<int> owner;

  auto trial = [&](int parent, std::int64_t req, int supersteps) {
    const std::vector<core::EngineConfig> cfgs(
        static_cast<std::size_t>(spec.nranks),
        engine_config(spec.threads, supersteps));
    PrTrial t;
    const auto b0 = Clock::now();
    TimePoint b1 = b0, r1 = b0;
    if (cluster) {
      core::ClusterEngine<apps::PageRank> ce(*g, owner, apps::PageRank(), cfgs);
      b1 = Clock::now();
      auto res = ce.run();
      r1 = Clock::now();
      t.completed = res.completed && res.failover.failed_over == 0;
      t.ranks = std::move(res.ranks);
      t.values = std::move(res.global_values);
      t.lanes = ce.engine(0).lanes();
    } else {
      core::DeviceEngine<apps::PageRank> e(core::LocalGraph::whole(*g),
                                           apps::PageRank(), cfgs.front());
      b1 = Clock::now();
      auto res = e.run();
      r1 = Clock::now();
      t.completed = !res.failed;
      t.ranks.push_back(std::move(res));
      t.values.assign(e.values().begin(), e.values().end());
      t.lanes = e.lanes();
    }
    t.completed = t.completed && !t.ranks.empty() &&
                  t.ranks.front().supersteps == supersteps;
    t.build_s = seconds_between(b0, b1);
    t.run_s = seconds_between(b1, r1);
    tr.add("engine.build", b0, b1, parent, req);
    if (!t.ranks.empty())
      tr.add_phases(t.ranks.front().phases, b1,
                    tr.add("engine.run", b1, r1, parent, req), req);
    return t;
  };

  std::vector<double> setup_s, load_s, partition_s;
  for (int k = 0; k < plan.setups; ++k) {
    g.reset();
    const auto s0 = Clock::now();
    const int span = tr.open("setup", s0, -1, k);
    g = graph::load_binary(path);
    const auto s1 = Clock::now();
    tr.add("graph.load", s0, s1, span, k);
    auto s2 = s1;
    if (cluster) {
      partition::BlockedOptions bo;
      bo.num_blocks = spec.blocks;
      bo.seed = mix_seed(opt.seed, 0xB10C);
      owner = partition::hybrid_partition_k(
          *g, partition::RankWeights(static_cast<std::size_t>(spec.nranks), 1),
          bo);
      s2 = Clock::now();
      tr.add("partition.hybrid", s1, s2, span, k);
      partition_s.push_back(seconds_between(s1, s2));
    }
    // The first engine build is part of set-up; a one-superstep run of it
    // warms the code paths and the thread team before the timed trials.
    const PrTrial warm = trial(span, k, 1);
    tr.close(span, Clock::now());
    load_s.push_back(seconds_between(s0, s1));
    setup_s.push_back(seconds_between(s0, s2) + warm.build_s);
    if (k + 1 == plan.setups)
      out.setup_check(warm.completed, "warm-up PageRank run incomplete");
  }
  const double setup_rss = peak_rss_mb();

  const auto ref = apps::classic_pagerank(*g, spec.supersteps);
  LayerAcc acc;
  std::vector<double> run_ms;
  double measured = 0;
  for (int i = 0; measured < opt.seconds || i < plan.min_ops; ++i) {
    const int span = tr.open("trial", Clock::now(), -1, i);
    PrTrial t = trial(span, i, spec.supersteps);
    tr.close(span, Clock::now());
    measured += t.run_s;
    run_ms.push_back(t.run_s * 1e3);
    out.check(t.completed && all_near(t.values, ref),
              "PageRank trial " + std::to_string(i) +
                  " incomplete or off classic_pagerank by more than "
                  "1e-3*(1+ref)");
    acc.add(t.build_s, t.run_s, t.ranks, t.lanes);
  }

  const double m = static_cast<double>(g->num_edges());
  put_end_to_end(rep, run_ms, setup_s, setup_rss);
  rep.put("teps", m * spec.supersteps / (median(run_ms) / 1e3), "edges/s");
  if (!tr.enabled()) return;
  put_graph(rep, load_s, *g, csr_mb(*g));
  if (cluster) {
    const auto ks = partition::evaluate_partition_k(*g, owner, spec.nranks);
    rep.put("partition.setup_frac", median(partition_s) / median(setup_s),
            "frac");
    rep.put("partition.cross_edge_frac",
            static_cast<double>(ks.cross_edges) / m, "frac");
    rep.put("partition.load_imbalance", ks.load_imbalance, "ratio");
    rep.put("info.partition.hybrid_s", median(partition_s), "s");
  }
  acc.emit(rep);
}

// ---- traverse-small -------------------------------------------------------------

/// BFS and SSSP queries from seeded sources. Every query builds its own
/// DeviceEngine (auto direction), so engine construction, frontier handling
/// and the direction choice all sit on the measured path.
void traverse_workload(const Options& opt, const GraphSpec& plain,
                       const GraphSpec& weighted, Report& rep, Outcome& out,
                       Tracer& tr) {
  const Plan plan = plan_for(opt);
  const core::EngineConfig cfg = engine_config(4, 1000);
  const std::string plain_path = graph_file(opt.graphs, plain, opt.seed);
  const std::string weighted_path = graph_file(opt.graphs, weighted, opt.seed);

  std::optional<graph::Csr> g, gw;
  std::vector<double> setup_s, load_s;
  for (int k = 0; k < plan.setups; ++k) {
    g.reset();
    gw.reset();
    const auto s0 = Clock::now();
    const int span = tr.open("setup", s0, -1, k);
    g = graph::load_binary(plain_path);
    gw = graph::load_binary(weighted_path);
    const auto s1 = Clock::now();
    core::DeviceEngine<apps::Bfs> e(core::LocalGraph::whole(*g), apps::Bfs(0),
                                    cfg);
    const auto s2 = Clock::now();
    const auto res = e.run();  // warm-up, untimed
    const auto s3 = Clock::now();
    tr.add("graph.load", s0, s1, span, k);
    tr.add("engine.build", s1, s2, span, k);
    tr.add("warmup.run", s2, s3, span, k);
    tr.close(span, s3);
    load_s.push_back(seconds_between(s0, s1));
    setup_s.push_back(seconds_between(s0, s2));
    if (k + 1 == plan.setups)
      out.setup_check(!res.failed && std::ranges::equal(
                                         e.values(), apps::classic_bfs(*g, 0)),
                      "warm-up BFS differs from classic_bfs");
  }
  const double setup_rss = peak_rss_mb();
  out.setup_check(
      g->offsets() == gw->offsets() && g->targets() == gw->targets(),
      "the weighted copy has a different structure");

  const SourcePool pool = pick_sources(*g, opt.tiny ? 8 : 32, opt.seed);
  std::vector<std::optional<std::vector<float>>> dijkstra(pool.source.size());

  // Two BFS queries per SSSP query keeps each percentile inside one kind's
  // latency mode (p50 among BFS, p90 among SSSP) rather than on the boundary
  // between the two.
  LayerAcc acc;
  std::vector<double> all_ms, bfs_ms, sssp_ms;
  double bfs_edges = 0, sssp_edges = 0, bfs_s = 0, sssp_s = 0, measured = 0;
  for (int i = 0; measured < opt.seconds || i < plan.min_ops * 3; ++i) {
    const std::size_t p = static_cast<std::size_t>(i) % pool.source.size();
    const vid_t src = pool.source[p];
    const bool sssp = i % 3 == 2;
    if (sssp && !dijkstra[p]) dijkstra[p] = apps::classic_dijkstra(*gw, src);
    std::vector<core::RunResult> ranks(1);
    int lanes = 1;
    const auto b0 = Clock::now();
    TimePoint b1 = b0, r1 = b0;
    // Builds, runs and checks one query; the check runs after r1.
    auto query = [&](const graph::Csr& graph, auto prog, const auto& ref) {
      core::DeviceEngine<decltype(prog)> e(core::LocalGraph::whole(graph),
                                           prog, cfg);
      b1 = Clock::now();
      ranks[0] = e.run();
      r1 = Clock::now();
      lanes = e.lanes();
      return !ranks[0].failed && std::ranges::equal(e.values(), ref);
    };
    const bool ok = sssp ? query(*gw, apps::Sssp(src), *dijkstra[p])
                         : query(*g, apps::Bfs(src), pool.reach[p].level);
    const int span = tr.add(sssp ? "query.sssp" : "query.bfs", b0, r1, -1, i);
    tr.add("engine.build", b0, b1, span, i);
    tr.add_phases(ranks[0].phases, b1, tr.add("engine.run", b1, r1, span, i),
                  i);
    out.check(ok, std::string(sssp ? "SSSP" : "BFS") + " from vertex " +
                      std::to_string(src) + " differs from the reference");
    const double build = seconds_between(b0, b1);
    const double run = seconds_between(b1, r1);
    measured += build + run;
    all_ms.push_back((build + run) * 1e3);
    (sssp ? sssp_ms : bfs_ms).push_back((build + run) * 1e3);
    (sssp ? sssp_s : bfs_s) += build + run;
    (sssp ? sssp_edges : bfs_edges) += static_cast<double>(pool.reach[p].edges);
    acc.add(build, run, ranks, lanes);
  }

  put_end_to_end(rep, all_ms, setup_s, setup_rss);
  rep.put("teps", (bfs_edges + sssp_edges) / (bfs_s + sssp_s), "edges/s");
  rep.put("info.bfs_teps", bfs_edges / bfs_s, "edges/s");
  rep.put("info.sssp_teps", sssp_edges / sssp_s, "edges/s");
  rep.put("info.bfs_ms_p50", median(bfs_ms), "ms");
  rep.put("info.bfs_ms_p90", quantile(bfs_ms, 0.9), "ms");
  rep.put("info.sssp_ms_p50", median(sssp_ms), "ms");
  rep.put("info.sssp_ms_p90", quantile(sssp_ms, 0.9), "ms");
  rep.put("info.samples.bfs", static_cast<double>(bfs_ms.size()), "count");
  rep.put("info.samples.sssp", static_cast<double>(sssp_ms.size()), "count");
  rep.put("info.sources.accepted", static_cast<double>(pool.source.size()),
          "count");
  rep.put("info.sources.rejected", static_cast<double>(pool.rejected), "count");
  if (!tr.enabled()) return;
  put_graph(rep, load_s, *g, csr_mb(*g) + csr_mb(*gw));
  acc.emit(rep);
}

// ---- serve-mixed ----------------------------------------------------------------

/// One query as the generator submitted it.
struct Sent {
  std::shared_ptr<core::QueryTicket> ticket;
  std::size_t index = 0;
  core::QueryKind kind = core::QueryKind::kBfs;
  std::size_t slot = 0;   // source-pool slot
  TimePoint scheduled;
  TimePoint submitted;    // submit() returned
  bool sampled = false;   // candidate for the validation sample
};

/// One query's outcome, as the collector recorded it.
struct Done {
  core::QueryKind kind = core::QueryKind::kBfs;
  std::size_t slot = 0;
  double latency_ms = 0;    // scheduled send -> fulfilment
  double admission_ms = 0;  // scheduled send -> submit() returned
  int batch_lanes = 0;
  TimePoint completed;
  std::optional<core::QueryResult> result;  // the validation sample only
};

/// Waits on tickets in submission order off the generator's thread, so a
/// blocking get() never delays the next scheduled send. A result is kept
/// only if it is in the step's validation sample (at most `keep_max`);
/// every other result is released as soon as its latency is recorded.
/// Query spans go under the step's span `parent`.
class Collector {
 public:
  Collector(Tracer& tr, int parent, std::size_t keep_max)
      : tr_(tr),
        parent_(parent),
        keep_max_(keep_max),
        thread_([this] { loop(); }) {}
  ~Collector() { (void)finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(Sent s) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(s));
    }
    cv_.notify_one();
  }

  /// Waits for every pushed ticket; returns the outcomes in submission order.
  std::vector<Done> finish() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closing_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return std::move(done_);
  }

 private:
  void loop() {
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return closing_ || !queue_.empty(); });
        if (queue_.empty()) return;
        s = std::move(queue_.front());
        queue_.pop_front();
      }
      const core::QueryResult& r = s.ticket->get();
      Done d;
      d.kind = s.kind;
      d.slot = s.slot;
      d.admission_ms =
          std::chrono::duration<double, std::milli>(s.submitted - s.scheduled)
              .count();
      d.latency_ms = d.admission_ms + r.latency_ms;
      d.batch_lanes = r.batch_lanes;
      d.completed = after(s.submitted, r.latency_ms / 1e3);
      if (s.sampled && kept_ < keep_max_) {
        d.result = r;
        ++kept_;
      }
      s.ticket.reset();
      const auto req = static_cast<std::int64_t>(s.index);
      const int span =
          tr_.add(kind_span(s.kind), s.scheduled, d.completed, parent_, req);
      tr_.add("admission", s.scheduled, s.submitted, span, req);
      tr_.add("engine", s.submitted, d.completed, span, req);
      done_.push_back(std::move(d));
    }
  }

  static const char* kind_span(core::QueryKind k) {
    switch (k) {
      case core::QueryKind::kBfs: return "query.bfs";
      case core::QueryKind::kSssp: return "query.sssp";
      case core::QueryKind::kComponent: return "query.component";
      case core::QueryKind::kPpr: return "query.ppr";
    }
    return "query";
  }

  Tracer& tr_;
  const int parent_;
  const std::size_t keep_max_;
  std::size_t kept_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Sent> queue_;
  bool closing_ = false;
  std::vector<Done> done_;
  std::thread thread_;  // last: starts once the members it uses exist
};

// The serving traffic. No recorded query trace exists for this system, so the
// rate, the mix (see KindDeck) and the graph size are assumptions, not
// measurements of real use.
constexpr int kServeThreads = 3;
constexpr double kServeRateQps = 100;   // the open-loop step's offered rate
constexpr double kServeOpenShare = 0.9; // share of --seconds in that step
constexpr std::size_t kServeSources = 64;

/// Batch anatomy: times the DeviceEngine<Program> constructor and run() at
/// 1 and 64 lanes — the cost every serving batch pays, split into the part
/// that grows with lanes and the part that does not.
template <typename Program>
void batch_anatomy(const char* kind, const graph::Csr& g,
                   const SourcePool& pool, const core::EngineConfig& cfg,
                   LayerAcc& acc, Report& rep, Tracer& tr) {
  double cost[2] = {0, 0};
  for (int which = 0; which < 2; ++which) {
    const int lanes = which == 0 ? 1 : apps::kMaxQueryLanes;
    apps::SourceBatch batch;
    batch.count = lanes;
    for (int l = 0; l < lanes; ++l)
      batch.source[static_cast<std::size_t>(l)] =
          pool.source[static_cast<std::size_t>(l) % pool.source.size()];
    std::vector<core::RunResult> ranks(1);
    const auto b0 = Clock::now();
    core::DeviceEngine<Program> e(core::LocalGraph::whole(g), Program(batch),
                                  cfg);
    const auto b1 = Clock::now();
    ranks[0] = e.run();
    const auto r1 = Clock::now();
    const int span = tr.add("anatomy", b0, r1, -1, lanes);
    tr.add("engine.build", b0, b1, span, lanes);
    tr.add_phases(ranks[0].phases, b1,
                  tr.add("engine.run", b1, r1, span, lanes), lanes);
    const double build = seconds_between(b0, b1);
    const double run = seconds_between(b1, r1);
    acc.add(build, run, ranks, e.lanes());
    cost[which] = build + run;
    const std::string base = std::string("info.query.") + kind + ".lanes" +
                             std::to_string(lanes);
    rep.put(base + ".build_ms", build * 1e3, "ms");
    rep.put(base + ".run_ms", run * 1e3, "ms");
    if (which == 0)
      rep.put(std::string("query.anatomy.") + kind + ".build_share",
              ratio(build, build + run), "frac");
  }
  rep.put(std::string("query.anatomy.") + kind + ".lane64_cost_ratio",
          ratio(cost[1], cost[0]), "ratio");
}

/// The query mix, 55% BFS, 25% component, 15% SSSP and 5% PPR, dealt from
/// a seeded shuffle of a 20-query deck. Every 20 consecutive queries have
/// the exact mix, so the seed moves the order but not the composition: a
/// PPR batch costs as much as ~7 BFS batches, and a random composition
/// would swing the timings.
class KindDeck {
 public:
  explicit KindDeck(std::uint64_t seed) : rng_(seed) {}

  core::QueryKind next() {
    if (at_ == deck_.size()) {
      deck_.clear();
      deck_.insert(deck_.end(), 11, core::QueryKind::kBfs);
      deck_.insert(deck_.end(), 5, core::QueryKind::kComponent);
      deck_.insert(deck_.end(), 3, core::QueryKind::kSssp);
      deck_.insert(deck_.end(), 1, core::QueryKind::kPpr);
      for (std::size_t i = deck_.size(); i > 1; --i)
        std::swap(deck_[i - 1], deck_[rng_.below(i)]);
      at_ = 0;
    }
    return deck_[at_++];
  }

 private:
  Rng rng_;
  std::vector<core::QueryKind> deck_;
  std::size_t at_ = 0;
};

/// Open-loop serving through QueryEngine. A seeded Poisson step at a fixed
/// rate gives the latency percentiles, each query timed from its scheduled
/// send. At that rate the PPR queries and the queries queued behind a PPR
/// batch make up more than the slowest 10%, so p90 carries the PPR cost.
/// Then a back-to-back burst that keeps the admission queue full gives the
/// sustained throughput.
void serve_workload(const Options& opt, const GraphSpec& graph, Report& rep,
                    Outcome& out, Tracer& tr) {
  const Plan plan = plan_for(opt);
  const std::string path = graph_file(opt.graphs, graph, opt.seed);
  const core::EngineConfig cfg = engine_config(kServeThreads, 1000);
  const std::size_t burst_queries = opt.tiny ? 128 : 8192;
  const int ppr_steps = cfg.serve_ppr_supersteps;

  // Declared in this order so the QueryEngine, which points into the graph,
  // is destroyed first.
  std::optional<graph::Csr> g;
  std::unique_ptr<core::QueryEngine> qe;
  std::vector<double> setup_s, load_s;
  for (int k = 0; k < plan.setups; ++k) {
    qe.reset();
    g.reset();
    const auto s0 = Clock::now();
    g = graph::load_binary(path);
    const auto s1 = Clock::now();
    qe = std::make_unique<core::QueryEngine>(*g, cfg);
    const auto s2 = Clock::now();
    // Set-up ends when the server has answered its first query.
    const auto ticket = qe->submit({core::QueryKind::kBfs, 0});
    std::vector<std::int32_t> first;
    if (ticket) first = ticket->get().level;
    const auto s3 = Clock::now();
    const int span = tr.add("setup", s0, s3, -1, k);
    tr.add("graph.load", s0, s1, span, k);
    tr.add("query_engine.build", s1, s2, span, k);
    tr.add("warmup.query", s2, s3, span, k);
    load_s.push_back(seconds_between(s0, s1));
    setup_s.push_back(seconds_between(s0, s3));
    if (k + 1 == plan.setups)
      out.setup_check(ticket && first == apps::classic_bfs(*g, 0),
                      "warm-up query differs from classic_bfs");
  }
  const double setup_rss = peak_rss_mb();

  const SourcePool pool = pick_sources(*g, kServeSources, opt.seed);
  Rng rng(mix_seed(opt.seed, 0xA771));
  KindDeck deck(mix_seed(opt.seed, 0xDEC));
  auto draw = [&](Sent& s) {
    s.kind = deck.next();
    s.slot = rng.below(pool.source.size());
    s.sampled = rng.below(4) == 0;
  };

  // The validation sample: up to this many seeded results per step.
  constexpr std::size_t kSample = 256;
  auto submit = [&](Collector& col, Sent s) {
    auto ticket = qe->submit({s.kind, pool.source[s.slot]});
    s.submitted = Clock::now();
    if (!ticket) {
      out.check(false, "QueryEngine refused a query");
      return;
    }
    s.ticket = std::move(ticket);
    col.push(std::move(s));
  };

  // Step 1: open loop at a fixed offered rate, Poisson arrivals.
  std::vector<Sent> plan_open;
  std::vector<double> offset_s;
  const double open_s = opt.seconds * kServeOpenShare;
  for (double at = 0;;) {
    at += -std::log(1.0 - rng.uniform()) / kServeRateQps;
    if (at >= open_s) break;
    Sent s;
    s.index = plan_open.size();
    draw(s);
    plan_open.push_back(std::move(s));
    offset_s.push_back(at);
  }
  std::vector<Done> open_done;
  double late_max_ms = 0;
  std::size_t late_sends = 0;
  const auto open0 = Clock::now();
  const int open_span = tr.open("step.open", open0);
  {
    Collector col(tr, open_span, kSample);
    for (std::size_t i = 0; i < plan_open.size(); ++i) {
      Sent& s = plan_open[i];
      s.scheduled = after(open0, offset_s[i]);
      std::this_thread::sleep_until(s.scheduled);
      const double late =
          std::chrono::duration<double, std::milli>(Clock::now() - s.scheduled)
              .count();
      late_max_ms = std::max(late_max_ms, late);
      late_sends += late > 1.0 ? 1 : 0;
      submit(col, std::move(s));
    }
    open_done = col.finish();
  }
  tr.close(open_span, Clock::now());

  // Step 2: a fixed number of queries back to back; submit() blocks while
  // the admission queue is full.
  std::vector<Done> burst_done;
  const auto burst0 = Clock::now();
  const int burst_span = tr.open("step.burst", burst0);
  {
    Collector col(tr, burst_span, kSample);
    for (std::size_t i = 0; i < burst_queries; ++i) {
      Sent s;
      s.index = plan_open.size() + i;
      draw(s);
      s.scheduled = Clock::now();
      submit(col, std::move(s));
    }
    burst_done = col.finish();
  }
  TimePoint burst_end = burst0;
  for (const auto& d : burst_done) burst_end = std::max(burst_end, d.completed);
  const double burst_wall = seconds_between(burst0, burst_end);
  const auto stats = qe->stats();
  tr.close(burst_span, burst_end);

  // Validation, outside both timed steps. PPR references are 1-lane
  // sequential runs of the batch program itself.
  std::vector<std::optional<std::vector<float>>> dijkstra(pool.source.size());
  std::vector<std::optional<std::vector<float>>> ppr(pool.source.size());
  auto valid = [&](const Done& d) {
    const core::QueryResult& r = *d.result;
    const Reach& reach = pool.reach[d.slot];
    const vid_t src = pool.source[d.slot];
    if (r.source != src || r.kind != d.kind) return false;
    switch (d.kind) {
      case core::QueryKind::kBfs:
        return r.level == reach.level;
      case core::QueryKind::kComponent: {
        if (r.member.size() != reach.level.size()) return false;
        for (std::size_t v = 0; v < r.member.size(); ++v)
          if ((r.member[v] != 0) != (reach.level[v] >= 0)) return false;
        return true;
      }
      case core::QueryKind::kSssp:
        if (!dijkstra[d.slot])
          dijkstra[d.slot] = apps::classic_dijkstra(*g, src);
        return r.dist == *dijkstra[d.slot];
      case core::QueryKind::kPpr: {
        if (!ppr[d.slot]) {
          apps::SourceBatch one;
          one.count = 1;
          one.source[0] = src;
          const auto vals = apps::reference_run(*g, apps::MsPpr(one), ppr_steps);
          std::vector<float> lane0(vals.size());
          for (std::size_t v = 0; v < vals.size(); ++v)
            lane0[v] = vals[v].rank[0];
          ppr[d.slot] = std::move(lane0);
        }
        return all_near(r.rank, *ppr[d.slot]);
      }
    }
    return false;
  };
  std::size_t validated = 0;
  for (const auto* step : {&open_done, &burst_done})
    for (const Done& d : *step) {
      const bool checked = d.result.has_value();
      validated += checked ? 1 : 0;
      out.check(!checked || valid(d),
                std::string(core::query_kind_name(d.kind)) +
                    " query from vertex " +
                    std::to_string(pool.source[d.slot]) +
                    " differs from the reference");
    }

  std::vector<double> lat_ms, admission_ms, engine_ms;
  double admission_sum = 0, latency_sum = 0;
  for (const auto& d : open_done) {
    lat_ms.push_back(d.latency_ms);
    admission_ms.push_back(d.admission_ms);
    engine_ms.push_back(d.latency_ms - d.admission_ms);
    admission_sum += d.admission_ms;
    latency_sum += d.latency_ms;
  }
  double burst_edges = 0;
  for (const auto& d : burst_done)
    burst_edges += d.kind == core::QueryKind::kPpr
                       ? static_cast<double>(g->num_edges()) * ppr_steps
                       : static_cast<double>(pool.reach[d.slot].edges);

  put_end_to_end(rep, lat_ms, setup_s, setup_rss);
  rep.put("teps", burst_edges / burst_wall, "edges/s");
  rep.put("info.serve.rate_qps", kServeRateQps, "1/s");
  rep.put("info.serve.capacity_qps",
          static_cast<double>(burst_done.size()) / burst_wall, "1/s");
  rep.put("info.samples.burst", static_cast<double>(burst_done.size()),
          "count");
  rep.put("info.samples.validated", static_cast<double>(validated), "count");
  rep.put("info.sources.rejected", static_cast<double>(pool.rejected), "count");
  rep.put("info.query.admission_wait_ms_p95", quantile(admission_ms, 0.95),
          "ms");
  rep.put("info.query.engine_ms_p50", median(engine_ms), "ms");
  rep.put("info.query.generator_late_ms_max", late_max_ms, "ms");
  if (!tr.enabled()) return;

  put_graph(rep, load_s, *g, csr_mb(*g));
  rep.put("query.lanes_per_batch",
          ratio(static_cast<double>(stats.lanes),
                static_cast<double>(stats.batches)),
          "lanes");
  rep.put("query.batches", static_cast<double>(stats.batches), "count");
  rep.put("query.max_queue_depth", static_cast<double>(stats.max_queue_depth),
          "count");
  rep.put("query.edges_per_query",
          ratio(static_cast<double>(stats.edges_scanned),
                static_cast<double>(stats.jobs)),
          "count");
  rep.put("query.admission_frac", ratio(admission_sum, latency_sum), "frac");
  rep.put("query.late_send_frac",
          ratio(static_cast<double>(late_sends),
                static_cast<double>(open_done.size())),
          "frac");

  LayerAcc acc;
  const core::EngineConfig ppr_cfg = engine_config(kServeThreads, ppr_steps);
  batch_anatomy<apps::MsBfs>("bfs", *g, pool, cfg, acc, rep, tr);
  batch_anatomy<apps::MsSssp>("sssp", *g, pool, cfg, acc, rep, tr);
  batch_anatomy<apps::MsPpr>("ppr", *g, pool, ppr_cfg, acc, rep, tr);
  acc.emit(rep);
}

// ---- workloads ------------------------------------------------------------------

/// Input sizes. Full sizes assume a 4-core host; --tiny is the smoke run.
std::vector<GraphSpec> graphs_of(const std::string& w, bool tiny) {
  if (w == "pagerank-paper")
    return {tiny ? GraphSpec{"pokec", 20'000, 250'000, false}
                 : GraphSpec{"pokec", 1'600'000, 31'000'000, false}};
  if (w == "traverse-small") {
    const vid_t n = tiny ? 20'000 : 100'000;
    const eid_t m = tiny ? 250'000 : 1'800'000;
    return {{"pokec", n, m, false}, {"pokec", n, m, true}};
  }
  if (w == "cluster-pagerank")
    return {tiny ? GraphSpec{"dblp", 20'000, 125'000, false}
                 : GraphSpec{"dblp", 100'000, 900'000, false}};
  if (w == "serve-mixed")  // an assumed size, like the serving traffic
    return {tiny ? GraphSpec{"pokec-sym", 2'000, 10'000, true}
                 : GraphSpec{"pokec-sym", 5'000, 25'000, true}};
  die("unknown workload '" + w +
      "' (pagerank-paper|traverse-small|cluster-pagerank|serve-mixed)");
}

void run_workload(const Options& opt, Report& rep, Outcome& out, Tracer& tr) {
  const auto graphs = graphs_of(opt.workload, opt.tiny);
  const std::string& w = opt.workload;
  if (w == "pagerank-paper") {
    pagerank_workload(opt, {graphs[0], 5, 1, 4, 0}, rep, out, tr);
  } else if (w == "traverse-small") {
    traverse_workload(opt, graphs[0], graphs[1], rep, out, tr);
  } else if (w == "cluster-pagerank") {
    pagerank_workload(opt, {graphs[0], 15, 4, 1, opt.tiny ? 32 : 256}, rep,
                      out, tr);
  } else {
    serve_workload(opt, graphs[0], rep, out, tr);
  }
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    auto flag = [&](const char* name) {
      const std::string f = std::string(name) + "=";
      if (a.rfind(f, 0) != 0) return false;
      v = a.substr(f.size());
      return true;
    };
    char* end = nullptr;
    if (flag("--workload")) {
      o.workload = v;
    } else if (flag("--seed")) {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') die("--seed needs an integer");
    } else if (flag("--seconds")) {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0))
        die("--seconds needs a positive number");
    } else if (flag("--graphs")) {
      o.graphs = v;
    } else if (flag("--trace")) {
      o.trace = v;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--generate") {
      o.generate = true;
    } else {
      die("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) die("--workload=NAME is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto graphs = graphs_of(opt.workload, opt.tiny);
  if (opt.generate) {
    for (const auto& s : graphs) ensure_graph(opt.graphs, s, opt.seed);
    return 0;
  }
  // The full-size workloads are sized for 4 cores; on fewer the 4-thread
  // engines would oversubscribe and the timings would not mean anything.
  if (!opt.tiny && usable_cpus() < 4)
    die("needs at least 4 usable CPUs, found " + std::to_string(usable_cpus()));
  for (const auto& s : graphs)
    if (!std::filesystem::exists(graph_file(opt.graphs, s, opt.seed)))
      die("missing input " + graph_file(opt.graphs, s, opt.seed) +
          " (run with --generate first)");

  Tracer tr(!opt.trace.empty());
  Report rep;
  if (tr.enabled()) {
    // Layers a workload does not exercise keep these values: no partition
    // (one rank holds everything) and no serving.
    rep.put("partition.setup_frac", 0, "frac");
    rep.put("partition.cross_edge_frac", 0, "frac");
    rep.put("partition.load_imbalance", 1, "ratio");
    rep.put("query.lanes_per_batch", 0, "lanes");
    rep.put("query.batches", 0, "count");
    rep.put("query.max_queue_depth", 0, "count");
    rep.put("query.edges_per_query", 0, "count");
    rep.put("query.admission_frac", 0, "frac");
    rep.put("query.late_send_frac", 0, "frac");
    for (const char* kind : {"bfs", "sssp", "ppr"}) {
      const std::string base = std::string("query.anatomy.") + kind;
      rep.put(base + ".build_share", 0, "frac");
      rep.put(base + ".lane64_cost_ratio", 0, "ratio");
    }
  }
  Outcome out;
  const auto t0 = Clock::now();
  run_workload(opt, rep, out, tr);
  const double wall = seconds_between(t0, Clock::now());
  if (tr.enabled()) {
    const double spans = static_cast<double>(tr.size());
    rep.put("trace.spans", spans, "count");
    rep.put("trace.overhead_frac", spans * Tracer::seconds_per_span() / wall,
            "frac");
    tr.write(opt.trace, opt.workload, opt.seed);
  }
  rep.print(opt.workload, opt.seed, out.correct(), out.attempted, out.failed);
  return 0;
}
