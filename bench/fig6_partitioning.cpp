// Fig. 6: impact of the graph partitioning method on CPU-MIC execution.
//
// Each application runs on a two-rank CPU-MIC cluster under continuous,
// round-robin, and hybrid partitioning at its best ratio from Fig. 5;
// execution time (slower device) and communication time are reported
// separately, plus the paper's
// headline speedups of hybrid over the other two and the cross-edge ratio
// (round-robin cut 2.27x more edges than hybrid for PageRank).
//
// A k-way extension compares all five schemes — the paper's trio plus the
// streaming vertex-cut partitioners HDRF and DBH (DESIGN.md §14) — at four
// ranks on the power-law graph: replication factor, load imbalance, static
// cross edges, and the cross-rank bytes a real 4-rank BFS actually ships
// under each owner map. The HDRF-vs-round-robin pair is emitted in the
// schema-gated "partition" bench-JSON object.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/common/harness.hpp"
#include "src/apps/bfs.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/semiclustering.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"
#include "src/graph/edge_stream.hpp"
#include "src/partition/stream_partition.hpp"

namespace {

using namespace phigraph;
using core::ExecMode;

struct SchemeResult {
  double exec = 0;
  double comm = 0;
  eid_t cross_edges = 0;
};

template <core::VertexProgram Program>
void run_app(const char* app, const graph::Csr& g, const Program& prog,
             int iters, const partition::RankWeights& ratio, bool mic_pipe,
             const bench::AppCost& cost, const char* paper_band,
             bench::JsonEmitter* json, bool emit_uncombined = false) {
  // The paper's direction: PageRank stays on the CSB push path these
  // exec/comm figures measure (a cluster would otherwise pull it).
  constexpr auto dir = bench::paper_direction<Program>();
  const auto cpu = bench::with_direction(
      with_cost(bench::cpu_setup(ExecMode::kLocking), cost), dir);
  const auto mic = bench::with_direction(
      with_cost(bench::mic_setup(mic_pipe ? ExecMode::kPipelining
                                          : ExecMode::kLocking),
                cost),
      dir);

  const auto bp = partition::blocked_min_cut(g, {.num_blocks = 256, .seed = 42});
  SchemeResult res[3];
  const char* names[3] = {"Continuous", "Round-robin", "Hybrid"};
  for (int i = 0; i < 3; ++i) {
    std::vector<int> owner =
        i == 0   ? partition::continuous_partition_k(g, ratio)
        : i == 1 ? partition::round_robin_partition_k(g, ratio)
                 : partition::hybrid_partition_k(bp, ratio);
    res[i].cross_edges =
        partition::evaluate_partition_k(g, owner, 2).cross_edges;
    const auto run =
        bench::run_cluster(g, prog, std::move(owner), {cpu, mic}, iters);
    res[i].exec = run.modeled.execution_seconds;
    res[i].comm = run.modeled.comm_seconds;
    if (json) {
      json->add_version(std::string(app) + "/" + names[i], res[i].exec,
                        res[i].comm, run.ranks[0].trace, run.ranks[0].phases);
      if (i == 2 && emit_uncombined) {
        // The combiner lever: same hybrid partition, sender-side combining
        // off. Workload counters stay identical; only the wire bytes grow.
        auto cpu_raw = cpu;
        auto mic_raw = mic;
        cpu_raw.engine.combine_remote = mic_raw.engine.combine_remote = false;
        const auto raw = bench::run_cluster(
            g, prog, partition::hybrid_partition_k(bp, ratio),
            {cpu_raw, mic_raw}, iters);
        json->add_version(std::string(app) + "/Hybrid-uncombined",
                          raw.modeled.execution_seconds,
                          raw.modeled.comm_seconds, raw.ranks[0].trace,
                          raw.ranks[0].phases);
        json->set_ranks({run.ranks[0].io, run.ranks[1].io});
        json->set_failover(run.failover);
      }
    }
  }

  std::printf("\n-- %s (ratio %d:%d) --\n", app, ratio[0], ratio[1]);
  std::printf("   %-12s %10s %10s %12s\n", "scheme", "exec (s)", "comm (s)",
              "cross edges");
  for (int i = 0; i < 3; ++i)
    std::printf("   %-12s %10.4f %10.4f %12llu\n", names[i], res[i].exec,
                res[i].comm,
                static_cast<unsigned long long>(res[i].cross_edges));
  const auto total = [&](int i) { return res[i].exec + res[i].comm; };
  std::printf("   -> hybrid speedup: %.2fx vs continuous, %.2fx vs "
              "round-robin; RR/hybrid cross edges %.2fx\n",
              total(0) / total(2), total(1) / total(2),
              static_cast<double>(res[1].cross_edges) /
                  static_cast<double>(res[2].cross_edges));
  std::printf("   paper: %s\n", paper_band);
}

// ---- k-way streaming vertex-cut comparison (DESIGN.md §14) -----------------

struct KwayRow {
  const char* name;
  partition::KwayStats stats;
  double rf = 0;            // replication factor (native VertexCut for hdrf/dbh)
  double imbalance = 0;     // load imbalance (native VertexCut for hdrf/dbh)
  std::uint64_t bytes = 0;  // cross-rank bytes of a real 4-rank BFS
};

/// Runs BFS on a 4-rank ClusterEngine under the given owner map and returns
/// the total cross-rank exchange bytes (sum of every rank's bytes_to).
std::uint64_t measure_cluster_bytes(const graph::Csr& g, std::vector<int> owner,
                                    int nranks) {
  std::vector<core::EngineConfig> cfgs(static_cast<std::size_t>(nranks));
  for (auto& c : cfgs) {
    c.mode = ExecMode::kLocking;
    c.threads = 2;
    c.max_supersteps = 1000;
  }
  core::ClusterEngine<apps::Bfs> ce(g, std::move(owner),
                                    apps::Bfs{g.num_vertices() / 16}, cfgs);
  const auto res = ce.run();
  std::uint64_t bytes = 0;
  for (const auto& r : res.ranks)
    for (std::uint64_t b : r.io.bytes_to) bytes += b;
  return bytes;
}

void run_kway_comparison(const graph::Csr& g, bench::JsonEmitter* json) {
  constexpr int k = 4;
  const partition::RankWeights w(static_cast<std::size_t>(k), 1);

  std::vector<KwayRow> rows;
  const auto add = [&](const char* name, std::vector<int> owner, double rf,
                       double imbalance) {
    KwayRow row{name, partition::evaluate_partition_k(g, owner, k)};
    row.rf = rf > 0 ? rf : row.stats.replication_factor;
    row.imbalance = imbalance > 0 ? imbalance : row.stats.load_imbalance;
    row.bytes = measure_cluster_bytes(g, std::move(owner), k);
    rows.push_back(std::move(row));
  };
  add("continuous", partition::continuous_partition_k(g, w), 0, 0);
  add("round-robin", partition::round_robin_partition_k(g, w), 0, 0);
  add("hybrid",
      partition::hybrid_partition_k(g, w, {.num_blocks = 256, .seed = 42}), 0,
      0);
  graph::CsrEdgeStream hdrf_stream(g);
  const auto hdrf_cut = partition::Hdrf::partition(hdrf_stream, w);
  add("hdrf", hdrf_cut.master, hdrf_cut.replication_factor(),
      hdrf_cut.load_imbalance());
  graph::CsrEdgeStream dbh_stream(g);
  const auto dbh_cut = partition::Dbh::partition(dbh_stream, w);
  add("dbh", dbh_cut.master, dbh_cut.replication_factor(),
      dbh_cut.load_imbalance());

  std::printf("\n-- k-way vertex-cut comparison (BFS, %d ranks) --\n", k);
  std::printf("   %-12s %8s %10s %12s %14s\n", "scheme", "repl", "imbalance",
              "cross edges", "cut bytes");
  for (const auto& r : rows)
    std::printf("   %-12s %8.3f %10.3f %12llu %14llu\n", r.name, r.rf,
                r.imbalance,
                static_cast<unsigned long long>(r.stats.cross_edges),
                static_cast<unsigned long long>(r.bytes));
  const auto& rr = rows[1];
  const auto& hdrf = rows[3];
  std::printf("   -> hdrf vs round-robin: %.2fx replication, %.2fx cut "
              "bytes\n",
              hdrf.rf / rr.rf,
              static_cast<double>(hdrf.bytes) /
                  static_cast<double>(rr.bytes ? rr.bytes : 1));

  if (json)
    json->set_partition({.ranks = k,
                         .replication_factor = hdrf.rf,
                         .load_imbalance = hdrf.imbalance,
                         .cut_bytes = hdrf.bytes,
                         .round_robin_replication_factor = rr.rf,
                         .round_robin_cut_bytes = rr.bytes});
}

}  // namespace

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  std::printf("== Fig 6: Impact of Graph Partitioning Methods (scale: %s) ==\n",
              scale.name.c_str());

  // One JSON file for the whole figure; versions are named "<App>/<Scheme>".
  // The header graph is the pokec stand-in (the figure's headline dataset).
  std::unique_ptr<bench::JsonEmitter> json;
  {
    const auto g = bench::make_pokec(scale, false);
    json = std::make_unique<bench::JsonEmitter>("Fig 6", "partitioning", g,
                                                scale);
    run_app("PageRank", g, apps::PageRank{}, scale.pagerank_iters, {3, 5},
            true, {}, "1.72x / 1.13x; RR cut 2.27x hybrid's", json.get(),
            /*emit_uncombined=*/true);
    run_app("BFS", g, apps::Bfs{g.num_vertices() / 16}, 1000, {4, 3}, false,
            {}, "1.31x / 1.09x", json.get());
    run_kway_comparison(g, json.get());
  }
  {
    const auto g = bench::make_pokec(scale, true);
    run_app("SSSP", g, apps::Sssp{g.num_vertices() / 16}, 1000, {1, 1}, true,
            {}, "1.50x / 1.10x", json.get());
  }
  {
    const auto g = bench::make_dblp(scale);
    run_app("SemiClustering", g, apps::SemiClustering{}, scale.sc_iters,
            {2, 1}, true,
            bench::AppCost{.combine_weight = 20, .update_weight = 25,
                           .branchy = true},
            "1.17x / 1.36x", json.get());
  }
  {
    const auto g = bench::make_dag(scale);
    run_app("TopoSort", g, apps::TopoSort{}, 10000, {1, 4}, true, {},
            "continuous much slower; RR ~= hybrid (no id locality in a "
            "random DAG)", json.get());
  }
  json.reset();
  std::printf("\n");
  return 0;
}
