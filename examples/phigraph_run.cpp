// phigraph_run — the "driver code" of the paper's Fig. 2 as a CLI tool:
// load (or generate) a graph, load (or compute) a partitioning file, pick an
// application and execution scheme, run, and dump per-vertex results.
//
//   phigraph_run --app=sssp --graph=web.adj --source=0 --mode=pipe
//   phigraph_run --app=pagerank --gen=pokec:100000:1800000 --hetero
//                --ratio=3:5 --partition-out=web.part --out=ranks.txt
//   printf 'bfs 0\nsssp 17\ncc 42\n' | phigraph_run --serve --gen=pokec:20000:250000
//
// Flags:
//   --app=pagerank|bfs|sssp|sc|cc|toposort   (required unless --serve)
//   --serve              serving mode: read one query per line from stdin
//                        ("bfs V", "sssp V", "cc V", "ppr V"), batch them
//                        through the QueryEngine admission queue (up to 64
//                        compatible queries share one bit-parallel run), and
//                        print each answer in submission order
//   --batch-max=K        serve: max queries fused into one batch (1-64)
//   --batch-wait-ms=W    serve: how long a batch waits for co-riders
//   --queue-cap=C        serve: admission-queue bound (submit blocks beyond)
//   --graph=FILE         adjacency-list (.adj), binary (.pgb) or edge list
//   --gen=KIND:N:M       pokec | dblp | dag | er  (instead of --graph)
//   --source=V           BFS/SSSP source (default 0)
//   --iters=K            superstep cap (default: app-dependent)
//   --mode=omp|lock|pipe execution scheme (default lock)
//   --threads=T          worker threads (default 4); --movers=M (default 2)
//   --simd=cpu|mic       lane profile: SSE 4-wide or 512-bit 16-wide
//   --frontier=F         sparse-iteration threshold in [0,1]: push supersteps
//                        whose frontier is below F*n walk the active list
//                        instead of scanning the bitmap (0 forces the dense
//                        scan, 1 forces the list; default 0.05)
//   --direction=D        traversal direction: auto (alpha/beta rule, the
//                        default), push (always top-down), pull (bottom-up
//                        whenever the program and topology allow it)
//   --hetero             run CPU+MIC as a two-rank cluster (rank 0 = CPU,
//                        rank 1 = MIC) with hybrid partitioning
//   --ratio=A:B          CPU:MIC workload ratio (default 1:1)
//   --scheme=S           partition scheme for --hetero: continuous | rr |
//                        hybrid (default) | hdrf | dbh — the last two are
//                        the streaming vertex-cut partitioners (owner map =
//                        their master assignment)
//   --partition=FILE     use an existing partitioning file (vertex count,
//                        then one rank, 0 or 1, per vertex)
//   --partition-out=FILE save the computed partitioning
//   --out=FILE           write per-vertex results
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/apps/bfs.hpp"
#include "src/apps/connected_components.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/semiclustering.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/core/query_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/graph/io.hpp"
#include "src/partition/partition.hpp"
#include "src/partition/stream_partition.hpp"

namespace {

using namespace phigraph;

struct Options {
  std::string app;
  std::string graph_path;
  std::string gen_spec;
  std::string out_path;
  std::string partition_path;
  std::string partition_out;
  vid_t source = 0;
  int iters = 0;
  core::ExecMode mode = core::ExecMode::kLocking;
  int threads = 4;
  int movers = 2;
  int simd_bytes = simd::kMicSimdBytes;
  double frontier = core::EngineConfig{}.sparse_iteration_threshold;
  core::DirectionMode direction = core::DirectionMode::kAuto;
  bool hetero = false;
  partition::RankWeights ratio{1, 1};  // CPU:MIC
  partition::Scheme scheme = partition::Scheme::kHybrid;
  bool serve = false;
  int batch_max = core::EngineConfig{}.serve_batch_max;
  int batch_wait_ms = core::EngineConfig{}.serve_batch_wait_ms;
  int queue_cap = static_cast<int>(core::EngineConfig{}.serve_queue_capacity);
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "phigraph_run: %s\n(see header comment for flags)\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = val("--app")) o.app = *v;
    else if (auto v2 = val("--graph")) o.graph_path = *v2;
    else if (auto v3 = val("--gen")) o.gen_spec = *v3;
    else if (auto v4 = val("--source")) o.source = static_cast<vid_t>(std::stoul(*v4));
    else if (auto v5 = val("--iters")) o.iters = std::stoi(*v5);
    else if (auto v6 = val("--mode")) {
      if (*v6 == "omp") o.mode = core::ExecMode::kOmpStyle;
      else if (*v6 == "lock") o.mode = core::ExecMode::kLocking;
      else if (*v6 == "pipe") o.mode = core::ExecMode::kPipelining;
      else usage("bad --mode");
    } else if (auto v7 = val("--threads")) o.threads = std::stoi(*v7);
    else if (auto v8 = val("--movers")) o.movers = std::stoi(*v8);
    else if (auto v9 = val("--simd")) {
      o.simd_bytes = (*v9 == "cpu") ? simd::kCpuSimdBytes : simd::kMicSimdBytes;
    } else if (auto vf = val("--frontier")) {
      o.frontier = std::stod(*vf);
      if (o.frontier < 0.0 || o.frontier > 1.0)
        usage("bad --frontier, expected a density in [0,1]");
    } else if (auto vd = val("--direction")) {
      if (*vd == "auto") o.direction = core::DirectionMode::kAuto;
      else if (*vd == "push") o.direction = core::DirectionMode::kForcePush;
      else if (*vd == "pull") o.direction = core::DirectionMode::kForcePull;
      else usage("bad --direction (auto|push|pull)");
    } else if (arg == "--serve") o.serve = true;
    else if (auto vb = val("--batch-max")) o.batch_max = std::stoi(*vb);
    else if (auto vw = val("--batch-wait-ms")) o.batch_wait_ms = std::stoi(*vw);
    else if (auto vq = val("--queue-cap")) o.queue_cap = std::stoi(*vq);
    else if (arg == "--hetero") o.hetero = true;
    else if (auto v10 = val("--ratio")) {
      if (std::sscanf(v10->c_str(), "%d:%d", &o.ratio[0], &o.ratio[1]) != 2)
        usage("bad --ratio, expected A:B");
    } else if (auto vs = val("--scheme")) {
      if (*vs == "continuous") o.scheme = partition::Scheme::kContinuous;
      else if (*vs == "rr") o.scheme = partition::Scheme::kRoundRobin;
      else if (*vs == "hybrid") o.scheme = partition::Scheme::kHybrid;
      else if (*vs == "hdrf") o.scheme = partition::Scheme::kHdrf;
      else if (*vs == "dbh") o.scheme = partition::Scheme::kDbh;
      else usage("bad --scheme (continuous|rr|hybrid|hdrf|dbh)");
    } else if (auto v11 = val("--partition")) o.partition_path = *v11;
    else if (auto v12 = val("--partition-out")) o.partition_out = *v12;
    else if (auto v13 = val("--out")) o.out_path = *v13;
    else usage(("unknown flag: " + arg).c_str());
  }
  if (o.app.empty() && !o.serve) usage("--app is required");
  if (!o.app.empty() && o.serve) usage("--serve takes queries, not --app");
  if (o.graph_path.empty() && o.gen_spec.empty())
    usage("one of --graph or --gen is required");
  return o;
}

graph::Csr load_graph(const Options& o, bool needs_weights) {
  graph::Csr g;
  if (!o.gen_spec.empty()) {
    char kind[16];
    unsigned long long n = 0, m = 0;
    if (std::sscanf(o.gen_spec.c_str(), "%15[^:]:%llu:%llu", kind, &n, &m) != 3)
      usage("bad --gen, expected KIND:N:M");
    const std::string k = kind;
    if (k == "pokec") g = gen::pokec_like(static_cast<vid_t>(n), m, 1);
    else if (k == "dblp") g = gen::dblp_like(static_cast<vid_t>(n), m, 1);
    else if (k == "dag") g = gen::dag_like(static_cast<vid_t>(n), m, 1);
    else if (k == "er") g = gen::erdos_renyi(static_cast<vid_t>(n), m, 1);
    else usage("bad --gen kind (pokec|dblp|dag|er)");
  } else if (o.graph_path.size() > 4 &&
             o.graph_path.substr(o.graph_path.size() - 4) == ".pgb") {
    g = graph::load_binary(o.graph_path);
  } else if (o.graph_path.size() > 4 &&
             o.graph_path.substr(o.graph_path.size() - 4) == ".adj") {
    g = graph::load_adjacency_list(o.graph_path);
  } else {
    g = graph::load_edge_list(o.graph_path);
  }
  if (needs_weights && !g.has_edge_values()) {
    std::fprintf(stderr, "graph is unweighted; generating random weights\n");
    gen::add_random_weights(g, 7);
  }
  return g;
}

core::EngineConfig make_cfg(const Options& o, int default_iters) {
  core::EngineConfig cfg;
  cfg.mode = o.mode;
  cfg.threads = o.threads;
  cfg.movers = o.movers;
  cfg.simd_bytes = o.simd_bytes;
  cfg.max_supersteps = o.iters > 0 ? o.iters : default_iters;
  cfg.sparse_iteration_threshold = o.frontier;
  cfg.direction_mode = o.direction;
  return cfg;
}

template <typename Program, typename Format>
int run_app(const Options& o, const graph::Csr& g, const Program& prog,
            int default_iters, Format&& format) {
  // One device unless --hetero; then all five schemes flow through the
  // k-way dispatcher with k = 2: rank 0 is the CPU, rank 1 the MIC,
  // weighted by --ratio.
  std::vector<int> owner(g.num_vertices(), 0);
  std::vector<core::EngineConfig> cfgs{make_cfg(o, default_iters)};
  if (o.hetero) {
    owner = o.partition_path.empty()
                ? partition::make_partition_k(o.scheme, g, o.ratio)
                : partition::load_partition(o.partition_path,
                                            g.num_vertices(), 2);
    if (!o.partition_out.empty())
      partition::save_partition(owner, o.partition_out);
    cfgs.push_back(cfgs[0]);
    cfgs[0].simd_bytes = simd::kCpuSimdBytes;
    cfgs[1].simd_bytes = simd::kMicSimdBytes;
  }
  core::ClusterEngine<Program> engine(g, std::move(owner), prog,
                                      std::move(cfgs));
  const auto res = engine.run();
  if (!res.completed) {
    std::fprintf(stderr, "phigraph_run: run failed: %s\n",
                 res.fault.to_string().c_str());
    return 1;
  }
  const auto& values = res.global_values;
  const int supersteps = res.ranks[0].supersteps;
  const auto totals = metrics::totals(res.ranks[0].trace);
  std::printf(
      "ran %s on %u vertices / %llu edges: %d supersteps "
      "(%llu sparse, %llu dense, %llu pull; %llu direction flips)\n",
      o.app.c_str(), g.num_vertices(),
      static_cast<unsigned long long>(g.num_edges()), supersteps,
      static_cast<unsigned long long>(totals.sparse_supersteps),
      static_cast<unsigned long long>(totals.dense_supersteps),
      static_cast<unsigned long long>(totals.pull_supersteps),
      static_cast<unsigned long long>(totals.direction_flips));
  if (!o.out_path.empty()) {
    std::ofstream out(o.out_path);
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      out << v << ' ' << format(values[v]) << '\n';
    std::printf("wrote %s\n", o.out_path.c_str());
  }
  return 0;
}

// Serving mode: one query per stdin line, answers printed in submission
// order. Compatible queries that arrive within the batch window share one
// bit-parallel run, so piping many sources is much cheaper than running
// phigraph_run once per source.
int run_serve(const Options& o, const graph::Csr& g) {
  core::EngineConfig cfg = make_cfg(o, 10'000);
  cfg.serve_queue_capacity = static_cast<std::size_t>(o.queue_cap);
  cfg.serve_batch_max = o.batch_max;
  cfg.serve_batch_wait_ms = o.batch_wait_ms;
  core::QueryEngine qe(g, cfg);

  std::vector<std::shared_ptr<core::QueryTicket>> tickets;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    char kindbuf[8];
    unsigned long long v = 0;
    if (std::sscanf(line.c_str(), "%7s %llu", kindbuf, &v) != 2)
      usage(("bad query line: " + line).c_str());
    const std::string k = kindbuf;
    core::QueryKind kind;
    if (k == "bfs") kind = core::QueryKind::kBfs;
    else if (k == "sssp") kind = core::QueryKind::kSssp;
    else if (k == "cc") kind = core::QueryKind::kComponent;
    else if (k == "ppr") kind = core::QueryKind::kPpr;
    else usage(("bad query kind (bfs|sssp|cc|ppr): " + k).c_str());
    if (v >= g.num_vertices())
      usage(("query source out of range: " + line).c_str());
    tickets.push_back(qe.submit({kind, static_cast<vid_t>(v)}));
  }

  for (const auto& t : tickets) {
    const auto r = t->get();
    switch (r.kind) {
      case core::QueryKind::kBfs: {
        std::uint64_t reached = 0;
        std::int32_t ecc = 0;
        for (auto lv : r.level)
          if (lv >= 0) { ++reached; ecc = std::max(ecc, lv); }
        std::printf("bfs %u: reached %llu vertices, eccentricity %d", r.source,
                    static_cast<unsigned long long>(reached), ecc);
        break;
      }
      case core::QueryKind::kSssp: {
        std::uint64_t reached = 0;
        for (auto d : r.dist)
          if (d < apps::MsSssp::kInfinity) ++reached;
        std::printf("sssp %u: reached %llu vertices", r.source,
                    static_cast<unsigned long long>(reached));
        break;
      }
      case core::QueryKind::kComponent: {
        std::uint64_t size = 0;
        for (auto m : r.member) size += m;
        std::printf("cc %u: component size %llu", r.source,
                    static_cast<unsigned long long>(size));
        break;
      }
      case core::QueryKind::kPpr:
        std::printf("ppr %u: rank(source) %.6f", r.source,
                    static_cast<double>(r.rank[r.source]));
        break;
    }
    std::printf("  [%d-lane batch, %d supersteps, %.2f ms]\n", r.batch_lanes,
                r.supersteps, r.latency_ms);
  }

  qe.shutdown();
  const auto stats = qe.stats();
  std::printf(
      "served %llu queries in %llu shared runs (p50 %.2f ms, p99 %.2f ms, "
      "max queue depth %llu)\n",
      static_cast<unsigned long long>(stats.jobs),
      static_cast<unsigned long long>(stats.batches),
      static_cast<double>(stats.latency_us.quantile_bound(0.5)) / 1000.0,
      static_cast<double>(stats.latency_us.quantile_bound(0.99)) / 1000.0,
      static_cast<unsigned long long>(stats.max_queue_depth));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception&) {
    usage("bad numeric flag value");
  }

  if (o.serve) {
    // Weights up front: a "sssp V" line may arrive at any point and the
    // engine refuses SSSP jobs on an unweighted graph.
    const auto g = load_graph(o, true);
    return run_serve(o, g);
  }
  if (o.app == "pagerank") {
    const auto g = load_graph(o, false);
    return run_app(o, g, apps::PageRank{}, 20,
                   [](float v) { return std::to_string(v); });
  }
  if (o.app == "bfs") {
    const auto g = load_graph(o, false);
    return run_app(o, g, apps::Bfs{o.source}, 10'000,
                   [](std::int32_t v) { return std::to_string(v); });
  }
  if (o.app == "sssp") {
    const auto g = load_graph(o, true);
    return run_app(o, g, apps::Sssp{o.source}, 10'000, [](float v) {
      return v == apps::Sssp::kInfinity ? std::string("inf")
                                        : std::to_string(v);
    });
  }
  if (o.app == "sc") {
    const auto g = load_graph(o, true);
    return run_app(o, g, apps::SemiClustering{}, 8,
                   [](const apps::ClusterList& l) {
                     std::string s;
                     if (l.count > 0) {
                       const auto& c = l.clusters[0];
                       for (std::uint32_t i = 0; i < c.size; ++i)
                         s += (i ? "," : "") + std::to_string(c.members[i]);
                     }
                     return s;
                   });
  }
  if (o.app == "cc") {
    const auto g = load_graph(o, false);
    return run_app(o, g, apps::ConnectedComponents{}, 10'000,
                   [](std::int32_t v) { return std::to_string(v); });
  }
  if (o.app == "toposort") {
    const auto g = load_graph(o, false);
    return run_app(o, g, apps::TopoSort{}, 100'000,
                   [](const apps::TopoValue& v) { return std::to_string(v.order); });
  }
  usage("unknown --app (pagerank|bfs|sssp|sc|cc|toposort)");
}
