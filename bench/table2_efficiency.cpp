// Table II: parallel efficiency obtained from the framework.
//
// Per application: modeled sequential times on each device (clean C/C++
// loops, one core), the framework's CPU multi-core and MIC many-core
// executions, and the best CPU-MIC run; speedups match the paper's rows
// (CPU multicore 3.6–7.6x over CPU seq; MIC manycore 32–129x over MIC seq;
// CPU-MIC 6.7–15.3x over CPU seq; MIC seq ~11x slower than CPU seq).
#include <algorithm>
#include <cstdio>

#include "bench/common/harness.hpp"
#include "src/apps/bfs.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/semiclustering.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/toposort.hpp"

namespace {

using namespace phigraph;
using core::ExecMode;

template <core::VertexProgram Program>
void run_app(const char* app, const graph::Csr& g, const Program& prog,
             int iters, const partition::RankWeights& ratio, bool mic_pipe,
             const bench::AppCost& cost, const char* paper_row) {
  auto paper = [&](bench::DeviceSetup s) {
    return bench::with_direction(with_cost(s, cost),
                                 bench::paper_direction<Program>());
  };
  const auto cpu_lock = paper(bench::cpu_setup(ExecMode::kLocking));
  const auto mic_lock = paper(bench::mic_setup(ExecMode::kLocking));
  const auto mic_pipe_s = paper(bench::mic_setup(ExecMode::kPipelining));

  const auto cpu_run = bench::run_device(g, prog, cpu_lock, iters);
  const auto mic_run_lock = bench::run_device(g, prog, mic_lock, iters);
  const auto mic_run_pipe = bench::run_device(g, prog, mic_pipe_s, iters);

  // Sequential baselines share the locking run's structural counters.
  auto seq_prof = [&](bench::DeviceSetup s) {
    s.profile.threads = 1;
    s.profile.msg_bytes = sizeof(typename Program::message_t);
    s.profile.value_bytes = sizeof(typename Program::vertex_value_t);
    s.profile.num_vertices = g.num_vertices();
    return s.profile;
  };
  const double cpu_seq =
      sim::model_sequential(cpu_run.trace, cpu_lock.spec, seq_prof(cpu_lock));
  const double mic_seq = sim::model_sequential(mic_run_lock.trace,
                                               mic_lock.spec, seq_prof(mic_lock));

  const double cpu_multi = cpu_run.modeled.execution();
  const double mic_many = std::min(mic_run_lock.modeled.execution(),
                                   mic_run_pipe.modeled.execution());

  const auto hetero = bench::run_cluster(
      g, prog,
      partition::hybrid_partition_k(g, ratio, {.num_blocks = 256, .seed = 42}),
      {cpu_lock, mic_pipe ? mic_pipe_s : mic_lock}, iters);
  const double hetero_total = hetero.modeled.total();

  std::printf("\n-- %s --\n", app);
  std::printf("   CPU Seq          %9.3f s\n", cpu_seq);
  std::printf("   MIC Seq          %9.3f s   (%.1fx CPU Seq; paper ~8-16x)\n",
              mic_seq, mic_seq / cpu_seq);
  std::printf("   CPU Multi-core   %9.3f s   (%.1fx over CPU Seq)\n",
              cpu_multi, cpu_seq / cpu_multi);
  std::printf("   MIC Many-core    %9.3f s   (%.1fx over MIC Seq)\n", mic_many,
              mic_seq / mic_many);
  std::printf("   CPU-MIC Best     %9.3f s   (%.1fx over CPU Seq)\n",
              hetero_total, cpu_seq / hetero_total);
  std::printf("   paper row: %s\n", paper_row);
}

}  // namespace

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  std::printf(
      "== Table II: Parallel Efficiency Obtained from the Framework "
      "(scale: %s) ==\n",
      scale.name.c_str());

  {
    const auto g = bench::make_pokec(scale, false);
    run_app("PageRank", g, apps::PageRank{}, scale.pagerank_iters, {3, 5},
            true,
            {}, "CPU 18.01s/5.01s (3.6x), MIC 181s/2.92s (62x), CPU-MIC 2.25s (8x)");
    run_app("BFS", g, apps::Bfs{g.num_vertices() / 16}, 1000, {4, 3}, false,
            {}, "CPU 1.46s/0.29s (5x), MIC 12.19s/0.38s (32x), CPU-MIC 0.22s (6.7x)");
  }
  {
    const auto g = bench::make_pokec(scale, true);
    run_app("SSSP", g, apps::Sssp{g.num_vertices() / 16}, 1000, {1, 1}, true,
            {}, "CPU 2.62s/0.52s (5x), MIC 24.07s/0.49s (49x), CPU-MIC 0.34s (7.7x)");
  }
  {
    const auto g = bench::make_dblp(scale);
    run_app("SemiClustering", g, apps::SemiClustering{}, scale.sc_iters,
            {2, 1}, true,
            bench::AppCost{.combine_weight = 20, .update_weight = 25,
                           .branchy = true},
            "CPU 8.29s/1.09s (7.6x), MIC 134s/2.56s (52x), CPU-MIC 0.81s (10.2x)");
  }
  {
    const auto g = bench::make_dag(scale);
    run_app("TopoSort", g, apps::TopoSort{}, 10000, {1, 4}, true, {},
            "CPU 8.42s/2.20s (3.8x), MIC 85.2s/0.66s (129x), CPU-MIC 0.55s (15.3x)");
  }
  std::printf("\n");
  return 0;
}
