// Fig. 5(e): Topological sorting on the dense random DAG — the paper's
// extreme contention case ("a large number of messages are sent to a single
// vertex"), where pipelining shines and OpenMP locking collapses.
#include "bench/common/fig5.hpp"
#include "src/apps/toposort.hpp"

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  const auto g = bench::make_dag(scale);
  bench::fig5_run("Fig 5(e)", "TopoSort", g, apps::TopoSort{}, /*iters=*/10000,
                  partition::RankWeights{1, 4},
                  /*mic_uses_pipe=*/true,
                  {.mic_pipe_vs_lock = "3.36x",
                   .mic_best_vs_omp = "4.15x (Pipe vs OMP)",
                   .hetero_vs_best = "1.20x over MIC at ratio 1:4"});
  return 0;
}
