// Fig. 5(d): SSSP (the paper's running example) on the weighted Pokec-like
// graph.
#include "bench/common/fig5.hpp"
#include "src/apps/sssp.hpp"

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  const auto g = bench::make_pokec(scale, /*weighted=*/true);
  bench::fig5_run("Fig 5(d)", "SSSP", g, apps::Sssp{g.num_vertices() / 16},
                  /*iters=*/1000,
                  partition::RankWeights{1, 1},
                  /*mic_uses_pipe=*/true,
                  {.mic_pipe_vs_lock = "1.08x (Pipe 1.20x vs OMP, Lock 1.11x)",
                   .mic_best_vs_omp = "1.20x (Pipe vs OMP)",
                   .hetero_vs_best = "1.41x at ratio 1:1"});
  return 0;
}
