// Fig. 5(a): PageRank on the Pokec-like graph — seven execution versions.
#include "bench/common/fig5.hpp"
#include "src/apps/pagerank.hpp"

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  const auto g = bench::make_pokec(scale, /*weighted=*/false);
  bench::fig5_run("Fig 5(a)", "PageRank", g, apps::PageRank{},
                  scale.pagerank_iters, partition::RankWeights{3, 5},
                  /*mic_uses_pipe=*/true,
                  {.mic_pipe_vs_lock = "2.33x",
                   .mic_best_vs_omp = "1.85x (Pipe vs OMP)",
                   .hetero_vs_best = "1.30x at ratio 3:5"});
  return 0;
}
