// Fig. 5(c): Semi-Clustering on the DBLP-like community graph. Fat message
// type -> scalar CSB path; pipelining still wins on MIC via reduced
// contention.
#include "bench/common/fig5.hpp"
#include "src/apps/semiclustering.hpp"

int main() {
  using namespace phigraph;
  const auto scale = bench::get_scale();
  const auto g = bench::make_dblp(scale);
  bench::fig5_run("Fig 5(c)", "SemiClustering", g, apps::SemiClustering{},
                  scale.sc_iters, partition::RankWeights{2, 1},
                  /*mic_uses_pipe=*/true,
                  {.mic_pipe_vs_lock = "1.25x",
                   .mic_best_vs_omp = "1.17x (Pipe vs OMP)",
                   .hetero_vs_best = "1.29x over CPU Lock at ratio 2:1"},
                  // Cluster-list merge and extension scoring are heavyweight
                  // branchy scalar code (the paper: "more complex conditional
                  // instructions involved, which CPU is better at").
                  bench::AppCost{.combine_weight = 20,
                                 .update_weight = 25,
                                 .branchy = true});
  return 0;
}
